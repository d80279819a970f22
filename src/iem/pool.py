"""Cumulative example pool with per-example error and selection bookkeeping.

Each record tracks the composite error term E, the selection count C and a
dropped flag. Once a record's C exceeds the dropping number it is marked an
outlier: its E is zeroed and it is excluded from every later selection and
refresh (exclusion is permanent).

SGD and scoring read each example in one form, kept by the pool: its
decoded uint8 raster and its mask's component labels, whose nonzero
pixels are the mask. A mask never changes, so it is decoded and labeled
once; a raster becomes float64 only in the stack that is featurized.

Pool state persists as a line-delimited text file: a header line carrying
the format version, config fingerprint, stage and record count, then one
tab-separated key=value record per line.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, pgm
from .errors import DataError, read_lines
from .kernels import _BLOCK, label_components, stacked

POOL_FORMAT = "iem-pool/1"
LABELS = ("positive", "negative")
# images per stack of blocks whose lesions error_terms counts at once
_STACK = 128

_RECORD_KEYS = ("id", "image_ref", "mask_ref", "label", "chunk", "E", "C",
                "dropped")


@dataclass(slots=True)
class ExampleRecord:
    """One pool entry, slotted, whose label is the ``LABELS`` string
    itself; E/C/dropped start at their ingestion values."""

    id: str
    image_ref: str
    mask_ref: str
    label: str  # one of LABELS
    chunk_index: int = 0
    E: float = 0.0
    C: int = 0
    dropped: bool = False

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"record {self.id}: bad label {self.label!r}")
        self.label = LABELS[LABELS.index(self.label)]

    def drops_on_update(self, d):
        """Whether one more training update takes C past dropping number d."""
        return self.C >= d


def check_labels(records, masks):
    """Refuse the first of ``records`` whose mask in ``masks``, their block
    of ``pair_blocks``, is empty on a positive or nonempty on a negative."""
    lesions = np.logical_or.reduce(masks, axis=(1, 2)).tolist()
    for record, lesion in zip(records, lesions):
        if lesion != (record.label == "positive"):
            raise DataError(f"{record.mask_ref}: {record.id}: label "
                            f"{record.label!r} disagrees with mask content")


def pair_blocks(records):
    """``pgm.pair_blocks`` of a list of records, each block checked by
    ``check_labels`` before it is yielded: the one way the program reads
    examples, so ``train`` and ``eval`` refuse a bad file or label alike."""
    blocks = pgm.pair_blocks((r.image_ref, r.mask_ref) for r in records)
    start = 0
    for rasters, masks in blocks:
        check_labels(records[start : (start := start + len(masks))], masks)
        yield rasters, masks


@dataclass
class PoolState:
    """Records of every ingested chunk; ``labeled`` decodes one on first use."""

    records: list = field(default_factory=list)
    stage: int = 0
    config_hash: str = ""

    def __post_init__(self):
        self._by_id = {r.id: r for r in self.records}
        if len(self._by_id) != len(self.records):
            raise ValueError("duplicate ids in pool records")
        self._examples = {}

    def labeled(self, example_ids):
        """Each record's (raster, labels of its mask's components), kept.

        The records not read yet are decoded by ``pair_blocks`` (which
        checks their labels), and each block's masks labeled by one
        ``kernels.label_components`` call, uint8 when the counts fit; the
        masks are not kept. The raster is the decoded uint8 image, h·w
        bytes, which ``pgm.to_image`` converts in each stack that is
        featurized. Both arrays are read-only views into their block's,
        since the view stacks read slices of them.
        """
        new = [self.record_for(i) for i in example_ids if i not in self._examples]
        start = 0
        for rasters, masks in pair_blocks(new):
            labels, counts = label_components(masks)
            if counts.max() <= np.iinfo(np.uint8).max:
                labels = labels.astype(np.uint8)
            rasters.flags.writeable = labels.flags.writeable = False
            for record, raster, mask_labels in zip(
                    new[start : (start := start + len(rasters))], rasters, labels):
                self._examples[record.id] = (raster, mask_labels)
        return [self._examples[i] for i in example_ids]

    @property
    def next_stage(self):
        """The stage of the next chunk: 0 into an empty pool, else stage + 1."""
        return self.stage + 1 if self.records else 0

    def record_for(self, example_id):
        try:
            return self._by_id[example_id]
        except KeyError:
            raise ValueError(f"unknown example id {example_id!r}") from None

    def __len__(self):
        return len(self.records)


def add_chunk(pool, examples, chunk_index):
    """Append a new chunk of records with E=0, C=0, dropped=False.

    The chunk must carry index ``pool.next_stage``, so chunks arrive in
    sequence from 0, and must not be empty. Records are re-stamped with
    the given chunk index and fresh bookkeeping fields.
    """
    if chunk_index != pool.next_stage:
        raise ValueError(f"chunk_index {chunk_index} out of sequence "
                         f"(expected {pool.next_stage})")
    if not examples:
        raise ValueError(f"chunk {chunk_index} is empty")
    seen = set()
    for ex in examples:
        if ex.id in pool._by_id:
            raise ValueError(f"duplicate example id {ex.id!r} already in pool")
        if ex.id in seen:
            raise ValueError(f"duplicate example id {ex.id!r} within chunk")
        seen.add(ex.id)
    for ex in examples:
        record = ExampleRecord(
            id=ex.id, image_ref=ex.image_ref, mask_ref=ex.mask_ref,
            label=ex.label, chunk_index=chunk_index,
        )
        pool.records.append(record)
        pool._by_id[record.id] = record
    pool.stage = chunk_index
    return pool


def error_terms(blocks, predict, cfg):
    """E of each image of (images, masks or their labels) blocks, in order.

    Each block holds up to 16 same-shape images (``kernels.shape_blocks``).
    ``predict`` maps each block's (n, h, w) image stack to its
    probability maps; each image's E equals what it and its mask give
    alone. ``metrics.loss_and_predictions`` scores each block, and
    ``metrics.error_arrays`` (lesion counts, whose per-call cost exceeds
    their pixels' at 24x24) a stack of whole same-shape blocks: at most
    128 images and 16·h·w predicted on-pixels, so lesion counting labels
    no more at once than for one block (at zero weights every pixel is
    on). Blocks give all masks or all labels. Metric knobs (tau, error
    weights) come from the selection config ``cfg``.
    """
    def scored(stack):
        L, preds, gts = zip(*stack)
        *_, errors = metrics.error_arrays(
            np.concatenate(L), np.concatenate(preds), np.concatenate(gts),
            tau=cfg.tau, weights=cfg.error_weights)
        return errors.tolist()

    stack, shape, size, on = [], None, 0, 0
    for images, gt in blocks:
        L, preds = metrics.loss_and_predictions(predict(images), gt)
        block_on = int(np.add.reduce(preds, axis=None))
        if stack and not (gt.shape[1:] == shape
                          and size + len(gt) <= _STACK
                          and on + block_on <= _BLOCK * preds[0].size):
            yield from scored(stack)
            stack, size, on = [], 0, 0
        stack.append((L, preds, gt))
        shape, size, on = gt.shape[1:], size + len(gt), on + block_on
    if stack:
        yield from scored(stack)


def refresh_errors(pool, predict, cfg):
    """Recompute E for every non-dropped record from one plain forward pass.

    ``predict`` maps an (n, h, w) float image stack to its probability
    maps; it sees blocks of up to 16 same-shape images in pool order,
    stacked by ``kernels.stacked`` from the kept rasters, each stack
    converted by one ``pgm.to_image``, and scored in stacks of such
    blocks (see ``error_terms``). Each record is scored from its kept
    labels (``PoolState.labeled``), so a mask is labeled at most once
    per pool. Dropped records keep E = 0.
    """
    active = [r for r in pool.records if not r.dropped]
    blocks = ((pgm.to_image(rasters), labels) for rasters, labels
              in stacked(pool.labeled([r.id for r in active])))
    for record, E in zip(active, error_terms(blocks, predict, cfg)):
        record.E = E
    return pool


def record_training_update(pool, example_id, per_augmentation_errors, d):
    """Fold one iteration's augmented errors into a record.

    E becomes the mean of the per-augmentation errors and C increments;
    if C then exceeds the dropping number d, the record is marked dropped
    and its E zeroed. That update reads no errors, so they may be empty.
    """
    record = pool.record_for(example_id)
    if record.dropped:
        raise ValueError(f"example {example_id!r} is dropped")
    drops = record.drops_on_update(d)
    if not per_augmentation_errors and not drops:
        raise ValueError("per_augmentation_errors must be nonempty")
    record.C += 1
    if drops:
        record.dropped = True
        record.E = 0.0
    else:
        record.E = sum(per_augmentation_errors) / len(per_augmentation_errors)
    return pool


def save_state(pool, path):
    """Write pool state; E keeps 17 significant digits so load is bit-exact."""
    lines = [
        f"{POOL_FORMAT}\tconfig={pool.config_hash}\tstage={pool.stage}"
        f"\trecords={len(pool.records)}"
    ]
    for r in pool.records:
        lines.append("\t".join((
            f"id={r.id}",
            f"image_ref={r.image_ref}",
            f"mask_ref={r.mask_ref}",
            f"label={r.label}",
            f"chunk={r.chunk_index}",
            f"E={r.E:.17g}",
            f"C={r.C}",
            f"dropped={1 if r.dropped else 0}",
        )))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_kv(part, expected_key, path, lineno):
    key, sep, value = part.partition("=")
    if not sep or key != expected_key:
        raise DataError(
            f"{path}:{lineno}: expected field {expected_key!r}, got {part!r}"
        )
    return value


def load_state(path):
    """Read pool state written by save_state; rejects malformed or truncated files."""
    lines = read_lines(path, "pool state")
    if not lines:
        raise DataError(f"{path}:1: empty pool state file")

    header = lines[0].split("\t")
    if len(header) != 4 or header[0] != POOL_FORMAT:
        raise DataError(f"{path}:1: bad header (expected {POOL_FORMAT})")
    config_hash = _parse_kv(header[1], "config", path, 1)
    try:
        stage = int(_parse_kv(header[2], "stage", path, 1))
        count = int(_parse_kv(header[3], "records", path, 1))
    except ValueError as exc:
        raise DataError(f"{path}:1: bad header numbers") from exc
    if stage < 0:
        raise DataError(f"{path}:1: negative stage {stage}")

    records = []
    ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(_RECORD_KEYS):
            raise DataError(
                f"{path}:{lineno}: expected {len(_RECORD_KEYS)} fields, "
                f"got {len(parts)}"
            )
        values = [
            _parse_kv(part, key, path, lineno)
            for part, key in zip(parts, _RECORD_KEYS)
        ]
        rid, image_ref, mask_ref, label = values[:4]
        if rid in ids:
            raise DataError(f"{path}:{lineno}: duplicate id {rid!r}")
        ids.add(rid)
        if label not in LABELS:
            raise DataError(f"{path}:{lineno}: bad label {label!r}")
        try:
            chunk_index = int(values[4])
            e_value = float(values[5])
            c_value = int(values[6])
            dropped = {"0": False, "1": True}[values[7]]
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}:{lineno}: bad field value") from exc
        if not 0 <= chunk_index <= stage:
            raise DataError(f"{path}:{lineno}: chunk {chunk_index} outside "
                            f"stages 0..{stage}")
        if not math.isfinite(e_value) or c_value < 0:
            raise DataError(f"{path}:{lineno}: E must be finite and C >= 0")
        if e_value < 0:  # E is a sum of non-negative terms
            raise DataError(f"{path}:{lineno}: negative E {values[5]}")
        if dropped and e_value != 0.0:
            raise DataError(f"{path}:{lineno}: dropped record with E != 0")
        records.append(ExampleRecord(
            id=rid, image_ref=image_ref, mask_ref=mask_ref, label=label,
            chunk_index=chunk_index, E=e_value, C=c_value, dropped=dropped,
        ))
    if len(records) != count:
        raise DataError(
            f"{path}: truncated state ({len(records)} of {count} records)"
        )
    return PoolState(records=records, stage=stage, config_hash=config_hash)
