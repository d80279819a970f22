"""Cumulative example pool with per-example error and selection bookkeeping.

Each record tracks the composite error term E, the selection count C and a
dropped flag. Once a record's C exceeds the dropping number it is marked an
outlier: its E is zeroed and it is excluded from every later selection and
refresh (exclusion is permanent).

Pool state persists as a line-delimited text file: a header line carrying
the format version, config fingerprint, stage and record count, then one
tab-separated key=value record per line.
"""

from dataclasses import dataclass, field

import numpy as np

from . import metrics, pgm
from .errors import DataError
from .kernels import shape_blocks

POOL_FORMAT = "iem-pool/1"

_RECORD_KEYS = ("id", "image_ref", "mask_ref", "label", "chunk", "E", "C",
                "dropped")


@dataclass
class ExampleRecord:
    """One pool entry; E/C/dropped start at their ingestion values."""

    id: str
    image_ref: str
    mask_ref: str
    label: str  # "positive" or "negative"
    chunk_index: int = 0
    E: float = 0.0
    C: int = 0
    dropped: bool = False

    def __post_init__(self):
        if self.label not in ("positive", "negative"):
            raise ValueError(f"record {self.id}: bad label {self.label!r}")


@dataclass
class PoolState:
    """Records of every ingested chunk; ``pair`` decodes one on first use."""

    records: list = field(default_factory=list)
    stage: int = 0
    config_hash: str = ""

    def __post_init__(self):
        self._by_id = {r.id: r for r in self.records}
        if len(self._by_id) != len(self.records):
            raise ValueError("duplicate ids in pool records")
        self._pairs = {}

    def pair(self, example_id):
        """A record's decoded (image, mask), kept and read-only."""
        if example_id not in self._pairs:
            record = self.record_for(example_id)
            arrays = pgm.pair(record.image_ref, record.mask_ref)
            for array in arrays:
                array.flags.writeable = False  # augment hands out views
            self._pairs[example_id] = arrays
        return self._pairs[example_id]

    def record_for(self, example_id):
        try:
            return self._by_id[example_id]
        except KeyError:
            raise ValueError(f"unknown example id {example_id!r}") from None

    def __len__(self):
        return len(self.records)


def add_chunk(pool, examples, chunk_index):
    """Append a new chunk of records with E=0, C=0, dropped=False.

    The first chunk into an empty pool must carry index 0; afterwards
    chunks must arrive in sequence (stage + 1). Records are re-stamped
    with the given chunk index and fresh bookkeeping fields.
    """
    expected = 0 if not pool.records else pool.stage + 1
    if chunk_index != expected:
        raise ValueError(
            f"chunk_index {chunk_index} out of sequence (expected {expected})"
        )
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


def refresh_errors(pool, predict, cfg):
    """Recompute E for every non-dropped record from one plain forward pass.

    ``predict`` maps an (n, h, w) image stack to its probability maps; it
    sees blocks of up to 8 same-shape images in pool order. Dropped
    records keep E = 0. Metric knobs (tau, variant, binarize threshold,
    error weights) come from the selection config.
    """
    active = (pool.pair(r.id) + (r,) for r in pool.records if not r.dropped)
    for block in shape_blocks(active):
        breakdowns = metrics.evaluate_examples(
            predict(np.stack([img for img, _, _ in block])),
            np.stack([mask for _, mask, _ in block]),
            tau=cfg.tau, variant=cfg.variant,
            threshold=cfg.binarize_threshold, weights=cfg.error_weights,
        )
        for (_, _, record), breakdown in zip(block, breakdowns):
            record.E = breakdown.E
    return pool


def record_training_update(pool, example_id, per_augmentation_errors, d):
    """Fold one iteration's augmented errors into a record.

    E becomes the mean of the per-augmentation errors and C increments;
    if C then exceeds the dropping number d, the record is marked dropped
    and its E zeroed.
    """
    record = pool.record_for(example_id)
    if record.dropped:
        raise ValueError(f"example {example_id!r} is dropped")
    if not per_augmentation_errors:
        raise ValueError("per_augmentation_errors must be nonempty")
    record.E = sum(per_augmentation_errors) / len(per_augmentation_errors)
    record.C += 1
    if record.C > d:
        record.dropped = True
        record.E = 0.0
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read pool state {path}: {exc}") from exc
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
        if label not in ("positive", "negative"):
            raise DataError(f"{path}:{lineno}: bad label {label!r}")
        try:
            chunk_index = int(values[4])
            e_value = float(values[5])
            c_value = int(values[6])
            dropped = {"0": False, "1": True}[values[7]]
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}:{lineno}: bad field value") from exc
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
