"""Reproducible synthetic lesion chunks with a controllable intensity shift.

Images are flat backgrounds with Gaussian noise; positive images add
elliptical bright blobs whose support is the ground-truth mask. A
per-chunk intensity offset is added after the blobs, so lesions drift
with the background the way an acquisition-protocol change would.
Everything is a pure function of the chunk seed: re-running produces
byte-identical files.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, read_lines, write_lines
from .pgm import write_mask_pgm, write_pgm
from .pool import ExampleRecord, pair_blocks

MANIFEST_NAME = "manifest.tsv"
_BACKGROUND_BASE = 0.2
_BACKGROUND_NOISE_SIGMA = 0.02
_BLOB_INTENSITY_DELTA = 0.5


@dataclass(frozen=True)
class ChunkSpec:
    """Everything needed to regenerate one chunk of images bit for bit."""

    n_images: int
    positive_fraction: float
    image_size: tuple = (24, 24)
    blob_count_range: tuple = (3, 5)
    blob_radius_range: tuple = (1, 2)
    shift_offset: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1:
            raise ValueError("n_images must be >= 1")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError("positive_fraction must be in [0,1]")
        h, w = self.image_size
        if h < 1 or w < 1:
            raise ValueError("image_size must be positive")
        clo, chi = self.blob_count_range
        rlo, rhi = self.blob_radius_range
        if not 1 <= clo <= chi:
            raise ValueError("blob_count_range must be a nonempty range >= 1")
        if not 1 <= rlo <= rhi:
            raise ValueError("blob_radius_range must be a nonempty range >= 1")
        if 2 * rhi >= min(h, w):
            raise ValueError("blob_radius_range too large for image_size")


def positive_count(spec):
    return int(spec.n_images * spec.positive_fraction)


def render_chunk(spec):
    """In-memory render: (images, masks, labels), images pre-clamp.

    The shift step is out = (img - 0.5) + 0.5 + offset, which moves the
    mean intensity by the offset before the [0,1] clamp that file output
    applies. It is written so on purpose: ``img + offset`` can round
    differently and would change the generated files.
    """
    h, w = spec.image_size
    rng = np.random.default_rng(spec.seed)
    n_pos = positive_count(spec)
    positive = np.zeros(spec.n_images, dtype=bool)
    positive[rng.permutation(spec.n_images)[:n_pos]] = True
    rows, cols = np.mgrid[0:h, 0:w]
    images, masks, labels = [], [], []
    for i in range(spec.n_images):
        img = _BACKGROUND_BASE + _BACKGROUND_NOISE_SIGMA * rng.standard_normal((h, w))
        mask = np.zeros((h, w), dtype=bool)
        if positive[i]:
            clo, chi = spec.blob_count_range
            rlo, rhi = spec.blob_radius_range
            for _ in range(int(rng.integers(clo, chi + 1))):
                r_row = int(rng.integers(rlo, rhi + 1))
                r_col = int(rng.integers(rlo, rhi + 1))
                row = int(rng.integers(r_row, h - r_row))
                col = int(rng.integers(r_col, w - r_col))
                mask |= ((rows - row) / r_row) ** 2 + ((cols - col) / r_col) ** 2 <= 1.0
            img = img + _BLOB_INTENSITY_DELTA * mask
        img = (img - 0.5) + 0.5 + spec.shift_offset
        images.append(img)
        masks.append(mask)
        labels.append("positive" if positive[i] else "negative")
    return images, masks, labels


def generate_chunk(spec, out_dir, chunk_index=0):
    """Write one chunk's PGM pairs plus its manifest; return its records.

    Files are named after the example id, masks with a ``-mask`` suffix.
    """
    os.makedirs(out_dir, exist_ok=True)
    images, masks, labels = render_chunk(spec)
    records = []
    for i, (img, mask, label) in enumerate(zip(images, masks, labels)):
        example_id = f"chunk{chunk_index}-{i:04d}"
        image_path = os.path.join(out_dir, f"{example_id}.pgm")
        mask_path = os.path.join(out_dir, f"{example_id}-mask.pgm")
        write_pgm(image_path, img)
        write_mask_pgm(mask_path, mask)
        records.append(ExampleRecord(
            id=example_id, image_ref=image_path, mask_ref=mask_path,
            label=label, chunk_index=chunk_index,
        ))
    write_manifest(records, os.path.join(out_dir, MANIFEST_NAME))
    return records


def write_manifest(records, path):
    """Tab-separated lines: id, image path, mask path, label, chunk index.

    Paths are stored relative to the manifest's directory so a data tree
    can be moved wholesale.
    """
    base = os.path.dirname(os.path.abspath(path))
    lines = ["\t".join([
        rec.id,
        os.path.relpath(os.path.abspath(rec.image_ref), base),
        os.path.relpath(os.path.abspath(rec.mask_ref), base),
        rec.label,
        str(rec.chunk_index),
    ]) for rec in records]
    write_lines(lines, path)


def read_manifest(path):
    """Parse a manifest back into records.

    A manifest must list at least one example, referenced files must
    exist, and each example id must be nonempty, hold no comma and
    appear once. Each line is freed once it is split, so the parse never
    holds every line beside every record.
    """
    base = os.path.dirname(os.path.abspath(path))
    lines = read_lines(path, "manifest")
    lines.reverse()  # popped in file order
    records = []
    seen = set()
    while lines:
        lineno = len(records) + 1  # every earlier line made one record
        fields = lines.pop().split("\t")
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        example_id, image_ref, mask_ref, label, chunk_field = fields
        if example_id in seen:
            first = 1 + [r.id for r in records].index(example_id)
            raise DataError(f"{path}:{lineno}: example id {example_id!r} "
                            f"repeats line {first}")
        seen.add(example_id)
        try:
            chunk_index = int(chunk_field)
        except ValueError:
            chunk_index = -1
        if chunk_index < 0:
            raise DataError(f"{path}:{lineno}: bad chunk index {chunk_field!r}")
        try:  # the record checks its id and label
            record = ExampleRecord(
                id=example_id, image_ref=os.path.join(base, image_ref),
                mask_ref=os.path.join(base, mask_ref), label=label,
                chunk_index=chunk_index)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        for p in (record.image_ref, record.mask_ref):
            if not os.path.isfile(p):
                raise DataError(f"{path}:{lineno}: missing file {p}")
        records.append(record)
    if not records:
        raise DataError(f"{path}: empty manifest")
    return records


def verify_labels(records):
    """Check each record of a list is labeled positive iff its mask has
    on-pixels (``pool.pair_blocks`` refuses any other)."""
    for _ in pair_blocks(records):
        pass


@dataclass(frozen=True)
class Scenario:
    """Train chunks arriving in order, plus a held-out mixed-shift test set."""

    train: tuple
    test: tuple


# Scenario shape: one initial chunk plus four shifted increments, each a
# tenth of the 1000 + 4x250 annotation schedule it scales down.
_TRAIN_SIZES = (200, 50, 50, 50, 50)
_TEST_SIZE_PER_STYLE = 12
_SHIFT_STEP = 0.075


def default_scenario(seed=0):
    """The standard shifted-stream benchmark.

    Five train chunks of sizes 200/50/50/50/50 whose global intensity
    offset rises by one shift step per chunk, and a 60-image test set
    drawn evenly from all five shift styles. Chunk seeds derive from
    ``seed``.
    """
    states = np.random.SeedSequence(seed).generate_state(2 * len(_TRAIN_SIZES))
    train = tuple(
        ChunkSpec(
            n_images=n, positive_fraction=0.5,
            shift_offset=_SHIFT_STEP * i, seed=int(states[i]),
        )
        for i, n in enumerate(_TRAIN_SIZES)
    )
    test = tuple(
        ChunkSpec(
            n_images=_TEST_SIZE_PER_STYLE, positive_fraction=0.5,
            shift_offset=_SHIFT_STEP * i, seed=int(states[len(_TRAIN_SIZES) + i]),
        )
        for i in range(len(_TRAIN_SIZES))
    )
    return Scenario(train=train, test=test)


def generate_scenario(scenario, out_dir):
    """Write every chunk of a scenario under out_dir.

    Train chunks land in chunk0..chunkN subdirectories, test styles in
    test0..testM; a combined test manifest covering all styles is written
    to test/manifest.tsv. Returns (train_chunks, test_records).
    """
    train_chunks = []
    for i, spec in enumerate(scenario.train):
        train_chunks.append(
            generate_chunk(spec, os.path.join(out_dir, f"chunk{i}"), chunk_index=i)
        )
    test_records = []
    for i, spec in enumerate(scenario.test):
        part = generate_chunk(spec, os.path.join(out_dir, f"test{i}"), chunk_index=i)
        for rec in part:
            test_records.append(ExampleRecord(
                id=f"test{i}-{rec.id}", image_ref=rec.image_ref,
                mask_ref=rec.mask_ref, label=rec.label, chunk_index=i,
            ))
    test_dir = os.path.join(out_dir, "test")
    os.makedirs(test_dir, exist_ok=True)
    write_manifest(test_records, os.path.join(test_dir, MANIFEST_NAME))
    return train_chunks, test_records
