"""Synthetic chunk generation: determinism, shift math, manifests, scenarios."""

import dataclasses
import hashlib
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from iem import metrics, pool
from iem.errors import DataError
from iem.pgm import read_mask_pgm
from iem.synth import (
    ChunkSpec,
    Scenario,
    default_scenario,
    generate_chunk,
    generate_scenario,
    positive_count,
    read_manifest,
    render_chunk,
    verify_labels,
    write_manifest,
)


def _spec(**kw):
    base = dict(n_images=10, positive_fraction=0.4, seed=5)
    base.update(kw)
    return ChunkSpec(**base)


def _dir_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# -- rendering -------------------------------------------------------------


def test_positive_count_floors():
    assert positive_count(_spec()) == 4
    assert positive_count(_spec(n_images=7, positive_fraction=0.5)) == 3


def test_render_chunk_labels_match_masks():
    images, masks, labels = render_chunk(_spec())
    assert len(images) == len(masks) == len(labels) == 10
    assert labels.count("positive") == 4
    for mask, label in zip(masks, labels):
        assert mask.any() == (label == "positive")


def test_render_positive_images_brighter_inside_mask():
    images, masks, labels = render_chunk(_spec())
    for img, mask, label in zip(images, masks, labels):
        if label == "positive":
            assert img[mask].mean() > img[~mask].mean() + 0.3


def test_render_blob_counts_within_range():
    spec = _spec(n_images=20, positive_fraction=1.0)
    _, masks, _ = render_chunk(spec)
    lo, hi = spec.blob_count_range
    for mask in masks:
        comps = metrics.connected_components(mask)
        # blobs can merge, never split
        assert 1 <= len(comps) <= hi


def test_shift_offset_moves_mean_exactly():
    base = _spec()
    shifted = dataclasses.replace(base, shift_offset=0.2)
    plain, _, _ = render_chunk(base)
    moved, _, _ = render_chunk(shifted)
    for a, b in zip(plain, moved):
        assert np.allclose(b - a, 0.2, atol=1e-12)


def test_shift_is_added_around_half():
    # a negative image is the background draw, shifted in the form
    # (img - 0.5) + 0.5 + offset that the generated files were made with;
    # img + offset gives other floats
    spec = _spec(n_images=1, positive_fraction=0.0, shift_offset=0.15)
    [img], _, _ = render_chunk(spec)
    rng = np.random.default_rng(spec.seed)
    rng.permutation(1)
    background = 0.2 + 0.02 * rng.standard_normal(spec.image_size)
    assert np.array_equal(img, (background - 0.5) + 0.5 + 0.15)
    assert not np.array_equal(img, background + 0.15)


def test_render_is_deterministic():
    first = render_chunk(_spec())
    second = render_chunk(_spec())
    for a, b in zip(first[0], second[0]):
        assert np.array_equal(a, b)
    assert first[2] == second[2]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_images": 0}, {"positive_fraction": 1.5},
        {"image_size": (0, 8)}, {"blob_count_range": (3, 2)},
        {"blob_radius_range": (0, 1)}, {"blob_radius_range": (1, 20)},
        {"positive_fraction": -0.1}, {"blob_count_range": (0, 2)},
        {"image_size": (8, 0)},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        _spec(**kwargs)


# -- chunk files and manifests --------------------------------------------


def test_generate_chunk_round_trips_through_manifest(tmp_path):
    out = tmp_path / "chunk3"
    records = generate_chunk(_spec(), str(out), chunk_index=3)
    assert len(records) == 10
    assert records[0].id == "chunk3-0000"
    back = read_manifest(str(out / "manifest.tsv"))
    assert [(r.id, r.label, r.chunk_index) for r in back] == [
        (r.id, r.label, r.chunk_index) for r in records
    ]
    list(pool.pair_blocks(back))  # every label agrees with its mask
    # mask files hold the rendered masks
    _, masks, _ = render_chunk(_spec())
    assert np.array_equal(read_mask_pgm(back[0].mask_ref), masks[0])


def test_generate_chunk_is_byte_deterministic(tmp_path):
    generate_chunk(_spec(), str(tmp_path / "a"))
    generate_chunk(_spec(), str(tmp_path / "b"))
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_manifest_relative_paths_survive_tree_move(tmp_path):
    records = generate_chunk(_spec(), str(tmp_path / "old"))
    (tmp_path / "old").rename(tmp_path / "new")
    back = read_manifest(str(tmp_path / "new" / "manifest.tsv"))
    assert len(back) == len(records)
    assert all(Path(r.image_ref).is_file() for r in back)


def test_verify_labels_catches_mismatch(tmp_path):
    records = generate_chunk(_spec(), str(tmp_path))
    flipped = [
        dataclasses.replace(
            r, label="negative" if r.label == "positive" else "positive"
        )
        for r in records[:1]
    ]
    with pytest.raises(DataError, match="disagrees") as exc:
        verify_labels(flipped)
    assert str(exc.value).startswith(f"{flipped[0].mask_ref}: ")


@pytest.mark.parametrize(
    "line, complaint",
    [
        ("a\tb.pgm\tc.pgm\tpositive", "expected 5 fields"),
        ("a\tb.pgm\tc.pgm\todd\t0", "bad label"),
        ("a\tb.pgm\tc.pgm\tpositive\tzz", "bad chunk index"),
        ("a\tb.pgm\tc.pgm\tpositive\t-2", "bad chunk index '-2'"),
        ("a\tmissing.pgm\tc.pgm\tpositive\t0", "missing file"),
    ],
)
def test_read_manifest_rejects_malformed(tmp_path, line, complaint):
    path = tmp_path / "manifest.tsv"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=complaint):
        read_manifest(str(path))


def test_read_manifest_ignores_a_byte_order_mark(tmp_path):
    records = generate_chunk(_spec(n_images=3), str(tmp_path))
    path = tmp_path / "manifest.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert [r.id for r in read_manifest(str(path))] == [r.id for r in records]


def test_read_manifest_rejects_a_repeated_id(tmp_path):
    generate_chunk(_spec(n_images=3), str(tmp_path))
    path = tmp_path / "manifest.tsv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataError) as exc:
        read_manifest(str(path))
    assert str(exc.value) == (f"{path}:4: example id 'chunk0-0001' "
                              "repeats line 2")


def _long_manifest(tmp_path, n_lines):
    """A manifest of ``n_lines`` ids x00000.., each naming one chunk's pair."""
    generate_chunk(_spec(n_images=1, positive_fraction=1.0), str(tmp_path))
    path = tmp_path / "manifest.tsv"
    pair = path.read_text().split("\t", 1)[1]
    path.write_text("".join(f"x{i:05d}\t{pair}" for i in range(n_lines)))
    return path


@pytest.mark.parametrize("last, complaint", [
    ("x03000\tchunk0-0000.pgm\tchunk0-0000-mask.pgm\todd\t0",
     "3001: bad label 'odd'"),
    ("x01234\tchunk0-0000.pgm\tchunk0-0000-mask.pgm\tpositive\t0",
     "3001: example id 'x01234' repeats line 1235"),
], ids=["bad_label", "repeated_id"])
def test_read_manifest_names_the_last_line_of_a_long_manifest(
        tmp_path, last, complaint):
    path = _long_manifest(tmp_path, 3000)
    path.write_text(path.read_text() + last + "\n")
    with pytest.raises(DataError) as exc:
        read_manifest(str(path))
    assert str(exc.value) == f"{path}:{complaint}"


def test_read_manifest_records_have_no_dict_and_hold_the_labels_strings(
        tmp_path):
    made = generate_chunk(_spec(n_images=4, positive_fraction=0.5),
                          str(tmp_path))
    back = read_manifest(str(tmp_path / "manifest.tsv"))
    for record in made + back:
        assert not hasattr(record, "__dict__")
        assert record.label is pool.LABELS[record.label == "negative"]


def test_read_manifest_retains_no_label_or_dict_per_record(tmp_path):
    # a slotted record is 96 B and its list slot 8; an instance dict or
    # a label string of its own would add about 160 B
    n_lines = 3000
    path = _long_manifest(tmp_path, n_lines)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = read_manifest(str(path))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    strings = sum(sys.getsizeof(text) for r in records
                  for text in (r.id, r.image_ref, r.mask_ref))
    assert (retained - strings) / n_lines < 128


def test_read_manifest_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_manifest(str(tmp_path / "nope.tsv"))


def test_write_manifest_empty_list(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest([], str(path))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: empty manifest$"):
        read_manifest(str(path))


# -- scenarios -------------------------------------------------------------


def test_default_scenario_shape():
    scenario = default_scenario(0)
    assert [spec.n_images for spec in scenario.train] == [200, 50, 50, 50, 50]
    assert len(scenario.test) == 5
    offsets = [spec.shift_offset for spec in scenario.train]
    assert offsets == sorted(offsets)
    assert offsets[0] == 0.0 and offsets[-1] > 0.0
    assert [spec.shift_offset for spec in scenario.test] == offsets
    seeds = [spec.seed for spec in scenario.train + scenario.test]
    assert len(set(seeds)) == len(seeds)


def test_default_scenario_seed_controls_chunk_seeds():
    assert default_scenario(1) == default_scenario(1)
    assert default_scenario(1) != default_scenario(2)


def test_generate_scenario_layout(tmp_path):
    scenario = Scenario(
        train=(_spec(n_images=4), _spec(n_images=3, seed=6, shift_offset=0.1)),
        test=(_spec(n_images=2, seed=7), _spec(n_images=2, seed=8, shift_offset=0.1)),
    )
    train_chunks, test_records = generate_scenario(scenario, str(tmp_path))
    assert [len(c) for c in train_chunks] == [4, 3]
    assert [r.chunk_index for r in train_chunks[1]] == [1, 1, 1]
    assert len(test_records) == 4
    assert test_records[0].id.startswith("test0-")
    for sub in ("chunk0", "chunk1", "test0", "test1", "test"):
        assert (tmp_path / sub / "manifest.tsv").is_file()
    back = read_manifest(str(tmp_path / "test" / "manifest.tsv"))
    assert [r.id for r in back] == [r.id for r in test_records]
