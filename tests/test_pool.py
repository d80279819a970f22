"""Pool bookkeeping: chunk ingestion, error refresh, dropping, persistence."""

import collections
import math

import numpy as np
import pytest

from iem import harness, kernels, metrics, pgm
from iem import pool as pool_module
from iem.errors import DataError
from iem.pgm import read_mask_pgm, read_pgm, write_mask_pgm, write_pgm
from iem.pool import (
    ExampleRecord,
    PoolState,
    add_chunk,
    error_terms,
    load_state,
    record_training_update,
    refresh_errors,
    save_state,
)
from iem.selection import SelectionConfig, select_subset
from iem.trainer import TrainConfig, init_params, mine


def _rec(rid, label="positive", **kw):
    return ExampleRecord(id=rid, image_ref=f"{rid}.pgm",
                         mask_ref=f"{rid}-mask.pgm", label=label, **kw)


def _pool(*records, **kw):
    return PoolState(records=list(records), **kw)


# -- record / pool construction -------------------------------------------


def test_record_rejects_bad_label():
    with pytest.raises(ValueError, match="bad label"):
        _rec("a", label="maybe")


def test_records_have_no_dict_and_hold_the_labels_strings(tmp_path):
    # labels made at run time: equal to LABELS' strings, not the same objects
    made = [_rec("a", label="".join(("posi", "tive"))),
            _rec("b", label="".join(("nega", "tive")))]
    pool = _pool()
    add_chunk(pool, made, 0)
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    for records in (made, pool.records, load_state(path).records):
        for record, label in zip(records, pool_module.LABELS, strict=True):
            assert not hasattr(record, "__dict__")
            assert record.label is label


def test_pool_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        _pool(_rec("a"), _rec("a"))


def test_record_lookup():
    pool = _pool(_rec("a"), _rec("b", label="negative"))
    assert pool.record_for("b").label == "negative"
    with pytest.raises(ValueError, match="unknown example id"):
        pool.record_for("zz")


# -- add_chunk -------------------------------------------------------------


def test_add_chunk_sequences_stages():
    pool = _pool()
    add_chunk(pool, [_rec("a"), _rec("b", label="negative")], 0)
    assert pool.stage == 0 and len(pool.records) == 2
    add_chunk(pool, [_rec("c")], 1)
    assert pool.stage == 1 and len(pool.records) == 3
    assert pool.record_for("c").chunk_index == 1


def test_add_chunk_resets_bookkeeping_fields():
    pool = _pool()
    dirty = _rec("a", E=9.0, C=5, dropped=False)
    add_chunk(pool, [dirty], 0)
    got = pool.record_for("a")
    assert got.E == 0.0 and got.C == 0 and not got.dropped


def test_add_chunk_rejects_out_of_sequence():
    pool = _pool()
    with pytest.raises(ValueError, match="out of sequence"):
        add_chunk(pool, [_rec("a")], 1)
    add_chunk(pool, [_rec("a")], 0)
    with pytest.raises(ValueError, match="out of sequence"):
        add_chunk(pool, [_rec("b")], 3)


def test_add_chunk_refuses_an_empty_chunk_and_leaves_the_pool():
    pool = _pool()
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^chunk 0 is empty$"):
            add_chunk(pool, [], 0)
    assert len(pool.records) == 0 and pool.next_stage == 0
    add_chunk(pool, [_rec("a")], 0)
    with pytest.raises(ValueError, match=r"^chunk 1 is empty$"):
        add_chunk(pool, [], 1)
    with pytest.raises(ValueError, match="out of sequence"):
        add_chunk(pool, [], 2)
    assert pool.stage == 0 and pool.next_stage == 1
    assert [rec.chunk_index for rec in pool.records] == [0]


def test_next_stage_is_zero_then_one_past_the_pool_stage():
    pool = _pool()
    assert pool.next_stage == 0
    add_chunk(pool, [_rec("a")], 0)
    assert pool.next_stage == 1
    add_chunk(pool, [_rec("b")], 1)
    assert pool.next_stage == 2
    # a pool's stage counts only once it holds records
    assert _pool(stage=4).next_stage == 0


def test_add_chunk_rejects_duplicate_ids():
    pool = _pool()
    add_chunk(pool, [_rec("a")], 0)
    with pytest.raises(ValueError, match="'a'"):
        add_chunk(pool, [_rec("a")], 1)
    with pytest.raises(ValueError, match="within chunk"):
        add_chunk(pool, [_rec("b"), _rec("b")], 1)


# -- refresh_errors --------------------------------------------------------


def _write_pair(tmp_path, rid, img, mask):
    image_ref = str(tmp_path / f"{rid}.pgm")
    mask_ref = str(tmp_path / f"{rid}-mask.pgm")
    write_pgm(image_ref, img)
    write_mask_pgm(mask_ref, mask)
    return ExampleRecord(
        id=rid, image_ref=image_ref, mask_ref=mask_ref,
        label="positive" if mask.any() else "negative",
    )


def test_refresh_errors_perfect_prediction(tmp_path):
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    rec = _write_pair(tmp_path, "a", mask.astype(float), mask)
    pool = _pool(rec)
    refresh_errors(pool, lambda img: img, SelectionConfig())
    assert pool.record_for("a").E <= 1e-6


def test_refresh_errors_hand_computed(tmp_path):
    # image doubles as the probability map via an identity predictor
    img = np.array([[0.9, 0.2], [0.2, 0.2]])
    mask = np.array([[True, False], [False, False]])
    rec = _write_pair(tmp_path, "a", img, mask)
    pool = _pool(rec)
    refresh_errors(pool, lambda i: i, SelectionConfig())
    # prediction mask equals gt: fp = fn = 0, ji = 1, so E is just the loss
    p = np.rint(img * 255.0) / 255.0  # 8-bit storage quantization
    want = -(math.log(p[0, 0]) + 3 * math.log(1 - p[0, 1])) / 4
    assert pool.record_for("a").E == pytest.approx(want, abs=1e-12)


def test_refresh_errors_skips_dropped(tmp_path):
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    rec = _write_pair(tmp_path, "a", np.zeros((4, 4)), mask)
    rec.dropped = True
    pool = _pool(rec)
    refresh_errors(pool, lambda img: np.full_like(img, 0.5), SelectionConfig())
    assert pool.record_for("a").E == 0.0


def _scored_pairs(rng, shape, n, flip, dtype):
    """n (probability map, mask) pairs: each map predicts its mask
    with a share ``flip`` of its pixels flipped, or, for flip=None, is
    0.5 everywhere, as at zero weights, so every pixel is predicted on."""
    masks = rng.random((n,) + shape) < 0.03
    masks[rng.random(n) < 0.3] = False  # lesion-free images
    if flip is None:
        probs = np.full(masks.shape, 0.5)
    else:
        probs = np.where(masks ^ (rng.random(masks.shape) < flip),
                         0.5 + 0.5 * rng.random(masks.shape),
                         0.5 * rng.random(masks.shape))
    if dtype != bool:
        masks = kernels.label_components(masks)[0].astype(dtype)
    return list(zip(probs, masks))


@pytest.mark.parametrize("runs, stacks", [
    # past 128 images: 16-image blocks join into stacks of 128
    ([((24, 24), 300, 0.002, bool)], [128, 128, 44]),
    # a shape change ends a stack; uint8 and int32 labels join
    ([((24, 24), 40, 0.002, bool), ((13, 17), 40, 0.002, np.uint8),
      ((24, 24), 32, 0.002, np.uint8), ((24, 24), 16, 0.002, np.int32)],
     [40, 40, 48]),
    # every pixel predicted on, as at zero weights: a block alone fills
    # a stack's on-pixels
    ([((24, 24), 40, None, bool)], [16, 16, 8]),
    ([((9, 9), 20, None, np.uint8), ((9, 9), 300, 0.0, np.uint8)],
     [16, 4 + 124, 128, 48]),
    ([], []),
])
def test_error_terms_equal_error_arrays_per_block(monkeypatch, runs, stacks):
    # E compared as float hex with loss_and_predictions then error_arrays
    # over the 16-image blocks that predict sees; lesions are counted once
    # per stack
    rng = np.random.default_rng(29)
    pairs = [pair for shape, n, flip, dtype in runs
             for pair in _scored_pairs(rng, shape, n, flip, dtype)]
    cfg = SelectionConfig(tau=0.3, error_weight_fn=2.0,
                          error_weight_ji=0.5)
    want = []
    for probs, gt in kernels.stacked(pairs):
        L, preds = metrics.loss_and_predictions(probs, gt)
        *_, errors = metrics.error_arrays(L, preds, gt, cfg.tau,
                                          cfg.error_weights)
        want += errors.tolist()
    real, counted = metrics.lesion_counts, []

    def counting(pred_masks, gt, tau):
        counted.append(len(pred_masks))
        return real(pred_masks, gt, tau)

    monkeypatch.setattr(metrics, "lesion_counts", counting)
    seen = []
    got = list(error_terms(kernels.stacked(pairs),
                           lambda p: seen.append(len(p)) or p, cfg))
    assert [E.hex() for E in got] == [E.hex() for E in want]
    assert seen == [len(block) for block in kernels.shape_blocks(pairs)]
    assert counted == stacks


def test_mining_from_zero_weights_labels_at_most_a_block_of_pixels(
        tiny_dataset, tiny_selcfg, monkeypatch):
    # at zero weights every probability is 0.5 and every pixel is
    # predicted on; no labeling call takes more on-pixels than 16 images
    chunks, _ = tiny_dataset
    pool = PoolState()
    for stage, chunk in enumerate(chunks):
        add_chunk(pool, chunk, stage)
    real = kernels.label_components
    on_pixels = []

    def counting(masks):
        on_pixels.append(int(np.count_nonzero(masks)))
        return real(masks)

    monkeypatch.setattr(kernels, "label_components", counting)
    monkeypatch.setattr(pool_module, "label_components", counting)
    params = init_params()
    mine(pool, params, 4, 2, tiny_selcfg, TrainConfig())
    h, w = pool.labeled([pool.records[0].id])[0][0].shape
    assert len(pool.records) > kernels._BLOCK * 2 and params.version > 0
    assert max(on_pixels) == kernels._BLOCK * h * w


def test_pool_builds_and_selects_without_decoding(monkeypatch):
    def no_decode(path):
        raise AssertionError(f"decoded {path}")

    monkeypatch.setattr(pgm, "_read_pgm_bytes", no_decode)
    pool = _pool(*(_rec(f"p{i}", E=float(i)) for i in range(3)),
                 *(_rec(f"n{i}", "negative", E=float(i)) for i in range(3)))
    assert len(select_subset(pool, 1, np.random.default_rng(0))) == 4


def test_pool_labels_each_record_once_into_read_only_arrays(tmp_path,
                                                            monkeypatch):
    # three lesions; a negative; 300 lesions, too many for uint8 labels
    masks = [np.zeros((3, 5), bool), np.zeros((3, 5), bool),
             np.zeros((1, 600), bool)]
    masks[0][0, 0] = masks[0][0, 4] = masks[0][2, 2] = True
    masks[2][0, ::2] = True
    records = [_write_pair(tmp_path, rid, np.full(mask.shape, 0.4), mask)
               for rid, mask in zip("abc", masks)]
    pool = _pool(*records)
    calls, decode = [], pgm._read_pgm_bytes
    monkeypatch.setattr(pgm, "_read_pgm_bytes",
                        lambda path: calls.append(path) or decode(path))
    first = pool.labeled(["a", "b"])
    again = pool.labeled(["c", "b", "a"])
    assert calls == [ref for r in records for ref in (r.image_ref, r.mask_ref)]
    assert all(x is y for x, y in zip(first[0] + first[1], again[2] + again[1]))
    for (img, labels), rec in zip(again, records[::-1]):
        want_img, want_mask = read_pgm(rec.image_ref), read_mask_pgm(rec.mask_ref)
        assert img.dtype == np.uint8
        assert np.array_equal(pgm.to_image(img), want_img)
        assert np.array_equal(labels != 0, want_mask)
        with pytest.raises(ValueError, match="read-only"):
            img[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            labels[:, ::-1][0, 0] = 0
    assert [labels.dtype for _, labels in again] == [np.int32, np.uint8,
                                                     np.uint8]
    assert [int(labels.max()) for _, labels in again] == [300, 0, 3]
    with pytest.raises(ValueError, match="unknown example id"):
        pool.labeled(["a", "zz"])


def test_pool_reads_new_records_in_blocks_as_their_files_decode(
        tmp_path, monkeypatch):
    # two shapes, interleaved, with runs longer than one 16-image block
    rng = np.random.default_rng(8)
    shapes = [(24, 24)] * 18 + [(13, 17)] * 3 + [(24, 24)] * 4 + [(13, 17)] * 19
    records = [_write_pair(tmp_path, f"r{i:02d}", rng.random(shape),
                           rng.random(shape) < 0.05 * (i % 3))
               for i, shape in enumerate(shapes)]
    pool = _pool(*records)
    reads, decode = [], pgm._read_pgm_bytes
    monkeypatch.setattr(pgm, "_read_pgm_bytes",
                        lambda path: reads.append(path) or decode(path))
    # the second call reads only the ids the first did not
    ids = [r.id for r in records]
    got = dict(zip(ids[:25], pool.labeled(ids[:25])))
    got.update(zip(ids[::-1], pool.labeled(ids[::-1])))
    assert reads == [ref for r in records[:25] + records[:24:-1]
                     for ref in (r.image_ref, r.mask_ref)]
    monkeypatch.setattr(pgm, "_read_pgm_bytes", decode)
    for rec in records:
        img, labels = got[rec.id]
        want_labels, count = kernels.label_components(read_mask_pgm(rec.mask_ref))
        assert count <= np.iinfo(np.uint8).max and labels.dtype == np.uint8
        assert np.array_equal(labels, want_labels)
        assert img.dtype == np.uint8
        assert pgm.to_image(img).tobytes() == read_pgm(rec.image_ref).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            img[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            labels[0, 0] = 0


@pytest.mark.parametrize("mask", [np.zeros((3, 4), bool),
                                  np.eye(3, 4, dtype=bool)],
                         ids=["empty", "nonempty"])
def test_one_record_block_refuses_a_label_its_mask_disagrees_with(
        tmp_path, mask):
    rec = _write_pair(tmp_path, "a", np.full((3, 4), 0.4), mask)
    [(images, got)] = pool_module.pair_blocks([rec])
    assert np.array_equal(got, mask[None]) and images.shape == got.shape
    flipped = ExampleRecord(
        id="a", image_ref=rec.image_ref, mask_ref=rec.mask_ref,
        label="negative" if rec.label == "positive" else "positive")
    with pytest.raises(DataError) as exc:
        next(pool_module.pair_blocks([flipped]))
    assert str(exc.value) == (f"{rec.mask_ref}: a: label {flipped.label!r} "
                              "disagrees with mask content")
    with pytest.raises(DataError, match="disagrees"):
        _pool(flipped).labeled(["a"])


def test_pair_blocks_refuse_the_first_label_a_block_disagrees_with(
        tmp_path):
    # 20 pairs, two blocks: the second block's labels are checked with
    # its own records, before it is yielded
    rng = np.random.default_rng(5)
    records = [_write_pair(tmp_path, f"r{i:02d}", rng.random((3, 4)),
                           np.eye(3, 4, dtype=bool) * (i % 2))
               for i in range(20)]
    blocks = pool_module.pair_blocks(records)
    images, masks = next(blocks)
    assert np.array_equal(masks, [read_mask_pgm(r.mask_ref) for r in records[:16]])
    for i in (17, 18):
        records[i].label = "negative" if i % 2 else "positive"
    with pytest.raises(DataError) as exc:
        next(blocks)
    assert str(exc.value) == (f"{records[17].mask_ref}: r17: label "
                              "'negative' disagrees with mask content")


# -- record_training_update ------------------------------------------------


def test_update_takes_mean_and_counts():
    pool = _pool(_rec("a"))
    record_training_update(pool, "a", [1.0, 2.0, 3.0], d=10)
    got = pool.record_for("a")
    assert got.E == pytest.approx(2.0) and got.C == 1 and not got.dropped
    record_training_update(pool, "a", [0.7], d=10)
    assert pool.record_for("a").E == pytest.approx(0.7)
    assert pool.record_for("a").C == 2


def test_update_drops_when_count_exceeds_d():
    pool = _pool(_rec("a", E=5.0, C=10))
    record_training_update(pool, "a", [4.0], d=10)
    got = pool.record_for("a")
    assert got.dropped and got.E == 0.0 and got.C == 11
    with pytest.raises(ValueError, match="dropped"):
        record_training_update(pool, "a", [1.0], d=10)


def test_update_drops_only_past_d_and_then_reads_no_errors():
    pool = _pool(_rec("a", E=5.0, C=9))
    assert not pool.record_for("a").drops_on_update(10)
    with pytest.raises(ValueError, match="nonempty"):
        record_training_update(pool, "a", [], d=10)
    record_training_update(pool, "a", [4.0, 5.0], d=10)  # C = d: kept
    got = pool.record_for("a")
    assert not got.dropped and got.C == 10 and got.E == 4.5
    assert got.drops_on_update(10)
    record_training_update(pool, "a", [], d=10)
    assert got.dropped and got.E == 0.0 and got.C == 11


def test_update_rejects_unknown_or_empty():
    pool = _pool(_rec("a"))
    with pytest.raises(ValueError, match="unknown"):
        record_training_update(pool, "zz", [1.0], d=10)
    with pytest.raises(ValueError, match="nonempty"):
        record_training_update(pool, "a", [], d=10)


def test_a_hem_run_labels_each_pool_mask_once(tiny_dataset, tiny_selcfg,
                                              monkeypatch):
    # every labeling call goes through one counter: the kept labels of
    # PoolState.labeled, and the predictions and test masks that
    # lesion_counts labels
    chunks, test_records = tiny_dataset
    real = kernels.label_components
    labeled = collections.Counter()
    calls = []

    def counting(masks):
        calls.append(masks.size)
        images = masks.reshape((-1,) + masks.shape[-2:])
        labeled.update(image.tobytes() for image in images)
        return real(masks)

    monkeypatch.setattr(kernels, "label_components", counting)
    monkeypatch.setattr(pool_module, "label_components", counting)
    _, _, pool, _ = harness.run_strategy(
        "baseline_hem", chunks, test_records, tiny_selcfg,
        TrainConfig(epochs_per_iteration=2))
    masks = [labels != 0
             for _, labels in pool.labeled([r.id for r in pool.records])]
    assert [labeled[m.tobytes()] for m in masks if m.any()] == [
        1 for m in masks if m.any()]
    assert len(calls) < sum(calls) / masks[0].size  # stacks, not images


# -- persistence -----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    records = [
        _rec("a", E=1 / 3, C=2),
        _rec("b", label="negative", E=1e-17, C=0),
        _rec("c", E=0.0, C=11, dropped=True),
    ]
    pool = _pool(*records, stage=2, config_hash="abc123")
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    got = load_state(path)
    assert got.stage == 2 and got.config_hash == "abc123"
    assert len(got.records) == 3
    for want in records:
        back = got.record_for(want.id)
        for name in ("image_ref", "mask_ref", "label", "chunk_index",
                     "E", "C", "dropped"):
            assert getattr(back, name) == getattr(want, name)


def test_save_load_is_byte_stable(tmp_path):
    pool = _pool(_rec("a", E=0.1 + 0.2), stage=1, config_hash="ff")
    first, second = tmp_path / "1.tsv", tmp_path / "2.tsv"
    save_state(pool, first)
    save_state(load_state(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_spells_each_record_field_in_field_order(tmp_path):
    # the fields are written from ExampleRecord's: a reorder shows here
    pool = _pool(_rec("a", E=0.1 + 0.2, C=2),
                 _rec("b", label="negative", chunk_index=1, C=11, dropped=True),
                 stage=1, config_hash="ff")
    save_state(pool, tmp_path / "pool.tsv")
    assert (tmp_path / "pool.tsv").read_text() == (
        "iem-pool/1\tconfig=ff\tstage=1\trecords=2\n"
        "id=a\timage_ref=a.pgm\tmask_ref=a-mask.pgm\tlabel=positive\tchunk=0"
        "\tE=0.30000000000000004\tC=2\tdropped=0\n"
        "id=b\timage_ref=b.pgm\tmask_ref=b-mask.pgm\tlabel=negative\tchunk=1"
        "\tE=0\tC=11\tdropped=1\n")


@pytest.mark.parametrize(
    "mangle, complaint",
    [
        (lambda lines: [], "empty"),
        (lambda lines: ["bogus-header"] + lines[1:], "bad header"),
        (lambda lines: lines[:-1], "truncated"),
        (lambda lines: lines + [lines[-1]], "duplicate id"),
        (lambda lines: [lines[0], lines[1].replace("label=positive",
                                                   "label=odd")], "bad label"),
        (lambda lines: [lines[0], lines[1].replace("E=", "Z=")], "expected field"),
        (lambda lines: [lines[0], lines[1].replace("C=0", "C=x")], "bad field value"),
        (lambda lines: [lines[0], lines[1] + "\textra=1"], "expected 8 fields"),
        (lambda lines: [lines[0], lines[1].replace("E=0.5", "E=nan")],
         "2: E must be finite"),
        (lambda lines: [lines[0], lines[1].replace("E=0.5", "E=inf")],
         "2: E must be finite"),
        (lambda lines: [lines[0], lines[1].replace("C=0", "C=-1")],
         "2: E must be finite and C >= 0"),
        (lambda lines: [lines[0], lines[1].replace("id=a", "id=")],
         "2: bad field value \\(bad example id ''\\)"),
        (lambda lines: [lines[0], lines[1].replace("id=a", "id=a,b")],
         "2: bad field value \\(bad example id 'a,b'\\)"),
    ],
)
def test_load_rejects_malformed(tmp_path, mangle, complaint):
    pool = _pool(_rec("a", E=0.5))
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    lines = path.read_text().splitlines()
    mangled = mangle(lines)
    path.write_text("\n".join(mangled) + ("\n" if mangled else ""))
    with pytest.raises(DataError, match=complaint):
        load_state(path)


@pytest.mark.parametrize("edit, complaint", [
    (("stage=1", "stage=-1"), "1: negative stage -1"),
    (("chunk=1", "chunk=-1"), "3: chunk -1 outside stages 0..1"),
    (("chunk=1", "chunk=2"), "3: chunk 2 outside stages 0..1"),
], ids=["negative-stage", "negative-chunk", "chunk-past-stage"])
def test_load_refuses_an_impossible_stage(tmp_path, edit, complaint):
    pool = _pool(_rec("a"), _rec("b", chunk_index=1), stage=1)
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    path.write_text(path.read_text().replace(*edit))
    with pytest.raises(DataError) as exc:
        load_state(path)
    assert str(exc.value) == f"{path}:{complaint}"


def test_load_rejects_dropped_with_nonzero_e(tmp_path):
    pool = _pool(_rec("a", E=0.5))
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    text = path.read_text().replace("dropped=0", "dropped=1")
    path.write_text(text)
    with pytest.raises(DataError, match="dropped record with E != 0"):
        load_state(path)


@pytest.mark.parametrize("value", ["-1", "-1e-300"])
def test_load_refuses_a_negative_e(tmp_path, value):
    # E is a sum of non-negative terms; a negative one would rank its
    # record below every real score
    pool = _pool(_rec("a", E=0.5), _rec("b", E=0.0))
    path = tmp_path / "pool.tsv"
    save_state(pool, path)
    path.write_text(path.read_text().replace("E=0\t", f"E={value}\t"))
    with pytest.raises(DataError) as exc:
        load_state(path)
    assert str(exc.value) == f"{path}:3: negative E {value}"


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_state(tmp_path / "nope.tsv")
