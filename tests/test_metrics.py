"""Metric arithmetic against hand values and brute-force oracles."""

import collections
import math

import numpy as np
import pytest

import oracles
from iem import kernels, metrics


# -- mean cross-entropy ----------------------------------------------------


def test_cross_entropy_uniform_predictor():
    p = np.full((4, 4), 0.5)
    y = np.zeros((4, 4), dtype=bool)
    y[1, 1] = True
    assert metrics.mean_cross_entropy(p, y) == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_perfect_prediction():
    y = np.zeros((4, 4), dtype=bool)
    y[2, 2] = True
    assert metrics.mean_cross_entropy(y.astype(float), y) <= 1e-6


def test_cross_entropy_hand_value():
    p = np.array([[0.9, 0.2]])
    y = np.array([[True, False]])
    want = -(math.log(0.9) + math.log(0.8)) / 2
    assert metrics.mean_cross_entropy(p, y) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.164252, abs=1e-6)


def test_cross_entropy_decreases_toward_label():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.2, 0.8, (6, 6))
    y = rng.random((6, 6)) < 0.5
    before = metrics.mean_cross_entropy(p, y)
    q = p.copy()
    q[0, 0] = q[0, 0] + 0.1 if y[0, 0] else q[0, 0] - 0.1
    assert metrics.mean_cross_entropy(q, y) < before


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.mean_cross_entropy(np.zeros((2, 2)), np.zeros((3, 2), dtype=bool))


# -- jaccard ---------------------------------------------------------------


def test_jaccard_identity_disjoint_and_thirds():
    a = np.zeros((3, 3), dtype=bool)
    a[0, 0] = a[0, 1] = True
    assert metrics.jaccard_index(a, a) == 1.0
    b = np.zeros((3, 3), dtype=bool)
    b[2, 2] = True
    assert metrics.jaccard_index(a, b) == 0.0
    c = np.zeros((3, 3), dtype=bool)
    c[0, 1] = c[1, 1] = True
    assert metrics.jaccard_index(a, c) == pytest.approx(1 / 3)


def test_jaccard_both_empty_is_one():
    empty = np.zeros((4, 4), dtype=bool)
    assert metrics.jaccard_index(empty, empty) == 1.0


def test_jaccard_symmetric_bounded_on_random_masks():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.random((8, 8)) < rng.uniform(0, 1)
        b = rng.random((8, 8)) < rng.uniform(0, 1)
        ji = metrics.jaccard_index(a, b)
        assert ji == metrics.jaccard_index(b, a)
        assert 0.0 <= ji <= 1.0
        assert ji == pytest.approx(oracles.set_jaccard(a, b), abs=1e-12)
        if ji == 1.0:
            assert np.array_equal(a, b)


# -- binarize --------------------------------------------------------------


def test_binarize_threshold_inclusive():
    assert metrics.binarize(np.full((2, 2), 0.6)).all()
    assert not metrics.binarize(np.full((2, 2), 0.4)).any()
    assert metrics.binarize(np.array([[0.5]])).all()


# -- connected components --------------------------------------------------


def test_components_trivial_cases():
    assert metrics.connected_components(np.zeros((3, 3), dtype=bool)) == []
    solid = metrics.connected_components(np.ones((3, 3), dtype=bool))
    assert len(solid) == 1 and len(solid[0]) == 9
    two = np.zeros((3, 3), dtype=bool)
    two[0, 0] = two[2, 2] = True
    assert len(metrics.connected_components(two)) == 2


def test_components_ordered_by_min_row_then_min_col():
    # the diagonal component is discovered second in row-major order but
    # its (min row, min col) = (0, 0) sorts it first
    mask = np.zeros((6, 6), dtype=bool)
    diagonal = {(0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)}
    for r, c in diagonal:
        mask[r, c] = True
    mask[0, 1] = True
    comps = metrics.connected_components(mask)
    assert comps[0] == frozenset(diagonal)
    assert comps[1] == frozenset({(0, 1)})


def test_components_partition_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mask = rng.random((10, 10)) < 0.4
        comps = metrics.connected_components(mask)
        combined = set()
        for comp in comps:
            assert not (combined & comp)
            combined |= comp
        assert combined == set(zip(*(i.tolist() for i in np.nonzero(mask))))


# -- lesion matching -------------------------------------------------------


def _comp(*pixels):
    return frozenset(pixels)


def test_match_identity_and_empty():
    one = [_comp((0, 0), (0, 1))]
    res = metrics.match_lesions(one, one, 0.5)
    assert res.matches == [(0, 0, 1.0)]
    assert res.false_positives == [] and res.false_negatives == []

    res = metrics.match_lesions([], [one[0], _comp((5, 5))], 0.5)
    assert res.matches == [] and res.false_positives == []
    assert res.false_negatives == [0, 1]


def test_match_extra_prediction_is_false_positive():
    gt = [_comp((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0))]
    pred = [
        _comp((0, 0), (0, 1), (0, 2), (1, 0), (1, 1)),  # iou 5/7 with gt
        _comp((8, 8)),
    ]
    res = metrics.match_lesions(pred, gt, 0.5)
    assert res.matches == [(0, 0, pytest.approx(5 / 7))]
    assert res.false_positives == [1]
    assert res.false_negatives == []


def test_match_competition_and_tau_boundary():
    gt = [_comp((0, 0), (0, 1))]
    pred = [_comp((0, 0)), _comp((0, 0), (0, 1))]
    res = metrics.match_lesions(pred, gt, 0.5)
    # the exact-overlap prediction wins; the half-overlap one goes unmatched
    assert res.matches == [(1, 0, 1.0)]
    assert res.false_positives == [0]

    # iou exactly tau is accepted
    res = metrics.match_lesions([_comp((0, 0))], [gt[0]], 0.5)
    assert res.matches == [(0, 0, 0.5)]


def test_match_ties_break_by_lower_ids():
    gt = [_comp((0, 0)), _comp((4, 4))]
    pred = [_comp((0, 0)), _comp((4, 4))]
    # cross pairs have iou 0; both identity pairs have iou 1, accepted
    # in ascending id order
    res = metrics.match_lesions(pred, gt, 0.5)
    assert res.matches == [(0, 0, 1.0), (1, 1, 1.0)]


def test_match_counts_balance_on_random_masks():
    rng = np.random.default_rng(21)
    for _ in range(20):
        pred = metrics.connected_components(rng.random((12, 12)) < 0.3)
        gt = metrics.connected_components(rng.random((12, 12)) < 0.3)
        res = metrics.match_lesions(pred, gt, 0.5)
        assert len(res.matches) + len(res.false_positives) == len(pred)
        assert len(res.matches) + len(res.false_negatives) == len(gt)


def test_match_rejects_bad_tau():
    for bad in (0.0, 1.5, -1.0):
        with pytest.raises(ValueError):
            metrics.match_lesions([], [], bad)


# -- lesion counts on label arrays ------------------------------------------


def _pixel_set_counts(pred, gt, tau):
    res = metrics.match_lesions(metrics.connected_components(pred),
                                metrics.connected_components(gt), tau)
    return (len(res.matches), len(res.false_positives),
            len(res.false_negatives))


def _art(*rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


def test_lesion_counts_equal_pixel_set_matching_on_random_masks():
    rng = np.random.default_rng(41)
    pairs = 0
    while pairs < 2000:
        # one stack of up to 8 same-shape pairs per draw, 1xN and Nx1 too
        h, w = (int(v) for v in rng.integers(1, 15, size=2))
        n = int(rng.integers(1, 9))
        preds = rng.random((n, h, w)) < rng.uniform(0.05, 0.7)
        gts = rng.random((n, h, w)) < rng.uniform(0.05, 0.7)
        pairs += n
        for tau in (0.1, 0.25, 0.5, 1.0):
            got = metrics.lesion_counts(preds, gts, tau)
            want = [_pixel_set_counts(p, g, tau) for p, g in zip(preds, gts)]
            assert [tuple(int(c[k]) for c in got) for k in range(n)] == want


def _blob_masks(rng, n, most, side=24):
    """n masks of up to ``most`` filled discs of radius 1 to 3 each."""
    rows, cols = np.ogrid[:side, :side]
    masks = np.zeros((n, side, side), dtype=bool)
    for mask in masks:
        for _ in range(int(rng.integers(0, most + 1))):
            r, c = rng.integers(0, side, 2)
            mask |= (rows - r) ** 2 + (cols - c) ** 2 <= rng.uniform(1, 3) ** 2
    return masks


def test_lesion_counts_at_stream_density_with_empty_images():
    # 16-image stacks about 4% on, as the stream's masks are; predictions
    # are the truth shifted by a pixel plus a stray blob. Some images have
    # both masks empty (no on-pixel at all), a prediction only, a truth
    # only, or a prediction copied from its truth, which lesion_counts
    # settles without labeling it. Every stack mixes settled images with
    # differing ones.
    rng = np.random.default_rng(43)
    on = []
    copied = collections.Counter()
    for _ in range(40):
        gts = _blob_masks(rng, 16, most=3)
        preds = _blob_masks(rng, 16, most=1)
        for pred, gt in zip(preds, gts):
            pred |= np.roll(gt, rng.integers(-1, 2, 2), axis=(0, 1))
        kind = rng.integers(0, 6, 16)
        preds[(kind == 0) | (kind == 2)] = False
        gts[(kind == 0) | (kind == 1)] = False
        preds[kind == 5] = gts[kind == 5]
        copied.update(gts[kind == 5].any(axis=(1, 2)).tolist())
        settled = (preds == gts).all(axis=(1, 2))
        assert settled.any() and not settled.all()
        on += [m.mean() for m in np.concatenate((preds, gts)) if m.any()]
        for tau in (0.1, 0.3, 0.5, 1.0):
            got = metrics.lesion_counts(preds, gts, tau)
            want = [_pixel_set_counts(p, g, tau) for p, g in zip(preds, gts)]
            assert [tuple(int(c[k]) for c in got) for k in range(16)] == want
    assert 0.03 <= np.mean(on) <= 0.05
    # copies of non-empty and of empty truths
    assert min(copied[True], copied[False]) >= 10, copied


# The gt component on the right starts at (0, 4), after the left one's
# (0, 2) in raster order, but its (min row, min col) = (0, 1) puts it first
# in connected_components' order. The 9-pixel prediction P covers all of the
# left one (IoU 3/9) and four pixels of the right one (IoU 4/12): a tie. The
# 2-pixel prediction Q overlaps the right one at IoU 2/7.
_TIE_PRED = _art(
    "..###.",
    "..###.",
    "..#.#.",
    "....#.",
    ".##...",
)
_TIE_GT = _art(
    "..#.#.",
    "..#.#.",
    "..#.#.",
    "....#.",
    ".###..",
)


@pytest.mark.parametrize("tau, want", [
    # the tie goes to the right component, which was Q's only candidate:
    # one match. Taking the left one first would let Q match too (2), and
    # counting candidate pairs without the greedy match would give 3
    (0.25, (1, 1, 1)),
    # Q falls below tau; P still has two candidates but takes one
    (0.3, (1, 1, 1)),
    (0.5, (0, 2, 2)),
])
def test_lesion_counts_follow_the_greedy_order_on_ties(tau, want):
    assert _pixel_set_counts(_TIE_PRED, _TIE_GT, tau) == want
    for pred, gt, counts in ((_TIE_PRED, _TIE_GT, want),
                             # the same tie on the prediction side
                             (_TIE_GT, _TIE_PRED,
                              (want[0], want[2], want[1]))):
        got = metrics.lesion_counts(pred[None], gt[None], tau)
        assert tuple(int(c[0]) for c in got) == counts
        # the answer must not depend on the other images of the stack
        stack = metrics.lesion_counts(
            np.stack([gt, pred, pred, np.zeros_like(pred)]),
            np.stack([gt, gt, pred, gt]), tau)
        assert tuple(int(c[1]) for c in stack) == counts


@pytest.mark.parametrize("shape", [(24, 24), (7, 13), (1, 30), (30, 1)])
def test_lesion_counts_given_labels_equal_given_masks(shape, monkeypatch):
    # a mask's labels, flipped as view_stack flips them, stand in for the
    # mask: the same counts, as int32 or uint8; tau=0.3 takes the
    # shared-component branch
    real = metrics.match_lesions
    shared = []
    monkeypatch.setattr(metrics, "match_lesions",
                        lambda *args: shared.append(args) or real(*args))
    rng = np.random.default_rng(47)
    flips = (lambda a: a, lambda a: a[:, :, ::-1], lambda a: a[:, ::-1])
    for density in (0.02, 0.05, 0.2, 0.5, 1.0):
        for _ in range(6):
            n = int(rng.integers(1, 17))
            gts = rng.random((n,) + shape) < density
            gts[rng.random(n) < 0.2] = False
            # each prediction is the truth with a few pixels toggled, an
            # independent draw, or the truth itself (settled)
            kind = rng.integers(0, 3, n)
            preds = rng.random(gts.shape) < density
            preds[kind == 0] = gts[kind == 0] ^ (
                rng.random(gts[kind == 0].shape) < 0.03)
            preds[kind == 2] = gts[kind == 2]
            labels, counts = kernels.label_components(gts)
            for flip in flips:
                pred, gt = flip(preds), flip(gts)
                for tau in (0.3, 0.5, 1.0):
                    want = metrics.lesion_counts(pred, gt, tau)
                    for dtype in (np.int32, np.uint8):
                        got = metrics.lesion_counts(
                            pred, flip(labels.astype(dtype)), tau)
                        assert all(np.array_equal(a, b)
                                   for a, b in zip(got, want))
                    # a block where every prediction is settled
                    matched, fp, fn = metrics.lesion_counts(
                        gt, flip(labels), tau)
                    assert np.array_equal(matched, counts)
                    assert not fp.any() and not fn.any()
    assert shared


def test_lesion_counts_reject_bad_tau_and_shapes():
    masks = np.zeros((1, 3, 3), dtype=bool)
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match="tau"):
            metrics.lesion_counts(masks, masks, bad)
    with pytest.raises(ValueError, match="shape"):
        metrics.lesion_counts(masks, np.zeros((1, 3, 4), dtype=bool), 0.5)


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint16, np.int8])
def test_lesion_counts_refuse_integer_masks_of_other_dtypes(dtype):
    # two single-pixel lesions, one found: read as labels, a 0/1 integer
    # mask would hold one lesion, and the missed one would go uncounted
    gt = np.zeros((1, 5, 5), dtype=bool)
    gt[0, 0, 0] = gt[0, 4, 4] = True
    pred = np.zeros_like(gt)
    pred[0, 0, 0] = True
    assert [int(c[0]) for c in metrics.lesion_counts(pred, gt)] == [1, 0, 1]
    for labels in (np.uint8, np.int32):  # read as labels, as documented
        got = metrics.lesion_counts(pred, gt.astype(labels))
        assert [int(c[0]) for c in got] == [1, 0, 0]
    text = f"^gt dtype {np.dtype(dtype)} is not bool, int32 or uint8$"
    with pytest.raises(ValueError, match=text):
        metrics.lesion_counts(pred, gt.astype(dtype))
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)} "):
        metrics.error_arrays(np.zeros(1), pred, gt.astype(dtype))


# -- error term ------------------------------------------------------------


def test_error_term_examples():
    assert metrics.error_term(0.5, 2, 1, 0.6) == pytest.approx(3.9, abs=1e-12)
    assert metrics.error_term(0.0, 0, 0, 1.0) == 0.0
    assert metrics.error_term(0.5, 2, 1, 0.6, (0.0, 0.0, 1.0)) == pytest.approx(0.9)


def test_error_term_weights_scale_counts():
    got = metrics.error_term(0.5, 2, 1, 0.6, weights=(2.0, 3.0, 0.5))
    assert got == pytest.approx(0.5 + 4.0 + 3.0 + 0.5 * 0.4, abs=1e-12)


def test_error_term_full_dominates_loss_ji():
    rng = np.random.default_rng(23)
    for _ in range(20):
        L = rng.uniform(0, 3)
        fp, fn = rng.integers(0, 5, 2)
        ji = rng.uniform(0, 1)
        assert (metrics.error_term(L, fp, fn, ji)
                >= metrics.error_term(L, fp, fn, ji, (0.0, 0.0, 1.0)))


def test_error_term_without_count_weights_is_loss_plus_jaccard():
    # weights (0, 0, w) give the same bits as the two-term sum
    rng = np.random.default_rng(31)
    for _ in range(2000):
        L = rng.uniform(0, 3)
        fp, fn = rng.integers(0, 5, 2).tolist()
        ji, w = rng.uniform(0, 1), rng.uniform(0, 4)
        assert (metrics.error_term(L, fp, fn, ji, (0.0, 0.0, w))
                == L + w * (1.0 - ji))


def test_error_term_rejects_bad_inputs():
    with pytest.raises(ValueError):
        metrics.error_term(0.1, 0, 0, 1.0, (1.0, 1.0))
    for args in ((-0.1, 0, 0, 1.0), (0.1, -1, 0, 1.0), (0.1, 0, 0, 1.5),
                 (0.1, 0, 0, math.nan), (math.nan, 0, 0, 1.0),
                 (0.1, math.nan, 0, 1.0), (0.1, 0, math.nan, 1.0)):
        with pytest.raises(ValueError):
            metrics.error_term(*args)
        # one bad element spoils an array of good ones
        with pytest.raises(ValueError):
            metrics.error_term(*(np.array([0.5, v, 0.5]) for v in args))


def test_error_term_on_arrays_has_the_bits_of_each_element():
    rng = np.random.default_rng(53)
    L = rng.uniform(0, 3, 200)
    fp, fn = rng.integers(0, 6, (2, 200))
    ji = rng.uniform(0, 1, 200)
    weights = (0.7, 1.3, 2.9)
    got = metrics.error_term(L, fp, fn, ji, weights)
    assert [e.hex() for e in got.tolist()] == [
        metrics.error_term(*values, weights).hex()
        for values in zip(L.tolist(), fp.tolist(), fn.tolist(), ji.tolist())]


# -- per-example breakdown -------------------------------------------------


def test_evaluate_example_assembles_the_pieces():
    gt = np.zeros((6, 6), dtype=bool)
    gt[1, 1] = gt[4, 4] = True
    prob = np.full((6, 6), 0.1)
    prob[1, 1] = 0.9  # hits one lesion, misses the other
    got = metrics.evaluate_example(prob, gt)
    want_L = oracles.pixelwise_cross_entropy(prob, gt)
    assert got.L == pytest.approx(want_L, abs=1e-12)
    assert got.fp == 0 and got.fn == 1
    assert got.ji == pytest.approx(0.5)
    assert got.E == pytest.approx(want_L + 1 + 0.5, abs=1e-12)


def test_evaluate_example_matches_error_term_invariant():
    rng = np.random.default_rng(27)
    for _ in range(10):
        prob = rng.random((8, 8))
        gt = rng.random((8, 8)) < 0.3
        got = metrics.evaluate_example(prob, gt)
        assert got.E == pytest.approx(
            metrics.error_term(got.L, got.fp, got.fn, got.ji), abs=1e-12
        )


# -- pooled detection scores -----------------------------------------------


def test_evaluate_detection_perfect_and_empty():
    rng = np.random.default_rng(29)
    masks = [rng.random((8, 8)) < 0.3 for _ in range(4)]
    assert metrics.evaluate_detection(masks, masks, 0.5) == (1.0, 1.0, 1.0)

    empties = [np.zeros((8, 8), dtype=bool) for _ in masks]
    assert metrics.evaluate_detection(empties, masks, 0.5) == (0.0, 0.0, 0.0)


def test_evaluate_detection_published_arithmetic_shape():
    pred, gt = oracles.spaced_masks(70, 62, 30, side=32)
    precision, recall, f1 = metrics.evaluate_detection([pred], [gt], 0.5)
    assert precision == pytest.approx(70 / 132, abs=1e-12)
    assert recall == pytest.approx(0.7, abs=1e-12)
    assert f1 == pytest.approx(2 * precision * recall / (precision + recall), abs=1e-12)
    assert f1 == pytest.approx(0.603, abs=5e-4)


def test_evaluate_detection_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        metrics.evaluate_detection([np.zeros((2, 2), dtype=bool)], [], 0.5)
