"""Segmentation error metrics and the composite per-example error term.

Images are float64 arrays in [0,1] (row-major, shape H x W), masks are
boolean arrays of the same shape, probability maps are float64 in [0,1].
All functions here are pure and safe to call from any number of workers.

The composite error term of one example combines four measurements:

    E = L + w_fp * FP + w_fn * FN + w_ji * (1 - JI)

with L the mean pixel cross-entropy, FP/FN the lesion-level false
positive / false negative counts under IoU matching, JI the pixel-level
Jaccard index, and weights (1, 1, 1) by default; weights (0, 0, 1) score
loss plus Jaccard only.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

CLAMP_EPS = 1e-7
BINARIZE_THRESHOLD = 0.5


@dataclass(frozen=True)
class LesionMatchResult:
    """Outcome of matching predicted components against ground truth.

    Component ids are indices into the input component lists. Each id
    appears at most once across matches and the FP/FN lists.
    """

    matches: list  # (pred_id, gt_id, iou) triples, in acceptance order
    false_positives: list  # unmatched pred ids, ascending
    false_negatives: list  # unmatched gt ids, ascending


@dataclass(frozen=True)
class MetricsBreakdown:
    """Per-example evaluation: loss, lesion counts, Jaccard, composite E."""

    L: float
    fp: int
    fn: int
    ji: float
    E: float


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def mean_cross_entropy(p, y):
    """Mean over pixels of -[y ln p + (1-y) ln(1-p)], p clamped to [1e-7, 1-1e-7]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.bool_)
    _check_same_shape(p, y)
    return kernels.cross_entropy_sum(p.ravel(), y.ravel(), CLAMP_EPS) / p.size


def jaccard_index(a, b):
    """|a n b| / |a u b| over boolean masks; 1.0 when both masks are empty.

    On (n, h, w) stacks, an array of the n per-image values.
    """
    a = np.asarray(a, dtype=np.bool_)
    b = np.asarray(b, dtype=np.bool_)
    _check_same_shape(a, b)
    union = np.add.reduce(np.logical_or(a, b), axis=(-2, -1))
    inter = np.add.reduce(np.logical_and(a, b), axis=(-2, -1))
    # both masks empty: (0 + 1) / 1
    ji = (inter + (union == 0)) / np.maximum(union, 1)
    return float(ji) if a.ndim == 2 else ji


def binarize(p):
    """Boolean mask with pixels on where p >= 0.5 (inclusive)."""
    return np.asarray(p, dtype=np.float64) >= BINARIZE_THRESHOLD


def connected_components(mask):
    """8-connected components of a boolean mask as a list of pixel sets.

    Each component is a frozenset of (row, col) tuples. Components are
    ordered by (min row, min col), ties broken by first on-pixel in
    row-major order.
    """
    labels, n = kernels.label_components(np.asarray(mask, dtype=np.bool_))
    comps = []
    for k in range(1, n + 1):
        rows, cols = (labels == k).nonzero()
        first = int(rows[0] * labels.shape[1] + cols[0])
        comps.append(((int(rows.min()), int(cols.min()), first),
                      frozenset(zip(rows.tolist(), cols.tolist()))))
    return [pixels for _, pixels in sorted(comps, key=lambda c: c[0])]


def component_iou(a, b):
    """IoU between two pixel sets."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / len(a | b)


def match_lesions(pred, gt, tau=0.5):
    """Greedily match predicted components to ground-truth components.

    All (pred, gt) pairs are scored by IoU and accepted in descending
    order (ties broken by pred id then gt id, ascending), each component
    used at most once, accepting only pairs with IoU >= tau. Unmatched
    predicted components are false positives, unmatched ground-truth
    components false negatives.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0,1], got {tau}")
    pairs = []
    for pi, pc in enumerate(pred):
        for gi, gc in enumerate(gt):
            iou = component_iou(pc, gc)
            if iou >= tau:
                pairs.append((-iou, pi, gi))
    used_pred = set()
    used_gt = set()
    matches = []
    for neg_iou, pi, gi in sorted(pairs):
        if pi not in used_pred and gi not in used_gt:
            used_pred.add(pi)
            used_gt.add(gi)
            matches.append((pi, gi, -neg_iou))
    fps = [pi for pi in range(len(pred)) if pi not in used_pred]
    fns = [gi for gi in range(len(gt)) if gi not in used_gt]
    return LesionMatchResult(matches=matches, false_positives=fps,
                             false_negatives=fns)


def lesion_counts(pred_masks, gt, tau=0.5):
    """Per-image (matched, false positive, false negative) lesion counts.

    Takes an (n, h, w) stack of predicted masks and one of true masks, or
    of their component labels: int32 (``kernels.label_components``) or
    uint8 (``PoolState.labeled``) labels in any numbering (a flipped
    view's labels are the flipped labels), whose largest is the component
    count, so a 0/1 stack of those holds one lesion per nonempty image;
    other integer dtypes raise ValueError. Returns three int arrays: what
    ``match_lesions`` counts on each image's ``connected_components``.
    A prediction equal to its mask is settled without labeling it: each
    component matches itself at IoU 1 and overlaps no other, so matched
    is the mask's component count and there is no false positive or
    negative. Only the differing predictions are labeled, in one call
    together with every boolean mask (labels given are not labeled
    again), and one bincount over the (image, pred label, gt label)
    triple of every pixel on in either mask of a differing image gives
    its table of component sizes and overlaps, hence every pair's IoU;
    the (0, 0) background cell, never read, stays 0. When no component
    lies in two pairs with IoU >= tau, every such pair is a match
    whatever the order. Otherwise ``match_lesions`` runs on that image's
    ``connected_components``, since then their order can decide the
    count. That needs tau < 0.5: a component with IoU >= 0.5 against two
    disjoint ones would be their union, which would join them into one.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0,1], got {tau}")
    pred_masks = np.asarray(pred_masks, dtype=np.bool_)
    gt = np.asarray(gt)
    gt_labeled = issubclass(gt.dtype.type, np.integer)
    if gt_labeled and gt.dtype not in (np.int32, np.uint8):
        raise ValueError(f"gt dtype {gt.dtype} is not bool, int32 or uint8")
    gt_masks = gt != 0 if gt_labeled else gt.astype(np.bool_, copy=False)
    _check_same_shape(pred_masks, gt_masks)
    differ = np.logical_or.reduce(pred_masks != gt_masks,
                                  axis=(-2, -1)).nonzero()[0]
    m = differ.size
    preds, gts = pred_masks[differ], gt_masks[differ]
    if gt_labeled:
        pred_labels, pred_counts = kernels.label_components(preds)
        gt_labels = gt[differ]
        n_gt = np.maximum.reduce(gt, axis=(-2, -1), initial=0).astype(np.intp)
    else:
        labels, counts = kernels.label_components(
            np.concatenate((preds, gt_masks)))
        pred_labels, gt_labels = labels[:m], labels[m:][differ]
        pred_counts, n_gt = counts[:m], counts[m:]
    gt_counts = n_gt[differ]
    n_pred, matched = n_gt.copy(), n_gt.copy()
    n_pred[differ], matched[differ] = pred_counts, 0
    rows = int(np.maximum.reduce(pred_counts, initial=0)) + 1
    cols = int(np.maximum.reduce(gt_counts, initial=0)) + 1
    if rows > 1 and cols > 1:
        on = (preds | gts).ravel().nonzero()[0]
        key = ((on // preds[0].size * rows + pred_labels.ravel()[on])
               * cols + gt_labels.ravel()[on])
        table = np.bincount(key, minlength=m * rows * cols)
        table = table.reshape(m, rows, cols)
        k, p, g = table[:, 1:, 1:].nonzero()
        inter = table[:, 1:, 1:][k, p, g]
        union = (np.add.reduce(table[:, 1:], axis=2)[k, p]
                 + np.add.reduce(table[:, :, 1:], axis=1)[k, g] - inter)
        keep = inter / union >= tau
        k, p, g = k[keep], p[keep], g[keep]
        matched[differ] = np.bincount(k, minlength=m)
        pred_uses = np.bincount(k * rows + p)
        gt_uses = np.bincount(k * cols + g)
        if k.size and (np.maximum.reduce(pred_uses) > 1
                       or np.maximum.reduce(gt_uses) > 1):
            shared = (pred_uses[k * rows + p] > 1) | (gt_uses[k * cols + g] > 1)
            for image in set(k[shared].tolist()):
                matched[differ[image]] = len(match_lesions(
                    connected_components(preds[image]),
                    connected_components(gts[image]), tau).matches)
    return matched, n_pred - matched, n_gt - matched


def detection_scores(tp, fp, fn):
    """Precision, recall and F1 from pooled lesion counts; 0/0 gives 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def error_term(L, fp, fn, ji, weights=(1.0, 1.0, 1.0)):
    """Composite example error L + w0*fp + w1*fn + w2*(1 - ji).

    ``weights`` defaults to (1, 1, 1), i.e. raw counts enter unscaled.
    Works element-wise on arrays of the four values, with the same
    bits per element as on scalars. A negative or NaN L, fp or fn, or a
    ji outside [0, 1] or NaN, raises ValueError.
    """
    # every value within its bound, so that a NaN fails too
    ge = np.greater_equal
    bad = ~(ge(L, 0) & ge(fp, 0) & ge(fn, 0) & ge(ji, 0.0)
            & np.less_equal(ji, 1.0))
    if np.logical_or.reduce(bad, axis=None):
        raise ValueError(
            f"invalid metric values: L={L}, fp={fp}, fn={fn}, ji={ji}"
        )
    w_fp, w_fn, w_ji = weights
    return L + w_fp * fp + w_fn * fn + w_ji * (1.0 - ji)


def loss_and_predictions(probs, gt):
    """Mean cross-entropy L of each map of an (n, h, w) stack, and its
    binarized predictions: the per-block part of ``breakdown_arrays``."""
    probs = np.asarray(probs, dtype=np.float64)
    gt = np.asarray(gt)
    _check_same_shape(probs, gt)
    # mean_cross_entropy of each map alone
    L = (kernels.cross_entropy_sum(probs, gt.astype(np.bool_, copy=False),
                                   CLAMP_EPS) / probs[0].size)
    return L, binarize(probs)


def error_arrays(L, pred_masks, gt, tau=0.5, weights=(1.0, 1.0, 1.0)):
    """The rest of ``breakdown_arrays``, (fp, fn, ji, E), from L and the
    predictions; each is per image, so joined blocks keep their bits."""
    _, fp, fn = lesion_counts(pred_masks, gt, tau)
    ji = jaccard_index(pred_masks, gt)
    return fp, fn, ji, error_term(L, fp, fn, ji, weights)


def breakdown_arrays(probs, gt, tau=0.5, weights=(1.0, 1.0, 1.0)):
    """The ``MetricsBreakdown`` fields of an (n, h, w) stack, as n-arrays.

    Returns (L, fp, fn, ji, E). ``gt`` holds the boolean masks or their
    component labels (see ``lesion_counts``).
    """
    L, pred_masks = loss_and_predictions(probs, gt)
    return (L,) + error_arrays(L, pred_masks, gt, tau, weights)


def evaluate_example(prob, gt_mask, tau=0.5, weights=(1.0, 1.0, 1.0)):
    """Full per-example breakdown of a probability map against its mask."""
    arrays = breakdown_arrays(np.asarray(prob)[None],
                              np.asarray(gt_mask, dtype=np.bool_)[None],
                              tau, weights)
    return MetricsBreakdown(*(a.item() for a in arrays))


def evaluate_detection(pred_masks, gt_masks, tau=0.5):
    """Lesion-level precision, recall and F1 aggregated over mask pairs.

    Matches are counted per image via ``match_lesions`` and pooled.
    0/0 ratios are defined as 0.
    """
    if len(pred_masks) != len(gt_masks):
        raise ValueError(
            f"list length mismatch: {len(pred_masks)} vs {len(gt_masks)}"
        )
    tp = fp = fn = 0
    for pm, gm in zip(pred_masks, gt_masks):
        result = match_lesions(connected_components(pm),
                               connected_components(gm), tau)
        tp += len(result.matches)
        fp += len(result.false_positives)
        fn += len(result.false_negatives)
    return detection_scores(tp, fp, fn)
