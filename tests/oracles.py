"""Slow, independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed: explicit loops, sets and
queues instead of array tricks, so each function can be checked by eye.
"""

import math
import re

import numpy as np

from iem.metrics import evaluate_example
from iem.pool import record_training_update
from iem.trainer import augment, example_rng, forward, gradient


def flood_components(mask):
    """8-connected components by literal BFS flood fill.

    Returns a list of frozensets of (row, col), ordered by (min row,
    min col) with ties broken by the component's first row-major pixel.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            queue = [(r, c)]
            seen[r, c] = True
            pixels = []
            while queue:
                cr, cc = queue.pop(0)
                pixels.append((cr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = cr + dr, cc + dc
                        if (0 <= nr < h and 0 <= nc < w
                                and mask[nr, nc] and not seen[nr, nc]):
                            seen[nr, nc] = True
                            queue.append((nr, nc))
            comps.append(((r, c), frozenset(pixels)))
    keyed = [
        (min(p[0] for p in pix), min(p[1] for p in pix), first[0] * w + first[1], pix)
        for first, pix in comps
    ]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def raster_labels(mask):
    """Label array of flood_components, numbered by first row-major pixel.

    Returns (labels, n) in the same form as kernels.label_components: int32,
    0 for background, 1..n for components.
    """
    mask = np.asarray(mask, dtype=bool)
    comps = flood_components(mask)
    # pixels are (row, col) tuples, so min() is the first row-major pixel
    by_first_pixel = sorted(comps, key=min)
    labels = np.zeros(mask.shape, dtype=np.int32)
    for number, pixels in enumerate(by_first_pixel, start=1):
        for r, c in pixels:
            labels[r, c] = number
    return labels, len(comps)


def pixelwise_cross_entropy(p, y, eps=1e-7):
    """Mean cross-entropy by a plain double loop over pixels."""
    h, w = p.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            q = min(max(float(p[r, c]), eps), 1.0 - eps)
            total += -math.log(q) if y[r, c] else -math.log(1.0 - q)
    return total / (h * w)


def set_jaccard(a, b):
    """Jaccard index via explicit pixel sets; 1.0 when both are empty."""
    sa = set(zip(*np.nonzero(np.asarray(a, dtype=bool))))
    sb = set(zip(*np.nonzero(np.asarray(b, dtype=bool))))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def greedy_match(pred, gt, tau):
    """Exhaustive pair enumeration, then greedy acceptance by descending IoU.

    Ties break by (pred id, gt id) ascending. Returns (matches, fps, fns)
    with matches as (pred_id, gt_id, iou) triples in acceptance order.
    """
    scored = []
    for pi, pc in enumerate(pred):
        for gi, gc in enumerate(gt):
            inter = len(pc & gc)
            union = len(pc | gc)
            iou = inter / union if union else 1.0
            if iou >= tau:
                scored.append((pi, gi, iou))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    used_pred, used_gt, matches = set(), set(), []
    for pi, gi, iou in scored:
        if pi in used_pred or gi in used_gt:
            continue
        used_pred.add(pi)
        used_gt.add(gi)
        matches.append((pi, gi, iou))
    fps = [pi for pi in range(len(pred)) if pi not in used_pred]
    fns = [gi for gi in range(len(gt)) if gi not in used_gt]
    return matches, fps, fns


def mining_selection(records, K, rng):
    """Direct transcription of one mining round over (E, id, label) records.

    Rank actives by error descending (id breaks ties), split by label,
    truncate the longer list to the shorter, take the first K of each as
    hard, then K from each shuffled remainder as easy. Consumes exactly
    two permutation draws: positives remainder first, then negatives.
    Returns four id lists (hard pos, hard neg, easy pos, easy neg).
    """
    active = [r for r in records if not r.dropped]
    ranked = sorted(active, key=lambda r: (-r.E, r.id))
    pos = [r.id for r in ranked if r.label == "positive"]
    neg = [r.id for r in ranked if r.label == "negative"]
    keep = min(len(pos), len(neg))
    pos, neg = pos[:keep], neg[:keep]
    hard_pos, rest_pos = pos[:K], pos[K:]
    hard_neg, rest_neg = neg[:K], neg[K:]
    easy_pos = [rest_pos[i] for i in rng.permutation(len(rest_pos))][:K]
    easy_neg = [rest_neg[i] for i in rng.permutation(len(rest_neg))][:K]
    return hard_pos, hard_neg, easy_pos, easy_neg


def mine_reference(pool, params, K, rounds, selcfg, traincfg):
    """``trainer.mine`` one image at a time: no blocks and no stacks.

    Refreshes E of every active record from its own forward pass, then
    per round selects with ``mining_selection``, takes one SGD step per
    drawn view (an order permutation per epoch, then each example's view
    index and jitter draw), and re-scores each selected id's t views from
    ``example_rng``, committing in id order. Returns the rounds' subsets.
    A mask is read as the pool's kept labels, which ``evaluate_example``
    and ``gradient`` cast to the mask.
    """
    stage = pool.stage

    def error(img, mask):
        return evaluate_example(forward(params, img), mask, selcfg.tau,
                                selcfg.error_weights).E

    for record in pool.records:
        if not record.dropped:
            record.E = error(*pool.labeled([record.id])[0])
    rng = np.random.default_rng([selcfg.seed, stage])
    subsets = []
    for iteration in range(rounds):
        subsets.append(mining_selection(pool.records, K, rng))
        ids = [example_id for group in subsets[-1] for example_id in group]
        if not ids:
            continue
        for _ in range(traincfg.epochs_per_iteration):
            for i in rng.permutation(len(ids)):
                img, mask = pool.labeled([ids[i]])[0]
                j = int(rng.integers(1, traincfg.n_views + 1))
                view, view_mask = augment(img, mask, traincfg, rng, j)
                params.weights = (params.weights - traincfg.learning_rate
                                  * gradient(params, view, view_mask))
                params.version += 1
        for example_id in sorted(ids):
            img, mask = pool.labeled([example_id])[0]
            views = example_rng(selcfg.seed, stage, iteration, example_id)
            errors = [error(*augment(img, mask, traincfg, views, j))
                      for j in range(1, selcfg.t + 1)]
            record_training_update(pool, example_id, errors, selcfg.d)
    return subsets


def fd_gradient(loss, weights, h=1e-6):
    """Central finite-difference gradient of loss(weights)."""
    g = np.zeros(len(weights))
    for j in range(len(weights)):
        up = weights.copy()
        up[j] += h
        down = weights.copy()
        down[j] -= h
        g[j] = (loss(up) - loss(down)) / (2.0 * h)
    return g


def spaced_masks(n_shared, n_pred_only, n_gt_only, side):
    """Mask pair whose components are isolated single pixels on a 2px grid.

    Shared slots become IoU-1 matches, the rest are unmatched predicted
    or ground-truth components, so lesion counts are exactly
    TP = n_shared, FP = n_pred_only, FN = n_gt_only.
    """
    slots = [(2 * r, 2 * c) for r in range(side // 2) for c in range(side // 2)]
    if len(slots) < n_shared + n_pred_only + n_gt_only:
        raise ValueError("side too small for the requested counts")
    pred = np.zeros((side, side), dtype=bool)
    gt = np.zeros((side, side), dtype=bool)
    it = iter(slots)
    for _ in range(n_shared):
        r, c = next(it)
        pred[r, c] = gt[r, c] = True
    for _ in range(n_pred_only):
        r, c = next(it)
        pred[r, c] = True
    for _ in range(n_gt_only):
        r, c = next(it)
        gt[r, c] = True
    return pred, gt


# -- earlier kernel bodies, frozen -----------------------------------------
# The strided arithmetic the package used before its per-pixel kernels
# moved to flat contiguous passes. The new kernels must equal these bit
# for bit, so they are kept exactly as they were.


def strided_local_mean_std(img):
    """3x3 mean and std by nine adds over strided windows of a padded copy."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    padded = np.empty(img.shape[:-2] + (h + 2, w + 2))
    padded[..., 1:-1, 1:-1] = img
    padded[..., 0, 1:-1] = img[..., 0, :]
    padded[..., -1, 1:-1] = img[..., -1, :]
    padded[..., 0] = padded[..., 1]
    padded[..., -1] = padded[..., -2]
    squares = padded * padded
    s1 = np.zeros(img.shape, dtype=np.float64)
    s2 = np.zeros(img.shape, dtype=np.float64)
    for dr in range(3):
        for dc in range(3):
            s1 += padded[..., dr : dr + h, dc : dc + w]
            s2 += squares[..., dr : dr + h, dc : dc + w]
    mean = s1 / 9.0
    var = np.maximum(s2 / 9.0 - mean * mean, 0.0)
    return mean, np.sqrt(var)


def selected_cross_entropy_sum(p, y, eps):
    """Cross-entropy sum of one map: y-selected logs, then the others."""
    q = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(y, dtype=bool)
    return float(-(np.log(q[y]).sum() + np.log(1.0 - q[~y]).sum()))


def clip_sigmoid(z, limit=35.0):
    """Logistic function of z clipped to [-limit, limit] by np.clip."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -limit, limit)))


def broadcast_gradient(weights, feats, mask):
    """Mean-cross-entropy gradient of one (h, w, 4) feature map.

    The pixel sum is taken over the broadcast product
    residual[..., None] * feats.
    """
    residual = clip_sigmoid(feats @ weights) - np.asarray(mask, dtype=bool)
    return (residual[..., None] * feats).sum(axis=(0, 1)) / residual.size


# -- earlier PGM header parser, frozen ---------------------------------------
# The token loop the decoder used before its single anchored header match.
# The decoder must give the same raster or the same error text on any file.

_PGM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def decode_pgm(data, path):
    """(raster, None) for the bytes of a PGM file, or (None, error text).

    Header tokens are taken one at a time by ``finditer``; a match that
    starts with '#' is a comment and is skipped. ``path`` only names the
    file in the error text.
    """
    tokens = []
    for match in _PGM_TOKEN.finditer(data):
        if match[0][:1] != b"#":
            tokens.append(match[0])
            if len(tokens) == 4:
                break
    else:
        return None, f"{path}: truncated PGM header"
    if tokens[0] != b"P5":
        return None, f"{path}: not a binary PGM (magic {tokens[0]!r})"
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        return None, f"{path}: bad PGM header"
    if maxval != 255 or w < 1 or h < 1:
        return None, f"{path}: unsupported PGM geometry {w}x{h}/{maxval}"
    start = match.end() + 1  # one whitespace byte ends the header
    raster = data[start : start + w * h]
    if len(raster) != w * h:
        return None, f"{path}: raster truncated ({len(raster)} of {w * h} bytes)"
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w), None
