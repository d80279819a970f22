"""Hot per-pixel kernels: component labeling, 3x3 local stats, cross-entropy.

All three are vectorized numpy with no per-pixel Python loop.
"""

import numpy as np


def label_components(mask):
    """Label 8-connected components of a boolean mask.

    Returns (labels, n): int32 array with 0 for background and 1..n for
    components, numbered by their first on-pixel in row-major order.

    Each on-pixel starts labelled with its own raster index; background
    holds the sentinel h*w. Every round takes the 3x3 window minimum (a
    vertical then a horizontal 3-min over a sentinel-padded copy) and then
    jumps one pointer, label <- label[label[min]]. A label is always the
    raster index of a pixel in the same component and never above the
    pixel's own index, so at the fixed point each component carries its
    smallest raster index, i.e. its first on-pixel: the component's root.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    h, w = mask.shape
    n_px = h * w
    on = np.flatnonzero(mask)
    labels = np.zeros(n_px, dtype=np.int32)
    if on.size == 0:
        return labels.reshape(h, w), 0
    lab = np.full(n_px + 1, n_px, dtype=np.intp)
    lab[on] = on
    padded = np.full((h + 2, w + 2), n_px, dtype=np.intp)
    inner = padded[1:-1, 1:-1]
    while True:
        inner[...] = lab[:n_px].reshape(h, w)
        vert = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
        win = np.minimum(np.minimum(vert[:, :-2], vert[:, 1:-1]), vert[:, 2:])
        new = lab[lab[win.ravel()[on]]]
        if np.array_equal(new, lab[on]):
            break
        lab[on] = new
    # roots label themselves; numbering them in raster order numbers each
    # component by its first on-pixel
    roots = on[new == on]
    labels[roots] = np.arange(1, roots.size + 1, dtype=np.int32)
    labels[on] = labels[new]
    return labels.reshape(h, w), int(roots.size)


def local_mean_std(img):
    """Per-pixel mean and standard deviation over a 3x3 window.

    Border pixels use edge-replicated neighborhoods. Std is the population
    std of the 9 window values.
    """
    img = np.ascontiguousarray(img, dtype=np.float64)
    h, w = img.shape
    padded = np.pad(img, 1, mode="edge")
    s1 = np.zeros((h, w), dtype=np.float64)
    s2 = np.zeros((h, w), dtype=np.float64)
    for dr in range(3):
        for dc in range(3):
            win = padded[dr : dr + h, dc : dc + w]
            s1 += win
            s2 += win * win
    mean = s1 / 9.0
    var = np.maximum(s2 / 9.0 - mean * mean, 0.0)
    return mean, np.sqrt(var)


def cross_entropy_sum(p, y, eps):
    """Sum over pixels of -[y ln p + (1-y) ln(1-p)], with p clamped to [eps, 1-eps]."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.bool_)
    q = np.clip(p, eps, 1.0 - eps)
    return float(-(np.log(q[y]).sum() + np.log(1.0 - q[~y]).sum()))
