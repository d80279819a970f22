"""Hot per-pixel kernels: component labeling, 3x3 local stats, cross-entropy.

All three are vectorized numpy with no per-pixel Python loop and take an
(n, h, w) stack of same-shape images, which costs about one call's numpy
overhead instead of n; cross-entropy alone loops in Python, once per
distinct lesion-pixel count among the images of a stack. The 3x3
stencil reads a padded stack as one flat array with row stride
W = w + 2, so each pass is one contiguous op. Labeling visits only the
on-pixels, since the masks it labels are mostly off. ``shape_blocks``
cuts a sequence of images into stacks, and ``stacked`` stacks them.
"""

from itertools import groupby, islice

import numpy as np

# np.clip's ufunc: its bits (NaN, +-inf, -0.0) in one compiled call
try:  # numpy >= 2
    from numpy._core.umath import clip
except ImportError:  # numpy 1.24-1.26
    from numpy.core.umath import clip

# images per stack; 32 gains nothing measurable and takes more peak memory
_BLOCK = 16


def shape_blocks(items, shape=lambda item: item[0].shape):
    """Split ``items`` into runs of up to 16 consecutive same-shape items.

    ``shape(item)`` is an item's shape, by default that of its first
    element, an image array; a run ends where the next item's shape
    differs, so a block never mixes shapes. Order is kept; works on any
    iterable, lazily.
    """
    for _, run in groupby(items, shape):
        while block := list(islice(run, _BLOCK)):
            yield block


def stacked(pairs):
    """(images, masks) stacks of ``shape_blocks``' blocks of pairs, lazily."""
    for block in shape_blocks(pairs):
        yield (np.array([img for img, _ in block]),
               np.array([mask for _, mask in block]))


def label_components(mask):
    """Label 8-connected components of a boolean mask or an (n, h, w) stack.

    Returns (labels, n): int32 labels of the input's shape with 0 for
    background and 1..n for components, numbered by their first on-pixel
    in row-major order. For a stack each image is numbered on its own
    and n is an int array of the per-image counts.

    Only the on-pixels take part, listed in raster order. A (9, n_on)
    table maps each one's 3x3 neighbours, read at flat offsets in the
    stack padded with off pixels (row stride W = w + 2), to list
    indices; off and padding pixels map to the sentinel n_on. Each
    on-pixel starts labelled with its own index. Every round takes the
    least label in its window and jumps one pointer,
    label <- label[label[min]]. A label is always the index of an
    on-pixel in the same component and never above the pixel's own, so
    at the fixed point each component carries its first on-pixel: its
    root.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    stack = mask.reshape((-1,) + mask.shape[-2:])
    k, h, w = stack.shape
    W = w + 2
    padded = np.zeros((k, h + 2, W), dtype=np.bool_)
    padded[:, 1:-1, 1:-1] = stack
    flat_on = padded.ravel().nonzero()[0]
    n_on = flat_on.size
    labels = np.zeros(k * h * w, dtype=np.int32)
    counts = np.zeros(k, dtype=np.intp)
    if n_on:
        ids = np.arange(n_on)
        index = np.full(padded.size, n_on)
        index[flat_on] = ids
        offsets = [dr * W + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
        nb = index[flat_on + np.array(offsets)[:, None]]
        lab = np.append(ids, n_on)
        while True:
            new = lab[lab[np.minimum.reduce(lab[nb])]]
            if np.logical_and.reduce(new == lab[:n_on]):
                break
            lab[:n_on] = new
        # roots label themselves; numbering them in raster order, counted
        # from each image's first root, numbers each component by its
        # first on-pixel within its image
        roots = (new == ids).nonzero()[0]
        image = flat_on[roots] // ((h + 2) * W)
        counts = np.bincount(image, minlength=k)
        lab[roots] = (np.arange(1, roots.size + 1)
                      - (np.cumsum(counts) - counts)[image])
        labels[stack.reshape(-1)] = lab[new]
    if mask.ndim == 2:
        return labels.reshape(h, w), int(counts[0])
    return labels.reshape(mask.shape), counts


def local_mean_std(img):
    """Per-pixel mean and standard deviation over a 3x3 window.

    Takes one image or an (n, h, w) stack. Border pixels use
    edge-replicated neighborhoods within their own image. Std is the
    population std of the 9 window values, each sum taken in (dr, dc) order.
    """
    img = np.ascontiguousarray(img, dtype=np.float64)
    h, w = img.shape[-2:]
    # what np.pad(mode="edge") gives, without its per-call overhead
    padded = np.empty(img.shape[:-2] + (h + 2, w + 2))
    padded[..., 1:-1, 1:-1] = img
    padded[..., 0, 1:-1] = img[..., 0, :]
    padded[..., -1, 1:-1] = img[..., -1, :]
    padded[..., 0] = padded[..., 1]
    padded[..., -1] = padded[..., -2]
    flat = padded.reshape(-1)
    squares = flat * flat
    W = w + 2
    n = flat.size - 2 * W - 2
    s1, s2 = sums = np.zeros((2, flat.size))
    for o in [dr * W + dc for dr in range(3) for dc in range(3)]:
        s1[:n] += flat[o : o + n]
        s2[:n] += squares[o : o + n]
    sums /= 9.0
    s2 -= s1 * s1
    np.sqrt(np.maximum(s2, 0.0, out=s2), out=s2)
    return tuple(sums.reshape((2,) + padded.shape)[..., :h, :w])


def cross_entropy_sum(p, y, eps):
    """Sum over pixels of -[y ln p + (1-y) ln(1-p)], with p clamped to [eps, 1-eps].

    A 3-d stack gives each image's sum, of y's terms then the others.
    One reduce sums every image's row of terms. The images with n > 0 y
    pixels are summed again in those two parts, one group per n: its rows
    compact to (g, n) and (g, h*w - n) arrays, each row summed alone. A
    row with no y pixel is the others' terms alone, and the empty y sum
    adds 0.0 to it, so every sum has the bits of the two-part one.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    # by h * w: reshape cannot infer a row length for an empty stack
    rows = (p.shape[0], p.shape[1] * p.shape[2]) if p.ndim == 3 else (1, p.size)
    y = np.ascontiguousarray(y, dtype=np.bool_).reshape(rows)
    q = clip(p.reshape(rows), eps, 1.0 - eps)
    logs = np.where(y, q, 1.0 - q)
    np.log(logs, out=logs)
    sums = -np.add.reduce(logs, axis=1)
    counts = np.add.reduce(y, axis=1)
    for n in set(counts.tolist()) - {0}:
        group = (counts == n).nonzero()[0]
        terms, on = logs[group], y[group]
        sums[group] = -(np.add.reduce(terms[on].reshape(-1, n), axis=1)
                        + np.add.reduce(terms[~on].reshape(group.size, -1),
                                        axis=1))
    return sums if p.ndim == 3 else float(sums[0])
