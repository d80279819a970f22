"""Hot per-pixel kernels: component labeling, 3x3 local stats, cross-entropy.

All three are vectorized numpy with no per-pixel Python loop. Labeling
and the local stats take one (h, w) image or an (n, h, w) stack of
same-shape images; a stack costs about one call's numpy overhead instead
of n, which is what the per-call cost of small images is made of.
``shape_blocks`` cuts a sequence of images into such stacks.
"""

import numpy as np

# images per stack; larger blocks raise peak memory for no further speed
_BLOCK = 8


def shape_blocks(items):
    """Split ``items`` into runs of at most 8 consecutive same-shape items.

    Each item is a tuple whose first element is an image array; a run
    ends where the next image's shape differs, so a block never mixes
    shapes. Order is kept; works on any iterable, lazily.
    """
    block = []
    for item in items:
        if block and (len(block) == _BLOCK
                      or item[0].shape != block[0][0].shape):
            yield block
            block = []
        block.append(item)
    if block:
        yield block


def label_components(mask):
    """Label 8-connected components of a boolean mask or an (n, h, w) stack.

    Returns (labels, n): int32 labels of the input's shape with 0 for
    background and 1..n for components, numbered by their first on-pixel
    in row-major order. For a stack each image is numbered on its own
    and n is an int array of the per-image counts.

    Each on-pixel starts labelled with its own raster index in the stack;
    background holds the sentinel n_px. Every round takes the 3x3 window
    minimum (a vertical then a horizontal 3-min over a copy padded with
    the sentinel around each image, so windows stay in-plane) and then
    jumps one pointer, label <- label[label[min]]. A label is always the
    raster index of a pixel in the same component and never above the
    pixel's own index, so at the fixed point each component carries its
    smallest raster index, i.e. its first on-pixel: the component's root.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    stack = mask.reshape((-1,) + mask.shape[-2:])
    k, h, w = stack.shape
    plane = h * w
    n_px = k * plane
    on = np.flatnonzero(stack)
    labels = np.zeros(n_px, dtype=np.int32)
    counts = np.zeros(k, dtype=np.intp)
    if on.size:
        lab = np.full(n_px + 1, n_px, dtype=np.intp)
        lab[on] = on
        padded = np.full((k, h + 2, w + 2), n_px, dtype=np.intp)
        inner = padded[:, 1:-1, 1:-1]
        while True:
            inner[...] = lab[:n_px].reshape(k, h, w)
            vert = np.minimum(np.minimum(padded[:, :-2], padded[:, 1:-1]),
                              padded[:, 2:])
            win = np.minimum(np.minimum(vert[:, :, :-2], vert[:, :, 1:-1]),
                             vert[:, :, 2:])
            new = lab[lab[win.ravel()[on]]]
            if np.array_equal(new, lab[on]):
                break
            lab[on] = new
        # roots label themselves; numbering them in raster order, counted
        # from each image's first root, numbers each component by its
        # first on-pixel within its image
        roots = on[new == on]
        image = roots // plane
        counts = np.bincount(image, minlength=k)
        labels[roots] = (np.arange(1, roots.size + 1)
                         - (np.cumsum(counts) - counts)[image])
        labels[on] = labels[new]
    if mask.ndim == 2:
        return labels.reshape(h, w), int(counts[0])
    return labels.reshape(mask.shape), counts


def local_mean_std(img):
    """Per-pixel mean and standard deviation over a 3x3 window.

    Takes one image or an (n, h, w) stack. Border pixels use
    edge-replicated neighborhoods within their own image. Std is the
    population std of the 9 window values.
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


def cross_entropy_sum(p, y, eps):
    """Sum over pixels of -[y ln p + (1-y) ln(1-p)], with p clamped to [eps, 1-eps]."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.bool_)
    q = np.clip(p, eps, 1.0 - eps)
    return float(-(np.log(q[y]).sum() + np.log(1.0 - q[~y]).sum()))
