"""Hot per-pixel kernels: component labeling, 3x3 local stats, cross-entropy.

All three are vectorized numpy with no per-pixel Python loop and take an
(n, h, w) stack of same-shape images, which costs about one call's numpy
overhead instead of n. The stencils read a padded stack as one flat
array with row stride W = w + 2, so each pass is one contiguous op.
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

    Each on-pixel starts labelled with its own flat index in the stack
    padded with the sentinel N (its size). Every round takes the 3x3
    window minimum (a vertical 3-min at offsets -W, 0, W, then a
    horizontal one at -1, 0, 1), reads it at the on-pixels and jumps one
    pointer, label <- label[label[min]]. A label is always the index of a
    pixel in the same component and never above the pixel's own, so at
    the fixed point each component carries its first on-pixel: its root.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    stack = mask.reshape((-1,) + mask.shape[-2:])
    k, h, w = stack.shape
    W = w + 2
    padded = np.zeros((k, h + 2, W), dtype=np.bool_)
    padded[:, 1:-1, 1:-1] = stack
    on = np.flatnonzero(stack)
    labels = np.zeros(k * h * w, dtype=np.int32)
    counts = np.zeros(k, dtype=np.intp)
    if on.size:
        flat_on = np.flatnonzero(padded)
        lab = np.full(padded.size + 1, padded.size, dtype=np.intp)
        lab[flat_on] = flat_on
        # vert[i] is the 3-min at pixel i + W, win[i] the 3x3 one at i + W + 1
        at, m = flat_on - (W + 1), padded.size - 2 * W
        new = flat_on
        while True:
            vert = np.minimum(np.minimum(lab[:m], lab[W:W + m]), lab[2 * W:-1])
            win = np.minimum(np.minimum(vert[:-2], vert[1:-1]), vert[2:])
            old, new = new, lab[lab[win[at]]]
            if np.array_equal(new, old):
                break
            lab[flat_on] = new
        # roots label themselves; numbering them in raster order, counted
        # from each image's first root, numbers each component by its
        # first on-pixel within its image
        roots = flat_on[new == flat_on]
        image = roots // ((h + 2) * W)
        counts = np.bincount(image, minlength=k)
        lab[roots] = (np.arange(1, roots.size + 1)
                      - (np.cumsum(counts) - counts)[image])
        labels[on] = lab[new]
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
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.bool_)
    q = np.clip(p, eps, 1.0 - eps)
    stack = (-1,) + p.shape[-2:] if p.ndim == 3 else (1, -1)
    logs = np.log(np.where(y, q, 1.0 - q)).reshape(stack)
    sums = [-(terms[on].sum() + terms[~on].sum())
            for terms, on in zip(logs, y.reshape(stack))]
    return np.array(sums) if p.ndim == 3 else float(sums[0])
