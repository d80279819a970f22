"""Desk-scale differentiable segmentation model and the incremental loop.

The model is a per-pixel logistic classifier over four local features:
raw intensity, 3x3 local mean, 3x3 local std, and a constant bias input.
It exists so the mining loop can be exercised and verified end to end at
desk scale; the loop itself only needs forward passes and SGD updates, so
any richer model with the same two entry points can be substituted.

Checkpoints are text: a header line, the feature count, then one weight
per line with 17 significant digits.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, read_lines
from .kernels import clip, local_mean_std, shape_blocks
from .pgm import to_image
from .pool import (add_chunk, error_terms, record_training_update,
                   refresh_errors)
from .selection import compute_partition_number, select_subset

MODEL_FORMAT = "iem-model/1"
N_FEATURES = 4

# keeps sigmoid output strictly inside (0,1) in float64
_LOGIT_CLIP = 35.0

# the slice of an image and of its mask for each view_of
# number: identity, horizontal flip, vertical flip, jitter (unflipped)
_VIEW_SLICES = ((...,), (..., slice(None, None, -1)),
                (..., slice(None, None, -1), slice(None)), (...,))
_JITTER = 3

# np.einsum without the Python-level array-function dispatch it pays on
# every SGD step; the same kernel, so the same bits
_einsum = np.einsum._implementation


@dataclass(eq=False)
class ModelParams:
    """Weights over (raw, local mean, local std, bias); version counts SGD steps."""

    weights: np.ndarray
    version: int = 0


def init_params():
    return ModelParams(weights=np.zeros(N_FEATURES), version=0)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs_per_iteration: int = 1
    jitter: float = 0.1  # max absolute global intensity offset; 0 drops the view

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be a finite number >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs_per_iteration < 1:
            raise ValueError("epochs_per_iteration must be >= 1")
        if not math.isfinite(self.jitter) or self.jitter < 0:
            raise ValueError(
                f"jitter must be a finite number >= 0, got {self.jitter}")

    @property
    def n_views(self):
        """Identity, h-flip and v-flip, then jitter when it is > 0."""
        return 4 if self.jitter > 0 else 3


def featurize(img):
    """Per-pixel features (..., H, W, 4): raw, 3x3 mean, 3x3 std, constant 1.

    Takes one (H, W) image or an (n, H, W) stack of them, in [0,1]; an
    integer one, such as a raster not yet converted, is refused.
    """
    img = np.asarray(img)
    if img.dtype.kind in "iu":
        raise ValueError(f"featurize takes a float image, got {img.dtype}; "
                         "convert a raster with pgm.to_image")
    img = np.asarray(img, dtype=np.float64)
    mean, std = local_mean_std(img)
    feats = np.empty(img.shape + (N_FEATURES,))
    feats[..., 0] = img
    feats[..., 1] = mean
    feats[..., 2] = std
    feats[..., 3] = 1.0
    return feats


def _sigmoid(z, out=None):
    """Sigmoid of z clamped to [-35, 35] by ``kernels.clip``, in place:
    into ``out`` (which may be z) when given, else never into z."""
    z = clip(z, -_LOGIT_CLIP, _LOGIT_CLIP, out=out)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def forward(params, img):
    """Probability map sigmoid(w . features), strictly inside (0,1).

    Takes one image or an (n, H, W) stack; each map equals that image's
    own, bit for bit.
    """
    return forward_features(params, featurize(img))


def forward_features(params, feats):
    logits = feats @ params.weights
    return _sigmoid(logits, out=logits)


def gradient(params, img, mask):
    """Gradient of the mean pixel cross-entropy w.r.t. the weights.

    Closed form (1/HW) * sum over pixels of (p - y) * feature.
    """
    return feature_gradient(params, featurize(img), mask)


def feature_gradient(params, feats, mask):
    """``gradient`` of one image given its (H, W, 4) features."""
    residual = forward_features(params, feats)
    residual -= np.asarray(mask, dtype=np.bool_)
    return _einsum("ijk,ij->k", feats, residual) / residual.size


def view_of(j, cfg):
    """The view rule: the number of an example's j-th view (j >= 1).

    Views are numbered identity (0), horizontal flip (1), vertical flip
    (2), then jitter (3) when ``cfg.jitter`` > 0; j wraps modulo the view
    count. Flips transform image and mask identically; jitter adds one
    global offset per image to the image only, clamped to [0,1].
    """
    if j < 1:
        raise ValueError(f"view index must be >= 1, got {j}")
    return (j - 1) % cfg.n_views


def jitter_offset(view, cfg, rng):
    """The offset ``view`` draws from ``rng``: jitter alone draws one."""
    return rng.uniform(-cfg.jitter, cfg.jitter) if view == _JITTER else None


def view_stack(slots):
    """The float image stack of each slot's view, and its mask's views.

    A slot is (raster, mask, view, offset): a uint8 raster and its mask
    (or its component labels, whose views are then the view's labels),
    seen as ``view_of``'s ``view``; ``offset``, its ``jitter_offset``, is
    read by the jitter view alone. The slots' uint8 slices are stacked
    and converted by one ``pgm.to_image``, and each jitter image has its
    offset added in place and is clamped to [0,1] by ``kernels.clip``:
    each pixel is its byte's divide, then for jitter the add and clamp,
    as for its image alone. Returns the (m, h, w) image stack of m slots
    and the list of their mask views, slices and not copies.
    """
    images = to_image(np.array([raster[_VIEW_SLICES[view]]
                                for raster, _, view, _ in slots]))
    for image, (_, _, view, offset) in zip(images, slots):
        if view == _JITTER:
            image += offset
            clip(image, 0.0, 1.0, out=image)
    return images, [mask[_VIEW_SLICES[view]] for _, mask, view, _ in slots]


def train_on_subset(params, examples, cfg, rng):
    """SGD over (raster, mask) pairs, one rng-chosen view per example per epoch.

    An image is its uint8 raster (``PoolState.labeled``), and a mask may
    be given as its component labels, whose nonzero pixels are the mask;
    ``feature_gradient`` casts each step's view to bool. Examples are
    visited in a fresh shuffled order each epoch. Each of up to 16
    consecutive same-shape steps draws its view index, then its jitter
    offset, in step order; ``view_stack`` builds their views as one
    stack, converted once, which is featurized at once, then the steps
    run one by one. SGD draws nothing from the rng, so the draws are
    those of one view at a time.
    Raises NumericError if an update would produce non-finite weights
    (learning rate too high for the data); params then keep the last
    finite weights and their version. A non-finite weight stays
    non-finite under later steps, so finiteness is checked once per
    block, on its last weights, and the block's kept steps name the
    first bad one. Non-finite starting weights have no such step and
    raise ValueError before any draw, leaving params and rng untouched.
    """
    if not examples:
        raise ValueError("training subset must be nonempty")
    if not np.isfinite(params.weights).all():
        raise ValueError(f"non-finite starting weights {params.weights}")
    n_views = cfg.n_views
    for _ in range(cfg.epochs_per_iteration):
        order = rng.permutation(len(examples))
        for block in shape_blocks(examples[i] for i in order):
            # each step draws its view index, then its offset
            images, masks = view_stack([
                (raster, mask,
                 view := view_of(int(rng.integers(1, n_views + 1)), cfg),
                 jitter_offset(view, cfg, rng))
                for raster, mask in block])
            feats = featurize(images)
            steps = [params.weights]
            # From finite weights a step makes no NaN without an overflow
            # first, which still warns; only steps after the block turned
            # non-finite, whose weights are discarded, raise "invalid".
            with np.errstate(invalid="ignore"):
                for view_feats, mask in zip(feats, masks):
                    params.weights = (params.weights - cfg.learning_rate
                                      * feature_gradient(params, view_feats,
                                                         mask))
                    steps.append(params.weights)
            if not np.isfinite(params.weights).all():
                bad = next(n for n, weights in enumerate(steps)
                           if not np.isfinite(weights).all())
                params.weights = steps[bad - 1]
                params.version += bad - 1
                raise NumericError(
                    "non-finite weights after SGD step "
                    f"{params.version + 1} (learning rate "
                    f"{cfg.learning_rate} too high)"
                )
            params.version += len(steps) - 1
    return params


def augmented_error_terms(params, pairs, selcfg, traincfg, rngs):
    """Error terms of each pair's t augmented views under the current model.

    ``rngs`` holds one generator per (raster, mask) pair, which draws
    that pair's jitter offsets in view order; the image is its uint8
    raster and the mask may be given as its component labels
    (``PoolState.labeled``). Returns one list of t errors per pair. The
    views are one slot each, pair by pair and view by view, built as SGD
    builds its steps': ``view_stack`` of each block of up to 16
    consecutive same-shape slots, made when the scorer reaches it.
    """
    t = selcfg.t
    views = [view_of(j, traincfg) for j in range(1, t + 1)]
    slots = ((raster, mask, view, jitter_offset(view, traincfg, rng))
             for (raster, mask), rng in zip(pairs, rngs) for view in views)
    blocks = ((images, np.array(masks))
              for images, masks in map(view_stack, shape_blocks(slots)))
    errors = list(error_terms(blocks, lambda imgs: forward(params, imgs),
                              selcfg))
    return [errors[i * t : (i + 1) * t] for i in range(len(pairs))]


def example_rng(seed, stage, iteration, example_id):
    """Stream used for one example's augmented error views.

    Derived from stable indices only. The saved model and the trace
    recompute offline only the E recorded in the last round, under the
    final weights: no file keeps the weights behind an earlier E. The
    entropy is ``[seed, stage, iteration, crc32(example_id)]``, passed as
    a uint32 array when all four lie in [0, 2**32): numpy reads each such
    int as one 32-bit word, so the stream is the list's, without numpy's
    per-int conversion.
    """
    entropy = [seed, stage, iteration, zlib.crc32(example_id.encode())]
    if (seed | stage | iteration) >> 32 == 0:  # crc32 is a uint32
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.default_rng(entropy)


def mine(pool, params, K, rounds, selcfg, traincfg, trace=None):
    """Run ``rounds`` mining rounds over the pool at its current stage.

    Refreshes E over the whole pool with the incoming model, then runs
    rounds of select / train / per-example error update. Per-example
    updates commit in id order. An update that drops its record zeroes
    E, so that record's t views are not scored; each example draws its
    views from its own ``example_rng``, so no other E moves. SGD and
    scoring read the pool's kept rasters and labels
    (``PoolState.labeled``). A round
    whose selection is empty trains nothing. ``trace``, when given, is
    called with (stage, iteration, subset) after each round.
    """
    stage = pool.stage
    refresh_errors(pool, lambda img: forward(params, img), selcfg)
    rng = np.random.default_rng([selcfg.seed, stage])
    for iteration in range(rounds):
        subset = select_subset(pool, K, rng)
        ids = subset.all_ids()
        if ids:
            train_on_subset(params, pool.labeled(ids), traincfg, rng)
            ids = sorted(ids)
            scored = [i for i in ids
                      if not pool.record_for(i).drops_on_update(selcfg.d)]
            rngs = [example_rng(selcfg.seed, stage, iteration, i)
                    for i in scored]
            errors = dict(zip(scored, augmented_error_terms(
                params, pool.labeled(scored), selcfg, traincfg, rngs)))
            for example_id in ids:
                record_training_update(pool, example_id,
                                       errors.get(example_id, []), selcfg.d)
        if trace is not None:
            trace(stage, iteration, subset)


def incremental_step(pool, params, selcfg, traincfg, new_chunk, trace=None):
    """Run one full incremental stage for a newly arrived chunk.

    Ingests the chunk, sets K to its positive count, then runs
    iterations_per_step mining rounds (see ``mine``).
    """
    stage = pool.next_stage
    K = compute_partition_number(new_chunk)
    add_chunk(pool, new_chunk, stage)
    mine(pool, params, K, selcfg.iterations_per_step, selcfg, traincfg, trace)
    return pool, params


def save_params(params, path):
    lines = [MODEL_FORMAT, str(len(params.weights))]
    lines.extend(f"{w:.17g}" for w in params.weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path):
    """Read a checkpoint written by save_params.

    Refuses, naming the file and line, a bad header, a weight count other
    than N_FEATURES, a weight that is not a finite number, a missing
    weight and any line after the last weight.
    """
    lines = read_lines(path, "checkpoint")
    if len(lines) < 2 or lines[0] != MODEL_FORMAT:
        raise DataError(f"{path}:1: bad checkpoint header")
    try:
        count = int(lines[1])
    except ValueError:
        raise DataError(f"{path}:2: bad checkpoint value {lines[1]!r}") from None
    if count != N_FEATURES:
        raise DataError(f"{path}:2: checkpoint holds {count} weights, "
                        f"expected {N_FEATURES}")
    weights = []
    for lineno, line in enumerate(lines[2:], start=3):
        if len(weights) == N_FEATURES:
            raise DataError(f"{path}:{lineno}: trailing line after the "
                            "last weight")
        try:
            value = float(line)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad checkpoint value "
                            f"{line!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite weight {line!r}")
        weights.append(value)
    if len(weights) != N_FEATURES:
        raise DataError(f"{path}:{len(lines) + 1}: truncated checkpoint "
                        f"({len(weights)} of {N_FEATURES} weights)")
    return ModelParams(weights=np.array(weights), version=0)
