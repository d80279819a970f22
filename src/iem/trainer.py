"""Desk-scale differentiable segmentation model and the incremental loop.

The model is a per-pixel logistic classifier over four local features:
raw intensity, 3x3 local mean, 3x3 local std, and a constant bias input.
It exists so the mining loop can be exercised and verified end to end at
desk scale; the loop itself only needs forward passes and SGD updates, so
any richer model with the same two entry points can be substituted.

Checkpoints are text: a header line, the feature count, then one weight
per line with 17 significant digits.
"""

import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .errors import DataError, NumericError
from .kernels import local_mean_std, shape_blocks
from .pool import add_chunk, record_training_update, refresh_errors
from .selection import partition_number_for, select_subset

MODEL_FORMAT = "iem-model/1"
N_FEATURES = 4

# keeps sigmoid output strictly inside (0,1) in float64
_LOGIT_CLIP = 35.0


@dataclass(eq=False)
class ModelParams:
    """Weights over (raw, local mean, local std, bias); version counts SGD steps."""

    weights: np.ndarray
    version: int = 0


def init_params():
    return ModelParams(weights=np.zeros(N_FEATURES), version=0)


@dataclass(frozen=True)
class AugmentRecipe:
    """Which views an example can present during training and error refresh."""

    horizontal_flip: bool = True
    vertical_flip: bool = True
    jitter: float = 0.1  # max absolute global intensity offset; 0 disables

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError("jitter amplitude must be >= 0")

    @cached_property
    def views(self):
        """Names of the enabled views, in view-index order."""
        enabled = (True, self.horizontal_flip, self.vertical_flip, self.jitter > 0)
        names = ("identity", "hflip", "vflip", "jitter")
        return tuple(name for name, on in zip(names, enabled) if on)

    @property
    def n_views(self):
        return len(self.views)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs_per_iteration: int = 1
    recipe: AugmentRecipe = field(default_factory=AugmentRecipe)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs_per_iteration < 1:
            raise ValueError("epochs_per_iteration must be >= 1")


def featurize(img):
    """Per-pixel features (..., H, W, 4): raw, 3x3 mean, 3x3 std, constant 1.

    Takes one (H, W) image or an (n, H, W) stack of them.
    """
    img = np.asarray(img, dtype=np.float64)
    mean, std = local_mean_std(img)
    feats = np.empty(img.shape + (N_FEATURES,))
    feats[..., 0] = img
    feats[..., 1] = mean
    feats[..., 2] = std
    feats[..., 3] = 1.0
    return feats


def _sigmoid(z):
    # np.clip's values, without its Python-level overhead
    z = np.minimum(np.maximum(z, -_LOGIT_CLIP), _LOGIT_CLIP)
    return 1.0 / (1.0 + np.exp(-z))


def forward(params, img):
    """Probability map sigmoid(w . features), strictly inside (0,1).

    Takes one image or an (n, H, W) stack; each map equals that image's
    own, bit for bit.
    """
    return forward_features(params, featurize(img))


def forward_features(params, feats):
    return _sigmoid(feats @ params.weights)


def gradient(params, img, mask):
    """Gradient of the mean pixel cross-entropy w.r.t. the weights.

    Closed form (1/HW) * sum over pixels of (p - y) * feature.
    """
    return feature_gradient(params, featurize(img), mask)


def feature_gradient(params, feats, mask):
    """``gradient`` of one image given its (H, W, 4) features."""
    mask = np.asarray(mask, dtype=np.bool_)
    residual = forward_features(params, feats) - mask
    return np.einsum("ijk,ij->k", feats, residual) / residual.size


def augment(img, mask, recipe, rng, j):
    """The j-th augmented view of an image/mask pair, j >= 1.

    Views are ordered identity, horizontal flip, vertical flip, jitter,
    restricted to those the recipe enables; j wraps modulo the view
    count. Flips transform image and mask identically; jitter adds one
    rng-drawn global offset to the image only, clamped to [0,1].
    Identity returns the inputs and flips slice them, so only jitter
    allocates; callers copy a view before writing to it.
    """
    if j < 1:
        raise ValueError(f"view index must be >= 1, got {j}")
    view = recipe.views[(j - 1) % recipe.n_views]
    if view == "hflip":
        return img[:, ::-1], mask[:, ::-1]
    if view == "vflip":
        return img[::-1], mask[::-1]
    if view == "jitter":
        delta = rng.uniform(-recipe.jitter, recipe.jitter)
        return np.clip(img + delta, 0.0, 1.0), mask
    return img, mask


def train_on_subset(params, examples, cfg, rng):
    """SGD over (image, mask) pairs, one rng-chosen view per example per epoch.

    Examples are visited in a fresh shuffled order each epoch. The views
    of up to 8 consecutive same-shape steps are drawn in step order and
    featurized as one stack, then the steps run one by one; SGD draws
    nothing from the rng, so the draws are those of one view at a time.
    Raises NumericError if an update would produce non-finite weights
    (learning rate too high for the data); params then keep the last
    finite weights and their version.
    """
    if not examples:
        raise ValueError("training subset must be nonempty")
    n_views = cfg.recipe.n_views
    for _ in range(cfg.epochs_per_iteration):
        order = rng.permutation(len(examples))
        for block in shape_blocks(examples[i] for i in order):
            views = [
                augment(img, mask, cfg.recipe, rng,
                        int(rng.integers(1, n_views + 1)))
                for img, mask in block
            ]
            feats = featurize(np.stack([img for img, _ in views]))
            for view_feats, (_, mask) in zip(feats, views):
                weights = params.weights - cfg.learning_rate * feature_gradient(
                    params, view_feats, mask
                )
                if not np.all(np.isfinite(weights)):
                    raise NumericError(
                        "non-finite weights after SGD step "
                        f"{params.version + 1} (learning rate "
                        f"{cfg.learning_rate} too high)"
                    )
                params.weights = weights
                params.version += 1
    return params


def augmented_error_terms(params, img, mask, selcfg, recipe, rng):
    """Error term of each of the t augmented views under the current model.

    The t views are scored as one stack.
    """
    views = [augment(img, mask, recipe, rng, j) for j in range(1, selcfg.t + 1)]
    breakdowns = metrics.evaluate_examples(
        forward(params, np.stack([v for v, _ in views])),
        np.stack([m for _, m in views]),
        tau=selcfg.tau, variant=selcfg.variant,
        threshold=selcfg.binarize_threshold, weights=selcfg.error_weights,
    )
    return [b.E for b in breakdowns]


def example_rng(seed, stage, iteration, example_id):
    """Stream used for one example's augmented error views.

    Derived from stable indices only, so the errors behind any recorded E
    can be recomputed offline from the saved model and the trace.
    """
    return np.random.default_rng(
        [seed, stage, iteration, zlib.crc32(example_id.encode())]
    )


def mine(pool, params, K, rounds, selcfg, traincfg, trace=None):
    """Run ``rounds`` mining rounds over the pool at its current stage.

    Refreshes E over the whole pool with the incoming model, then runs
    rounds of select / train / per-example error update. Per-example
    updates commit in id order. A round whose selection is empty trains
    nothing. ``trace``, when given, is called with (stage, iteration,
    subset) after each round.
    """
    stage = pool.stage
    refresh_errors(pool, lambda img: forward(params, img), selcfg)
    rng = np.random.default_rng([selcfg.seed, stage])
    for iteration in range(rounds):
        subset = select_subset(pool, K, rng)
        ids = subset.all_ids()
        if ids:
            train_on_subset(params, [pool.pair(i) for i in ids], traincfg, rng)
            for example_id in sorted(ids):
                img, mask = pool.pair(example_id)
                errors = augmented_error_terms(
                    params, img, mask, selcfg, traincfg.recipe,
                    example_rng(selcfg.seed, stage, iteration, example_id),
                )
                record_training_update(pool, example_id, errors, selcfg.d)
        if trace is not None:
            trace(stage, iteration, subset)


def incremental_step(pool, params, selcfg, traincfg, new_chunk, trace=None):
    """Run one full incremental stage for a newly arrived chunk.

    Ingests the chunk, sets K to its positive count, then runs
    iterations_per_step mining rounds (see ``mine``).
    """
    stage = 0 if not pool.records else pool.stage + 1
    K = partition_number_for(selcfg, new_chunk)
    add_chunk(pool, new_chunk, stage)
    mine(pool, params, K, selcfg.iterations_per_step, selcfg, traincfg, trace)
    return pool, params


def save_params(params, path):
    lines = [MODEL_FORMAT, str(len(params.weights))]
    lines.extend(f"{w:.17g}" for w in params.weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(lines) < 2 or lines[0] != MODEL_FORMAT:
        raise DataError(f"{path}: bad checkpoint header")
    try:
        count = int(lines[1])
        weights = np.array([float(v) for v in lines[2 : 2 + count]])
    except ValueError as exc:
        raise DataError(f"{path}: bad checkpoint value") from exc
    if len(weights) != count:
        raise DataError(f"{path}: truncated checkpoint")
    return ModelParams(weights=weights, version=0)
