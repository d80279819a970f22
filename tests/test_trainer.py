"""Model math, augmentation, SGD training, and the incremental stage loop."""

import collections
import math
import zlib

import numpy as np
import pytest

import oracles
from iem import harness, kernels, metrics, pgm, trainer
from iem.errors import DataError, NumericError
from iem.harness import load_dataset, run_strategy, stage_budgets, train_pooled
from iem.pgm import (ImageCache, read_mask_pgm, read_pgm, to_image,
                     write_mask_pgm, write_pgm)
from iem.pool import (ExampleRecord, PoolState, add_chunk, load_state,
                      refresh_errors, save_state)
from iem.selection import SelectionConfig, compute_partition_number
from test_golden import mixed_dataset_dir  # noqa: F401 (a fixture)
from iem.trainer import (
    ModelParams,
    TrainConfig,
    augmented_error_terms,
    example_rng,
    featurize,
    forward,
    gradient,
    incremental_step,
    init_params,
    load_params,
    save_params,
    train_on_subset,
    view_of,
)


# -- features and forward --------------------------------------------------


def test_featurize_constant_image():
    feats = featurize(np.full((5, 5), 0.3))
    assert feats.shape == (5, 5, 4)
    assert np.allclose(feats[..., 0], 0.3)
    assert np.allclose(feats[..., 1], 0.3)
    assert np.allclose(feats[..., 2], 0.0)
    assert np.allclose(feats[..., 3], 1.0)


def test_featurize_checkerboard_center():
    img = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    feats = featurize(img)
    assert feats[1, 1, 1] == pytest.approx(5 / 9, abs=1e-12)
    assert feats[1, 1, 2] == pytest.approx(math.sqrt(20) / 9, abs=1e-12)


def test_featurize_replicates_borders():
    img = np.array([[1.0, 0.0], [0.0, 0.0]])
    feats = featurize(img)
    # corner (0,0): edge replication repeats the 1 four times in the
    # clamped 3x3 window -> mean 4/9
    assert feats[0, 0, 1] == pytest.approx(4 / 9, abs=1e-12)


def test_forward_zero_weights_is_half():
    assert np.allclose(forward(init_params(), np.random.default_rng(0).random((4, 4))), 0.5)


def test_forward_hand_value():
    params = ModelParams(weights=np.array([1.0, 0.0, 0.0, 0.0]))
    got = forward(params, np.full((2, 2), 0.3))
    assert np.allclose(got, 1 / (1 + math.exp(-0.3)), atol=1e-12)
    assert got[0, 0] == pytest.approx(0.574443, abs=1e-6)


def test_forward_stays_strictly_inside_unit_interval():
    params = ModelParams(weights=np.array([1e6, 1e6, 1e6, 1e6]))
    p = forward(params, np.ones((3, 3)))
    assert np.all(p < 1.0) and np.all(p > 0.0)
    params = ModelParams(weights=np.array([-1e6, 0.0, 0.0, -1e6]))
    p = forward(params, np.ones((3, 3)))
    assert np.all(p > 0.0)


def test_featurize_and_forward_stack_equal_single_images():
    rng = np.random.default_rng(3)
    params = ModelParams(weights=rng.normal(0.0, 3.0, 4))
    for shape in ((24, 24), (16, 20), (1, 7), (7, 1), (1, 1)):
        imgs = rng.random((5,) + shape)
        imgs[0] = 0.0
        imgs[1] = 1.0
        feats = featurize(imgs)
        probs = forward(params, imgs)
        assert feats.shape == imgs.shape + (4,)
        for img, got_feats, got_prob in zip(imgs, feats, probs):
            assert np.array_equal(got_feats, featurize(img))
            assert np.array_equal(got_prob, forward(params, img))


# -- gradient --------------------------------------------------------------


def test_gradient_closed_form_at_zero_weights():
    img = np.random.default_rng(1).random((6, 6))
    mask = np.ones((6, 6), dtype=bool)
    feats = featurize(img)
    want = (0.5 - 1.0) * feats.mean(axis=(0, 1))
    assert np.allclose(gradient(init_params(), img, mask), want, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        img = rng.random((8, 8))
        mask = rng.random((8, 8)) < 0.4
        weights = rng.normal(0, 0.8, 4)

        def loss(w):
            return metrics.mean_cross_entropy(
                forward(ModelParams(weights=w), img), mask
            )

        got = gradient(ModelParams(weights=weights.copy()), img, mask)
        want = oracles.fd_gradient(loss, weights)
        denom = max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(got - want) / denom < 1e-6


def test_sigmoid_and_gradient_equal_frozen_bodies():
    # forward and the SGD step against the np.clip sigmoid and the
    # broadcast-product gradient they replaced, bit for bit
    rng = np.random.default_rng(47)
    biggest = 0.0
    for shape in ((1, 1), (1, 9), (9, 1), (16, 20), (24, 24)):
        for n in range(1, 9):
            imgs = rng.random((n,) + shape) + rng.uniform(-0.3, 0.3, (n, 1, 1))
            feats = featurize(np.clip(imgs, 0.0, 1.0))
            masks = rng.random(imgs.shape) < rng.uniform(0.0, 1.0)
            for scale in (1.0, 30.0, 300.0):
                weights = rng.uniform(-1.0, 1.0, 4) * scale
                params = ModelParams(weights=weights)
                biggest = max(biggest, np.abs(feats @ weights).max())
                assert np.array_equal(trainer.forward_features(params, feats),
                                      oracles.clip_sigmoid(feats @ weights))
                for f, m in zip(feats, masks):
                    assert np.array_equal(
                        trainer.feature_gradient(params, f, m),
                        oracles.broadcast_gradient(weights, f, m))
    assert biggest > 500.0  # logits far past the clip at 35


def test_sigmoid_equals_clip_on_special_values():
    z = np.array([np.inf, -np.inf, np.nan, 1e3, -1e3, 35.0, -35.0, 34.5,
                  0.0, -0.0, 1e-300])
    assert np.array_equal(trainer._sigmoid(z), oracles.clip_sigmoid(z),
                          equal_nan=True)


def test_einsum_implementation_gives_einsum_bits():
    # the SGD step calls einsum's implementation without its dispatcher
    assert trainer._einsum is np.einsum._implementation
    rng = np.random.default_rng(29)
    for shape in ((1, 1), (1, 9), (7, 3), (24, 24), (31, 17)):
        feats = featurize(rng.random(shape))
        for residual in (rng.standard_normal(shape),
                         rng.standard_normal(shape[::-1]).T):
            assert (trainer._einsum("ijk,ij->k", feats, residual).tobytes()
                    == np.einsum("ijk,ij->k", feats, residual).tobytes())


def test_clip_ufunc_gives_np_clip_bits():
    # the sigmoid, the cross-entropy and the jitter view clamp with the
    # ufunc that np.clip calls, without its Python-level wrappers
    assert isinstance(kernels.clip, np.ufunc)
    assert trainer.clip is kernels.clip
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 0.5,
               1.0, -1.0, 1e-7, 1.0 - 1e-7, 35.0, -35.0, 34.5, 1e3, -1e3]
    rng = np.random.default_rng(37)
    for lo, hi in ((-35.0, 35.0), (1e-7, 1.0 - 1e-7), (0.0, 1.0)):
        for z in (np.array(special), rng.uniform(2 * lo - 1, 2 * hi + 1, 999),
                  rng.standard_normal((3, 24, 24)) * 40.0):
            want = np.clip(z, lo, hi)
            assert kernels.clip(z, lo, hi).tobytes() == want.tobytes()
            out = z.copy()
            assert kernels.clip(out, lo, hi, out=out) is out
            assert out.tobytes() == want.tobytes()


def test_featurize_refuses_an_integer_image_or_stack(tiny_dataset):
    # a raster featurized unconverted would read 0-255 as intensities;
    # every program path converts it with pgm.to_image first
    chunks, _ = tiny_dataset
    pool = PoolState()
    add_chunk(pool, chunks[0], 0)
    [(raster, _)] = pool.labeled([chunks[0][0].id])
    for image in (raster, raster[None], raster.astype(np.int64),
                  np.ones((2, 3, 3), dtype=np.int32)):
        for call in (featurize, lambda img: forward(init_params(), img)):
            with pytest.raises(ValueError, match=r"pgm\.to_image"):
                call(image)
    assert np.array_equal(featurize(to_image(raster)),
                          featurize(read_pgm(chunks[0][0].image_ref)))
    with pytest.raises(ValueError, match="uint8"):
        to_image(to_image(raster))


def test_flip_views_predict_and_score_as_their_image():
    # what scoring only an example's distinct views would rest on: under
    # this model a flipped image's map is the flipped map up to rounding
    # (the 3x3 sums add in another order), and lesion counts and Jaccard
    # are the same for flipped predictions and masks or labels
    rng = np.random.default_rng(41)
    pairs = _lesion_examples(rng, [(13, 17)] * 12)
    rasters = np.array([raster for raster, _ in pairs])
    masks = np.array([mask for _, mask in pairs])
    labels = kernels.label_components(masks)[0].astype(np.uint8)
    # the 3x3 mean joins some lesion pixels and drops others
    blur = ModelParams(weights=np.array([20.0, 30.0, 0.0, -15.0]))
    probs = forward(blur, to_image(rasters))
    preds = metrics.binarize(probs)
    flips = (lambda a: a[..., ::-1], lambda a: a[..., ::-1, :])
    for flip in flips:
        got = forward(blur, to_image(np.ascontiguousarray(flip(rasters))))
        np.testing.assert_allclose(got, flip(probs), rtol=1e-12, atol=0)
        for tau in (0.3, 0.5):
            for gts in (masks, labels):
                want = metrics.lesion_counts(preds, gts, tau)
                flipped = metrics.lesion_counts(flip(preds), flip(gts), tau)
                assert [a.tolist() for a in flipped] == [a.tolist()
                                                         for a in want]
        assert (metrics.jaccard_index(flip(preds), flip(masks)).tolist()
                == metrics.jaccard_index(preds, masks).tolist())
    # the maps differ from the masks, and the counts see several lesions
    assert (preds != masks).any() and labels.max(axis=(1, 2)).max() > 1


def test_forward_and_sgd_step_leave_read_only_inputs_untouched():
    # the sigmoid and the residual are computed in place, in buffers of
    # their own: features, masks, labels and weights are only read
    rng = np.random.default_rng(31)
    feats = featurize(rng.random((2, 24, 24)))
    mask = rng.random((24, 24)) < 0.1
    labels = kernels.label_components(mask)[0].astype(np.uint8)
    weights = rng.uniform(-30.0, 30.0, 4)
    logits = feats[0] @ weights
    inputs = (feats, mask, labels, weights, logits)
    before = [a.tobytes() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    params = ModelParams(weights=weights)
    assert np.array_equal(trainer.forward_features(params, feats),
                          oracles.clip_sigmoid(feats @ weights))
    assert np.array_equal(trainer._sigmoid(logits),
                          oracles.clip_sigmoid(logits))
    for view_mask in (mask, labels):
        assert np.array_equal(
            trainer.feature_gradient(params, feats[1], view_mask),
            oracles.broadcast_gradient(weights, feats[1], mask))
    assert [a.tobytes() for a in inputs] == before


# -- augmentation ----------------------------------------------------------


def _blob_pair():
    """A raster with one bright pixel, and its mask."""
    raster = np.zeros((4, 6), dtype=np.uint8)
    raster[1, 2] = 255
    mask = raster > 127
    return raster, mask


def test_augment_views_cycle_in_order():
    raster, mask = _blob_pair()
    img = to_image(raster)
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    ident_img, ident_mask = oracles.one_view(raster, mask, cfg, rng, 1)
    assert np.array_equal(ident_img, img) and np.array_equal(ident_mask, mask)
    h_img, h_mask = oracles.one_view(raster, mask, cfg, rng, 2)
    assert np.array_equal(h_img, np.fliplr(img))
    assert np.array_equal(h_mask, np.fliplr(mask))
    v_img, v_mask = oracles.one_view(raster, mask, cfg, rng, 3)
    assert np.array_equal(v_img, np.flipud(img))
    assert np.array_equal(v_mask, np.flipud(mask))
    # j wraps modulo the view count: view 5 is identity again
    w_img, _ = oracles.one_view(raster, mask, cfg, rng, 5)
    assert np.array_equal(w_img, img)
    # without jitter the three flip views remain, so view 4 is identity
    cfg = TrainConfig(jitter=0.0)
    want = [(img, mask), (np.fliplr(img), np.fliplr(mask)),
            (np.flipud(img), np.flipud(mask)), (img, mask)]
    for j, (want_img, want_mask) in enumerate(want, start=1):
        got_img, got_mask = oracles.one_view(raster, mask, cfg, rng, j)
        assert np.array_equal(got_img, want_img), j
        assert np.array_equal(got_mask, want_mask), j


def test_augment_flip_is_involution():
    raster, mask = _blob_pair()
    cfg = TrainConfig(jitter=0.0)
    once_img, once_mask = oracles.one_view(raster, mask, cfg,
                                           np.random.default_rng(0), 2)
    twice_img, twice_mask = oracles.one_view(
        oracles.to_raster(once_img), once_mask, cfg, np.random.default_rng(0), 2)
    assert (np.array_equal(twice_img, to_image(raster))
            and np.array_equal(twice_mask, mask))


def test_augment_jitter_shifts_image_only():
    raster = np.full((3, 3), 128, dtype=np.uint8)
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    cfg = TrainConfig(jitter=0.2)
    j_img, j_mask = oracles.one_view(raster, mask, cfg,
                                     np.random.default_rng(3), 4)
    assert np.array_equal(j_mask, mask)
    delta = j_img[0, 0] - 128 / 255
    assert abs(delta) <= 0.2
    assert np.allclose(j_img, 128 / 255 + delta)
    assert j_img.min() >= 0.0 and j_img.max() <= 1.0


def test_augment_rejects_bad_view_index():
    with pytest.raises(ValueError, match=">= 1"):
        view_of(0, TrainConfig())


def test_recipe_validation_and_view_count():
    assert TrainConfig().n_views == 4
    assert TrainConfig(jitter=0.0).n_views == 3
    with pytest.raises(ValueError, match="jitter"):
        TrainConfig(jitter=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="jitter must be a finite"):
            TrainConfig(jitter=value)


# -- training --------------------------------------------------------------


def test_train_config_validation():
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate must be a finite"):
            TrainConfig(learning_rate=value)
    with pytest.raises(ValueError):
        TrainConfig(epochs_per_iteration=0)


def test_train_zero_learning_rate_keeps_weights():
    img, mask = _blob_pair()
    params = init_params()
    train_on_subset(params, [(img, mask)], TrainConfig(learning_rate=0.0),
                    np.random.default_rng(0))
    assert np.array_equal(params.weights, np.zeros(4))
    assert params.version == 1


def test_train_reduces_loss_and_counts_steps():
    rng = np.random.default_rng(4)
    img = rng.random((8, 8)) * 0.3
    img[2:5, 2:5] += 0.6
    mask = img > 0.5
    raster = oracles.to_raster(img)
    img = to_image(raster)
    params = init_params()
    before = metrics.mean_cross_entropy(forward(params, img), mask)
    cfg = TrainConfig(learning_rate=0.5, epochs_per_iteration=5, jitter=0.0)
    train_on_subset(params, [(raster, mask)], cfg, np.random.default_rng(0))
    after = metrics.mean_cross_entropy(forward(params, img), mask)
    assert after < before
    assert params.version == 5


def test_train_is_deterministic():
    rng = np.random.default_rng(5)
    examples = []
    for _ in range(4):
        img = rng.random((6, 6))
        examples.append((oracles.to_raster(img), img > 0.6))
    first = init_params()
    train_on_subset(first, examples, TrainConfig(), np.random.default_rng(9))
    second = init_params()
    train_on_subset(second, examples, TrainConfig(), np.random.default_rng(9))
    assert np.array_equal(first.weights, second.weights)


def test_train_rejects_empty_subset():
    with pytest.raises(ValueError, match="nonempty"):
        train_on_subset(init_params(), [], TrainConfig(), np.random.default_rng(0))


def test_train_flags_divergence_as_numeric_error(monkeypatch):
    # clipped logits keep any finite-rate trajectory bounded and the
    # config refuses a non-finite rate, so an overflowing gradient trips
    # the non-finite guard
    img, mask = _blob_pair()
    monkeypatch.setattr(trainer, "feature_gradient",
                        lambda params, feats, mask: np.full(4, np.inf))
    cfg = TrainConfig()
    params = init_params()
    with pytest.raises(NumericError, match="learning rate"):
        train_on_subset(params, [(img, mask)], cfg, np.random.default_rng(0))
    assert np.array_equal(params.weights, np.zeros(4))
    assert params.version == 0


def test_numeric_error_keeps_last_finite_weights(monkeypatch):
    img, mask = _blob_pair()
    steps = iter([np.ones(4), np.full(4, 2.0), np.array([np.inf, 0.0, 0.0, 0.0])])
    monkeypatch.setattr(trainer, "feature_gradient",
                        lambda params, feats, mask: next(steps))
    params = ModelParams(weights=np.zeros(4), version=5)
    with pytest.raises(NumericError, match="step 8"):
        train_on_subset(params, [(img, mask)] * 3, TrainConfig(learning_rate=0.5),
                        np.random.default_rng(0))
    assert np.array_equal(params.weights, np.full(4, -1.5))
    assert params.version == 7


def test_non_finite_starting_weights_are_refused_before_any_draw():
    img, mask = _blob_pair()
    weights = np.array([np.nan, 0.0, 0.0, 0.0])
    params = ModelParams(weights=weights, version=7)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"non-finite starting weights \[nan"):
        train_on_subset(params, [(img, mask)], TrainConfig(), rng)
    assert params.weights is weights and params.version == 7
    assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)


def test_non_finite_mid_block_raises_no_warning_of_later_steps(monkeypatch):
    # step 2 of a 4-step block turns the weights to (+inf, -inf, ...);
    # steps 3 and 4 then run on them (their matmul meets inf - inf), but
    # the error names step 2 and no RuntimeWarning escapes (pytest turns
    # one into an error)
    img, mask = _blob_pair()
    real = trainer.feature_gradient
    seen = []

    def gradient(params, feats, mask):
        seen.append(params.weights)
        if len(seen) == 2:
            return np.array([-np.inf, np.inf, 0.0, 0.0])
        return real(params, feats, mask)

    monkeypatch.setattr(trainer, "feature_gradient", gradient)
    params = ModelParams(weights=np.zeros(4), version=3)
    with pytest.raises(NumericError, match="step 5"):
        train_on_subset(params, [(img, mask)] * 4, TrainConfig(),
                        np.random.default_rng(0))
    assert len(seen) == 4
    assert np.array_equal(params.weights, seen[1]) and params.version == 4
    assert np.isfinite(params.weights).all()


def _lesion_examples(rng, shapes):
    """(raster, mask) pairs: mask pixels at about 0.7 on a 0.2 background,
    which a sharp model finds."""
    examples = []
    for h, w in shapes:
        img = 0.2 + 0.02 * rng.standard_normal((h, w))
        mask = rng.random((h, w)) < 0.15
        examples.append((oracles.to_raster(np.clip(img + 0.5 * mask, 0.0, 1.0)),
                         mask))
    return examples


def test_train_on_subset_equals_one_step_at_a_time():
    # blocks split at 16 steps and wherever the shape changes; the
    # reference takes each step from its own view, drawn in step order
    rng = np.random.default_rng(6)
    examples = _lesion_examples(rng, [(6, 6)] * 19 + [(5, 7)] * 4 + [(6, 6)] * 2)
    cfg = TrainConfig(learning_rate=0.7, epochs_per_iteration=2)
    params = ModelParams(weights=np.array([0.5, -0.2, 0.1, 0.0]), version=3)
    train_on_subset(params, examples, cfg, np.random.default_rng(12))

    ref = np.random.default_rng(12)
    weights = np.array([0.5, -0.2, 0.1, 0.0])
    for _ in range(cfg.epochs_per_iteration):
        for idx in ref.permutation(len(examples)):
            j = int(ref.integers(1, cfg.n_views + 1))
            view, mask = oracles.one_view(*examples[idx], cfg, ref, j)
            weights = weights - cfg.learning_rate * gradient(
                ModelParams(weights=weights), view, mask)
    assert np.array_equal(params.weights, weights)
    assert params.version == 3 + 2 * len(examples)


def test_train_on_subset_on_mask_labels_equals_on_masks():
    # the pool trains on its kept labels, uint8 or the int32 that
    # label_components gives: every view of every shape takes the same
    # steps as on the boolean mask
    rng = np.random.default_rng(21)
    examples = _lesion_examples(rng, [(6, 6)] * 19 + [(5, 7)] * 4 + [(6, 6)] * 2)
    labeled = []
    for n, (img, mask) in enumerate(examples):
        labels, count = kernels.label_components(mask)
        assert count > 1
        labeled.append((img, labels.astype(np.uint8) if n % 2 else labels))
    cfg = TrainConfig(learning_rate=0.7, epochs_per_iteration=2, jitter=0.2)
    assert cfg.n_views == 4
    got = []
    for pairs in (examples, labeled):
        params = ModelParams(weights=np.array([0.5, -0.2, 0.1, 0.0]), version=3)
        train_on_subset(params, pairs, cfg, np.random.default_rng(12))
        got.append(([w.hex() for w in params.weights.tolist()], params.version))
    assert got[0] == got[1] and got[0][1] == 3 + 2 * len(examples)


@pytest.mark.parametrize("t, jitter", [
    (1, 0.2), (4, 0.2), (6, 0.2),
    (9, 0.2),  # two jitter draws per example, one example per group
    (17, 0.2),  # one example's views span two predict calls
    (4, 0.0),  # view 4 wraps to the identity
], ids=["1", "4", "6", "9", "17", "4-no-jitter"])
def test_augmented_error_terms_equal_per_view_scores(t, jitter):
    rng = np.random.default_rng(8)
    sharp = ModelParams(weights=np.array([50.0, 0.0, 0.0, -22.5]))
    selcfg = SelectionConfig(t=t, tau=0.25, error_weights=(1.0, 2.0, 0.5))
    traincfg = TrainConfig(jitter=jitter)
    predicted = 0
    for i, (img, mask) in enumerate(_lesion_examples(rng, [(9, 9), (1, 8)])):
        [got] = augmented_error_terms(sharp, [(img, mask)], selcfg, traincfg,
                                      [example_rng(1, 0, 0, f"ex{i}")])
        views = example_rng(1, 0, 0, f"ex{i}")
        want = []
        for j in range(1, t + 1):
            view, view_mask = oracles.one_view(img, mask, traincfg, views, j)
            want.append(metrics.evaluate_example(
                forward(sharp, view), view_mask, tau=selcfg.tau,
                weights=selcfg.error_weights,
            ).E)
        assert got == want
        predicted += int((forward(sharp, to_image(img)) >= 0.5).sum())
    assert predicted > 0  # the scores cover predicted lesions


@pytest.mark.parametrize("t", [3, 6, 9, 17])
def test_augmented_error_terms_blocks_span_examples_and_shapes(
        t, monkeypatch):
    # 6 examples of one shape, then 3 of another and 1 of the first: the
    # views are one slot per (example, view), cut into blocks of up to 16
    # same-shape slots, so a block spans examples and stops at a shape
    # change; each example draws its jitter offsets from its own rng
    seen = []
    real = trainer.forward
    monkeypatch.setattr(trainer, "forward", lambda params, imgs: (
        seen.append(imgs.shape), real(params, imgs))[1])
    rng = np.random.default_rng(14)
    pairs = _lesion_examples(rng, [(9, 9)] * 6 + [(7, 11)] * 3 + [(9, 9)])
    sharp = ModelParams(weights=np.array([50.0, 0.0, 0.0, -22.5]))
    selcfg = SelectionConfig(t=t, tau=0.25, error_weights=(1.0, 2.0, 0.5))
    traincfg = TrainConfig(jitter=0.2)
    ids = [f"ex{i}" for i in range(len(pairs))]
    got = augmented_error_terms(sharp, pairs, selcfg, traincfg,
                                [example_rng(2, 1, 0, i) for i in ids])
    want = []
    for (img, mask), example_id in zip(pairs, ids):
        views = example_rng(2, 1, 0, example_id)
        errors = []
        for j in range(1, t + 1):
            view, view_mask = oracles.one_view(img, mask, traincfg, views, j)
            errors.append(metrics.evaluate_example(
                forward(sharp, view), view_mask, tau=selcfg.tau,
                weights=selcfg.error_weights,
            ).E)
        want.append(errors)
    assert got == want
    assert [n for n, *_ in seen] == [min(16, n - start)
                                     for n in (6 * t, 3 * t, t)
                                     for start in range(0, n, 16)]
    assert all(len(shape) == 3 and shape[0] <= 16 for shape in seen)
    assert augmented_error_terms(sharp, [], selcfg, traincfg, []) == []


def test_views_scored_from_kept_labels_equal_evaluate_example(tiny_dataset):
    # pool records scored from their kept labels (flip views slice them)
    # against each view's own map and mask, E compared as float hex
    chunks, _ = tiny_dataset
    pool = PoolState()
    for i, chunk in enumerate(chunks):
        add_chunk(pool, chunk, i)
    ids = [r.id for r in pool.records]
    sharp = ModelParams(weights=np.array([30.0, 0.0, 0.0, -12.0]))
    selcfg = SelectionConfig(t=5, tau=0.3, error_weights=(1.0, 2.0, 0.5))
    traincfg = TrainConfig(jitter=0.05)
    got = augmented_error_terms(sharp, pool.labeled(ids), selcfg, traincfg,
                                [example_rng(4, 0, 0, i) for i in ids])
    want, differ = [], 0
    for example_id in ids:
        record = pool.record_for(example_id)
        img, mask = read_pgm(record.image_ref), read_mask_pgm(record.mask_ref)
        views = example_rng(4, 0, 0, example_id)
        errors = []
        for j in range(1, selcfg.t + 1):
            view, view_mask = oracles.one_view(oracles.to_raster(img), mask,
                                               traincfg, views, j)
            prob = forward(sharp, view)
            differ += int(((prob >= 0.5) != view_mask).any())
            errors.append(metrics.evaluate_example(
                prob, view_mask, tau=selcfg.tau,
                weights=selcfg.error_weights).E.hex())
        want.append(errors)
    assert [[E.hex() for E in errors] for errors in got] == want
    # both settled and differing views, and lesions in the labels
    assert 0 < differ < selcfg.t * len(ids)
    assert any(labels.max() > 1 for _, labels in pool.labeled(ids))


# -- example rng -----------------------------------------------------------


def test_example_rng_is_stable_per_coordinates():
    a = example_rng(1, 2, 3, "chunk1-0005").random(4)
    b = example_rng(1, 2, 3, "chunk1-0005").random(4)
    assert np.array_equal(a, b)
    c = example_rng(1, 2, 3, "chunk1-0006").random(4)
    assert not np.array_equal(a, c)



@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7])
def test_example_rng_equals_the_generator_of_its_entropy_list(seed):
    # below 2**32 the entropy goes in as a uint32 array, at or above it
    # as the list numpy splits into 32-bit words: the same stream either way
    for stage, iteration, example_id in ((0, 0, "chunk0-0000"),
                                         (3, 7, "chunk1-0005")):
        got = example_rng(seed, stage, iteration, example_id)
        want = np.random.default_rng(
            [seed, stage, iteration, zlib.crc32(example_id.encode())])
        assert got.bit_generator.state == want.bit_generator.state
        assert got.uniform(-0.1, 0.1) == want.uniform(-0.1, 0.1)

# -- incremental stage loop ------------------------------------------------


def _make_chunk(tmp_path, name, n_pos, n_neg, seed=0):
    """Hand-built chunk of blob/blank images written as PGM pairs."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_pos + n_neg):
        img = 0.2 + 0.02 * rng.standard_normal((8, 8))
        mask = np.zeros((8, 8), dtype=bool)
        if i < n_pos:
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            mask[r - 1 : r + 2, c - 1 : c + 2] = True
            img = img + 0.6 * mask
        rid = f"{name}-{i:03d}"
        image_ref = str(tmp_path / f"{rid}.pgm")
        mask_ref = str(tmp_path / f"{rid}-mask.pgm")
        write_pgm(image_ref, np.clip(img, 0, 1))
        write_mask_pgm(mask_ref, mask)
        records.append(ExampleRecord(
            id=rid, image_ref=image_ref, mask_ref=mask_ref,
            label="positive" if mask.any() else "negative",
        ))
    return records


def test_incremental_step_advances_stage_and_trains(tmp_path):
    chunk0 = _make_chunk(tmp_path, "c0", 3, 3, seed=0)
    chunk1 = _make_chunk(tmp_path, "c1", 2, 2, seed=1)
    selcfg = SelectionConfig(seed=0, iterations_per_step=2, t=2, d=50)
    pool, params = incremental_step(PoolState([]), init_params(), selcfg,
                                    TrainConfig(), chunk0)
    assert pool.stage == 0 and len(pool) == 6
    assert params.version > 0
    assert any(r.C > 0 for r in pool.records)
    pool, params = incremental_step(pool, params, selcfg, TrainConfig(), chunk1)
    assert pool.stage == 1 and len(pool) == 10


def test_incremental_step_traces_every_iteration(tmp_path):
    chunk = _make_chunk(tmp_path, "c0", 2, 2)
    seen = []
    selcfg = SelectionConfig(seed=0, iterations_per_step=3, t=1, d=50)
    incremental_step(PoolState([]), init_params(), selcfg, TrainConfig(),
                     chunk, trace=lambda s, i, sub: seen.append((s, i, len(sub))))
    assert [(s, i) for s, i, _ in seen] == [(0, 0), (0, 1), (0, 2)]
    assert all(size <= 4 * 2 for _, _, size in seen)


def test_incremental_step_is_deterministic(tmp_path):
    chunk = _make_chunk(tmp_path, "c0", 3, 3)
    selcfg = SelectionConfig(seed=7, iterations_per_step=2, t=2, d=50)

    def run():
        return incremental_step(PoolState([]), init_params(), selcfg,
                                TrainConfig(), list(chunk))

    pool_a, params_a = run()
    pool_b, params_b = run()
    assert np.array_equal(params_a.weights, params_b.weights)
    for ra, rb in zip(pool_a.records, pool_b.records):
        assert (ra.id, ra.E, ra.C, ra.dropped) == (rb.id, rb.E, rb.C, rb.dropped)


def test_incremental_step_drops_overused_examples(tmp_path):
    # one example per label: both are selected every iteration until the
    # dropping number excludes them
    chunk = _make_chunk(tmp_path, "c0", 1, 1)
    selcfg = SelectionConfig(seed=0, iterations_per_step=5, t=1, d=2)
    seen = []
    pool, _ = incremental_step(
        PoolState([]), init_params(), selcfg, TrainConfig(), chunk,
        trace=lambda s, i, sub: seen.append(sorted(sub.all_ids())),
    )
    assert seen[:3] == [["c0-000", "c0-001"]] * 3
    assert seen[3:] == [[], []]
    for record in pool.records:
        assert record.dropped and record.E == 0.0 and record.C == 3


def test_restored_pool_refreshes_to_identical_errors(tmp_path):
    chunk = _make_chunk(tmp_path, "c0", 3, 3)
    selcfg = SelectionConfig(seed=5, iterations_per_step=2, t=2, d=50)
    pool, params = incremental_step(PoolState([]), init_params(), selcfg,
                                    TrainConfig(), chunk)
    save_state(pool, tmp_path / "pool.tsv")
    restored = load_state(tmp_path / "pool.tsv")
    for p in (pool, restored):
        refresh_errors(p, lambda img: forward(params, img), selcfg)
    assert [r.E for r in restored.records] == [r.E for r in pool.records]
    assert any(r.E > 0 for r in pool.records)


def test_incremental_step_error_audit(tmp_path):
    # with a single iteration the returned params are the ones the E
    # values were computed with, so E can be replayed offline
    chunk = _make_chunk(tmp_path, "c0", 3, 3)
    selcfg = SelectionConfig(seed=11, iterations_per_step=1, t=3, d=50)
    traincfg = TrainConfig()
    selected = []
    pool, params = incremental_step(
        PoolState([]), init_params(), selcfg, traincfg, chunk,
        trace=lambda s, i, sub: selected.extend(sub.all_ids()),
    )
    cache = ImageCache()
    assert selected
    for rid in selected:
        record = pool.record_for(rid)
        img, mask = cache.pair(record.image_ref, record.mask_ref)
        [errors] = augmented_error_terms(
            params, [(oracles.to_raster(img), mask)], selcfg, traincfg,
            [example_rng(selcfg.seed, 0, 0, rid)],
        )
        assert record.E == pytest.approx(sum(errors) / len(errors), abs=1e-12)
        assert record.C == 1


# -- the whole mining loop against its one-image-at-a-time reference -------

# the (epochs_per_iteration, jitter) pairs span one and several epochs and
# three or four views; d=3 drops some records but never all of them
_REFERENCE_CONFIGS = [
    (SelectionConfig(seed=0, iterations_per_step=3, t=2, d=3),
     TrainConfig(learning_rate=2.0, epochs_per_iteration=3, jitter=0.1)),
    (SelectionConfig(seed=1, iterations_per_step=3, t=2, d=3),
     TrainConfig(epochs_per_iteration=1, jitter=0.0)),
    (SelectionConfig(seed=2, iterations_per_step=3, t=3, d=3),
     TrainConfig(epochs_per_iteration=2, jitter=0.3)),
]


def _bits(pool, params):
    return ([(r.id, r.E.hex(), r.C, r.dropped) for r in pool.records],
            [w.hex() for w in params.weights.tolist()], params.version)


def _groups(subset):
    return (list(subset.hard_positives), list(subset.hard_negatives),
            list(subset.easy_positives), list(subset.easy_negatives))


@pytest.mark.parametrize("data", ["tiny_dataset_dir", "mixed_dataset_dir"])
@pytest.mark.parametrize("selcfg, traincfg", _REFERENCE_CONFIGS)
def test_mining_loop_equals_its_one_image_reference(data, selcfg, traincfg,
                                                    request):
    # the mixed-size stream changes shape between chunks, which splits
    # the blocks that mine stacks
    chunks, test_records = load_dataset(request.getfixturevalue(data))
    pool, params, rounds = PoolState(), init_params(), []
    ref_pool, ref_params, ref_rounds = PoolState(), init_params(), []
    for stage, chunk in enumerate(chunks):
        incremental_step(pool, params, selcfg, traincfg, chunk,
                         lambda s, i, subset: rounds.append((s, i, _groups(subset))))
        add_chunk(ref_pool, chunk, stage)
        subsets = oracles.mine_reference(
            ref_pool, ref_params, compute_partition_number(chunk),
            selcfg.iterations_per_step, selcfg, traincfg)
        ref_rounds += [(stage, i, subset) for i, subset in enumerate(subsets)]
    assert rounds == ref_rounds
    assert _bits(pool, params) == _bits(ref_pool, ref_params)
    assert 0 < sum(r.dropped for r in pool.records) < len(pool)

    # baseline_hem: one mining stage over the pooled stream, K from the
    # newest chunk, for the rounds the summed stage budgets buy
    _, params, pool, _ = run_strategy("baseline_hem", chunks, test_records,
                                      selcfg, traincfg)
    ref_pool, ref_params = PoolState(), init_params()
    for stage, chunk in enumerate(chunks):
        add_chunk(ref_pool, chunk, stage)
    K = compute_partition_number(chunks[-1])
    oracles.mine_reference(ref_pool, ref_params, K,
                           sum(stage_budgets(chunks, selcfg)) // (4 * K),
                           selcfg, traincfg)
    assert _bits(pool, params) == _bits(ref_pool, ref_params)
    assert 0 < sum(r.dropped for r in pool.records) < len(pool)


def test_mine_scores_no_views_of_an_update_that_drops(tiny_dataset,
                                                     monkeypatch):
    # hem at d=2 drops records; an update that takes C past d gets no
    # errors, every other one gets t of them, and the run still equals
    # the one-image reference, which scores every update
    chunks, _ = tiny_dataset
    selcfg = SelectionConfig(seed=3, iterations_per_step=2, t=3, d=2)
    traincfg = TrainConfig(epochs_per_iteration=2)
    updates = []
    real = trainer.record_training_update

    def update(pool, example_id, errors, d):
        updates.append((pool.record_for(example_id).C, len(errors)))
        return real(pool, example_id, errors, d)

    monkeypatch.setattr(trainer, "record_training_update", update)
    pool, params = PoolState(), init_params()
    train_pooled(params, pool, chunks, selcfg, traincfg)
    ref_pool, ref_params = PoolState(), init_params()
    for stage, chunk in enumerate(chunks):
        add_chunk(ref_pool, chunk, stage)
    oracles.mine_reference(ref_pool, ref_params,
                           compute_partition_number(chunks[-1]),
                           sum(stage_budgets(chunks, selcfg))
                           // (4 * compute_partition_number(chunks[-1])),
                           selcfg, traincfg)
    assert _bits(pool, params) == _bits(ref_pool, ref_params)
    assert {(C < selcfg.d, n) for C, n in updates} == {(True, selcfg.t),
                                                       (False, 0)}
    assert 0 < sum(r.dropped for r in pool.records) < len(pool)


def test_hot_loops_call_no_numpy_python_wrapper(tiny_dataset, tiny_selcfg,
                                               monkeypatch):
    # SGD, the scoring of mined views and evaluation, with the block
    # decode of its test set, call numpy's compiled kernels; each of these
    # wrappers costs a Python-level dispatch per step or per block. The
    # pool is labeled first: its one labeling pass per mask stacks them.
    chunks, test_records = tiny_dataset
    pool = PoolState()
    for stage, chunk in enumerate(chunks):
        add_chunk(pool, chunk, stage)
    pool.labeled([r.id for r in pool.records])
    wrappers = ("einsum", "stack", "flatnonzero", "array_equal", "nonzero",
                "issubdtype", "clip")
    scopes = ((trainer, "train_on_subset"), (trainer, "augmented_error_terms"),
              (harness, "evaluate_model"))
    inside, entered, calls = [], collections.Counter(), collections.Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name, tuple(inside)] += 1
            return real(*args, **kwargs)
        return wrapper

    def scoped(name, real):
        def wrapper(*args, **kwargs):
            entered[name] += 1
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name in wrappers:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    for module, name in scopes:
        monkeypatch.setattr(module, name, scoped(name, getattr(module, name)))
    params = init_params()
    trainer.mine(pool, params, compute_partition_number(chunks[-1]), 2,
                 tiny_selcfg, TrainConfig(epochs_per_iteration=2))
    harness.evaluate_model(params, pgm.pair_blocks(
        (rec.image_ref, rec.mask_ref) for rec in test_records), tiny_selcfg.tau)
    assert sorted(entered) == sorted(name for _, name in scopes)
    assert params.version > 0
    assert [key for key in calls if key[1]] == []
    # the counters see what a caller in a scope calls
    scoped("check", lambda: [
        np.einsum("i->", np.ones(2)), np.stack([np.ones(2)]),
        np.flatnonzero(np.ones(2)), np.array_equal(np.ones(2), np.ones(2)),
        np.nonzero(np.ones(2)), np.issubdtype(np.int32, np.integer),
        np.clip(np.ones(2), 0.0, 1.0)])()
    assert sorted(key for key in calls if key[1]) == [
        (name, ("check",)) for name in sorted(wrappers)]


# -- checkpoints -----------------------------------------------------------


def test_params_round_trip(tmp_path):
    params = ModelParams(weights=np.array([1 / 3, -2.5, 1e-17, 0.0]), version=9)
    path = tmp_path / "model.txt"
    save_params(params, path)
    back = load_params(path)
    assert np.array_equal(back.weights, params.weights)
    assert back.version == 0  # version is per-run, not persisted


@pytest.mark.parametrize(
    "mangle, complaint",
    [
        (lambda text: "who-knows\n" + text, "bad checkpoint header"),
        (lambda text: text.replace("iem-model/1", "iem-model/9"), "bad checkpoint header"),
        (lambda text: "\n".join(text.splitlines()[:-1]) + "\n", "truncated"),
        (lambda text: text.replace("-2.5", "abc"), "bad checkpoint value"),
        (lambda text: text.replace("\n4\n", "\n3\n").replace("2\n", ""),
         "model.txt:2: checkpoint holds 3 weights, expected 4"),
        (lambda text: text.replace("-2.5", "nan"),
         "model.txt:4: non-finite weight 'nan'"),
        (lambda text: text.replace("2\n", "-inf\n"),
         "model.txt:6: non-finite weight '-inf'"),
        (lambda text: text + "0.0\n",
         "model.txt:7: trailing line after the last weight"),
        (lambda text: text + "\n",
         "model.txt:7: trailing line"),
    ],
)
def test_params_load_rejects_malformed(tmp_path, mangle, complaint):
    path = tmp_path / "model.txt"
    save_params(ModelParams(weights=np.array([0.5, -2.5, 1.0, 2.0])), path)
    path.write_text(mangle(path.read_text()))
    with pytest.raises(DataError, match=complaint):
        load_params(path)
