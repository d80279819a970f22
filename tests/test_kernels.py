"""Kernel correctness against the brute-force oracles."""

import numpy as np
import pytest

import oracles
from iem import kernels


def _random_mask(rng, shape=(16, 16), density=0.35):
    return rng.random(shape) < density


def test_label_components_matches_flood_fill():
    rng = np.random.default_rng(7)
    for density in (0.05, 0.2, 0.35, 0.6, 0.9):
        for _ in range(12):
            mask = _random_mask(rng, density=density)
            labels, n = kernels.label_components(mask)
            expected = oracles.flood_components(mask)
            assert n == len(expected)
            got = [
                frozenset(zip(*(idx.tolist() for idx in np.nonzero(labels == k))))
                for k in range(1, n + 1)
            ]
            assert set(got) == set(expected)
            assert (labels > 0).sum() == mask.sum()
            assert not labels[~mask].any()


def _random_shape(rng):
    kind = rng.integers(4)
    if kind == 0:
        side = int(rng.integers(1, 25))
        return side, side
    if kind == 1:
        return int(rng.integers(1, 25)), int(rng.integers(1, 25))
    if kind == 2:
        return 1, int(rng.integers(1, 40))
    return int(rng.integers(1, 40)), 1


def _assert_exact_labels(mask):
    labels, n = kernels.label_components(mask)
    want_labels, want_n = oracles.raster_labels(mask)
    assert n == want_n
    assert labels.dtype == np.int32
    assert np.array_equal(labels, want_labels)


def test_label_components_numbering_matches_raster_oracle():
    rng = np.random.default_rng(19)
    for _ in range(2400):
        shape = _random_shape(rng)
        mask = _random_mask(rng, shape, density=rng.uniform(0.02, 0.9))
        _assert_exact_labels(mask)


def _serpentine(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for r in range(1, h, 2):
        mask[r, w - 1 if r % 4 == 1 else 0] = True
    return mask


def _spiral(side):
    # walk inward from the top-left corner, turning right before running
    # off the grid or next to an earlier turn of the spiral
    def on_grid(r, c):
        return 0 <= r < side and 0 <= c < side

    def can_step(r, c, dr, dc):
        r1, c1, r2, c2 = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        return (on_grid(r1, c1) and not mask[r1, c1]
                and not (on_grid(r2, c2) and mask[r2, c2]))

    mask = np.zeros((side, side), dtype=bool)
    r, c, dr, dc = 0, 0, 0, 1
    mask[r, c] = True
    while True:
        if not can_step(r, c, dr, dc):
            dr, dc = dc, -dr
            if not can_step(r, c, dr, dc):
                return mask
        r, c = r + dr, c + dc
        mask[r, c] = True


def _comb(h, w):
    # teeth hang from a spine on the bottom row; each tooth's top pixel
    # comes before the spine in raster order
    mask = np.zeros((h, w), dtype=bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


@pytest.mark.parametrize("mask", [
    _serpentine(24, 24),
    _serpentine(7, 31),
    _spiral(24),
    _spiral(13),
    _comb(24, 24),
    np.indices((24, 24)).sum(axis=0) % 2 == 0,  # checkerboard
    np.indices((9, 14)).sum(axis=0) % 2 == 1,
    np.eye(24, dtype=bool),
    np.fliplr(np.eye(24, dtype=bool)),
    np.eye(10, 17, k=3, dtype=bool) | np.eye(10, 17, k=-4, dtype=bool),
    np.zeros((24, 24), dtype=bool),
    np.ones((24, 24), dtype=bool),
    np.ones((1, 1), dtype=bool),
    np.zeros((1, 1), dtype=bool),
], ids=["serpentine", "serpentine-wide", "spiral", "spiral-odd", "comb",
        "checkerboard", "checkerboard-odd", "diagonal", "antidiagonal",
        "two-diagonals", "empty", "full", "one-on", "one-off"])
def test_label_components_exact_on_adversarial_masks(mask):
    _assert_exact_labels(mask)


def test_label_components_empty_and_full():
    labels, n = kernels.label_components(np.zeros((5, 5), dtype=bool))
    assert n == 0 and not labels.any()
    labels, n = kernels.label_components(np.ones((5, 5), dtype=bool))
    assert n == 1 and (labels == 1).all()


def test_label_numbering_follows_row_major_discovery():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 4] = True  # discovered first
    mask[3, 0] = True  # discovered second
    labels, n = kernels.label_components(mask)
    assert n == 2
    assert labels[0, 4] == 1
    assert labels[3, 0] == 2


def test_diagonal_chain_is_one_component():
    mask = np.eye(6, dtype=bool)
    _, n = kernels.label_components(mask)
    assert n == 1


def test_local_mean_std_against_direct_windows():
    rng = np.random.default_rng(11)
    img = rng.random((9, 7))
    mean, std = kernels.local_mean_std(img)
    h, w = img.shape
    for r in range(h):
        for c in range(w):
            window = [
                img[min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)]
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
            ]
            assert mean[r, c] == pytest.approx(np.mean(window), abs=1e-12)
            assert std[r, c] == pytest.approx(np.std(window), abs=1e-12)


def test_local_mean_std_constant_image():
    mean, std = kernels.local_mean_std(np.full((5, 5), 0.37))
    assert np.allclose(mean, 0.37)
    assert np.allclose(std, 0.0)


def test_cross_entropy_sum_matches_loop_and_clamps():
    rng = np.random.default_rng(13)
    p = rng.random((8, 8))
    p[0, 0] = 0.0  # exercises the clamp on both sides
    p[0, 1] = 1.0
    y = _random_mask(rng, (8, 8))
    got = kernels.cross_entropy_sum(p, y, 1e-7)
    want = oracles.pixelwise_cross_entropy(p, y) * p.size
    assert got == pytest.approx(want, abs=1e-9)
    assert np.isfinite(got)


# -- stacks of same-shape images -------------------------------------------


def _random_stack(rng, shape):
    """2-8 masks of one shape at mixed densities, one empty and one full."""
    n = int(rng.integers(2, 9))
    stack = rng.random((n,) + shape) < rng.uniform(0.02, 0.9, size=(n, 1, 1))
    stack[0] = False
    stack[-1] = True
    rng.shuffle(stack)
    return stack


def test_label_components_stack_equals_single_images():
    rng = np.random.default_rng(31)
    for _ in range(400):
        stack = _random_stack(rng, _random_shape(rng))
        labels, counts = kernels.label_components(stack)
        assert labels.dtype == np.int32 and labels.shape == stack.shape
        assert len(counts) == len(stack)
        for mask, got_labels, got_n in zip(stack, labels, counts):
            want_labels, want_n = kernels.label_components(mask)
            assert got_n == want_n
            assert np.array_equal(got_labels, want_labels)


def _assert_stack_exact(stack):
    """Stacked labels and counts equal the per-image calls and the oracle."""
    labels, counts = kernels.label_components(stack)
    assert labels.dtype == np.int32 and labels.shape == stack.shape
    assert len(counts) == len(stack)
    for mask, got_labels, got_n in zip(stack, labels, counts):
        want_labels, want_n = oracles.raster_labels(mask)
        assert got_n == want_n
        assert np.array_equal(got_labels, want_labels)
        one_labels, one_n = kernels.label_components(mask)
        assert one_n == want_n
        assert np.array_equal(one_labels, want_labels)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("shape", [(24, 24), (7, 13), (1, 30), (30, 1)])
def test_label_components_full_stacks_match_raster_oracle(n, shape):
    # densities from 0.02 up to all-on, mixed within each stack
    rng = np.random.default_rng(n * 1000 + shape[0] * 40 + shape[1])
    for _ in range(3):
        density = rng.uniform(0.02, 1.0, size=(n, 1, 1))
        stack = rng.random((n,) + shape) < density
        stack[int(rng.integers(n))] = True
        _assert_stack_exact(stack)


@pytest.mark.parametrize("n", [16, 32])
def test_label_components_adversarial_stacks_match_raster_oracle(n):
    rng = np.random.default_rng(59 + n)
    shapes = [_serpentine(24, 24), _spiral(24), _comb(24, 24),
              np.ones((24, 24), dtype=bool)]
    stack = rng.random((n, 24, 24)) < rng.uniform(0.02, 1.0, size=(n, 1, 1))
    stack[rng.choice(n, size=len(shapes), replace=False)] = shapes
    _assert_stack_exact(stack)
    _assert_stack_exact(np.stack([_serpentine(7, 31)] * n))
    _assert_stack_exact(np.stack([_spiral(13)] * n))


def test_local_mean_std_stack_equals_single_images():
    rng = np.random.default_rng(37)
    for _ in range(200):
        shape = _random_shape(rng)
        imgs = rng.random((int(rng.integers(2, 9)),) + shape)
        imgs[0] = 0.0
        imgs[-1] = 1.0
        mean, std = kernels.local_mean_std(imgs)
        for img, got_mean, got_std in zip(imgs, mean, std):
            want_mean, want_std = kernels.local_mean_std(img)
            assert np.array_equal(got_mean, want_mean)
            assert np.array_equal(got_std, want_std)


# -- flat-offset kernels against the frozen strided bodies ----------------

FROZEN_SHAPES = ((1, 1), (1, 9), (9, 1), (16, 20), (24, 24))


def _jittered_stack(rng, n, shape):
    """n images, each shifted by one global offset and clamped to [0, 1]."""
    imgs = rng.random((n,) + shape) * rng.uniform(0.2, 1.0)
    offsets = rng.uniform(-0.3, 0.3, size=(n, 1, 1))
    return np.clip(imgs + offsets, 0.0, 1.0)


def test_local_mean_std_equals_frozen_strided_body():
    rng = np.random.default_rng(41)
    for shape in FROZEN_SHAPES:
        for n in range(1, 9):
            for _ in range(4):
                imgs = _jittered_stack(rng, n, shape)
                for arg in (imgs, imgs[0]):
                    got = kernels.local_mean_std(arg)
                    want = oracles.strided_local_mean_std(arg)
                    for g, wv in zip(got, want):
                        assert g.shape == wv.shape == arg.shape
                        assert np.array_equal(g, wv)


def test_cross_entropy_sum_stack_equals_per_image_calls():
    # and each per-image call equals the frozen one-map body
    rng = np.random.default_rng(43)
    for shape in FROZEN_SHAPES:
        for n in range(1, 9):
            p = rng.random((n,) + shape) ** rng.choice([0.1, 1.0, 10.0])
            p[rng.random(p.shape) < 0.05] = 0.0  # clamped on both sides
            p[rng.random(p.shape) < 0.05] = 1.0
            y = rng.random(p.shape) < rng.uniform(0.0, 1.0)
            y[0] = True  # all on
            y[-1] = False  # all off
            got = kernels.cross_entropy_sum(p, y, 1e-7)
            assert got.shape == (n,)
            want = [kernels.cross_entropy_sum(pi, yi, 1e-7)
                    for pi, yi in zip(p, y)]
            assert all(type(v) is float for v in want)
            assert got.tolist() == want
            assert want == [oracles.selected_cross_entropy_sum(pi, yi, 1e-7)
                            for pi, yi in zip(p, y)]


def test_cross_entropy_sum_on_mostly_lesion_free_and_empty_stacks():
    # the stacks mining scores: most images have no lesion pixel and are
    # summed in one reduce, the rest in two parts per lesion-pixel count
    rng = np.random.default_rng(71)
    for shape in ((24, 24), (13, 17), (1, 9)):
        for density in (0.01, 0.02, 0.03, 0.05):
            p = rng.random((16,) + shape) ** rng.choice([0.1, 1.0, 10.0])
            p[rng.random(p.shape) < 0.05] = 0.0  # clamped on both sides
            p[rng.random(p.shape) < 0.05] = 1.0
            y = rng.random(p.shape) < density
            y[0] = True  # all on
            y[1] = False  # all off
            got = kernels.cross_entropy_sum(p, y, 1e-7)
            assert got.dtype == np.float64 and got.shape == (16,)
            assert [v.hex() for v in got.tolist()] == [
                kernels.cross_entropy_sum(pi, yi, 1e-7).hex()
                for pi, yi in zip(p, y)]
            assert got.tolist() == [
                oracles.selected_cross_entropy_sum(pi, yi, 1e-7)
                for pi, yi in zip(p, y)]
    got = kernels.cross_entropy_sum(np.zeros((0, 24, 24)),
                                    np.zeros((0, 24, 24), dtype=bool), 1e-7)
    assert got.dtype == np.float64 and got.shape == (0,)


def test_cross_entropy_sum_by_count_group_equals_oracle_on_fuzzed_stacks():
    # images sharing a lesion-pixel count are summed as one group; flipped
    # duplicates share a count, as a scored example's views do
    rng = np.random.default_rng(83)
    sums = 0
    for _ in range(3000):
        shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
        n = int(rng.integers(0, 20))
        p = rng.random((n,) + shape) ** rng.choice([0.1, 1.0, 10.0])
        p[rng.random(p.shape) < 0.02] = 0.0  # clamped on both sides
        p[rng.random(p.shape) < 0.02] = 1.0
        y = rng.random(p.shape) < rng.uniform(0.0, 1.0, size=(n, 1, 1))
        if n >= 4:
            y[0] = True  # all on
            p[1], y[1] = p[2, ::-1], y[2, ::-1]
            p[3], y[3] = p[2, :, ::-1], y[2, :, ::-1]
        got = kernels.cross_entropy_sum(p, y, 1e-7)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert [v.hex() for v in got.tolist()] == [
            oracles.selected_cross_entropy_sum(pi, yi, 1e-7).hex()
            for pi, yi in zip(p, y)]
        sums += n
    assert sums > 25000


def test_shape_blocks_keep_order_and_never_mix_shapes():
    size = kernels._BLOCK
    shapes = ([(2, 3)] * (size + 2) + [(3, 2)] + [(2, 3)] * 3
              + [(4, 4)] * size)
    items = [(np.zeros(shape), i) for i, shape in enumerate(shapes)]
    blocks = list(kernels.shape_blocks(iter(items)))
    assert [len(block) for block in blocks] == [size, 2, 1, 3, size]
    assert [i for block in blocks for _, i in block] == list(range(len(items)))
    assert all(len({img.shape for img, _ in block}) == 1 for block in blocks)
    assert list(kernels.shape_blocks([])) == []
