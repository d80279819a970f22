"""Selection rounds: ranking, balancing, easy sampling, config plumbing."""

import numpy as np
import pytest

import oracles
from iem.pool import ExampleRecord, PoolState
from iem.selection import (
    SelectionConfig,
    compute_partition_number,
    select_subset,
)


def _rec(rid, label, E=0.0, dropped=False):
    return ExampleRecord(id=rid, image_ref=f"{rid}.pgm",
                         mask_ref=f"{rid}-mask.pgm", label=label,
                         E=E, dropped=dropped)


def _pool(*records):
    return PoolState(records=list(records))


def test_hard_sets_take_the_highest_errors():
    pool = _pool(
        _rec("a", "positive", 3.0), _rec("b", "positive", 1.0),
        _rec("c", "positive", 0.5), _rec("x", "negative", 2.0),
        _rec("y", "negative", 0.8), _rec("z", "negative", 0.1),
    )
    subset = select_subset(pool, 1, np.random.default_rng(0))
    assert subset.hard_positives == ("a",)
    assert subset.hard_negatives == ("x",)
    assert len(subset.easy_positives) == 1
    assert subset.easy_positives[0] in {"b", "c"}
    assert subset.easy_negatives[0] in {"y", "z"}
    assert len(subset) == 4


def test_equal_errors_rank_by_id():
    pool = _pool(
        _rec("b", "positive", 1.0), _rec("a", "positive", 1.0),
        _rec("n1", "negative", 1.0), _rec("n0", "negative", 1.0),
    )
    subset = select_subset(pool, 1, np.random.default_rng(0))
    assert subset.hard_positives == ("a",)
    assert subset.hard_negatives == ("n0",)


def test_single_label_pool_yields_empty_subset():
    pool = _pool(_rec("a", "positive", 2.0), _rec("b", "positive", 1.0))
    subset = select_subset(pool, 1, np.random.default_rng(0))
    assert len(subset) == 0
    assert subset.all_ids() == []


def test_truncation_balances_both_directions():
    pool = _pool(
        _rec("p1", "positive", 3.0), _rec("p2", "positive", 2.0),
        _rec("p3", "positive", 1.0), _rec("n1", "negative", 9.0),
    )
    subset = select_subset(pool, 2, np.random.default_rng(0))
    # positives truncated to the single negative: one hard pair, no easies
    assert subset.hard_positives == ("p1",)
    assert subset.hard_negatives == ("n1",)
    assert subset.easy_positives == () and subset.easy_negatives == ()

    flipped = _pool(
        _rec("n1", "negative", 3.0), _rec("n2", "negative", 2.0),
        _rec("n3", "negative", 1.0), _rec("p1", "positive", 9.0),
    )
    subset = select_subset(flipped, 2, np.random.default_rng(0))
    assert subset.hard_positives == ("p1",)
    assert subset.hard_negatives == ("n1",)


def test_balanced_4k_pool_is_selected_whole():
    records = [_rec(f"p{i}", "positive", float(i)) for i in range(4)]
    records += [_rec(f"n{i}", "negative", float(i)) for i in range(4)]
    subset = select_subset(_pool(*records), 2, np.random.default_rng(0))
    assert len(subset) == 8
    assert sorted(subset.all_ids()) == sorted(r.id for r in records)


def test_dropped_records_never_selected():
    pool = _pool(
        _rec("a", "positive", 99.0, dropped=True), _rec("b", "positive", 1.0),
        _rec("c", "positive", 0.5), _rec("x", "negative", 2.0),
        _rec("y", "negative", 0.3),
    )
    subset = select_subset(pool, 1, np.random.default_rng(0))
    assert "a" not in subset.all_ids()
    assert subset.hard_positives == ("b",)


def test_hard_errors_dominate_easy_errors():
    rng = np.random.default_rng(31)
    records = [_rec(f"p{i}", "positive", float(rng.random())) for i in range(12)]
    records += [_rec(f"n{i}", "negative", float(rng.random())) for i in range(12)]
    pool = _pool(*records)
    by_id = {r.id: r.E for r in records}
    subset = select_subset(pool, 3, np.random.default_rng(1))
    for hard, easy in ((subset.hard_positives, subset.easy_positives),
                       (subset.hard_negatives, subset.easy_negatives)):
        if hard and easy:
            assert min(by_id[i] for i in hard) >= max(by_id[i] for i in easy)


def test_same_seed_reproduces_selection():
    records = [_rec(f"p{i}", "positive", i * 0.1) for i in range(10)]
    records += [_rec(f"n{i}", "negative", i * 0.2) for i in range(10)]
    pool = _pool(*records)
    first = select_subset(pool, 2, np.random.default_rng(42))
    second = select_subset(pool, 2, np.random.default_rng(42))
    assert first == second


def test_selection_matches_transcription_oracle():
    rng = np.random.default_rng(33)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        records = []
        for i in range(n):
            e = round(float(rng.random()) * 4, 1)  # coarse values force ties
            records.append(_rec(
                f"r{i:02d}",
                "positive" if rng.random() < 0.5 else "negative",
                E=e, dropped=bool(rng.random() < 0.2),
            ))
        K = int(rng.integers(1, 8))
        subset = select_subset(_pool(*records), K, np.random.default_rng(trial))
        want = oracles.mining_selection(records, K, np.random.default_rng(trial))
        assert (list(subset.hard_positives), list(subset.hard_negatives),
                list(subset.easy_positives), list(subset.easy_negatives)) == want


def test_subset_helpers():
    subset = select_subset(
        _pool(_rec("a", "positive", 2.0), _rec("b", "positive", 1.0),
              _rec("x", "negative", 3.0), _rec("y", "negative", 0.5)),
        1, np.random.default_rng(0),
    )
    assert subset.hard_positives == ("a",)
    assert subset.hard_negatives == ("x",)
    assert subset.easy_positives == ("b",)
    assert subset.easy_negatives == ("y",)
    assert subset.all_ids() == ["a", "x", "b", "y"]


def test_select_subset_rejects_bad_k():
    with pytest.raises(ValueError, match="K must be >= 1"):
        select_subset(_pool(), 0, np.random.default_rng(0))


# -- partition number ------------------------------------------------------


def test_partition_number_counts_positives():
    chunk = [_rec(f"p{i}", "positive") for i in range(5)]
    chunk += [_rec(f"n{i}", "negative") for i in range(3)]
    assert compute_partition_number(chunk) == 5


def test_partition_number_floors_at_one():
    chunk = [_rec("n0", "negative"), _rec("n1", "negative")]
    assert compute_partition_number(chunk) == 1


def test_partition_number_rejects_empty_chunk():
    with pytest.raises(ValueError, match="empty chunk"):
        compute_partition_number([])


# -- configuration ---------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = SelectionConfig()
    assert cfg.d == 10 and cfg.t == 4
    assert cfg.iterations_per_step == 10
    assert cfg.tau == 0.5 and cfg.error_weights == (1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d": 0}, {"t": 0}, {"iterations_per_step": 0},
        {"seed": -1}, {"tau": 0.0}, {"tau": 1.5}, {"tau": float("nan")},
        {"error_weight_fp": float("nan")}, {"error_weight_fn": -1.0},
        {"error_weight_ji": float("inf")}, {"error_weight_fp": float("-inf")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SelectionConfig(**kwargs)


def test_fingerprint_is_stable_and_sensitive():
    base = SelectionConfig(seed=3)
    assert base.fingerprint() == SelectionConfig(seed=3).fingerprint()
    assert len(base.fingerprint()) == 12
    for other in (SelectionConfig(seed=4), SelectionConfig(seed=3, d=11),
                  SelectionConfig(seed=3, error_weight_fp=0.0,
                                  error_weight_fn=0.0)):
        assert other.fingerprint() != base.fingerprint()


def test_fingerprint_keeps_the_digests_of_earlier_reports():
    # report.csv's "# config=" line; these digests were written while the
    # config still had a variant field, and iem compare matches them
    assert SelectionConfig().fingerprint() == "e47f77e1728a"
    golden = SelectionConfig(seed=7, iterations_per_step=3, t=3, d=5)
    assert golden.fingerprint() == "3853d41e42e2"
    loss_ji = SelectionConfig(seed=3, error_weight_fp=0.0, error_weight_fn=0.0)
    assert loss_ji.fingerprint() == "64d74c5c824e"
    # the three weight fields hash as the one error_weights tuple they were
    weighted = SelectionConfig(seed=3, error_weight_fp=0.25,
                               error_weight_fn=2.0, error_weight_ji=0.5)
    assert weighted.error_weights == (0.25, 2.0, 0.5)
    assert weighted.fingerprint() == "47072d78f3f6"
