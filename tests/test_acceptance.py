"""Acceptance gate: seven criteria, each printing one PASS/FAIL verdict line.

Run with ``-s`` (or read the captured output) to see the verdict lines.
Criteria 1-3 cross-check fast paths against the brute-force oracles,
4 pins the dropping rule, 5 runs the full four-strategy stream comparison
over five seeds, 6 checks end-to-end byte determinism, 7 checks the
detection scorer against hand arithmetic.
"""

import time

import numpy as np
import oracles
import pytest

from iem import cli, harness, metrics, synth
from iem.pool import ExampleRecord, PoolState
from iem.selection import SelectionConfig, select_subset
from iem.trainer import (ModelParams, TrainConfig, forward, gradient,
                         incremental_step, init_params)


def _verdict(capsys, n, ok, detail=""):
    with capsys.disabled():  # keep the verdict visible under capture
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail else ""))
    assert ok, detail


@pytest.fixture(scope="module")
def stream_datasets(tmp_path_factory):
    """Default-scenario datasets for seeds 0..4, plus generation time."""
    root = tmp_path_factory.mktemp("streams")
    start = time.perf_counter()
    dirs = {}
    for seed in range(5):
        out = root / f"seed{seed}"
        synth.generate_scenario(synth.default_scenario(seed), str(out))
        dirs[seed] = str(out)
    return dirs, time.perf_counter() - start


def test_criterion_1_metric_oracles(capsys):
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    ok = True
    for trial in range(200):
        a = rng.random((16, 16)) < 0.3
        b = rng.random((16, 16)) < 0.3
        ok &= abs(metrics.jaccard_index(a, b) - oracles.set_jaccard(a, b)) <= 1e-10

        probs = rng.random((16, 16))
        probs[rng.random((16, 16)) < 0.05] = 0.0  # exercise the clamp
        probs[rng.random((16, 16)) < 0.05] = 1.0
        truth = rng.random((16, 16)) < 0.5
        ok &= abs(metrics.mean_cross_entropy(probs, truth)
                  - oracles.pixelwise_cross_entropy(probs, truth)) <= 1e-10

        mask = rng.random((16, 16)) < 0.35
        ok &= metrics.connected_components(mask) == oracles.flood_components(mask)

        pred = rng.random((16, 16)) < 0.25
        truth = rng.random((16, 16)) < 0.25
        tau = (0.3, 0.5, 0.7)[trial % 3]
        result = metrics.match_lesions(
            metrics.connected_components(pred),
            metrics.connected_components(truth), tau,
        )
        want_matches, want_fps, want_fns = oracles.greedy_match(
            oracles.flood_components(pred), oracles.flood_components(truth), tau
        )
        ok &= len(result.matches) == len(want_matches)
        ok &= all(
            got[:2] == want[:2] and abs(got[2] - want[2]) <= 1e-10
            for got, want in zip(result.matches, want_matches)
        )
        ok &= result.false_positives == want_fps
        ok &= result.false_negatives == want_fns
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(capsys, 1, ok, f"elapsed={elapsed:.2f}s")


def test_criterion_2_gradient_check(capsys):
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        img = rng.random((8, 8))
        mask = rng.random((8, 8)) < 0.4
        weights = rng.normal(0.0, 0.8, size=4)

        def loss(w):
            return metrics.mean_cross_entropy(
                forward(ModelParams(weights=w), img), mask
            )

        analytic = gradient(ModelParams(weights=weights), img, mask)
        numeric = oracles.fd_gradient(loss, weights, h=1e-6)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric),
                                                       1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    _verdict(capsys, 2, ok, f"worst rel err={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_3_selection_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    for trial in range(500):
        setup = np.random.default_rng(2000 + trial)
        n = int(setup.integers(1, 51))
        records = [
            ExampleRecord(
                id=f"r{i:02d}", image_ref="img", mask_ref="msk",
                label=("positive", "negative")[int(setup.integers(2))],
                E=round(float(setup.random()) * 4, 1),  # coarse => many ties
                dropped=bool(setup.random() < 0.2),
            )
            for i in range(n)
        ]
        K = int(setup.integers(1, 8))
        subset = select_subset(PoolState(records=records), K,
                               np.random.default_rng(trial))
        want = oracles.mining_selection(records, K,
                                        np.random.default_rng(trial))
        got = (list(subset.hard_positives), list(subset.hard_negatives),
               list(subset.easy_positives), list(subset.easy_negatives))
        ok &= got == want
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(capsys, 3, ok, f"elapsed={elapsed:.2f}s")


def test_criterion_4_dropping_behavior(tmp_path, capsys):
    spec = synth.ChunkSpec(n_images=2, positive_fraction=0.5,
                           image_size=(8, 8), blob_count_range=(1, 2),
                           blob_radius_range=(1, 1), seed=7)
    chunk = synth.generate_chunk(spec, str(tmp_path / "chunk0"), chunk_index=0)
    selcfg = SelectionConfig(seed=0, d=3, iterations_per_step=6, t=1)
    traincfg = TrainConfig()

    log = []
    pool, _ = incremental_step(
        PoolState(), init_params(), selcfg, traincfg, chunk,
        trace=lambda stage, it, subset: log.append((it, subset.all_ids())),
    )
    selected_at = {
        rec.id: [it for it, ids in log if rec.id in ids] for rec in pool.records
    }
    # d=3: the 4th selection pushes C to 4 > d, so iterations 4 and 5 are empty
    ok = all(its == [0, 1, 2, 3] for its in selected_at.values())
    ok &= all(rec.dropped and rec.E == 0.0 and rec.C == 4
              for rec in pool.records)
    ok &= [ids for _, ids in log[4:]] == [[], []]
    _verdict(capsys, 4, ok, f"selections={selected_at}")


def test_criterion_5_stream_ordering(stream_datasets, capsys):
    dirs, gen_seconds = stream_datasets
    start = time.perf_counter()
    final_f1 = {name: [] for name in harness.STRATEGIES}
    final_ji = {name: [] for name in harness.STRATEGIES}
    for seed, data_dir in dirs.items():
        train_chunks, test_records = harness.load_dataset(data_dir)
        selcfg = SelectionConfig(seed=seed, iterations_per_step=5)
        traincfg = TrainConfig(epochs_per_iteration=3)
        for name in harness.STRATEGIES:
            report, _, _, _ = harness.run_strategy(
                name, train_chunks, test_records, selcfg, traincfg
            )
            row = report.final_row()
            final_f1[name].append(row.f1)
            final_ji[name].append(row.jaccard)
    elapsed = gen_seconds + time.perf_counter() - start
    margin = (np.mean(final_f1["iem_incremental"])
              - np.mean(final_f1["naive_finetune"]))
    gap = abs(np.mean(final_ji["iem_incremental"])
              - np.mean(final_ji["baseline_hem"]))
    ok = margin >= 0.05 and gap <= 0.03 and elapsed <= 300.0
    _verdict(capsys, 5, ok,
             f"margin={margin:+.3f} gap={gap:.3f} elapsed={elapsed:.1f}s")


def test_criterion_6_end_to_end_determinism(stream_datasets, tmp_path, capsys):
    dirs, _ = stream_datasets
    config = tmp_path / "fast.cfg"
    config.write_text("iterations_per_step=2\nt=1\n")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli.main(["train", "--strategy", "iem", "--data", dirs[0],
                         "--out", str(out), "--seed", "0",
                         "--config", str(config)])
        run_dir = out / "iem_incremental"
        outputs.append((code, (run_dir / "pool.tsv").read_bytes(),
                        (run_dir / "report.csv").read_bytes()))
    ok = (outputs[0][0] == outputs[1][0] == 0
          and outputs[0][1] == outputs[1][1]
          and outputs[0][2] == outputs[1][2])
    _verdict(capsys, 6, ok)


def test_criterion_7_detection_arithmetic(capsys):
    # 371 matched, 329 spurious, 159 missed single-pixel lesions give
    # precision 371/700 = 0.53 and recall 371/530 = 0.70 exactly.
    pred, truth = oracles.spaced_masks(371, 329, 159, side=64)
    precision, recall, f1 = metrics.evaluate_detection([pred], [truth])
    ok = precision == 371 / 700
    ok &= recall == 371 / 530
    ok &= abs(100.0 * f1 - 60.32) < 0.01
    _verdict(capsys, 7, ok, f"precision={precision} recall={recall} f1={100 * f1:.4f}")
