"""Tests of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),      # overlaps a: [1, 5] is covered once
        ("a.child", 1.5, 2.0, 1),
        ("c", 9.0, 12.0, 0),     # runs past the root: clipped to [9, 10]
        ("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 4.0 - 1.0, 1.5, 3.0, 0.5, 3.0, 1.0])
    totals = tracing.summarize(spans)
    assert totals["root"] == (1, pytest.approx(5.0))
    assert totals["a"] == (1, pytest.approx(1.5))


def test_probe_speed_is_the_mean_of_reciprocal_durations():
    # (handler start, handler end, timed seconds); the last tick ends
    # after the op and the first starts before it, so both are left out
    samples = [(0.5, 0.6, 1.0), (1.0, 1.1, 0.5), (2.0, 2.2, 0.25),
               (2.9, 3.1, 0.1)]
    ticks, handler_s, speed = probe.summarize(samples, 0.9, 3.0)
    assert ticks == 2
    assert handler_s == pytest.approx(0.3)
    assert speed == pytest.approx((2.0 + 4.0) / 2)
    assert probe.summarize(samples, 5.0, 6.0) == (0, 0.0, None)
    assert probe.scaled_seconds(10.3, 0.3, speed) == pytest.approx(
        10.0 * 3.0 * probe.NOMINAL_PROBE_S)


def test_a_host_twice_as_slow_gives_the_same_scaled_time():
    fast = {"name": "baseline_full", "seconds": 10.5, "probe_s": 0.5,
            "speed": 2.0 / probe.NOMINAL_PROBE_S, "examples": 100,
            "error": None}
    slow = dict(fast, seconds=20.5, speed=1.0 / probe.NOMINAL_PROBE_S)
    results = [{"setup_s": 0.2, "rss_mb": 40.0, "ops": [op]}
               for op in (fast, slow, slow)]
    metrics, extra, n_setup = run.end_to_end([0.3, 0.4], results)
    assert metrics["run_scaled_s"] == pytest.approx(20.0)
    assert metrics["examples_per_scaled_s"] == pytest.approx(5.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert extra["run_s"] == pytest.approx(20.0)
    assert extra["full_s"] == pytest.approx(20.0)
    assert extra["host_speed"] == pytest.approx(1.0)
    assert n_setup == 5
    with pytest.raises(run.ChildFailed):
        run.end_to_end([], [{"setup_s": 0.2, "rss_mb": 40.0,
                             "ops": [dict(fast, speed=None)]}])


def _write_run(run_dir, data_root):
    os.makedirs(run_dir)
    for name, text in (("report.csv", "# seed=0\nstrategy,stage,examples_trained\n"
                                      "baseline_hem,4,9000\n"),
                       ("trace.txt", "stage=4\titer=0\n"),
                       ("checkpoint.txt", "iem-model/1\n4\n0.5\n"),
                       ("timings.csv", "strategy,stage,seconds\nbaseline_hem,4,1.0\n")):
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(run_dir, "pool.tsv"), "w", encoding="utf-8") as fh:
        fh.write(f"id=a\timage_ref={data_root}/chunk0/a.pgm\tdropped=0\n")


def test_one_byte_change_to_a_report_fails_the_op(tmp_path):
    run_dir = str(tmp_path / "out" / "baseline_hem")
    _write_run(run_dir, "/data")
    recorded = {"baseline_hem": worker.train_digests(run_dir, "/data")}
    op = {"name": "baseline_hem", "error": None,
          "digests": worker.train_digests(run_dir, "/data")}
    assert run.check_ops([{"ops": [op]}], recorded) == (1, 0, [])

    path = os.path.join(run_dir, "report.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2] ^= 1
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    op["digests"] = worker.train_digests(run_dir, "/data")
    attempted, failed, problems = run.check_ops([{"ops": [op]}], recorded)
    assert (attempted, failed) == (1, 1)
    assert len(problems) == 1 and "report.csv" in problems[0]


def test_timings_are_not_digested_and_errors_fail_the_op(tmp_path):
    run_dir = str(tmp_path / "baseline_hem")
    _write_run(run_dir, "/data")
    assert sorted(worker.train_digests(run_dir, "/data")) == [
        "checkpoint.txt", "pool.tsv", "report.csv", "trace.txt"]
    op = {"name": "eval", "error": "exit code 3", "digests": {}}
    assert run.check_ops([{"ops": [op]}], {})[:2] == (1, 1)


def test_two_data_roots_give_the_same_pool_digest(tmp_path):
    from iem.pool import ExampleRecord, PoolState, save_state

    digests, raw = [], []
    for root_name in ("first", "second-root"):
        data_root = str(tmp_path / root_name / "data")
        records = [
            ExampleRecord(id=f"chunk0-{i:04d}",
                          image_ref=os.path.join(data_root, "chunk0", f"{i}.pgm"),
                          mask_ref=os.path.join(data_root, "chunk0", f"{i}-mask.pgm"),
                          label="positive" if i % 2 else "negative", E=0.25 * i)
            for i in range(4)
        ]
        run_dir = tmp_path / root_name / "out"
        run_dir.mkdir(parents=True)
        save_state(PoolState(records=records), str(run_dir / "pool.tsv"))
        digests.append(worker.train_digests(str(run_dir), data_root)["pool.tsv"])
        raw.append(worker.sha256((run_dir / "pool.tsv").read_bytes()))
    assert raw[0] != raw[1]
    assert digests[0] == digests[1]


@pytest.fixture
def restore_iem():
    """Undo the benchmark's patching of iem modules after a test."""
    import iem.cli  # noqa: F401  loads every iem module

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "iem" or name.startswith("iem.")}
    cache_methods = dict(vars(sys.modules["iem.pgm"].ImageCache))
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    for key in ("image", "mask"):
        setattr(sys.modules["iem.pgm"].ImageCache, key, cache_methods[key])


def test_install_patches_names_bound_in_other_modules(restore_iem):
    import numpy as np
    from iem import trainer

    tracer = tracing.Tracer()
    tracing.install(tracer)
    params = trainer.init_params()
    img = np.linspace(0.0, 1.0, 36).reshape(6, 6)
    trainer.forward(params, img)
    trainer.forward(params, img)
    layers = tracing.layer_metrics(tracer)
    # trainer binds local_mean_std by name; patching kernels alone misses it
    assert layers["kernels.local_mean_std.calls"] == 2
    assert layers["kernels.local_mean_std.px"] == 72
    assert layers["trainer.featurize.calls"] == 2
    assert layers["trainer.featurize.repeat_ratio"] == 0.5
    names = [span[0] for span in tracer.spans()]
    parents = [span[3] for span in tracer.spans()]
    assert names[:2] == ["trainer.featurize", "kernels.local_mean_std"]
    assert parents[:2] == [-1, 0]
    assert not tracer.absent


def test_missing_function_is_reported_absent(restore_iem):
    from iem import metrics

    del vars(metrics)["connected_components"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert "iem.metrics.connected_components" in tracer.absent
    assert tracing.layer_metrics(tracer)["metrics.connected_components.calls"] == 0
