"""End-to-end and per-layer benchmark of iem's strategies.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine --seed 0 --seconds 25 --trace 0

Workloads (each a closed loop: one caller, one process, one thread):

  mine    baseline_hem then iem_incremental on the default drifting stream,
          criterion-5 config (iterations_per_step=5, epochs_per_iteration=3)
  pooled  baseline_full then naive_finetune on the same stream and config
  eval    ``iem eval`` of a baseline_full checkpoint over 4000 held-out
          images drawn from the five shift styles

Inputs (the ``iem gen`` tree, the eval set and the eval checkpoint) are
made from ``--seed`` before any timing. Every repetition runs in a fresh
interpreter with BLAS/OpenMP pinned to one thread. Every op (one strategy
run or one eval pass) is checked byte for byte against the digests
recorded in ``digests.json``; a mismatch or an exception is a failed op.

On a shared host the speed moves between full and about half within
seconds, with other tenants, and CPU time moves with it. So during every untraced op a speed
probe (``probe.py``) times a fixed piece of work every 10 ms, and the
op's wall seconds are scaled to the probe's reference speed. The scaled
times (``run_scaled_s``, ``examples_per_scaled_s``) carry the bounds; the
wall-clock figures are printed beside them. Set-up time is as measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and two traced repetitions and prints the per-layer metrics.
The last line of standard output is one JSON object. Full results, with
environment stamps, go to ``.perfbench_out/`` in the checkout.
``--record`` stores the digests of this seed instead of checking them;
use it only for a change whose outputs differ on purpose.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS_PATH = os.path.join(HERE, "digests.json")

WORKLOADS = ("mine", "pooled", "eval")

# --seed values map onto this many recorded input seeds, so every run's
# outputs can be checked against stored digests.
INPUT_SEEDS = 8
MIN_SETUPS = 9
MAX_OPS = 40
# Whole-run limit, under the 180 s a run may take.
DEADLINE_S = 170

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

SHORT_NAMES = {
    "baseline_hem": "hem_s",
    "iem_incremental": "iem_s",
    "baseline_full": "full_s",
    "naive_finetune": "naive_s",
}

INPUT_SIZE = {
    "mine": "5 train chunks (400 images) + 60 test images, 24x24",
    "pooled": "5 train chunks (400 images) + 60 test images, 24x24",
    "eval": "4000 held-out images, 24x24",
}

# Times of the timed phase are scaled to the probe's reference speed (see
# probe.py); set-up time and memory are as measured.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_scaled_s": "s",
    "examples_per_scaled_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernels.label_components.calls": "count",
    "kernels.label_components.s": "s",
    "kernels.label_components.px": "count",
    "kernels.label_components.share": "ratio",
    "kernels.local_mean_std.calls": "count",
    "kernels.local_mean_std.s": "s",
    "kernels.local_mean_std.px": "count",
    "kernels.cross_entropy_sum.calls": "count",
    "kernels.cross_entropy_sum.s": "s",
    "metrics.connected_components.calls": "count",
    "metrics.connected_components.s": "s",
    "metrics.match_lesions.calls": "count",
    "metrics.match_lesions.s": "s",
    "metrics.match_lesions.pairs": "count",
    "metrics.evaluate_example.calls": "count",
    "metrics.evaluate_example.s": "s",
    "trainer.featurize.calls": "count",
    "trainer.featurize.s": "s",
    "trainer.featurize.repeat_ratio": "ratio",
    "trainer.train_on_subset.calls": "count",
    "trainer.train_on_subset.s": "s",
    "trainer.sgd_steps": "count",
    "trainer.augmented_error_terms.calls": "count",
    "trainer.augmented_error_terms.s": "s",
    "pool.refresh_errors.calls": "count",
    "pool.refresh_errors.s": "s",
    "pool.refresh_errors.records": "count",
    "pool.record_training_update.calls": "count",
    "pool.dropped": "count",
    "pool.save_state.s": "s",
    "selection.select_subset.calls": "count",
    "selection.select_subset.s": "s",
    "selection.fill_ratio": "ratio",
    "pgm.decode.calls": "count",
    "pgm.decode.s": "s",
    "pgm.cache_hit_ratio": "ratio",
    "synth.verify_labels.s": "s",
    "harness.load_dataset.s": "s",
    "harness.evaluate_model.calls": "count",
    "harness.evaluate_model.s": "s",
    "harness.write_strategy_outputs.s": "s",
    "harness.write_strategy_outputs.bytes": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly across two traced repetitions. Output
# bytes are left out: timings.csv holds wall seconds, whose width varies.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "count" and name != "harness.write_strategy_outputs.bytes"
)


class ChildFailed(Exception):
    pass


def run_child(work, mode, workload, seed, deadline, rep=0, trace=0,
              spans=None):
    """Run worker.py once; return its result dict and its wall seconds."""
    result_path = os.path.join(work, f"result-{mode}-{rep}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--rep", str(rep), "--trace", str(trace), "--result", result_path]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} repetition {rep} ran past the deadline") from exc
    wall = time.monotonic() - start
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise ChildFailed(f"{mode} repetition {rep} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), wall


def load_digests():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def op_problems(op, expected):
    """Why one op failed; an empty list means its outputs are as recorded."""
    problems = []
    if op["error"]:
        problems.append(f"{op['name']}: {op['error']}")
    observed = op["digests"]
    for key in sorted(set(expected) | set(observed)):
        if expected.get(key) != observed.get(key):
            problems.append(f"{op['name']}: {key} digest {observed.get(key)} "
                            f"!= recorded {expected.get(key)}")
    return problems


def check_ops(results, expected):
    """(attempted, failed, problems) over the ops of several repetitions."""
    attempted = failed = 0
    problems = []
    for result in results:
        for op in result["ops"]:
            attempted += 1
            found = op_problems(op, expected.get(op["name"], {}))
            if found:
                failed += 1
                problems.extend(found)
    return attempted, failed, problems


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over src/iem/*.py, so results name the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "iem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def untraced(work, workload, seed, seconds, deadline):
    """Alternate set-up and op repetitions for about ``seconds``.

    The machine's speed drifts over seconds; alternating spreads both kinds
    of sample over the whole window instead of bunching one kind in a
    single slow or fast stretch. Returns (set-up seconds, op results).
    """
    setups, results = [], []
    begin = time.monotonic()
    longest = 0.0
    while not results or (len(results) < MAX_OPS
                          and time.monotonic() - begin + longest <= seconds):
        start = time.monotonic()
        setups.append(run_child(work, "setup", workload, seed, deadline,
                                rep=len(setups))[0]["setup_s"])
        result, _ = run_child(work, "op", workload, seed, deadline,
                              rep=len(results))
        results.append(result)
        longest = max(longest, time.monotonic() - start)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(work, "setup", workload, seed, deadline,
                                rep=len(setups))[0]["setup_s"])
    return setups, results


def net_seconds(op):
    """Wall seconds of one op less the speed probe's own time."""
    return op["seconds"] - op.get("probe_s", 0.0)


def scaled_seconds(op):
    """Net seconds of one op at the probe's reference speed."""
    if op.get("speed") is None:
        if op["error"] and not op["seconds"]:
            return 0.0  # the op raised before its timed phase was measured
        raise ChildFailed(f"{op['name']}: no speed probe sample inside the op")
    return probe.scaled_seconds(op["seconds"], op["probe_s"], op["speed"])


def net_run_s(result):
    return sum(net_seconds(op) for op in result["ops"])


def end_to_end(setups, results):
    """Medians over the repetitions: (metrics, printed extras, set-up count).

    The extras are the wall-clock figures (``run_s``, ``examples_per_s``,
    ``hem_s`` ...), the scaled seconds of each strategy and ``host_speed``,
    the host's speed relative to the probe's reference speed.
    """
    samples = setups + [r["setup_s"] for r in results if r["setup_s"] is not None]
    runs = [[(op, net_seconds(op), scaled_seconds(op)) for op in r["ops"]]
            for r in results]
    examples = [sum(op["examples"] for op, _, _ in run) for run in runs]
    wall = [sum(net for _, net, _ in run) for run in runs]
    scaled = [sum(s for _, _, s in run) for run in runs]
    metrics = {
        "setup_s": statistics.median(samples),
        "run_scaled_s": statistics.median(scaled),
        "examples_per_scaled_s": statistics.median(
            n / s for n, s in zip(examples, scaled)),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    extra = {
        "run_s": statistics.median(wall),
        "examples_per_s": statistics.median(
            n / w for n, w in zip(examples, wall)),
        "host_speed": statistics.median(
            op["speed"] * probe.NOMINAL_PROBE_S
            for r in results for op in r["ops"] if op.get("speed")),
    }
    by_strategy = {}
    for run in runs:
        for op, net, s in run:
            if op["name"] in SHORT_NAMES:
                short = SHORT_NAMES[op["name"]]
                by_strategy.setdefault(short, []).append(net)
                by_strategy.setdefault(short.replace("_s", "_scaled_s"),
                                       []).append(s)
    extra.update((name, statistics.median(v)) for name, v in by_strategy.items())
    return metrics, extra, len(samples)


def per_layer(untraced_result, traced):
    """Per-layer metrics from one untraced and two traced repetitions.

    Counts come from the first traced repetition and must repeat exactly in
    the second; seconds and ratios are the mean of the two.
    """
    first, second = (r["layers"] for r in traced)
    mismatched = [name for name in EXACT_COUNTS
                  if first.get(name) != second.get(name)]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            metrics[name] = first.get(name, 0)
        else:
            metrics[name] = (first.get(name, 0) + second.get(name, 0)) / 2.0
    traced_run_s = statistics.mean(r["run_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_run_s - net_run_s(untraced_result)
    metrics["kernels.label_components.share"] = (
        metrics["kernels.label_components.s"] / traced_run_s)
    return metrics, mismatched


def run(workload, seed, seconds, trace, record):
    deadline = time.monotonic() + DEADLINE_S
    input_seed = seed % INPUT_SEEDS
    out_root = os.path.join(ROOT, ".perfbench_out")
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    try:
        gen, _ = run_child(work, "gen", workload, input_seed, deadline)
        table = load_digests()
        recorded = table.get(workload, {}).get(str(input_seed))
        problems = []
        if trace:
            spans = os.path.join(out_root, f"{workload}-spans.tsv")
            results = [run_child(work, "op", workload, input_seed, deadline,
                                 rep=0)[0]]
            results += [run_child(work, "op", workload, input_seed, deadline,
                                  rep=i, trace=1,
                                  spans=spans if i == 1 else None)[0]
                        for i in (1, 2)]
        else:
            setups, results = untraced(work, workload, input_seed, seconds,
                                       deadline)
        if record:
            recorded = {"inputs": gen["digests"]}
            recorded.update({op["name"]: op["digests"] for op in results[0]["ops"]})
            table.setdefault(workload, {})[str(input_seed)] = recorded
            with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
        if recorded is None:
            recorded = {}
            problems.append(f"no recorded digests for {workload} seed {input_seed}")
        if gen["digests"] != recorded.get("inputs", {}):
            problems.append(f"input digests {gen['digests']} != recorded "
                            f"{recorded.get('inputs')}")
        attempted, failed, op_issues = check_ops(results, recorded)
        problems.extend(op_issues)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = dict(gen["stamps"], git_sha=git_sha(), src_sha256=source_digest())
    report = {"workload": workload, "seed": seed, "input_seed": input_seed,
              "input": INPUT_SIZE[workload], "stamps": stamp,
              "repetitions": results}
    print("stamp: " + " ".join(f"{k}={v}" for k, v in sorted(stamp.items())))
    print(f"workload={workload} seed={seed} input_seed={input_seed} "
          f"input: {INPUT_SIZE[workload]}")
    if trace:
        metrics, mismatched = per_layer(results[0], results[1:])
        units = PER_LAYER_UNITS
        absent = sorted(set(results[1].get("absent", [])))
        if mismatched:
            problems.append(f"counts differ across traced runs: {mismatched}")
        report["absent"] = absent
        print(f"labeling share of traced run_s on {workload}: "
              f"{100 * metrics['kernels.label_components.share']:.1f}%")
        if absent:
            print("absent (reported as 0): " + ", ".join(absent))
    else:
        metrics, extra, n_setup = end_to_end(setups, results)
        units = END_TO_END_UNITS
        report["setup_samples"] = setups
        print(f"repetitions: {len(results)} op, {n_setup} set-up samples "
              f"(medians reported)")
        for name, value in sorted(extra.items()):
            unit = {"examples_per_s": "1/s", "host_speed": "x"}.get(name, "s")
            print(f"{name:<40} {value:.6g} {unit}")
    for name in units:
        print(f"{name:<40} {metrics[name]:.6g} {units[name]}")
    print(f"{'ops':<40} {attempted} count")
    print(f"{'ops_failed':<40} {failed} count")
    for problem in problems:
        print(f"FAILED: {problem}")
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  problems=problems)
    with open(os.path.join(out_root, f"{workload}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(line))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests instead of "
                             "checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "iem", "__init__.py")):
        print(f"error: no iem sources under {ROOT}/src; run from a full "
              "checkout", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, args.trace, args.record)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
