"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It drives the program only through ``iem.cli.main`` argv (and,
to make inputs, the public ``iem.synth`` generators), and writes one JSON
result file. Modes:

  gen    make the workload's inputs from its seed (off the clock) and
         stamp the environment
  setup  import iem and run the CLI up to its first train/eval call, then
         stop: a set-up time sample
  op     set up, then run the workload's train or eval calls; with
         --trace 0 a speed probe samples the host's speed during each
         call, with --trace 1 every layer is wrapped and per-layer
         metrics are added

Set-up time runs from just before ``import iem`` to the first call of
``harness.run_strategy`` or ``harness.evaluate_model``. The timed phase of
each CLI call runs from that first call to the CLI's return, so it
includes writing the outputs.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import probe
import tracing

CONFIG_TEXT = "iterations_per_step=5\nepochs_per_iteration=3\n"

# Held-out eval images per shift style. Five styles give 4000 images, so
# one eval pass lasts about as long as one pooled repetition.
EVAL_PER_STYLE = 800

# Strategy runs of each training workload, in order.
TRAIN_OPS = {
    "mine": ("baseline_hem", "iem_incremental"),
    "pooled": ("baseline_full", "naive_finetune"),
}

TRAIN_FILES = ("report.csv", "trace.txt", "checkpoint.txt", "pool.tsv")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def normalize_pool(text, data_root):
    """pool.tsv with the data-root prefix stripped from its image paths."""
    return text.replace(os.path.abspath(data_root) + os.sep, "")


def train_digests(run_dir, data_root):
    """sha256 of each deterministic output of one strategy run.

    ``timings.csv`` holds wall seconds and is left out. ``pool.tsv`` stores
    absolute image paths, so it is hashed with the data root stripped.
    """
    out = {}
    for name in TRAIN_FILES:
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "pool.tsv":
            data = normalize_pool(data.decode("utf-8"), data_root).encode("utf-8")
        out[name] = sha256(data)
    return out


def examples_trained(report_path):
    """Sum of the examples_trained column of a report fragment."""
    total = 0
    with open(report_path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines()
                if line and not line.startswith("#")]
    header = rows[0].split(",")
    col = header.index("examples_trained")
    for row in rows[1:]:
        total += int(row.split(",")[col])
    return total


class Phases:
    """Marks when each CLI call reaches its first train or eval call."""

    def __init__(self, stop_at_first=False):
        self.entered = None
        self.stop_at_first = stop_at_first

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.entered is None:
                self.entered = time.perf_counter()
                if self.stop_at_first:
                    raise SetupDone()
            return fn(*args, **kwargs)
        return wrapper


class SetupDone(Exception):
    """Raised at the first train/eval call of a set-up-only repetition."""


def run_cli(cli, argv, phases):
    """(exit code, phase start, end, stdout) of one CLI call."""
    phases.entered = None
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    end = time.perf_counter()
    entered = phases.entered if phases.entered is not None else start
    return code, entered, end, buf.getvalue()


def layout(work):
    return {
        "data": os.path.join(work, "data"),
        "config": os.path.join(work, "run.cfg"),
        "evalset": os.path.join(work, "evalset", "manifest.tsv"),
        "ckpt_dir": os.path.join(work, "ckpt"),
        "checkpoint": os.path.join(work, "ckpt", "baseline_full", "checkpoint.txt"),
    }


def op_argvs(workload, seed, paths, out_dir):
    """[(op name, argv)] of one repetition."""
    if workload == "eval":
        return [("eval", ["eval", "--checkpoint", paths["checkpoint"],
                          "--test", paths["evalset"], "--config", paths["config"]])]
    return [
        (name, ["train", "--strategy", name, "--data", paths["data"],
                "--out", out_dir, "--seed", str(seed), "--config", paths["config"]])
        for name in TRAIN_OPS[workload]
    ]


def stamps():
    kernels = sys.modules.get("iem.kernels")

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": getattr(kernels, "BACKEND", None),
        "nproc": os.cpu_count(),
    }


def do_gen(workload, seed, paths):
    from iem import cli, synth

    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        if cli.main(["gen", "--out", paths["data"], "--seed", str(seed)]) != 0:
            raise RuntimeError("iem gen failed")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(CONFIG_TEXT)
    digests = {}
    if workload == "eval":
        evalset_dir = os.path.dirname(paths["evalset"])
        records = []
        for i, spec in enumerate(synth.default_scenario(seed).test):
            spec = dataclasses.replace(spec, n_images=EVAL_PER_STYLE)
            records.extend(synth.generate_chunk(
                spec, os.path.join(evalset_dir, f"style{i}"), chunk_index=i))
        synth.write_manifest(records, paths["evalset"])
        with contextlib.redirect_stdout(quiet):
            code = cli.main(["train", "--strategy", "baseline_full",
                             "--data", paths["data"], "--out", paths["ckpt_dir"],
                             "--seed", str(seed), "--config", paths["config"]])
        if code != 0:
            raise RuntimeError("training the eval checkpoint failed")
        with open(paths["checkpoint"], "rb") as fh:
            digests["checkpoint.txt"] = sha256(fh.read())
    return {"stamps": stamps(), "digests": digests}


def do_run(mode, workload, seed, paths, out_dir, trace, spans_path, rep):
    t0 = time.perf_counter()
    from iem import cli

    tracer = None
    if trace:
        tracer = tracing.Tracer(run_id=rep)
        tracing.install(tracer)
    phases = Phases(stop_at_first=(mode == "setup"))
    for name in ("run_strategy", "evaluate_model"):
        tracing.patch_everywhere("iem.harness", name, phases.wrap)

    ops = []
    setup_s = None
    speed_probe = None
    if mode == "op" and not trace:
        speed_probe = probe.SpeedProbe()
        speed_probe.start()
    try:
        for name, argv in op_argvs(workload, seed, paths, out_dir):
            op = {"name": name, "seconds": 0.0, "examples": 0, "digests": {},
                  "error": None}
            try:
                code, entered, end, stdout = run_cli(cli, argv, phases)
            except SetupDone:
                return {"setup_s": phases.entered - t0}
            except Exception:  # an op that raises is counted as failed
                op["error"] = traceback.format_exc(limit=5)
                ops.append(op)
                continue
            if setup_s is None:
                setup_s = entered - t0
            op["seconds"] = end - entered
            if speed_probe is not None:
                op["ticks"], op["probe_s"], op["speed"] = probe.summarize(
                    speed_probe.samples, entered, end)
            if code != 0:
                op["error"] = f"exit code {code}"
            elif workload == "eval":
                op["digests"] = {"metrics": sha256(stdout.encode("utf-8"))}
                with open(paths["evalset"], "r", encoding="utf-8") as fh:
                    op["examples"] = sum(1 for line in fh if line.strip())
            else:
                run_dir = os.path.join(out_dir, name)
                op["digests"] = train_digests(run_dir, paths["data"])
                op["examples"] = examples_trained(
                    os.path.join(run_dir, "report.csv"))
            ops.append(op)
    finally:
        if speed_probe is not None:
            speed_probe.stop()
    if mode == "setup":
        raise RuntimeError("the CLI never reached a train or eval call")

    result = {
        "setup_s": setup_s,
        "run_s": sum(op["seconds"] for op in ops),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["pool.dropped"] = count_dropped(out_dir)
        result["layers"] = layers
        result["absent"] = sorted(tracer.absent)
        if spans_path:
            tracer.write(spans_path)
    return result


def count_dropped(out_dir):
    """Records flagged dropped in every pool.tsv this repetition wrote."""
    total = 0
    if not os.path.isdir(out_dir):
        return 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name, "pool.tsv")
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                total += sum(1 for line in fh if "\tdropped=1" in line)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("gen", "setup", "op"), required=True)
    parser.add_argument("--workload", choices=("mine", "pooled", "eval"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    paths = layout(args.work)
    if args.mode == "gen":
        result = do_gen(args.workload, args.seed, paths)
    else:
        out_dir = os.path.join(args.work, f"out-{args.rep}")
        result = do_run(args.mode, args.workload, args.seed, paths, out_dir,
                        args.trace, args.spans, args.rep)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
