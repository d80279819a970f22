"""Command-line entry points: gen, train, eval, compare.

Exit codes: 0 success, 2 usage error, 3 data error (missing or malformed
files, a file that cannot be written, bad config values), 4 numeric
abort during training.

Configuration files are UTF-8 ``key=value`` lines; a leading byte-order
mark, blank lines and lines starting with ``#`` are ignored; unknown keys
are errors. Command-line flags override file values.
"""

import argparse
import ctypes
import dataclasses
import os
import sys
from collections import Counter

from . import harness, pool, synth
from .errors import DataError, NumericError, read_lines, write_lines
from .selection import SelectionConfig
from .trainer import TrainConfig, load_params

_STRATEGY_ALIASES = {
    "full": "baseline_full",
    "hem": "baseline_hem",
    "iem": "iem_incremental",
    "naive": "naive_finetune",
}

# every field of the two configs is a key
CONFIG_KEYS = {f.name: f.type for cls in (SelectionConfig, TrainConfig)
               for f in dataclasses.fields(cls)}

def read_config_file(path):
    """Parse a key=value config file into typed settings.

    Each value is checked on its own by ``make_configs``; every config
    check tests one field, so a file is refused, naming the line, exactly
    when its settings are.
    """
    values = {}
    for lineno, raw in enumerate(read_lines(path, "config"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in CONFIG_KEYS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise DataError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        try:
            make_configs({key: values[key]})
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return values


def make_configs(values):
    """Build (SelectionConfig, TrainConfig) from typed settings: each class
    takes the settings named after its fields, and the rest keep their
    dataclass defaults."""
    try:
        return tuple(cls(**{f.name: values[f.name]
                            for f in dataclasses.fields(cls) if f.name in values})
                     for cls in (SelectionConfig, TrainConfig))
    except ValueError as exc:
        raise DataError(f"bad configuration: {exc}") from exc


def cmd_gen(args):
    make_configs({"seed": args.seed})  # refused before anything is written
    scenario = synth.default_scenario(args.seed)
    train_chunks, test_records = synth.generate_scenario(scenario, args.out)
    sizes = [len(chunk) for chunk in train_chunks]
    print(f"wrote {sum(sizes)} train images in chunks {sizes} "
          f"and {len(test_records)} test images under {args.out}")
    return 0


def cmd_train(args):
    strategy = _STRATEGY_ALIASES.get(args.strategy, args.strategy)
    settings = read_config_file(args.config) if args.config else {}
    if args.seed is not None:  # --seed over the file's value
        settings["seed"] = args.seed
    selcfg, traincfg = make_configs(settings)
    train_chunks, test_records = harness.load_dataset(args.data)
    report, params, pool, trace = harness.run_strategy(
        strategy, train_chunks, test_records, selcfg, traincfg
    )
    out_dir = os.path.join(args.out, strategy)
    harness.write_strategy_outputs(out_dir, report, params, pool, trace)
    row = report.final_row()
    presented = sum(r.examples_trained for r in report.rows)
    allowed = (sum(harness.stage_budgets(train_chunks, selcfg))
               * traincfg.epochs_per_iteration)
    seconds = sum(r.seconds for r in report.rows)
    dropped = ""
    if pool is not None:
        counts = Counter(r.chunk_index for r in pool.records if r.dropped)
        dropped = "; dropped per chunk " + " ".join(
            f"{i}:{counts[i]}" for i in range(len(train_chunks)))
    print(f"{strategy}: stage {row.stage} precision={row.precision:.4f} "
          f"recall={row.recall:.4f} f1={row.f1:.4f} jaccard={row.jaccard:.4f}; "
          f"run totals: {presented} presentations of {allowed} allowed, "
          f"{seconds:.2f}s of training{dropped}; outputs in {out_dir}")
    return 0


def cmd_eval(args):
    params = load_params(args.checkpoint)
    records = synth.read_manifest(args.test)
    selcfg, _ = make_configs(read_config_file(args.config) if args.config else {})
    precision, recall, f1, jaccard = harness.evaluate_model(
        params, pool.pair_blocks(records), selcfg.tau
    )
    print("precision,recall,f1,jaccard")
    print(f"{precision:.6f},{recall:.6f},{f1:.6f},{jaccard:.6f}")
    return 0


def cmd_compare(args):
    if len(args.reports) < 2:
        print("error: compare needs at least two report files", file=sys.stderr)
        return 2
    merged = harness.merge_reports(
        [harness.read_report_fragment(path) for path in args.reports],
        args.reports)
    lines = harness.comparison_csv(merged)
    tail = ["", *lines]  # a blank line, then the CSV
    if args.out:  # written first, so a failed write prints nothing
        write_lines(lines, args.out)
        tail = [f"full comparison written to {args.out}"]
    print(harness.final_stage_table(merged))
    note = harness.uneven_totals(merged)
    if note:
        print(note)
    print(*tail, sep="\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iem",
        description="incremental example mining on synthetic lesion streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate the default scenario dataset")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train one strategy on a dataset")
    p_train.add_argument(
        "--strategy", required=True,
        choices=sorted(set(harness.STRATEGIES) | set(_STRATEGY_ALIASES)),
    )
    p_train.add_argument("--data", required=True, help="dataset directory from gen")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--config", default=None, help="key=value config file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--test", required=True, help="test manifest path")
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="merge strategy reports into a table")
    p_cmp.add_argument("reports", nargs="+", help="report fragment CSVs")
    p_cmp.add_argument("--out", default=None, help="write full CSV here")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_arrays_in_heap():
    """Fix glibc's mmap and trim thresholds above one block's work arrays.

    By default glibc raises its mmap threshold only to the largest freed
    mmapped chunk (the 288 KiB feature stack of a 16-image block) and its
    trim threshold to twice that. One block frees more than that, so the
    heap top goes back to the kernel after every block and the next block
    faults the same pages in again: about 5 minor faults per image in
    ``iem eval``. Only where arrays live changes, not any result. Other C
    libraries have no ``mallopt`` and keep their own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    mallopt(_M_TRIM_THRESHOLD, 4 << 20)


def main(argv=None):
    _keep_freed_arrays_in_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
