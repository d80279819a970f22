"""Strategy runners and report plumbing for the four-way comparison.

The four strategies are the 2x2 of two decisions. ``baseline_full`` and
``baseline_hem`` train on the whole stream at once, in one
``train_pooled`` stage; ``naive_finetune`` and ``iem_incremental`` train
stage by stage, one ``train_stage`` per arriving chunk. ``baseline_hem``
and ``iem_incremental`` keep an error-scored pool and mine it; the other
two train on fixed sets.

All strategies share one presentation budget. The initial chunk is worth
iterations_per_step passes over it; each later chunk is worth
iterations_per_step batches of 4K examples, K being that chunk's
positive count. Pooled strategies receive the sum. The allowance is
never exceeded, but the mining loop trains only what its selections
hold, which can be much less: at the library defaults ``baseline_hem``
takes 4400 of its 6000 steps (at the criterion-5 config all four take
9000). ``uneven_totals`` names the strategies whose totals differ.

Per-strategy outputs: a report fragment CSV (no wall-clock column, so
reruns are byte-identical), a timings sidecar CSV, a trace log of what
was trained on, a checkpoint, and for the mining strategies the pool
state. Each CSV row follows its header; the report reader joins in the
seconds of the sidecar beside it.
"""

import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from itertools import islice

import numpy as np

from . import metrics
from .errors import DataError, read_lines
from .pgm import to_image
from .pool import PoolState, add_chunk, pair_blocks, save_state
from .selection import compute_partition_number
from .synth import MANIFEST_NAME, read_manifest
from .trainer import (
    forward,
    incremental_step,
    init_params,
    mine,
    save_params,
    train_on_subset,
)

STRATEGIES = ("baseline_full", "baseline_hem", "iem_incremental", "naive_finetune")

REPORT_HEADER = "strategy,stage,precision,recall,f1,jaccard,examples_trained"
TIMINGS_HEADER = "strategy,stage,seconds"
FULL_HEADER = "strategy,stage,precision,recall,f1,jaccard,seconds,examples_trained"

REPORT_NAME = "report.csv"
TIMINGS_NAME = "timings.csv"
TRACE_NAME = "trace.txt"
CHECKPOINT_NAME = "checkpoint.txt"
POOL_NAME = "pool.tsv"

# the value each "# key=value" line of a report may hold
_ANNOTATIONS = {"seed": r"[0-9]+", "config": r"[0-9a-f]{12}"}


@dataclass(frozen=True)
class StageResult:
    stage: int
    precision: float
    recall: float
    f1: float
    jaccard: float
    seconds: float
    examples_trained: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and v < 0:
                raise ValueError(f"{f.name} must be >= 0, got {v}")
            if f.type is float and f.name != "seconds" and not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} out of [0,1]: {v}")


# the type of each report column but the first, which names the strategy
_COLUMN_TYPES = {f.name: f.type for f in fields(StageResult)}


@dataclass(frozen=True)
class StrategyReport:
    strategy: str
    seed: int
    config_hash: str
    rows: tuple

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        stages = [row.stage for row in self.rows]
        if stages != sorted(stages):
            raise ValueError("report rows must be stage-ordered")

    def final_row(self):
        return self.rows[-1]


def evaluate_model(params, blocks, tau):
    """Lesion-level precision/recall/F1 at tau plus mean pixel Jaccard.

    ``blocks`` yields (rasters, masks) stacks of same-shape test pairs,
    uint8 rasters as ``pool.pair_blocks`` makes them; this function
    stacks nothing, and converts each raster stack by one
    ``pgm.to_image`` just before its forward pass. It keeps running
    lesion counts and one array of per-image Jaccard values a block,
    and reads ``blocks`` once, so a decoding generator keeps no image.
    No pairs at all is refused: there is no mean Jaccard to give.
    """
    tp = fp = fn = 0
    jis = []
    for rasters, masks in blocks:
        preds = metrics.binarize(forward(params, to_image(rasters)))
        matched, false_pos, false_neg = metrics.lesion_counts(preds, masks, tau)
        tp += int(np.add.reduce(matched))
        fp += int(np.add.reduce(false_pos))
        fn += int(np.add.reduce(false_neg))
        jis.append(metrics.jaccard_index(preds, masks))
    if not jis:
        raise ValueError("no test pairs to evaluate")
    return (*metrics.detection_scores(tp, fp, fn),
            float(np.mean(np.concatenate(jis))))


def stage_budgets(train_chunks, selcfg):
    """Presentation allowance per stage, before the epoch multiplier."""
    budgets = [selcfg.iterations_per_step * len(train_chunks[0])]
    for chunk in train_chunks[1:]:
        budgets.append(selcfg.iterations_per_step * 4 * compute_partition_number(chunk))
    return budgets


def _pairs(records):
    """Each record's (raster, mask), views into ``pair_blocks``' stacks."""
    return [pair for block in pair_blocks(records) for pair in zip(*block)]


def _cycle(examples, rng):
    """Examples in reshuffled passes, so batches cover the set evenly."""
    while True:
        for i in rng.permutation(len(examples)):
            yield examples[i]


def train_stage(params, pool, chunk, stage, selcfg, traincfg, trace=None):
    """One stage of a staged strategy: train params in place on ``chunk``.

    Stage 0 is iterations_per_step passes over the chunk. With a pool
    (iem), the chunk joins the pool, and a later stage is
    ``incremental_step``, whose rounds go to ``trace``. Without one
    (naive), a later stage is iterations_per_step batches of 4K examples
    of the chunk. ``pool.pair_blocks`` reads what no pool holds. Returns
    the size of the fixed set trained on, or None for a mining stage.
    """
    if pool is not None and stage != pool.next_stage:
        raise ValueError(f"stage {stage} is out of sequence for the pool")
    if pool is not None and stage:
        incremental_step(pool, params, selcfg, traincfg, chunk, trace)
        return None
    examples = (_pairs(chunk) if pool is None
                else add_chunk(pool, chunk, 0).labeled([r.id for r in chunk]))
    rng = np.random.default_rng([selcfg.seed, stage])
    if stage:
        batch_size = 4 * compute_partition_number(chunk)
        cycle = _cycle(examples, rng)
    for _ in range(selcfg.iterations_per_step):
        train_on_subset(params, list(islice(cycle, batch_size)) if stage
                        else examples, traincfg, rng)
    return len(chunk)


def train_pooled(params, pool, train_chunks, selcfg, traincfg, trace=None):
    """The one stage of a pooled strategy: train params on the whole stream.

    It spends the summed stage budgets. With a pool (hem), every chunk
    joins it and ``mine`` runs budget // 4K rounds, K from the newest
    chunk; its rounds go to ``trace``. Without one (full), it runs
    shuffled epochs over every example, then a random remainder. Returns
    what ``train_stage`` does.
    """
    budget = sum(stage_budgets(train_chunks, selcfg))
    if pool is not None:
        for i, chunk in enumerate(train_chunks):
            add_chunk(pool, chunk, i)
        K = compute_partition_number(train_chunks[-1])
        mine(pool, params, K, budget // (4 * K), selcfg, traincfg, trace)
        return None
    rng = np.random.default_rng([selcfg.seed, 0])
    examples = _pairs([rec for chunk in train_chunks for rec in chunk])
    epochs, remainder = divmod(budget, len(examples))
    for _ in range(epochs):
        train_on_subset(params, examples, traincfg, rng)
    if remainder:
        idx = rng.permutation(len(examples))[:remainder]
        train_on_subset(params, [examples[int(i)] for i in idx], traincfg, rng)
    return len(examples)


def run_strategy(strategy, train_chunks, test_records, selcfg, traincfg):
    """Train one strategy end to end; returns (report, params, pool, trace).

    ``pool`` is None for the strategies that do not mine. Each stage's
    seconds cover its training but not its evaluation, and its
    examples_trained is the number of SGD steps it took. ``pool.pair_blocks``
    reads the test set and the full and naive training sets once per run,
    as ``iem eval`` reads a test set, and every stage evaluates the test
    set's raster stacks. An empty chunk or test set is refused before
    training.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    empty = [i for i, chunk in enumerate(train_chunks) if not chunk]
    if not train_chunks or empty:
        raise ValueError(f"need nonempty training chunks; empty: {empty}")
    if not test_records:
        raise ValueError("need a nonempty test set")
    test_blocks = list(pair_blocks(test_records))
    params, trace, rows = init_params(), [], []
    pool = PoolState() if strategy in ("baseline_hem", "iem_incremental") else None

    def trace_round(stage, iteration, subset):
        trace.append("\t".join([
            f"stage={stage}",
            f"iter={iteration}",
            "hard_pos=" + ",".join(subset.hard_positives),
            "hard_neg=" + ",".join(subset.hard_negatives),
            "easy_pos=" + ",".join(subset.easy_positives),
            "easy_neg=" + ",".join(subset.easy_negatives),
        ]))

    if strategy in ("baseline_full", "baseline_hem"):  # the whole stream at once
        stages = [(len(train_chunks) - 1,
                   partial(train_pooled, params, pool, train_chunks))]
    else:  # stage by stage
        stages = [(stage, partial(train_stage, params, pool, chunk, stage))
                  for stage, chunk in enumerate(train_chunks)]
    for stage, train in stages:
        steps, t0 = params.version, time.perf_counter()
        set_size = train(selcfg, traincfg, trace_round)
        seconds = time.perf_counter() - t0
        presented = params.version - steps
        if set_size is not None:
            trace.append(
                f"stage={stage}\tset_size={set_size}\tpresentations={presented}"
            )
        rows.append(StageResult(
            stage, *evaluate_model(params, test_blocks, selcfg.tau),
            seconds, presented,
        ))
    report = StrategyReport(
        strategy=strategy, seed=selcfg.seed, config_hash=selcfg.fingerprint(),
        rows=tuple(rows),
    )
    return report, params, pool, trace


def write_strategy_outputs(out_dir, report, params, pool, trace):
    """Write checkpoint, report fragment, timings, trace, and pool state."""
    os.makedirs(out_dir, exist_ok=True)
    save_params(params, os.path.join(out_dir, CHECKPOINT_NAME))
    write_report_fragment(report, os.path.join(out_dir, REPORT_NAME))
    write_timings(report, os.path.join(out_dir, TIMINGS_NAME))
    with open(os.path.join(out_dir, TRACE_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(trace) + ("\n" if trace else ""))
    if pool is not None:
        save_state(pool, os.path.join(out_dir, POOL_NAME))


def _csv_text(header, reports):
    """``header``, then a line per row of each report with the header's
    columns: a float field to 6 decimals, an int field as is."""
    names = header.split(",")[1:]
    lines = [header]
    for report in reports:
        for row in report.rows:
            lines.append(",".join([report.strategy, *(
                f"{getattr(row, name):.6f}" if _COLUMN_TYPES[name] is float
                else str(getattr(row, name)) for name in names)]))
    return "\n".join(lines) + "\n"


def write_report_fragment(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={report.seed}\n# config={report.config_hash}\n"
                 + _csv_text(REPORT_HEADER, [report]))


def write_timings(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_text(TIMINGS_HEADER, [report]))


def _check_header(path, lineno, got, expected):
    got_fields = got.split(",")
    expected_fields = expected.split(",")
    for field in expected_fields:
        if field not in got_fields:
            raise DataError(
                f"{path}:{lineno}: missing field {field!r} in header")
    if got_fields != expected_fields:
        raise DataError(f"{path}:{lineno}: bad column order {got!r}")


def read_report_fragment(path):
    """Parse a fragment written by write_report_fragment, with the seconds
    of its strategy from the timings.csv beside it (0.0 where none)."""
    meta = {}
    body = []
    for lineno, line in enumerate(read_lines(path, "report"), start=1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key not in _ANNOTATIONS:
                raise DataError(f"{path}:{lineno}: unknown annotation {key!r}")
            if key in meta:
                raise DataError(f"{path}:{lineno}: repeated annotation {key!r}")
            if not re.fullmatch(_ANNOTATIONS[key], value):
                raise DataError(f"{path}:{lineno}: bad {key} {value!r}")
            meta[key] = value
        elif line:
            body.append((lineno, line))
    if "seed" not in meta or "config" not in meta:
        raise DataError(f"{path}: report lacks seed/config annotations")
    if not body:
        raise DataError(f"{path}: empty report")
    _check_header(path, *body[0], REPORT_HEADER)
    if len(body) == 1:
        raise DataError(f"{path}: no rows")
    strategy = body[1][1].split(",")[0]
    sidecar = os.path.join(os.path.dirname(os.path.abspath(path)), TIMINGS_NAME)
    timings = read_timings(sidecar) if os.path.isfile(sidecar) else {}
    names = REPORT_HEADER.split(",")
    rows = []
    for lineno, line in body[1:]:
        values = line.split(",")
        if len(values) != len(names):
            raise DataError(f"{path}:{lineno}: expected {len(names)} columns, "
                            f"got {len(values)}")
        if values[0] != strategy:
            raise DataError(f"{path}:{lineno}: mixed strategies in one fragment")
        try:
            parsed = {name: _COLUMN_TYPES[name](value)
                      for name, value in zip(names[1:], values[1:])}
            rows.append(StageResult(
                **parsed, seconds=timings.get((strategy, parsed["stage"]), 0.0)))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value ({exc})") from exc
        if rows[-1].stage in [row.stage for row in rows[:-1]]:
            raise DataError(f"{path}:{lineno}: repeated stage {values[1]}")
    try:
        return StrategyReport(
            strategy=strategy, seed=int(meta["seed"]), config_hash=meta["config"],
            rows=tuple(rows),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_timings(path):
    lines = read_lines(path, "timings")
    if not lines:
        raise DataError(f"{path}: empty timings file")
    _check_header(path, 1, lines[0], TIMINGS_HEADER)
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        values = line.split(",")
        if len(values) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            key, seconds = (values[0], int(values[1])), float(values[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value ({exc})") from exc
        if not math.isfinite(seconds) or seconds < 0:
            raise DataError(f"{path}:{lineno}: seconds must be finite and >= 0")
        if key in out:
            raise DataError(f"{path}:{lineno}: repeated row {key[0]},{key[1]}")
        out[key] = seconds
    return out


def merge_reports(reports, paths=None):
    """The reports in STRATEGIES order; reports of different runs, or two
    of one strategy, are refused. Two of one strategy are named by
    ``paths``, the files the reports were read from, or by position."""
    seeds = {r.seed for r in reports}
    configs = {r.config_hash for r in reports}
    if len(seeds) > 1 or len(configs) > 1:
        raise DataError(
            f"reports disagree on seed/config: seeds={sorted(seeds)} "
            f"configs={sorted(configs)}"
        )
    names = paths or [f"report {i}" for i in range(1, len(reports) + 1)]
    seen = {}
    for name, report in zip(names, reports):
        if report.strategy in seen:
            raise DataError(f"more than one report of {report.strategy}: "
                            f"{seen[report.strategy]} and {name}")
        seen[report.strategy] = name
    return sorted(reports, key=lambda r: STRATEGIES.index(r.strategy))


def comparison_csv(reports):
    return _csv_text(FULL_HEADER, reports)


def final_stage_table(reports):
    """Text table of each report's last-stage row."""
    header = (f"{'strategy':<16} {'stage':>5} {'precision':>9} {'recall':>9} "
              f"{'f1':>9} {'jaccard':>9} {'seconds':>9} {'examples':>9}")
    lines = [header, "-" * len(header)]
    for report in reports:
        row = report.final_row()
        lines.append(
            f"{report.strategy:<16} {row.stage:>5} {row.precision:>9.4f} "
            f"{row.recall:>9.4f} {row.f1:>9.4f} {row.jaccard:>9.4f} "
            f"{row.seconds:>9.3f} {row.examples_trained:>9}"
        )
    return "\n".join(lines)


def uneven_totals(reports):
    """A line naming each strategy whose total examples_trained differs
    from the one most strategies share (the larger on a tie), or None."""
    totals = {r.strategy: sum(row.examples_trained for row in r.rows)
              for r in reports}
    shares = Counter(totals.values())
    common = max(shares, key=lambda total: (shares[total], total))
    odd = [f"{strategy} {total}" for strategy, total in totals.items()
           if total != common]
    if not odd:
        return None
    return (f"examples_trained totals differ: {', '.join(odd)} against "
            f"{common} for the others")


def load_dataset(data_dir):
    """Read chunk0..chunkN and test manifests from a generated data tree.

    Every manifest must list at least one example, no example id may
    appear in two train manifests, and no chunk directory may lack its
    manifest or come after the first missing one.
    """
    manifests = []
    while os.path.isfile(manifest := os.path.join(
            data_dir, f"chunk{len(manifests)}", MANIFEST_NAME)):
        manifests.append(manifest)
    if not manifests:
        raise DataError(f"no chunk manifests under {data_dir}")
    later = sorted((int(name[5:]), name) for name in os.listdir(data_dir)
                   if re.fullmatch(r"chunk\d+", name) and int(name[5:]) >= len(manifests)
                   and os.path.isdir(os.path.join(data_dir, name)))
    if later:
        index, name = later[0]
        where = "without its" if index == len(manifests) else "after the missing"
        raise DataError(f"{os.path.join(data_dir, name)}: chunk directory "
                        f"{where} {manifest}")
    test_manifest = os.path.join(data_dir, "test", MANIFEST_NAME)
    if not os.path.isfile(test_manifest):
        raise DataError(f"missing test manifest {test_manifest}")
    chunks = []
    first_manifest = {}
    for manifest in manifests:
        chunks.append(read_manifest(manifest))
        for rec in chunks[-1]:
            first = first_manifest.setdefault(rec.id, manifest)
            if first != manifest:
                raise DataError(f"{manifest}: example id {rec.id!r} is also "
                                f"in {first}")
    return chunks, read_manifest(test_manifest)
