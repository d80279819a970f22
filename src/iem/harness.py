"""Strategy runners and report plumbing for the four-way comparison.

Strategies:

* ``baseline_full``: trains on all chunks pooled, plain shuffled epochs.
* ``baseline_hem``: trains on all chunks pooled, but every iteration's
  batch is a 4K hard/easy selection refreshed as training proceeds.
* ``iem_incremental``: the incremental mining loop, one stage per chunk.
* ``naive_finetune``: trains on only the newest chunk each stage.

All strategies share one presentation budget. The initial chunk is worth
iterations_per_step passes over it; each later chunk is worth
iterations_per_step batches of 4K examples, K being that chunk's
positive count. Pooled strategies receive the sum. The mining loop may
present slightly less when truncation shrinks a selection; the allowance
is never exceeded.

Per-strategy outputs: a report fragment CSV (no wall-clock column, so
reruns are byte-identical), a timings sidecar CSV, a trace log of what
was trained on, a checkpoint, and for pool-based strategies the pool
state. The comparison step joins fragment and sidecar into the full
report schema.
"""

import os
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import metrics, pgm
from .errors import DataError
from .kernels import shape_blocks
from .pool import PoolState, add_chunk, save_state
from .selection import partition_number_for
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
        for name in ("precision", "recall", "f1", "jaccard"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {v}")


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


def evaluate_model(params, pairs, selcfg):
    """Lesion-level precision/recall/F1 at tau plus mean pixel Jaccard.

    Runs over blocks of up to 8 same-shape (image, mask) test pairs,
    keeping running lesion counts and the per-image Jaccard values.
    ``pairs`` is read once, so a decoding generator keeps no image.
    """
    tp = fp = fn = 0
    jis = []
    for block in shape_blocks(pairs):
        masks = np.stack([mask for _, mask in block])
        preds = metrics.binarize(
            forward(params, np.stack([img for img, _ in block])),
            selcfg.binarize_threshold,
        )
        matched, false_pos, false_neg = metrics.lesion_counts(
            preds, masks, selcfg.tau)
        tp += int(matched.sum())
        fp += int(false_pos.sum())
        fn += int(false_neg.sum())
        jis.extend(metrics.jaccard_index(preds, masks).tolist())
    return (*metrics.detection_scores(tp, fp, fn), float(np.mean(jis)))


def stage_budgets(train_chunks, selcfg):
    """Presentation allowance per stage, before the epoch multiplier."""
    budgets = [selcfg.iterations_per_step * len(train_chunks[0])]
    for chunk in train_chunks[1:]:
        budgets.append(selcfg.iterations_per_step * 4 * partition_number_for(selcfg, chunk))
    return budgets


def _cycle(examples, rng):
    """Examples in reshuffled passes, so batches cover the set evenly."""
    while True:
        for i in rng.permutation(len(examples)):
            yield examples[i]


def _pairs(records, reader):
    return [reader.pair(rec.image_ref, rec.mask_ref) for rec in records]


# Each runner is a generator over (params, pool, trace_round, train_chunks,
# selcfg, traincfg, reader). It trains params in place and yields
# (stage, set_size) once per reported stage. set_size is the size of the
# fixed set a stage trained on, or None for a mining stage, whose rounds
# are passed to trace_round as they run. Only pool-based runners fill pool
# and train on its pairs; the others decode their fixed sets with reader.


def _train_initial(params, examples, selcfg, traincfg):
    """Shared stage-0 routine: iterations_per_step passes over the chunk."""
    rng = np.random.default_rng([selcfg.seed, 0])
    for _ in range(selcfg.iterations_per_step):
        train_on_subset(params, examples, traincfg, rng)


def _run_iem(params, pool, trace_round, train_chunks, selcfg, traincfg, reader):
    add_chunk(pool, train_chunks[0], 0)
    _train_initial(params, [pool.pair(rec.id) for rec in train_chunks[0]],
                   selcfg, traincfg)
    yield 0, len(train_chunks[0])
    for chunk in train_chunks[1:]:
        incremental_step(pool, params, selcfg, traincfg, chunk, trace_round)
        yield pool.stage, None


def _run_naive(params, pool, trace_round, train_chunks, selcfg, traincfg, reader):
    _train_initial(params, _pairs(train_chunks[0], reader), selcfg, traincfg)
    yield 0, len(train_chunks[0])
    for stage, chunk in enumerate(train_chunks[1:], start=1):
        rng = np.random.default_rng([selcfg.seed, stage])
        batch_size = 4 * partition_number_for(selcfg, chunk)
        examples = _cycle(_pairs(chunk, reader), rng)
        for _ in range(selcfg.iterations_per_step):
            train_on_subset(params, list(islice(examples, batch_size)),
                            traincfg, rng)
        yield stage, len(chunk)


def _run_full(params, pool, trace_round, train_chunks, selcfg, traincfg, reader):
    budget = sum(stage_budgets(train_chunks, selcfg))
    rng = np.random.default_rng([selcfg.seed, 0])
    examples = _pairs([rec for chunk in train_chunks for rec in chunk], reader)
    epochs, remainder = divmod(budget, len(examples))
    for _ in range(epochs):
        train_on_subset(params, examples, traincfg, rng)
    if remainder:
        idx = rng.permutation(len(examples))[:remainder]
        train_on_subset(params, [examples[int(i)] for i in idx], traincfg, rng)
    yield len(train_chunks) - 1, len(examples)


def _run_hem(params, pool, trace_round, train_chunks, selcfg, traincfg, reader):
    """The mining loop run once over the pooled stream, for the whole budget.

    K follows the newest chunk's positive count, matching what the
    incremental loop would use at its final stage.
    """
    for i, chunk in enumerate(train_chunks):
        add_chunk(pool, chunk, i)
    K = partition_number_for(selcfg, train_chunks[-1])
    rounds = sum(stage_budgets(train_chunks, selcfg)) // (4 * K)
    mine(pool, params, K, rounds, selcfg, traincfg, trace_round)
    yield pool.stage, None


_RUNNERS = {
    "baseline_full": _run_full,
    "baseline_hem": _run_hem,
    "iem_incremental": _run_iem,
    "naive_finetune": _run_naive,
}


def run_strategy(strategy, train_chunks, test_records, selcfg, traincfg, reader=pgm):
    """Train one strategy end to end; returns (report, params, pool, trace).

    ``pool`` is None for strategies that do not keep error bookkeeping.
    Each stage's seconds cover its training but not its evaluation, and
    its examples_trained is the number of SGD steps it took. ``reader.pair``
    decodes the test set and the full and naive training sets once per run.
    """
    if strategy not in _RUNNERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not train_chunks or not train_chunks[0]:
        raise ValueError("need at least one nonempty training chunk")
    test_pairs = _pairs(test_records, reader)
    params, pool, trace, rows = init_params(), PoolState([]), [], []

    def trace_round(stage, iteration, subset):
        trace.append("\t".join([
            f"stage={stage}",
            f"iter={iteration}",
            "hard_pos=" + ",".join(subset.hard_positives),
            "hard_neg=" + ",".join(subset.hard_negatives),
            "easy_pos=" + ",".join(subset.easy_positives),
            "easy_neg=" + ",".join(subset.easy_negatives),
        ]))

    stages = _RUNNERS[strategy](
        params, pool, trace_round, train_chunks, selcfg, traincfg, reader
    )
    steps, t0 = params.version, time.perf_counter()
    for stage, set_size in stages:
        seconds = time.perf_counter() - t0
        presented, steps = params.version - steps, params.version
        if set_size is not None:
            trace.append(
                f"stage={stage}\tset_size={set_size}\tpresentations={presented}"
            )
        rows.append(StageResult(
            stage, *evaluate_model(params, test_pairs, selcfg),
            seconds, presented,
        ))
        t0 = time.perf_counter()
    report = StrategyReport(
        strategy=strategy, seed=selcfg.seed, config_hash=selcfg.fingerprint(),
        rows=tuple(rows),
    )
    return report, params, pool if pool.records else None, trace


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


def write_report_fragment(report, path):
    lines = [f"# seed={report.seed}", f"# config={report.config_hash}", REPORT_HEADER]
    for row in report.rows:
        lines.append(",".join([
            report.strategy, str(row.stage),
            f"{row.precision:.6f}", f"{row.recall:.6f}", f"{row.f1:.6f}",
            f"{row.jaccard:.6f}", str(row.examples_trained),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timings(report, path):
    lines = [TIMINGS_HEADER]
    for row in report.rows:
        lines.append(f"{report.strategy},{row.stage},{row.seconds:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_header(path, got, expected):
    got_fields = got.split(",")
    expected_fields = expected.split(",")
    for field in expected_fields:
        if field not in got_fields:
            raise DataError(f"{path}: missing field {field!r} in header")
    if got_fields != expected_fields:
        raise DataError(f"{path}: bad column order {got!r}")


def read_report_fragment(path):
    """Parse a fragment written by write_report_fragment; timings come separately."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    meta = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    if "seed" not in meta or "config" not in meta:
        raise DataError(f"{path}: report lacks seed/config annotations")
    if not body:
        raise DataError(f"{path}: empty report")
    _check_header(path, body[0], REPORT_HEADER)
    strategy = None
    rows = []
    for lineno, line in enumerate(body[1:], start=2):
        fields = line.split(",")
        if len(fields) != 7:
            raise DataError(f"{path}:{lineno}: expected 7 columns, got {len(fields)}")
        if strategy is None:
            strategy = fields[0]
        elif fields[0] != strategy:
            raise DataError(f"{path}:{lineno}: mixed strategies in one fragment")
        try:
            rows.append(StageResult(
                stage=int(fields[1]), precision=float(fields[2]),
                recall=float(fields[3]), f1=float(fields[4]),
                jaccard=float(fields[5]), seconds=0.0,
                examples_trained=int(fields[6]),
            ))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value ({exc})") from exc
    try:
        return StrategyReport(
            strategy=strategy, seed=int(meta["seed"]), config_hash=meta["config"],
            rows=tuple(rows),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_timings(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read timings {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty timings file")
    _check_header(path, lines[0], TIMINGS_HEADER)
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 columns")
        try:
            out[(fields[0], int(fields[1]))] = float(fields[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value ({exc})") from exc
    return out


def merge_reports(reports, timings):
    """Full-schema rows (list of dicts), one per strategy per stage."""
    seeds = {r.seed for r in reports}
    configs = {r.config_hash for r in reports}
    if len(seeds) > 1 or len(configs) > 1:
        raise DataError(
            f"reports disagree on seed/config: seeds={sorted(seeds)} "
            f"configs={sorted(configs)}"
        )
    order = {name: i for i, name in enumerate(STRATEGIES)}
    merged = []
    for report in sorted(reports, key=lambda r: order[r.strategy]):
        for row in report.rows:
            merged.append({
                "strategy": report.strategy, "stage": row.stage,
                "precision": row.precision, "recall": row.recall,
                "f1": row.f1, "jaccard": row.jaccard,
                "seconds": timings.get((report.strategy, row.stage), row.seconds),
                "examples_trained": row.examples_trained,
            })
    return merged


def comparison_csv(merged):
    lines = [FULL_HEADER]
    for row in merged:
        lines.append(",".join([
            row["strategy"], str(row["stage"]),
            f"{row['precision']:.6f}", f"{row['recall']:.6f}", f"{row['f1']:.6f}",
            f"{row['jaccard']:.6f}", f"{row['seconds']:.6f}",
            str(row["examples_trained"]),
        ]))
    return "\n".join(lines) + "\n"


def final_stage_table(merged):
    """Text table of each strategy's last-stage row."""
    last = {}
    for row in merged:
        key = row["strategy"]
        if key not in last or row["stage"] >= last[key]["stage"]:
            last[key] = row
    order = {name: i for i, name in enumerate(STRATEGIES)}
    header = (f"{'strategy':<16} {'stage':>5} {'precision':>9} {'recall':>9} "
              f"{'f1':>9} {'jaccard':>9} {'seconds':>9} {'examples':>9}")
    lines = [header, "-" * len(header)]
    for name in sorted(last, key=lambda n: order[n]):
        row = last[name]
        lines.append(
            f"{row['strategy']:<16} {row['stage']:>5} {row['precision']:>9.4f} "
            f"{row['recall']:>9.4f} {row['f1']:>9.4f} {row['jaccard']:>9.4f} "
            f"{row['seconds']:>9.3f} {row['examples_trained']:>9}"
        )
    return "\n".join(lines)


def read_nonempty_manifest(path):
    """Records of a manifest that must list at least one example."""
    records = read_manifest(path)
    if not records:
        raise DataError(f"{path}: empty manifest")
    return records


def load_dataset(data_dir):
    """Read chunk0..chunkN and test manifests from a generated data tree.

    Every manifest must list at least one example.
    """
    manifests = []
    while True:
        manifest = os.path.join(data_dir, f"chunk{len(manifests)}", MANIFEST_NAME)
        if not os.path.isfile(manifest):
            break
        manifests.append(manifest)
    if not manifests:
        raise DataError(f"no chunk manifests under {data_dir}")
    test_manifest = os.path.join(data_dir, "test", MANIFEST_NAME)
    if not os.path.isfile(test_manifest):
        raise DataError(f"missing test manifest {test_manifest}")
    return ([read_nonempty_manifest(m) for m in manifests],
            read_nonempty_manifest(test_manifest))
