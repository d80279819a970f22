"""In-memory span recorder, the wrapping that feeds it, and per-layer metrics.

A span is (name, start, end, parent span, run id). Spans are kept in flat
arrays while the program runs and written out once at the end. The
program is never edited: its public functions are replaced, in every
``iem`` module that binds them, by wrappers that open and close a span and
update a few exact counters. A function that a later refactor deletes is
listed as absent and its metrics read 0 instead of failing the run.

This module imports only the standard library, so loading it does not
distort the import time the benchmark measures.
"""

import array
import functools
import os
import sys
import time


class Tracer:
    """Records nested spans of one thread, plus named integer counters."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("I")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.run = array.array("I")
        self._stack = []
        self.counters = {}
        self.absent = set()
        self.featurized = set()  # hashes of images passed to featurize

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter, value=1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def spans(self):
        """Spans as (name, start, end, parent, run) tuples, in opening order."""
        return [
            (self.names[n], s, e, p, r)
            for n, s, e, p, r in zip(self.name_id, self.start, self.end,
                                     self.parent, self.run)
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans():
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run}\n")


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a list of (name, start, end, parent, ...) tuples whose
    parent is an index into the list or -1. Child intervals are clipped to
    the parent's interval and merged, so overlapping children are not
    subtracted twice.
    """
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """{name: (calls, self seconds)} over a span list."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, seconds + own)
    return totals


# -- counter hooks ---------------------------------------------------------
# Each hook is (before, after): before(tracer, args, kwargs) returns a state
# handed to after(tracer, state, args, result). Either may be None.


def _pixels(counter):
    def before(tracer, args, kwargs):
        tracer.add(counter, args[0].size)
    return before, None


def _lesion_pairs(tracer, args, kwargs):
    tracer.add("metrics.match_lesions.pairs", len(args[0]) * len(args[1]))


def _featurize_repeat(tracer, args, kwargs):
    img = args[0]
    key = hash((img.shape, img.dtype.str, img.tobytes()))
    if key in tracer.featurized:
        tracer.add("trainer.featurize.repeats")
    tracer.featurized.add(key)


def _sgd_before(tracer, args, kwargs):
    return args[0].version


def _sgd_after(tracer, version, args, result):
    tracer.add("trainer.sgd_steps", result.version - version)


def _refreshed_records(tracer, args, kwargs):
    tracer.add("pool.refresh_errors.records",
               sum(1 for r in args[0].records if not r.dropped))


def _subset_fill(tracer, state, args, result):
    tracer.add("selection.selected", len(result))
    tracer.add("selection.capacity", 4 * args[1])


def _cache_before(tracer, args, kwargs):
    tracer.add("pgm.cache_lookups")
    return tracer.counters.get("pgm.decode.count", 0)


def _cache_after(tracer, decodes, args, result):
    if tracer.counters.get("pgm.decode.count", 0) == decodes:
        tracer.add("pgm.cache_hits")


def _decode_count(tracer, args, kwargs):
    tracer.add("pgm.decode.count")


def _written_bytes(tracer, state, args, result):
    out_dir = args[0]
    tracer.add("harness.write_strategy_outputs.bytes", sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in os.listdir(out_dir)
    ))


# (module, attribute, span name or None for counters only, hook)
TARGETS = (
    ("iem.kernels", "label_components", "kernels.label_components",
     _pixels("kernels.label_components.px")),
    ("iem.kernels", "local_mean_std", "kernels.local_mean_std",
     _pixels("kernels.local_mean_std.px")),
    ("iem.kernels", "cross_entropy_sum", "kernels.cross_entropy_sum", None),
    ("iem.metrics", "connected_components", "metrics.connected_components", None),
    ("iem.metrics", "match_lesions", "metrics.match_lesions",
     (_lesion_pairs, None)),
    ("iem.metrics", "evaluate_example", "metrics.evaluate_example", None),
    ("iem.trainer", "featurize", "trainer.featurize", (_featurize_repeat, None)),
    ("iem.trainer", "train_on_subset", "trainer.train_on_subset",
     (_sgd_before, _sgd_after)),
    ("iem.trainer", "augmented_error_terms", "trainer.augmented_error_terms", None),
    ("iem.pool", "refresh_errors", "pool.refresh_errors",
     (_refreshed_records, None)),
    ("iem.pool", "record_training_update", "pool.record_training_update", None),
    ("iem.pool", "save_state", "pool.save_state", None),
    ("iem.selection", "select_subset", "selection.select_subset",
     (None, _subset_fill)),
    ("iem.pgm", "read_pgm", "pgm.decode", (_decode_count, None)),
    ("iem.pgm", "read_mask_pgm", "pgm.decode", (_decode_count, None)),
    ("iem.pgm", "ImageCache.image", None, (_cache_before, _cache_after)),
    ("iem.pgm", "ImageCache.mask", None, (_cache_before, _cache_after)),
    ("iem.synth", "verify_labels", "synth.verify_labels", None),
    ("iem.harness", "load_dataset", "harness.load_dataset", None),
    ("iem.harness", "evaluate_model", "harness.evaluate_model", None),
    ("iem.harness", "write_strategy_outputs", "harness.write_strategy_outputs",
     (None, _written_bytes)),
)


def _run_hook(tracer, hook, *args):
    """Run a counter hook; one the program's data no longer fits is listed absent."""
    try:
        return hook(tracer, *args)
    except (AttributeError, TypeError, IndexError) as exc:
        tracer.absent.add(f"{hook.__name__}: {type(exc).__name__}: {exc}")
        return None


def make_wrapper(tracer, fn, span_name, hook):
    nid = tracer.intern(span_name) if span_name else None
    before, after = hook if hook else (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _run_hook(tracer, before, args, kwargs) if before else None
        idx = tracer.open(nid) if nid is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.close(idx)
        if after:
            _run_hook(tracer, after, state, args, result)
        return result

    return wrapper


def patch_everywhere(module_name, attribute, make):
    """Replace ``module.attribute`` in every loaded ``iem`` module binding it.

    ``attribute`` may be ``Class.method``. ``make(original)`` builds the
    replacement. Returns False, patching nothing, when the name is gone.
    """
    module = sys.modules.get(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = module
    if owner is not None and owner_name:
        owner = getattr(module, owner_name, None)
    original = getattr(owner, name, None) if owner is not None else None
    if original is None:
        return False
    replacement = make(original)
    if owner_name:
        setattr(owner, name, replacement)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "iem" or mod_name.startswith("iem.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
    return True


def install(tracer):
    """Wrap every target that exists; record the rest as absent."""
    for module_name, attribute, span_name, hook in TARGETS:
        ok = patch_everywhere(
            module_name, attribute,
            lambda fn, s=span_name, h=hook: make_wrapper(tracer, fn, s, h),
        )
        if not ok:
            tracer.absent.add(f"{module_name}.{attribute}")


# Metric name -> how it is derived from span totals and counters.
_SPAN_METRICS = (
    ("kernels.label_components", ("calls", "s")),
    ("kernels.local_mean_std", ("calls", "s")),
    ("kernels.cross_entropy_sum", ("calls", "s")),
    ("metrics.connected_components", ("calls", "s")),
    ("metrics.match_lesions", ("calls", "s")),
    ("metrics.evaluate_example", ("calls", "s")),
    ("trainer.featurize", ("calls", "s")),
    ("trainer.train_on_subset", ("calls", "s")),
    ("trainer.augmented_error_terms", ("calls", "s")),
    ("pool.refresh_errors", ("calls", "s")),
    ("pool.record_training_update", ("calls",)),
    ("pool.save_state", ("s",)),
    ("selection.select_subset", ("calls", "s")),
    ("pgm.decode", ("calls", "s")),
    ("synth.verify_labels", ("s",)),
    ("harness.load_dataset", ("s",)),
    ("harness.evaluate_model", ("calls", "s")),
    ("harness.write_strategy_outputs", ("s",)),
)

_COUNTER_METRICS = (
    "kernels.label_components.px",
    "kernels.local_mean_std.px",
    "metrics.match_lesions.pairs",
    "trainer.sgd_steps",
    "pool.refresh_errors.records",
    "harness.write_strategy_outputs.bytes",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metric values of one traced child, before any cross-run step.

    Counts are exact integers; ``.s`` values are self seconds.
    """
    totals = summarize(tracer.spans())
    c = tracer.counters
    out = {}
    for name, kinds in _SPAN_METRICS:
        calls, seconds = totals.get(name, (0, 0.0))
        if "calls" in kinds:
            out[f"{name}.calls"] = calls
        if "s" in kinds:
            out[f"{name}.s"] = seconds
    for name in _COUNTER_METRICS:
        out[name] = c.get(name, 0)
    out["trainer.featurize.repeat_ratio"] = _ratio(
        c.get("trainer.featurize.repeats", 0), out["trainer.featurize.calls"])
    out["selection.fill_ratio"] = _ratio(
        c.get("selection.selected", 0), c.get("selection.capacity", 0))
    lookups = c.get("pgm.cache_lookups", 0)
    out["pgm.cache_hit_ratio"] = _ratio(c.get("pgm.cache_hits", 0), lookups)
    return out
