"""Outside-in tracer: spans and counts recorded at ``swarmlq``'s layer boundaries.

The tracer wraps public functions from outside the package, so the library
itself carries no timers.  A function imported by name into another module
(``from .measures import quantile_of``) is a separate binding there; every
module namespace that holds it is patched, or calls through that name would
go unrecorded.  Wrappers pass arguments, return values and exceptions
through unchanged.

A span is ``(name, start, end, parent)``; its self time is its duration
minus that of its direct children.  Each op's spans are folded into per-op
totals when the op ends, and kept in memory until ``write`` saves them all
at the end of the run.
"""

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("measures", "transport", "partition", "lq", "regimes", "cli")

# Methods on the solve path, besides each layer's public module functions.
# ``regimes`` overrides ``slice_arrays`` on its velocity fields; those
# overrides count as ``regimes`` even though the base method is ``transport``.
METHODS = {
    "measures": [("Density", "from_pdf")],
    "transport": [("QuantileReassembledVelocity", "__call__"),
                  ("QuantileReassembledVelocity", "slice_arrays")],
    "regimes": [("StaticOptimalVelocity", "slice_arrays"),
                ("PeriodicVelocity", "slice_arrays"),
                ("DemandSignal", "quantile_at"), ("StaticDemand", "quantile_at"),
                ("PeriodicDemand", "quantile_at"), ("SampledDemand", "quantile_at")],
}

VELOCITY = "transport.QuantileReassembledVelocity.__call__"
SOLVERS = ("regimes.solve_static", "regimes.solve_general", "regimes.solve_periodic")


def _public_functions(module):
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """Installs wrappers on demand and accumulates per-op layer metrics."""

    def __init__(self):
        for layer in LAYERS:
            importlib.import_module(f"swarmlq.{layer}")
        self.modules = [m for name, m in sys.modules.items()
                        if name == "swarmlq" or name.startswith("swarmlq.")]
        self.layer_of = {}      # span name -> layer
        self._patches = []      # (owner, attribute, original, wrapper)
        self._plan()
        self.spans = []         # spans of the current op
        self.recorded = []      # spans of every traced op, kept for ``write``
        self._stack = []
        self._query_depth = 0
        self._query_t = None
        self._memory_replay = None
        self.counts = Counter()
        self.distinct_t = set()
        self.calls = Counter()  # span name -> calls over the whole run
        self.totals = defaultdict(float)
        self.ops = 0

    # -- installation -----------------------------------------------------

    def _plan(self):
        for layer in LAYERS:
            module = sys.modules[f"swarmlq.{layer}"]
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                wrapper = self._wrap(fn, name, layer)
                for mod in self.modules:
                    for attr, val in vars(mod).items():
                        if val is fn:
                            self._patches.append((mod, attr, fn, wrapper))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, name, layer))
                else:
                    wrapper = self._wrap(raw, name, layer)
                self._patches.append((cls, meth, raw, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer):
        self.layer_of[name] = layer
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs)
            finally:
                self._stack.pop()
                self.spans[idx] = (name, start, time.perf_counter(), parent)
            return result

        return wrapper

    def _hook_for(self, name):
        """Counting wrapper body for spans that carry more than a call count."""
        if name == VELOCITY:
            def hook(fn, args, kwargs):
                self.counts["transport.velocity.points"] += _size(args[1])
                return fn(*args, **kwargs)
            return hook
        if name == "lq.solve_family":
            def hook(fn, args, kwargs):
                self.counts["lq.problems"] += _size(args[1])
                self.counts["lq.steps"] += args[0].nt
                self._memory_replay = (fn, args, kwargs)
                return fn(*args, **kwargs)
            return hook
        if name.endswith(".quantile_at"):
            # ``StaticDemand`` and ``PeriodicDemand`` map t to a cache key and
            # defer to ``DemandSignal.quantile_at``: count the outer call, and
            # take the distinct time from the innermost one.
            def hook(fn, args, kwargs):
                outer = self._query_depth == 0
                self._query_t = float(args[1])
                self._query_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._query_depth -= 1
                    if outer:
                        self.counts["regimes.demand.queries"] += 1
                        self.distinct_t.add(self._query_t)
            return hook
        if name in SOLVERS:
            def hook(fn, args, kwargs):
                result = fn(*args, **kwargs)
                self.counts["regimes.slices_saved"] += len(result.trajectory)
                return result
            return hook
        return None

    # -- per-op accounting ------------------------------------------------

    def begin_op(self):
        self.spans = []
        self._stack = []
        self.distinct_t = set()

    def end_op(self, wall_s, extra_counts=None):
        """Fold the op's spans into per-layer totals."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = end - start - child[i]
            self_s[self.layer_of[name]] += s
            if name in SOLVERS:
                self.totals["regimes.solve.self_s"] += s
            elif name == "regimes.evaluate_cost":
                self.totals["regimes.evaluate_cost.self_s"] += s
            incl[name] += end - start
        for layer in LAYERS:
            self.totals[f"{layer}.self_s"] += self_s[layer]
        self.totals["partition.limit_K.s"] += incl["partition.limit_constant_K"]
        self.totals["lq.solve_family.s"] += incl["lq.solve_family"]
        self.totals["trace.unattributed_s"] += wall_s - sum(self_s.values())
        self.totals["regimes.demand.distinct_t"] += len(self.distinct_t)
        for key, value in self.counts.items():
            self.totals[key] += value
        for key, value in (extra_counts or {}).items():
            self.totals[key] += value
        op_calls = Counter(name for name, *_ in self.spans)
        self.calls.update(op_calls)
        for name, metric in _CALL_METRIC.items():
            self.totals[metric] += op_calls[name]
        self.counts = Counter()
        self.recorded.append(self.spans)
        self.ops += 1
        if self._memory_replay is not None:
            self.totals["lq.peak_mb"] = max(self.totals["lq.peak_mb"], self._lq_peak_mb())

    def _lq_peak_mb(self):
        """``tracemalloc`` peak of the op's last ``solve_family`` call, replayed.

        ``tracemalloc`` slows every allocation, so it runs on a repeat of the
        call after the op, outside the op's spans, rather than inside it.
        """
        fn, args, kwargs = self._memory_replay
        self._memory_replay = None
        self.spans = []  # spans of the replay's nested calls are dropped
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def write(self, path):
        """Save every recorded span as arrays: op, name, start, end, parent."""
        names = sorted(self.layer_of)
        index = {n: k for k, n in enumerate(names)}
        rows = [(op, index[name], start, end, parent)
                for op, spans in enumerate(self.recorded)
                for name, start, end, parent in spans]
        op, name, start, end, parent = (np.array(c) for c in zip(*rows)) if rows else [[]] * 5
        np.savez_compressed(path, names=np.array(names), op=op, name=name,
                            start=start, end=end, parent=parent)

    def per_op(self):
        """Every metric in ``METRICS``, per traced op (peak memory as a max)."""
        return {k: (self.totals[k] if k == "lq.peak_mb" else self.totals[k] / self.ops)
                for k in METRICS}


# Everything ``per_op`` reports; a layer the op never enters reads 0.
METRICS = tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "measures.quantile_of.calls", "measures.density_from_quantile.calls",
    "measures.from_pdf.calls", "transport.velocity.calls", "transport.velocity.points",
    "partition.average.calls", "partition.limit_K.s",
    "lq.solve_family.s", "lq.problems", "lq.steps", "lq.transition_r.calls", "lq.peak_mb",
    "regimes.solve.self_s", "regimes.evaluate_cost.self_s", "regimes.demand.queries",
    "regimes.demand.distinct_t", "regimes.slices_saved", "cli.bytes_written",
    "trace.unattributed_s")

_CALL_METRIC = {
    "measures.quantile_of": "measures.quantile_of.calls",
    "measures.density_from_quantile": "measures.density_from_quantile.calls",
    "measures.Density.from_pdf": "measures.from_pdf.calls",
    "partition.average_wrt_partition": "partition.average.calls",
    "lq.transition_r": "lq.transition_r.calls",
    VELOCITY: "transport.velocity.calls",
}


def _size(x):
    return int(np.size(x))
