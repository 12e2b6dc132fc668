"""Span tracer for the benchmark's traced runs.

Each traced function is replaced, for the length of a traced pass, at every
``hypergames`` module attribute (and module-level dict value) bound to the
same function object, so import sites such as ``from .hypercomplex import
oct_mul`` inside other modules are caught.  Nothing inside the package is
edited; `uninstall` restores every original binding.

Spans nest: a span's self time is its duration minus the durations of its
direct child spans.  Spans are kept in memory and written out by the caller
when the run ends.
"""

import functools
import math
import statistics
import sys
import time

import numpy as np


def _broadcast_items(*arrays):
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _oct_items(a, b, *_):
    # Octonion instances and (..., 8) coefficient arrays both count their
    # leading shape; one product per broadcast element.
    shapes = [np.shape(getattr(x, "c", x))[:-1] for x in (a, b)]
    return math.prod(np.broadcast_shapes(*shapes))


def _six(*args, **_):
    return _broadcast_items(*args[:6])


def _four(*args, **_):
    return _broadcast_items(*args[:4])


# (module, function, item counter or None, has traced children)
LAYERS = (
    ("hypercomplex", "oct_mul", _oct_items, False),
    ("coordgame", "theorem1_probs_batch", _six, True),
    ("coordgame", "landsburg_probs_batch", _four, False),
    ("coordgame", "theorem1_distribution", None, True),
    ("coordgame", "embed3", None, False),
    ("coordgame", "landsburg_probs", None, False),
    ("coordgame", "corollary_distribution", None, True),
    ("qstate", "oracle_probs3_batch", _six, False),
    ("qstate", "oracle_probs2_batch", _four, False),
    ("qstate", "oracle_distribution3", None, False),
    ("qstate", "oracle_distribution2", None, False),
    ("equilibria", "indifference_check", None, True),
    ("equilibria", "expected_payoff_mixture", None, True),
    ("equilibria", "classical_pure_scan", None, False),
    ("equilibria", "builtin_game_file", None, False),
    ("parrondo", "quantized_p_gain", None, False),
    ("parrondo", "mux_from_coins", None, False),
    ("parrondo", "hd_stationary", None, False),
    ("parrondo", "capital_game_stationary", None, False),
    ("parrondo", "fna_p_win", None, False),
    ("parrondo", "superpose_mux", None, False),
    ("verify", "verify_theorem1", None, True),
    ("verify", "verify_corollary", None, True),
    ("verify", "verify_landsburg", None, True),
    ("verify", "verify_parrondo", None, True),
    ("cli", "main", None, True),
)

# Counters kept beside the spans by the result hooks below.
COUNTERS = ("verify.checks_failed", "cli.exit_1", "cli.exit_2", "cli.raised")


def _count_failed_checks(report):
    return sum(1 for check in report.get("checks", ()) if not check.get("passed"))


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for module, func, items, nested in LAYERS:
        base = "%s.%s" % (module, func)
        out.append((base + ".calls", "count"))
        if items is not None:
            out.append((base + ".items", "count"))
        out.append((base + ".busy_s", "s"))
        if nested:
            out.append((base + ".self_s", "s"))
    out.append(("coordgame.closed_over_oracle3", "ratio"))
    out.append(("coordgame.closed_over_oracle2", "ratio"))
    out.extend((name, "count") for name in COUNTERS)
    out.append(("cli.contract_breaks", "count"))
    out.append(("trace.overhead_frac", "ratio"))
    return out


def layer_metrics(stats, counts, contract_breaks, overhead_frac):
    """Per-layer metrics: counts of one pass, times as medians over passes.

    `stats` holds one Tracer.stats per traced pass and `counts` one pass's
    Tracer.counts(); a layer the workload never reaches reads 0.
    """
    values = {}
    for module, func, items, nested in LAYERS:
        name = "%s.%s" % (module, func)
        values[name + ".calls"] = counts.get(name + ".calls", 0)
        if items is not None:
            values[name + ".items"] = counts.get(name + ".items", 0)
        rows = [s.get(name, (0, 0, 0.0, 0.0)) for s in stats]
        values[name + ".busy_s"] = statistics.median(row[2] for row in rows)
        if nested:
            values[name + ".self_s"] = statistics.median(row[3] for row in rows)
    for size, closed in (("3", "theorem1"), ("2", "landsburg")):
        closed = "coordgame.%s_probs_batch" % closed
        oracle = "qstate.oracle_probs%s_batch" % size
        per_item = [values[n + ".busy_s"] / values[n + ".items"]
                    for n in (closed, oracle) if values[n + ".items"]]
        values["coordgame.closed_over_oracle" + size] = (
            per_item[0] / per_item[1] if len(per_item) == 2 and per_item[1] else 0.0)
    values.update((name, counts.get(name, 0)) for name in COUNTERS)
    values["cli.contract_breaks"] = contract_breaks
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}


class Tracer:
    """Installs span-recording wrappers and accumulates one pass of spans."""

    def __init__(self):
        self.active = False
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []  # (name, parent index, start, end, items)
        self.stats = {}  # name -> [calls, items, busy, self]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hypergames" or n.startswith("hypergames.")]
        for module, func, items, _ in LAYERS:
            target = getattr(sys.modules["hypergames." + module], func)
            wrapper = self._wrap("%s.%s" % (module, func), target, items)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patches.append((vars(mod), attr, target))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, inner in list(value.items()):
                            if inner is target:
                                self._patches.append((value, key, target))
                                value[key] = wrapper
        self.active = True

    def uninstall(self):
        self.active = False
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def _wrap(self, name, fn, items_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            items = items_fn(*args, **kwargs) if items_fn else 0
            frame = [len(tracer.spans), 0.0]  # span index, child time
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._on_raise(name, exc)
                raise
            else:
                tracer._on_result(name, result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans[frame[0]] = (
                    name, parent[0] if parent else -1, start, end, items)
                row = tracer.stats.setdefault(name, [0, 0, 0.0, 0.0])
                row[0] += 1
                row[1] += items
                row[2] += duration
                row[3] += duration - frame[1]

        return traced

    def _on_result(self, name, result):
        if name.startswith("verify.verify_"):
            self.counters["verify.checks_failed"] += _count_failed_checks(result)
        elif name == "cli.main" and result in (1, 2):
            self.counters["cli.exit_%d" % result] += 1

    def _on_raise(self, name, exc):
        if name != "cli.main":
            return
        if isinstance(exc, SystemExit) and exc.code in (1, 2):
            self.counters["cli.exit_%d" % exc.code] += 1
        elif not isinstance(exc, SystemExit) or exc.code not in (0, None):
            self.counters["cli.raised"] += 1

    def counts(self):
        """The exact per-pass counts: calls, items and counters."""
        out = {}
        for name, (calls, items, _, _) in sorted(self.stats.items()):
            out[name + ".calls"] = calls
            out[name + ".items"] = items
        out.update(self.counters)
        return out
