"""The closed loop of one worker: warm-up, timed operations or traced passes."""

import json
import math
import resource
import sys
import time
import traceback

import numpy as np

from reference import at_nominal, time_kernel
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, contract_breaks

# Least operation time between two timings of the reference kernel.
KERNEL_EVERY_S = 0.05


def _attempt(workload, op, errors):
    """Time one operation; one that raises returns None and logs why."""
    start = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception:
        result = None
        errors.append(traceback.format_exc())
    return time.perf_counter() - start, result


def _gate(workload, op, result, errors):
    if result is None:
        return False
    try:
        return bool(workload.check(op, result))
    except Exception:  # a malformed result fails its operation
        errors.append(traceback.format_exc())
        return False


def measure(workload, ops, seconds, errors):
    """Operations until `seconds` of operation time; a failed one is inf.

    The reference kernel is timed, outside the operation time, after each
    block of at least KERNEL_EVERY_S of operations.  Every operation gets
    the mean of the two kernel times around its block, so it can be scaled
    by the machine speed of its own moment.
    """
    elapsed, latencies, kernel = [], [], []
    before = time_kernel()
    block, block_s, busy = 0, 0.0, 0.0
    i = 0
    while busy < seconds or not latencies:
        op = ops[i % len(ops)]
        dt, result = _attempt(workload, op, errors)
        busy += dt
        ok = _gate(workload, op, result, errors)
        elapsed.append(dt)
        latencies.append(dt if ok else math.inf)
        block += 1
        block_s += dt
        if block_s >= KERNEL_EVERY_S or busy >= seconds:
            after = time_kernel()
            kernel.extend([(before + after) / 2.0] * block)
            before, block, block_s = after, 0, 0.0
        i += 1
    return {
        "attempted": len(latencies),
        "failed": latencies.count(math.inf),
        "busy_s": busy,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "kernel_s": kernel,
    }


def run_pass(workload, ops, errors, tracer=None):
    """The first trace_pass operations once: (operation time, failures)."""
    busy = 0.0
    failed = 0
    for op in ops[: workload.trace_pass]:
        elapsed, result = _attempt(workload, op, errors)
        busy += elapsed
        if tracer is not None:
            tracer.active = False  # gates are not part of the trace
        failed += not _gate(workload, op, result, errors)
        if tracer is not None:
            tracer.active = True
    return busy, failed


def trace(workload, ops, seconds, errors, cli, spans_path):
    """Alternate untraced and traced passes over the same operations."""
    tracer = Tracer()
    plain, traced, stats, counts = [], [], [], []
    failed = 0
    first_spans = None
    rounds = 0
    while rounds < 2 or sum(plain) + sum(traced) < seconds:
        for with_trace in ((False, True) if rounds % 2 == 0 else (True, False)):
            if not with_trace:
                busy, bad = run_pass(workload, ops, errors)
                plain.append(busy)
            else:
                tracer.reset()
                before = time_kernel()
                tracer.install()
                try:
                    busy, bad = run_pass(workload, ops, errors, tracer)
                finally:
                    tracer.uninstall()
                kernel = (before + time_kernel()) / 2.0
                traced.append(busy)
                # Busy and self times at nominal machine speed, as end to end.
                stats.append({name: [calls, items, at_nominal(busy_s, kernel),
                                     at_nominal(self_s, kernel)]
                              for name, (calls, items, busy_s, self_s)
                              in tracer.stats.items()})
                counts.append(tracer.counts())
                first_spans = first_spans or tracer.spans
            failed += bad
        rounds += 1

    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in first_spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": 2 * rounds * workload.trace_pass,
        "failed": failed,
        "counts_repeat": all(c == counts[0] for c in counts),
        "traced_passes": len(traced),
        "ops_per_pass": workload.trace_pass,
        "metrics": layer_metrics(stats, counts[0], contract_breaks(cli),
                                 sum(traced) / sum(plain) - 1.0),
    }


def main(argv, hg, root):
    name, mode, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = WORKLOADS[name](hg, root)
    ops = workload.make_ops(np.random.default_rng(seed))
    errors = []
    for op in ops[: workload.warmup]:
        _attempt(workload, op, errors)
    if mode == "trace":
        # Every traced module must be loaded before the tracer scans them.
        from hypergames import cli, equilibria, verify  # noqa: F401

        result = trace(workload, ops, seconds, errors, cli, argv[4])
    else:
        result = measure(workload, ops, seconds, errors)
    if errors:
        print("%d operations or gates raised; the first:\n%s" % (len(errors), errors[0]),
              file=sys.stderr)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0
