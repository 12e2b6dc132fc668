"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared host the speed a process gets drifts by tens of percent over
tens of seconds to minutes, and by as much again from one operation to
the next, so two runs of the same code minutes apart can differ by more
than any useful bound.  The benchmark times this kernel between operations
(and between set-up probes) and scales each measured time to a machine on
which one kernel call takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / mean(kernel times just before and after)

The kernel uses no ``hypergames`` code, so a change to the package cannot
move it; it runs with the garbage collector off, so the package's heap
cannot either.  Raw wall-clock values are kept next to the scaled ones.
"""

import gc
import time

import numpy as np

# One kernel call on an unloaded core of the 2-vCPU Intel Xeon VM the
# benchmark was written on (Python 3.11); the value only sets the scale.
NOMINAL_S = 0.003
_SMALL = np.arange(8.0)


def _label(i, x):
    return "%d:%.6g" % (i, x)


def _kernel():
    # The mix of the workloads' own work: interpreter arithmetic, dict and
    # list updates, calls, string formatting, and small numpy calls.
    table = {}
    parts = []
    total = 0.0
    for i in range(4000):
        table[i & 255] = total
        total += (i * 0.5) % 7.0
        parts.append(_label(i, total).split(":")[0])
        if i % 40 == 0:
            total += float(np.add(_SMALL, total).sum()) * 1e-9
    return len(",".join(parts))


def time_kernel():
    """Wall time of one kernel call, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds, kernel_seconds):
    """`seconds` measured where one kernel call took `kernel_seconds`,
    scaled to nominal speed."""
    return seconds * NOMINAL_S / kernel_seconds
