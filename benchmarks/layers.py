"""Layer timings of the closed forms next to their oracles, and of the
verify suites.

    python3 benchmarks/layers.py                       # print the JSON record
    python3 benchmarks/layers.py --out BENCH_N.json --label change
    python3 benchmarks/layers.py --src OTHER/src --out BENCH_N.json --label parent

Times ``oct_mul``, ``theorem1_probs_batch``, ``landsburg_probs_batch``,
``oracle_probs3_batch`` and ``oracle_probs2_batch`` on seeded Haar-random
profiles at each size in SIZES, in one process with numpy's thread pools at
one thread.  Before any timing, every closed form must agree with its oracle
within 1e-10 and ``oct_mul`` must multiply norms within 1e-10 (the Tier-1
tolerances), so a fast wrong kernel posts no number.  Each ``verify``
suite is then timed through ``run_suite`` at its default sample count and
seed SEED, after one run whose report must pass.

Each entry holds the median and the interquartile range of the wall-clock
seconds per call over REPEATS (SUITE_REPEATS for a suite) calls, after one
untimed warm-up call.  The record also names the sizes, ``nproc``, the CPU,
Python and numpy.  With ``--out`` the record is stored under ``--label`` in
that JSON file, beside any records already there.  The package is imported from ``--src``,
``src/`` of this checkout by default.
"""

import argparse
import json
import os
import platform
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (16384, 100_000)
REPEATS = {16384: 21, 100_000: 9}
SUITE_REPEATS = 9
SEED = 3
TOL = 1e-10


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def haar_profiles(rng, n):
    """Three players' unit (A, B) pairs, uniform on SU(2)."""
    v = rng.standard_normal((3, n, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    pairs = []
    for k in range(3):
        pairs += [v[k, :, 0] + 1j * v[k, :, 1], v[k, :, 2] + 1j * v[k, :, 3]]
    return pairs


def seconds_per_call(fn, args, repeats):
    fn(*args)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    q25, q50, q75 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(q50), "iqr_s": float(q75 - q25), "repeats": repeats}


def measure():
    from hypergames.coordgame import landsburg_probs_batch, theorem1_probs_batch
    from hypergames.hypercomplex import oct_mul, oct_norm
    from hypergames.qstate import oracle_probs2_batch, oracle_probs3_batch

    rng = np.random.default_rng(SEED)
    sizes = {}
    for n in SIZES:
        three = haar_profiles(rng, n)
        two = three[:4]
        a, b = rng.standard_normal((2, n, 8))

        norm_error = np.max(
            np.abs(oct_norm(oct_mul(a, b)) - oct_norm(a) * oct_norm(b))
        )
        deviation3 = np.max(
            np.abs(theorem1_probs_batch(*three) - oracle_probs3_batch(*three))
        )
        deviation2 = np.max(
            np.abs(landsburg_probs_batch(*two) - oracle_probs2_batch(*two))
        )
        for what, value in (("oct_mul norm", norm_error), ("theorem1", deviation3),
                            ("landsburg", deviation2)):
            if not value < TOL:
                raise SystemExit("%s check failed at n=%d: %.3g" % (what, n, value))

        reps = REPEATS[n]
        layers = {
            "oct_mul": seconds_per_call(oct_mul, (a, b), reps),
            "theorem1_probs_batch": seconds_per_call(theorem1_probs_batch, three, reps),
            "oracle_probs3_batch": seconds_per_call(oracle_probs3_batch, three, reps),
            "landsburg_probs_batch": seconds_per_call(landsburg_probs_batch, two, reps),
            "oracle_probs2_batch": seconds_per_call(oracle_probs2_batch, two, reps),
        }
        sizes[str(n)] = {
            "layers": layers,
            "closed_over_oracle3": layers["theorem1_probs_batch"]["median_s"]
            / layers["oracle_probs3_batch"]["median_s"],
            "closed_over_oracle2": layers["landsburg_probs_batch"]["median_s"]
            / layers["oracle_probs2_batch"]["median_s"],
            "max_deviation3": float(deviation3),
            "max_deviation2": float(deviation2),
        }
    return {
        "sizes": sizes,
        "verify_suites": verify_suites(),
        "seed": SEED,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
    }


def verify_suites():
    """Seconds per run_suite call of each suite at its default samples."""
    from hypergames.verify import SUITE_NAMES, run_suite

    timings = {}
    for name in SUITE_NAMES:
        if not run_suite(name, seed=SEED)["passed"]:
            raise SystemExit("verify suite %s failed at seed %d" % (name, SEED))
        timings[name] = seconds_per_call(run_suite, (name, None, SEED), SUITE_REPEATS)
    return timings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out")
    parser.add_argument("--label", default="change")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    record = measure()
    if args.out is None:
        print(json.dumps(record, indent=2))
        return 0
    records = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            records = json.load(fh)
    records[args.label] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
