"""Layer timings of the closed forms next to their oracles, of the scalar
entry points, and of the verify suites.

    python3 benchmarks/layers.py                     # print this tree's record
    python3 benchmarks/layers.py --src OTHER/src     # print another tree's record
    python3 benchmarks/layers.py --parent OTHER/src > BENCH_N.json

Times ``oct_mul``, ``coordgame._embed``, ``theorem1_probs_batch``,
``landsburg_probs_batch``, ``oracle_probs3_batch`` and
``oracle_probs2_batch`` on seeded Haar-random profiles at each size in
SIZES, in one process with numpy's thread pools at one thread.  Before any
timing, every closed form must agree with its oracle within 1e-10 and
``oct_mul`` must multiply norms within 1e-10 (the Tier-1 tolerances), so a
fast wrong kernel posts no number.  Then ``indifference_check`` is timed at
INDIFFERENCE_SAMPLES samples, the (samples, 1) x 16 broadcast of the closed
form, and ``theorem1_distribution``, ``oracle_distribution3`` and
``landsburg_probs`` at a batch of one.  Each ``verify`` suite is timed
through ``run_suite`` at its default sample count and seed SEED, after one
run whose report must pass.  The CLI cold start is a fresh interpreter
running ``python -m hypergames.cli verify --suite corollary``, which must
exit 0; its faults are those of the child processes.

Each entry holds the median and the interquartile range of the wall-clock
seconds per call over its repeats, after one untimed warm-up call, and the
minor page faults per call (``getrusage``).  The record also names the
sizes, ``nproc``, the CPU, Python and numpy.  The package is imported from
``--src``, ``src/`` of this checkout by default, and the record is printed.

With ``--parent`` the script instead measures two trees, the parent at that
``src`` and the change at ``--src``, in ROUNDS rounds.  Each round runs one
fresh process per tree, and the tree that goes first alternates, so both
see the same drift of the host.  It prints a ``parent`` and a ``change``
record, whose entries hold the median and interquartile range over rounds
of each round's median, and a ``paired`` map from each entry to the median
of its per-round change/parent ratios and the number of rounds in which the
change was faster.  Giving the same tree at two paths measures the bias of
the harness itself.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
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
INDIFFERENCE_SAMPLES = 1000
INDIFFERENCE_REPEATS = 21
SCALAR_REPEATS = 501
COLD_START_REPEATS = 9
COLD_START_ARGV = ("verify", "--suite", "corollary")
ROUNDS = 28
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


def seconds_per_call(fn, args, repeats, who=resource.RUSAGE_SELF):
    fn(*args)
    times = []
    faults = resource.getrusage(who).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(who).ru_minflt - faults
    q25, q50, q75 = np.percentile(times, [25, 50, 75])
    return {
        "median_s": float(q50),
        "iqr_s": float(q75 - q25),
        "repeats": repeats,
        "minor_faults_per_call": faults / repeats,
    }


def cli_cold_start(src):
    """One fresh interpreter running the CLI on COLD_START_ARGV from src."""
    subprocess.run(
        [sys.executable, "-m", "hypergames.cli", *COLD_START_ARGV],
        check=True, stdout=subprocess.DEVNULL, cwd=src, env=dict(os.environ, PYTHONPATH=src),
    )


def measure(src):
    from hypergames.coordgame import (
        _embed,
        embed3,
        landsburg_probs,
        landsburg_probs_batch,
        theorem1_distribution,
        theorem1_probs_batch,
    )
    from hypergames.equilibria import builtin_games, indifference_check
    from hypergames.hypercomplex import oct_mul, oct_norm
    from hypergames.qstate import (
        oracle_distribution3,
        oracle_probs2_batch,
        oracle_probs3_batch,
    )

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
            "embed": seconds_per_call(_embed, (1, three[0], three[1]), reps),
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

    game = builtin_games()["poker_printed"]
    if not indifference_check(1, game, INDIFFERENCE_SAMPLES, TOL, rng=SEED)["passed"]:
        raise SystemExit("indifference_check failed at seed %d" % SEED)
    one = [z[0] for z in haar_profiles(rng, 1)]
    families = [embed3(k + 1, *one[2 * k:2 * k + 2]) for k in range(3)]
    if not theorem1_distribution(*families).max_deviation(
            oracle_distribution3(*one)) < TOL:
        raise SystemExit("theorem1 check failed at a batch of one")
    return {
        "sizes": sizes,
        "indifference_check": seconds_per_call(
            indifference_check,
            (1, game, INDIFFERENCE_SAMPLES, TOL, SEED),
            INDIFFERENCE_REPEATS,
        ),
        "batch_of_one": {
            "theorem1_distribution": seconds_per_call(
                theorem1_distribution, families, SCALAR_REPEATS),
            "oracle_distribution3": seconds_per_call(
                oracle_distribution3, one, SCALAR_REPEATS),
            "landsburg_probs": seconds_per_call(landsburg_probs, one[:4], SCALAR_REPEATS),
        },
        "verify_suites": verify_suites(),
        "cli_cold_start": seconds_per_call(
            cli_cold_start, (src,), COLD_START_REPEATS, resource.RUSAGE_CHILDREN),
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


def timing_entries(record, path=()):
    """(path, entry) for every timing entry of a record, in record order."""
    for key, value in record.items():
        if isinstance(value, dict) and "median_s" in value:
            yield path + (key,), value
        elif isinstance(value, dict):
            yield from timing_entries(value, path + (key,))


def entry_at(record, path):
    for key in path:
        record = record[key]
    return record


def over_rounds(rounds):
    """One record from per-round records: each timing entry becomes the
    median and interquartile range of the rounds' medians."""
    record = json.loads(json.dumps(rounds[0]))
    for path, entry in timing_entries(record):
        medians = [entry_at(r, path)["median_s"] for r in rounds]
        q25, q50, q75 = np.percentile(medians, [25, 50, 75])
        entry.update(
            median_s=float(q50),
            iqr_s=float(q75 - q25),
            rounds=len(rounds),
            minor_faults_per_call=float(np.median(
                [entry_at(r, path)["minor_faults_per_call"] for r in rounds])),
        )
    for size in record["sizes"].values():
        layers = size["layers"]
        for players, closed, oracle in (
                ("3", "theorem1_probs_batch", "oracle_probs3_batch"),
                ("2", "landsburg_probs_batch", "oracle_probs2_batch")):
            size["closed_over_oracle" + players] = (
                layers[closed]["median_s"] / layers[oracle]["median_s"])
    return record


def run_tree(src):
    """One fresh process measuring the package at src; its record."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def paired(parent_src, change_src):
    """Parent and change records from alternating rounds, and their pairs."""
    runs = {"parent": [], "change": []}
    for k in range(ROUNDS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            src = parent_src if side == "parent" else change_src
            runs[side].append(run_tree(src))
            print("round %d: %s done" % (k + 1, side), file=sys.stderr)
    pairs = {}
    for path, _ in timing_entries(runs["change"][0]):
        ratios = [
            entry_at(c, path)["median_s"] / entry_at(p, path)["median_s"]
            for p, c in zip(runs["parent"], runs["change"])
        ]
        pairs["/".join(path)] = {
            "change_over_parent": float(np.median(ratios)),
            "change_faster_rounds": sum(r < 1.0 for r in ratios),
            "rounds": ROUNDS,
        }
    return {
        "parent": over_rounds(runs["parent"]),
        "change": over_rounds(runs["change"]),
        "paired": pairs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--parent", help="src of the parent tree: measure both")
    args = parser.parse_args(argv)
    if args.parent is None:
        src = os.path.abspath(args.src)
        sys.path.insert(0, src)
        records = measure(src)
    else:
        records = paired(args.parent, args.src)
    print(json.dumps(records, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
