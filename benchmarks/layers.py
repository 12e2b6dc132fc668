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
form, next to the other two calls of an equilibrium analysis:
``expected_payoff_mixture`` under the quarter-weight mixtures, which must
pay the table average within 1e-12, and ``classical_pure_scan``, which must
find the printed poker table's one pure equilibrium.  Then
``theorem1_distribution``, ``oracle_distribution3``, ``landsburg_probs``
and ``proper_quantized_gains`` at a batch of one.  The Parrondo kernels
``proper_quantized_gains_batch``, ``sequence_quantized_gains_batch``,
``block_unitarity_deviation`` (of ``superposed_games_blocks``) and
``fna_p_win_pair_batch`` are timed at PARRONDO_SAMPLES samples of the
kinds ``verify_parrondo`` draws, each input a trailing-axis view of
coordinate-first rows; ``proper_quantized_gains_batch`` is timed again on
C-ordered coins.  Each must first pass its suite check within 1e-12.
Each ``verify`` suite is timed
through ``run_suite`` at its default sample count and seed SEED, after one
run whose report must pass.  The CLI cold start is a fresh interpreter
running ``python -m hypergames.cli verify --suite corollary``, which must
exit 0; its faults are those of the child processes.

Two entries repeat a perfbench operation, each in a fresh interpreter
(``--entry NAME@SHIFT``), so the heap history and the page faults are those
of perfbench's loop rather than of the calls timed before them here:
``sweep_op`` runs the four calls of a ``sweep`` operation on SWEEP_POOL
batches of SWEEP_BATCH profiles, and ``equilibrium_op`` runs
``expected_payoff_mixture``, ``indifference_check`` and
``classical_pure_scan`` on each (bundled table, player) pair in a seeded
order.  Two untimed warm-up operations go first, so that the faults are
those of the loop's steady state and not of the heap's first growth.  As
in perfbench, each operation runs while the previous one's results are
alive, and an untimed gate follows it: for ``sweep_op`` the closed forms
within 1e-10 of their oracles and the oracle rows summing to 1, for
``equilibrium_op`` a passed report and the closed form against the oracle
on 4 fresh strategies of the player in the same (n, 1) x 16 broadcast.
Their faults are counted over the operations alone.  Each entry runs once
at every heap shift in HEAP_SHIFTS: the process holds a ``bytearray`` of
that many bytes from before it imports the package, which moves where the
heap places everything allocated after it.  While kernel rows sat where
the heap put them, the same code read up to 1.3x apart across these
shifts, so one shift is one draw of the layout; the record
keeps each shift's entry and the slowest shift's median over the
fastest's (``shift_spread``).

Each entry holds the median and the interquartile range of the wall-clock
seconds per call over its repeats, after one untimed warm-up call, and the
minor page faults per call (``getrusage``).  Each call runs while the
previous call's result is still alive, as in perfbench's loop, so the heap
is reused the way a caller that keeps its results sees it.  The record
also names the sizes, ``nproc``, the CPU, Python and numpy.  The package
is imported from ``--src``, ``src/`` of this checkout by default, and the
record is printed.

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
PARRONDO_SAMPLES = 1000
PARRONDO_REPEATS = 51
SCALAR_REPEATS = 501
COLD_START_REPEATS = 9
COLD_START_ARGV = ("verify", "--suite", "corollary")
SWEEP_BATCH = 16384
SWEEP_POOL = 4
TABLES = ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")
FRESH_REPEATS = {"sweep_op": 101, "equilibrium_op": 301}
HEAP_SHIFTS = (0, 1000, 2048, 3000, 7000)  # bytes held before the import
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
    result = fn(*args)
    times = []
    faults = resource.getrusage(who).ru_minflt
    for _ in range(repeats):
        previous = result  # alive through the next call; the one before is freed untimed
        start = time.perf_counter()
        result = fn(*args)
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


def sweep_op(rng):
    """perfbench's sweep operations: (operations, run, gate)."""
    from hypergames.coordgame import landsburg_probs_batch, theorem1_probs_batch
    from hypergames.qstate import oracle_probs2_batch, oracle_probs3_batch

    def run(op):
        return (theorem1_probs_batch(*op), oracle_probs3_batch(*op),
                landsburg_probs_batch(*op[:4]), oracle_probs2_batch(*op[:4]))

    def gate(op, result):
        closed3, oracle3, closed2, oracle2 = result
        return (np.all(np.abs(closed3 - oracle3) < TOL)
                and np.all(np.abs(closed2 - oracle2) < TOL)
                and np.all(np.abs(oracle3.sum(axis=1) - 1.0) < 1e-9)
                and np.all(np.abs(oracle2.sum(axis=1) - 1.0) < 1e-9))

    return [haar_profiles(rng, SWEEP_BATCH) for _ in range(SWEEP_POOL)], run, gate


def equilibrium_op(rng):
    """perfbench's equilibrium operations: (operations, run, gate)."""
    from hypergames.coordgame import _slot_grid, theorem1_probs_batch
    from hypergames.equilibria import (
        builtin_games,
        classical_pure_scan,
        expected_payoff_mixture,
        indifference_check,
        special_distribution,
    )
    from hypergames.qstate import oracle_probs3_batch

    games = builtin_games()
    mixtures = [special_distribution(k) for k in (1, 2, 3)]
    pairs = [(table, k) for table in TABLES for k in (1, 2, 3)]
    ops = []
    for _ in range(4):
        for i in rng.permutation(len(pairs)):
            a, b = haar_profiles(rng, 4)[:2]
            ops.append((*pairs[i], int(rng.integers(2**32)), (a[:, None], b[:, None])))

    def run(op):
        table, k, seed, _ = op
        game = games[table]
        return (expected_payoff_mixture(k, *mixtures, game=game),
                indifference_check(k, game, INDIFFERENCE_SAMPLES, TOL, rng=seed),
                classical_pure_scan(game))

    def gate(op, result):
        _, k, _, spot = op
        profiles = _slot_grid(2)
        profiles.insert(k - 1, spot)
        args = [z for pair in profiles for z in pair]
        deviation = np.max(np.abs(theorem1_probs_batch(*args) - oracle_probs3_batch(*args)))
        return result[1]["passed"] and deviation < TOL

    return ops, run, gate


FRESH_ENTRIES = {"sweep_op": sweep_op, "equilibrium_op": equilibrium_op}
FRESH_CHOICES = ["%s@%d" % (name, shift) for name in FRESH_ENTRIES for shift in HEAP_SHIFTS]


def parrondo_inputs(rng, n):
    """n samples of verify_parrondo's inputs, as trailing-axis views of
    coordinate-first rows: coins, a weight and two games' coins in [0.02,
    0.98], and multiplexer blocks and three qubits from Haar pairs."""
    from hypergames.qstate import su2_matrices

    u = 0.02 + (0.98 - 0.02) * rng.random((13, n))
    v = rng.standard_normal((4, 7, n))
    v /= np.linalg.norm(v, axis=0)
    x, y = v[0] + 1j * v[1], v[2] + 1j * v[3]
    blocks = su2_matrices(x[:4].T, y[:4].T)
    qubits = [np.stack([x[k], y[k]]).T for k in (4, 5, 6)]
    return u[:4].T, u[4], u[5:9].T, u[9:13].T, blocks, qubits


def parrondo_layers(rng):
    """The Parrondo batch kernels at PARRONDO_SAMPLES samples, each checked
    as its verify_parrondo check is before it is timed."""
    from hypergames.parrondo import (
        block_unitarity_deviation,
        fna_p_win_pair_batch,
        proper_quantized_gains_batch,
        sequence_quantized_gains_batch,
        superposed_games_blocks,
    )

    coins, r, pa, pb, blocks, qubits = parrondo_inputs(rng, PARRONDO_SAMPLES)
    deviations = {}
    for name, (classical, quantum) in (
            ("proper", proper_quantized_gains_batch(coins)),
            ("sequence", sequence_quantized_gains_batch(r, pa, pb))):
        deviations[name] = max(np.max(np.abs(g - classical)) for g in quantum.values())
    superposed = superposed_games_blocks(r, pa, pb)
    deviations["unitary"] = block_unitarity_deviation(superposed)
    closed, direct = fna_p_win_pair_batch(blocks, *qubits)
    deviations["fna"] = np.max(np.abs(closed - direct))
    for what, value in deviations.items():
        if not value < 1e-12:
            raise SystemExit("parrondo %s check failed: %.3g" % (what, value))
    c_coins = np.ascontiguousarray(coins)
    return {
        "proper_quantized_gains_batch": seconds_per_call(
            proper_quantized_gains_batch, (coins,), PARRONDO_REPEATS),
        "proper_quantized_gains_batch_c_order": seconds_per_call(
            proper_quantized_gains_batch, (c_coins,), PARRONDO_REPEATS),
        "sequence_quantized_gains_batch": seconds_per_call(
            sequence_quantized_gains_batch, (r, pa, pb), PARRONDO_REPEATS),
        "block_unitarity_deviation": seconds_per_call(
            block_unitarity_deviation, (superposed,), PARRONDO_REPEATS),
        "fna_p_win_pair_batch": seconds_per_call(
            fna_p_win_pair_batch, (blocks, *qubits), PARRONDO_REPEATS),
    }


def fresh_entry(choice):
    """Seconds per operation of one perfbench loop in this process, at the
    heap shift of choice, NAME@SHIFT."""
    name, shift = choice.split("@")
    held = bytearray(int(shift))  # allocated before the package, kept to the end
    ops, run, gate = FRESH_ENTRIES[name](np.random.default_rng(SEED))
    result = run(ops[-2])
    result = run(ops[-1])
    times, faults = [], 0
    for i in range(FRESH_REPEATS[name]):
        op = ops[i % len(ops)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = run(op)  # the previous result is alive until this returns
        times.append(time.perf_counter() - start)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        if not gate(op, result):
            raise SystemExit("%s gate failed at operation %d" % (name, i))
    q25, q50, q75 = np.percentile(times, [25, 50, 75])
    return {
        "median_s": float(q50),
        "iqr_s": float(q75 - q25),
        "repeats": len(times),
        "minor_faults_per_call": faults / len(times),
        "heap_shift_bytes": len(held),
    }


def run_fresh(src, name):
    """fresh_entry(name) at each of HEAP_SHIFTS, each in a fresh process on
    the package at src, and the slowest shift's median over the fastest's."""
    shifts = {}
    for shift in HEAP_SHIFTS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--src", src,
             "--entry", "%s@%d" % (name, shift)],
            check=True, capture_output=True, text=True,
        )
        shifts["shift_%d" % shift] = json.loads(done.stdout)
    return dict(shifts, shift_spread=shift_spread(shifts))


def shift_spread(shifts):
    """The slowest median over the fastest among one entry's shifts."""
    medians = [entry["median_s"] for entry in shifts.values() if isinstance(entry, dict)]
    return max(medians) / min(medians)


def measure(src):
    from hypergames.coordgame import (
        _embed,
        embed3,
        landsburg_probs,
        landsburg_probs_batch,
        theorem1_distribution,
        theorem1_probs_batch,
    )
    from hypergames.equilibria import (
        builtin_games,
        classical_pure_scan,
        expected_payoff_mixture,
        indifference_check,
        special_distribution,
    )
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
    mixtures = [special_distribution(k) for k in (1, 2, 3)]
    if not abs(expected_payoff_mixture(1, *mixtures, game) - 0.875) < 1e-12:
        raise SystemExit("expected_payoff_mixture missed the table average")
    if classical_pure_scan(game) != [("FFN", (10.0, 10.0, 20.0))]:
        raise SystemExit("classical_pure_scan missed the pure equilibrium")
    one = [z[0] for z in haar_profiles(rng, 1)]
    embedded = [embed3(k + 1, *one[2 * k:2 * k + 2]) for k in range(3)]
    if not theorem1_distribution(*embedded).max_deviation(
            oracle_distribution3(*one)) < TOL:
        raise SystemExit("theorem1 check failed at a batch of one")
    from hypergames.parrondo import proper_quantized_gains

    hd_coins = tuple(float(c) for c in parrondo_inputs(rng, 1)[0][0])
    classical, gains = proper_quantized_gains(hd_coins)
    if not max(abs(g - classical) for g in gains.values()) < 1e-12:
        raise SystemExit("proper quantization check failed at a batch of one")
    return {
        "sizes": sizes,
        "indifference_check": seconds_per_call(
            indifference_check,
            (1, game, INDIFFERENCE_SAMPLES, TOL, SEED),
            INDIFFERENCE_REPEATS,
        ),
        "expected_payoff_mixture": seconds_per_call(
            expected_payoff_mixture, (1, *mixtures, game), SCALAR_REPEATS),
        "classical_pure_scan": seconds_per_call(
            classical_pure_scan, (game,), SCALAR_REPEATS),
        "batch_of_one": {
            "theorem1_distribution": seconds_per_call(
                theorem1_distribution, embedded, SCALAR_REPEATS),
            "oracle_distribution3": seconds_per_call(
                oracle_distribution3, one, SCALAR_REPEATS),
            "landsburg_probs": seconds_per_call(landsburg_probs, one[:4], SCALAR_REPEATS),
            "proper_quantized_gains": seconds_per_call(
                proper_quantized_gains, (hd_coins,), SCALAR_REPEATS),
        },
        "parrondo": parrondo_layers(rng),
        "verify_suites": verify_suites(),
        "fresh_process": {name: run_fresh(src, name) for name in FRESH_ENTRIES},
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
    for shifts in record["fresh_process"].values():
        shifts["shift_spread"] = shift_spread(shifts)
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
    parser.add_argument("--entry", choices=FRESH_CHOICES,
                        help="print one perfbench-loop entry at one heap shift, "
                             "measured in this process")
    args = parser.parse_args(argv)
    if args.parent is None:
        src = os.path.abspath(args.src)
        sys.path.insert(0, src)
        records = fresh_entry(args.entry) if args.entry else measure(src)
    else:
        records = paired(args.parent, args.src)
    print(json.dumps(records, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
