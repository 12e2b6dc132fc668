"""The four benchmark workloads: seeded inputs, one operation, and its gate.

Every workload is a closed loop: one caller issues the next operation only
after the previous one returns.  Inputs come from the workload seed alone
and are built before timing starts; an operation calls only public
``hypergames`` functions, looked up on their module at call time so the
traced run can interpose.  ``check`` is the correctness gate, run untimed
after each operation; a failed gate counts the operation as failed.

Why four workloads: each spends most of its time in a different layer.
``sweep`` is the batch closed forms and oracles, ``equilibrium`` the closed
form broadcast (n,1) against 16 basis strategies with no oracle call,
``interactive`` the batch-of-one scalar path plus argparse and rendering,
and ``verify`` the Python-loop Parrondo suite.
"""

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

SWEEP_BATCH = 16384
SWEEP_POOL = 4
CLOSED_FORM_TOL = 1e-10  # Tier-1 tolerance of the theorem1/landsburg suites
MIXTURE_TOL = 1e-12
INDIFFERENCE_SAMPLES = 1000
SPOT_CHECK_STRATEGIES = 4
INTERACTIVE_BLOCKS = 40  # of 100 operations each
TABLES = ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")


def haar_pairs(rng, n):
    """n Haar-random SU(2) amplitude pairs (A, B)."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]


def call_cli(cli, argv):
    """One in-process CLI call: (exit code or 'raised', stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    except Exception as exc:  # a traceback breaks the exit contract
        code = "raised %s" % type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def only_error_lines(text):
    return all(line.startswith("error:") for line in text.splitlines())


# -- sweep -----------------------------------------------------------------


class Sweep:
    """Monte-Carlo library use: batch closed forms against batch oracles."""

    op_size = "%d Haar-random strategy profiles" % SWEEP_BATCH
    tail_pct = 85
    trace_pass = SWEEP_POOL
    warmup = 1

    def __init__(self, hg, root):
        self.coordgame = hg["coordgame"]
        self.qstate = hg["qstate"]

    def make_ops(self, rng):
        return [tuple(z for _ in range(3) for z in haar_pairs(rng, SWEEP_BATCH))
                for _ in range(SWEEP_POOL)]

    def run(self, op):
        a, b, p, q, e, f = op
        return (
            self.coordgame.theorem1_probs_batch(a, b, p, q, e, f),
            self.qstate.oracle_probs3_batch(a, b, p, q, e, f),
            self.coordgame.landsburg_probs_batch(a, b, p, q),
            self.qstate.oracle_probs2_batch(a, b, p, q),
        )

    def check(self, op, result):
        closed3, oracle3, closed2, oracle2 = (np.asarray(r) for r in result)
        return (
            closed3.shape == oracle3.shape == (SWEEP_BATCH, 8)
            and closed2.shape == oracle2.shape == (SWEEP_BATCH, 4)
            and bool(np.all(np.abs(closed3 - oracle3) < CLOSED_FORM_TOL))
            and bool(np.all(np.abs(closed2 - oracle2) < CLOSED_FORM_TOL))
            and bool(np.all(np.abs(oracle3.sum(axis=1) - 1.0) < 1e-9))
            and bool(np.all(np.abs(oracle2.sum(axis=1) - 1.0) < 1e-9))
        )


# -- equilibrium -------------------------------------------------------------


def _reference_pure_scan(payoffs):
    """Classical pure Nash profiles, computed from the game file itself."""
    found = []
    for bits in itertools.product("NF", repeat=3):
        label = "".join(bits)
        stable = True
        for player in range(3):
            alt = list(bits)
            alt[player] = "F" if alt[player] == "N" else "N"
            if payoffs["".join(alt)][player] > payoffs[label][player]:
                stable = False
        if stable:
            found.append((label, tuple(float(x) for x in payoffs[label])))
    return sorted(found)


class Equilibrium:
    """One player of one bundled table under the quarter-weight mixtures.

    The payoff and indifference results are invariant under a relabelling
    of outcomes, so the gate also spot-checks the closed form in the same
    (n,1) x 16 broadcast pattern against the oracle, untimed.
    """

    op_size = "1 (table, player) pair, %d indifference samples" % INDIFFERENCE_SAMPLES
    tail_pct = 85
    trace_pass = 9
    warmup = 1

    def __init__(self, hg, root):
        self.equilibria = hg["equilibria"]
        self.coordgame = hg["coordgame"]
        self.qstate = hg["qstate"]
        self.games = hg["games"]
        self.mixtures = hg["mixtures"]
        self.expected = {}
        for name in TABLES:
            path = os.path.join(root, "src", "hypergames", "data", name + ".json")
            with open(path, encoding="utf-8") as fh:
                payoffs = json.load(fh)["payoffs"]
            self.expected[name] = {
                "scan": _reference_pure_scan(payoffs),
                "average": [float(np.mean([row[k] for row in payoffs.values()]))
                            for k in range(3)],
            }
        hypercomplex = hg["hypercomplex"]
        self.basis_gates = {
            p: [self.coordgame.su2_of_basis(hypercomplex.Octonion.basis(i), p)
                for i in self.coordgame.PLAYER_BASIS[p]]
            for p in (1, 2, 3)
        }

    def make_ops(self, rng):
        pairs = [(t, k) for t in TABLES for k in (1, 2, 3)]
        ops = []
        for _ in range(4):
            for i in rng.permutation(len(pairs)):
                table, player = pairs[i]
                spot = haar_pairs(rng, SPOT_CHECK_STRATEGIES)
                ops.append((table, player, int(rng.integers(2**32)), spot))
        return ops

    def run(self, op):
        table, player, seed, _ = op
        game = self.games[table]
        payoff = self.equilibria.expected_payoff_mixture(player, *self.mixtures, game=game)
        report = self.equilibria.indifference_check(
            player, game, INDIFFERENCE_SAMPLES, CLOSED_FORM_TOL, rng=seed)
        scan = self.equilibria.classical_pure_scan(game)
        return payoff, report, scan

    def _spot_check(self, player, spot):
        others = [p for p in (1, 2, 3) if p != player]
        combos = list(itertools.product(self.basis_gates[others[0]],
                                        self.basis_gates[others[1]]))
        slots = {player: (spot[0][:, None], spot[1][:, None]),
                 others[0]: (np.array([g.x for g, _ in combos]),
                             np.array([g.y for g, _ in combos])),
                 others[1]: (np.array([h.x for _, h in combos]),
                             np.array([h.y for _, h in combos]))}
        args = [z for p in (1, 2, 3) for z in slots[p]]
        closed = self.coordgame.theorem1_probs_batch(*args)
        oracle = self.qstate.oracle_probs3_batch(*args)
        return bool(np.all(np.abs(np.asarray(closed) - oracle) < CLOSED_FORM_TOL))

    def check(self, op, result):
        table, player, _, spot = op
        payoff, report, scan = result
        want = self.expected[table]
        return (
            abs(payoff - want["average"][player - 1]) < MIXTURE_TOL
            and report["passed"] is True
            and report["samples"] == INDIFFERENCE_SAMPLES
            and sorted(scan) == want["scan"]
            and self._spot_check(player, spot)
        )


# -- interactive -------------------------------------------------------------


def _strategy_text(a, b):
    return ",".join("%.17g" % x for x in (a.real, a.imag, b.real, b.imag))


def _strategies(rng, players):
    a, b = haar_pairs(rng, players)
    return [_strategy_text(x, y) for x, y in zip(a, b)]


def _floats(values):
    return ",".join("%.6f" % v for v in values)


def _fmt_flag(i):
    return ["--format", "json"] if i % 2 else []


def _distribution(options, strategies):
    # Strategies go after "--" because a negative first value reads as a flag.
    return ["distribution", *options, "--", *strategies]


def _dist3(rng, i):
    return _distribution(["--method", "both", *_fmt_flag(i)], _strategies(rng, 3))


def _dist2(rng, i):
    return _distribution(["--method", "both", *_fmt_flag(i)], _strategies(rng, 2))


def _dist_game(rng, i):
    options = ["--game", TABLES[i % len(TABLES)], *_fmt_flag(i // len(TABLES))]
    return _distribution(options, _strategies(rng, 3))


def _hd(rng, i):
    return ["parrondo", "--game", "hd", "--coins", _floats(rng.uniform(0.02, 0.98, 4)),
            *_fmt_flag(i)]


def _capital(rng, i):
    p1, p2 = rng.uniform(0.02, 0.98, 2)
    return ["parrondo", "--game", "capital", "--p1", "%.6f" % p1, "--p2", "%.6f" % p2,
            *_fmt_flag(i)]


def _sequence(rng, i):
    return ["parrondo", "--game", "sequence", "--epsilon", "%.6f" % rng.uniform(0, 0.01),
            *_fmt_flag(i)]


def _fna(rng, i):
    angles = [_floats(rng.uniform(0, 2 * math.pi, 4)) for _ in range(3)]
    return ["parrondo", "--game", "fna", "--thetas", angles[0], "--phis", angles[1],
            "--etas", angles[2], *_fmt_flag(i)]


def _bad_norm(rng, i):
    a, b = haar_pairs(rng, 1)
    scale = rng.uniform(1.01, 1.5)
    return _distribution([], [_strategy_text(a[0] * scale, b[0] * scale),
                              *_strategies(rng, 2)])


def _bad_count(rng, i):
    three = ",".join("%.6f" % x for x in rng.uniform(-1, 1, 3))
    return _distribution([], [three, *_strategies(rng, 2)])


def _bad_game(rng, i):
    return _distribution(["--game", "no_such_table_%d" % rng.integers(10**6)],
                         _strategies(rng, 3))


# Composition of every 100 interactive operations: (generator, count,
# expected outcome).  Each command form the workload definition lists gets
# an equal share, 13 each: three- and two-player `distribution --method
# both`, `distribution --game`, and `parrondo` on hd, capital, sequence
# and fna.  Each of its three README exit-2 input errors (norm off by more
# than 1e-3, wrong number of values, unknown game) gets 3, so 9 in 100 are
# bad input.  The generator's index argument alternates text and JSON
# output and cycles the tables, so only values and order depend on the seed.
INTERACTIVE_MIX = (
    (_dist3, 13, "ok"),
    (_dist2, 13, "ok"),
    (_dist_game, 13, "ok"),
    (_hd, 13, "ok"),
    (_capital, 13, "ok"),
    (_sequence, 13, "ok"),
    (_fna, 13, "ok"),
    (_bad_norm, 3, "input-error"),
    (_bad_count, 3, "input-error"),
    (_bad_game, 3, "input-error"),
)

# Inputs that the exit contract (0 pass, 1 check failed, 2 bad input, no
# traceback) says should exit 2, but that the package is known to mishandle:
# NaN strategies, non-positive sample counts, NaN tolerances and angles.
# They are counted as cli.contract_breaks in traced runs, not as operations.
CONTRACT_PROBES = (
    ["distribution", "nan,0,0,0", "1,0,0,0", "1,0,0,0"],
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-3"],
    ["equilibrium", "poker_printed", "--samples", "0"],
    ["distribution", "1,0,0,0", "1,0,0,0", "1,0,0,0", "--tol", "nan"],
    ["parrondo", "--game", "fna", "--thetas", "nan,0,0,0"],
)


def contract_breaks(cli):
    """How many contract probes do not exit 2 with only error: lines."""
    broken = 0
    for argv in CONTRACT_PROBES:
        code, _, err = call_cli(cli, argv)
        broken += not (code == 2 and only_error_lines(err))
    return broken


class Interactive:
    """Batch-of-one use: one in-process CLI call per operation."""

    op_size = "1 CLI call"
    tail_pct = 99
    trace_pass = 100
    warmup = 100

    def __init__(self, hg, root):
        self.cli = hg["cli"]

    def make_ops(self, rng):
        # Costs differ between inputs of one command form, so the pool is
        # large enough that its mean cost hardly depends on the seed.
        ops = []
        for _ in range(INTERACTIVE_BLOCKS):
            block = [(gen(rng, i), expect) for gen, count, expect in INTERACTIVE_MIX
                     for i in range(count)]
            ops.extend(block[i] for i in rng.permutation(len(block)))
        return ops

    def run(self, op):
        return call_cli(self.cli, op[0])

    def check(self, op, result):
        argv, expect = op
        code, out, err = result
        if expect == "input-error":
            return code == 2 and out == "" and err != "" and only_error_lines(err)
        if code != 0 or err != "" or out == "":
            return False
        if "--format" not in argv:
            return True
        report = json.loads(out)
        if report.get("command") != argv[0]:
            return False
        if argv[0] == "distribution":
            dist = report["distribution"]
            return (report["comparison"]["passed"] is True
                    and abs(sum(dist.values()) - 1.0) < 1e-9)
        return True


# -- verify ------------------------------------------------------------------


class Verify:
    """The check users run: every seeded suite at its default sample count."""

    op_size = "1 'verify --suite all' call at default sample counts"
    tail_pct = 60
    trace_pass = 2
    warmup = 1

    def __init__(self, hg, root):
        self.cli = hg["cli"]

    def make_ops(self, rng):
        return [str(s) for s in rng.integers(2**32, size=64)]

    def run(self, op):
        return call_cli(self.cli, ["verify", "--suite", "all", "--seed", op,
                                   "--format", "json"])

    def check(self, op, result):
        code, out, err = result
        if code != 0 or err != "":
            return False
        report = json.loads(out)
        return (report["passed"] is True and report["seed"] == int(op)
                and len(report["suites"]) == 4)


WORKLOADS = {
    "sweep": Sweep,
    "equilibrium": Equilibrium,
    "interactive": Interactive,
    "verify": Verify,
}
