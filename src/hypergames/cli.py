"""Command-line front end for distributions, equilibria, and coin games.

Four subcommands: `distribution` evaluates the outcome distribution of
explicit strategies (with an oracle cross-check), `equilibrium` analyzes a
payoff table under the quarter-weight mixed strategy, `verify` runs the
seeded closed-form-versus-state-vector suites, and `parrondo` analyzes the
coin games and their quantizations.  Reports print as text or JSON; JSON
reports round-trip through json.loads.  Exit status: 0 when every check
passed, 1 when a check failed, 2 on usage or input errors.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_suites
from .coordgame import embed3, landsburg_probs, theorem1_distribution
from .equilibria import (
    BUILTIN_GAME_NAMES,
    builtin_game_file,
    classical_pure_scan,
    indifference_check,
    load_game_file,
    special_payoff_check,
)
from .parrondo import (
    HDGameParams,
    capital_chain,
    classify_gain,
    fna_p_win_pair,
    hd_chain,
    hd_params_reversed,
    parrondo_effect_check,
    proper_quantized_gains,
    sequence_quantized_gains,
)
from .qstate import SU2Gate, oracle_distribution2, oracle_distribution3
from .verify import RECORD_KEYS, all_passed, check_record, records

NORM_WARN = 1e-9
NORM_ERROR = 1e-3


class InputError(Exception):
    """Bad user input that should exit with status 2."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise InputError.

    main then reports them like any other bad input: one error line, exit 2.
    """

    def error(self, message):
        raise InputError(message)


def parse_strategy(text):
    """Parse 'reA,imA,reB,imB' into a unit (A, B) pair.

    Every accepted pair is divided by its norm.  Norms beyond NORM_WARN of 1
    also raise a warning, and beyond NORM_ERROR the input is rejected.
    """
    vals = parse_float_list(text, 4, "strategy reA,imA,reB,imB")
    a = complex(vals[0], vals[1])
    b = complex(vals[2], vals[3])
    norm = math.hypot(*vals)
    warning = None
    if abs(norm - 1.0) > NORM_ERROR:
        raise InputError("strategy %r is not unit norm (norm %.6g)" % (text, norm))
    if abs(norm - 1.0) > NORM_WARN:
        warning = "strategy %r normalized from norm %.12g" % (text, norm)
    return a / norm, b / norm, warning


def parse_float_list(text, count, flag):
    """Exactly count comma-separated finite reals."""
    parts = text.split(",")
    if len(parts) != count:
        raise InputError("%s needs %d comma-separated reals, got %r" % (flag, count, text))
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise InputError("%s contains a non-numeric entry: %r" % (flag, text))
    if not np.all(np.isfinite(vals)):
        raise InputError("%s contains a non-finite entry: %r" % (flag, text))
    return vals


def _positive(convert, what):
    """argparse type: convert the text and require a finite value above 0."""

    def parse(text):
        try:
            value = convert(text)
            if 0 < value < math.inf:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("must be a %s, got %r" % (what, text))

    return parse


positive_int = _positive(int, "positive integer")
positive_float = _positive(float, "finite positive real")


def parse_seed(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def resolve_game(source):
    """Load a game table from a file path or a bundled-table name."""
    if source in BUILTIN_GAME_NAMES:
        return builtin_game_file(source), source
    if os.path.exists(source):
        try:
            return load_game_file(source), source
        except (OSError, ValueError) as exc:
            raise InputError("bad game file %s: %s" % (source, exc))
    raise InputError(
        "game %r is neither a file nor a bundled table %s"
        % (source, list(BUILTIN_GAME_NAMES))
    )


def cmd_distribution(args):
    pairs = []
    warnings = []
    for text in args.strategies:
        a, b, warning = parse_strategy(text)
        pairs.append((a, b))
        if warning:
            warnings.append(warning)
    players = len(pairs)
    if players not in (2, 3):
        raise InputError("give 2 or 3 strategies, one per player")
    method = args.method
    if method == "octonion" and players != 3:
        raise InputError("the octonion route needs 3 players")
    if method == "quaternion" and players != 2:
        raise InputError("the quaternion route needs 2 players")

    flat = [z for pair in pairs for z in pair]

    def closed_route():
        if players == 3:
            return theorem1_distribution(
                *(embed3(k + 1, a, b) for k, (a, b) in enumerate(pairs))
            )
        return landsburg_probs(*flat)

    oracle_route = oracle_distribution3 if players == 3 else oracle_distribution2
    report = {
        "command": "distribution",
        "players": players,
        "method": method,
        "strategies": [[a.real, a.imag, b.real, b.imag] for a, b in pairs],
        "warnings": warnings,
    }
    closed = None if method == "oracle" else closed_route()
    oracle = oracle_route(*flat) if method in ("oracle", "both") else None
    report["distribution"] = (oracle if closed is None else closed).as_dict()
    if method == "both":
        report["oracle_distribution"] = oracle.as_dict()
        report["comparison"] = check_record(
            "closed form vs state vector", 1, args.tol, closed.max_deviation(oracle)
        )

    if args.game is not None:
        game_file, name = resolve_game(args.game)
        if game_file.players != players:
            raise InputError(
                "game %s is for %d players but %d strategies were given"
                % (name, game_file.players, players)
            )
        report["game"] = name
        report["payoffs"] = game_file.expected_payoffs(report["distribution"])
    return report


def cmd_equilibrium(args):
    game_file, name = resolve_game(args.game)
    if game_file.players != 3:
        raise InputError("equilibrium analysis needs a 3-player game file")
    game = game_file.game3()
    notes = []
    defects = dict(game.zero_sum_defects())
    if game.zero_sum_claimed and defects:
        notes.append(
            "zero-sum claim violated: "
            + ", ".join("%s sums to %g" % (lbl, s) for lbl, s in sorted(defects.items()))
        )
    rng = np.random.default_rng(args.seed)
    indifference = [
        indifference_check(k, game, samples=args.samples, tol=args.tol, rng=rng)
        for k in (1, 2, 3)
    ]
    pure = classical_pure_scan(game)
    for label, payoffs in pure:
        notes.append(
            "classical pure equilibrium at %s paying (%g, %g, %g)" % ((label,) + payoffs)
        )
    if not pure:
        notes.append("no classical pure equilibrium")
    return {
        "command": "equilibrium",
        "game": name,
        "players": 3,
        "zero_sum_claimed": bool(game.zero_sum_claimed),
        "zero_sum_defects": {lbl: float(s) for lbl, s in defects.items()},
        "samples": int(args.samples),
        "seed": int(args.seed),
        "special_payoffs": [special_payoff_check(k, game) for k in (1, 2, 3)],
        "indifference": indifference,
        "classical_pure_equilibria": [
            {"profile": label, "payoffs": list(payoffs)} for label, payoffs in pure
        ],
        "notes": notes,
    }


def cmd_verify(args):
    return verify_suites.run_suite(args.suite, samples=args.samples, seed=args.seed)


def _gain_checks(key, gains, classical):
    """Each quantized gain checked against the classical gain it reproduces."""
    return [
        check_record(
            "quantization reproduces the classical gain",
            1,
            1e-12,
            abs(gain - classical),
            **{key: name},
            p_gain=gain,
        )
        for name, gain in gains.items()
    ]


def _residual_check(residual):
    return check_record("stationary state is a fixed point of the chain", 1, 1e-12, residual)


def cmd_parrondo(args):
    if args.game == "hd":
        if args.coins is None:
            raise InputError("--coins p1,p2,p3,p4 is required for the hd game")
        coins = HDGameParams(*parse_float_list(args.coins, 4, "--coins"))
        stationary, residual = hd_chain(coins)
        classical, gains = proper_quantized_gains(coins)
        return {
            "command": "parrondo",
            "game": "hd",
            "coins": list(coins),
            "stationary": [float(x) for x in stationary],
            "fixed_point_residual": _residual_check(residual),
            "classical_p_gain": float(classical),
            "quantum_p_gain": _gain_checks("embedding", gains, classical),
            "classification": classify_gain(classical),
        }

    if args.game == "capital":
        for v, flag in ((args.p1, "--p1"), (args.p2, "--p2")):
            if v is None:
                raise InputError("%s is required for the capital game" % flag)
        stationary, residual, gain = capital_chain(args.p1, args.p2)
        return {
            "command": "parrondo",
            "game": "capital",
            "coins": [float(args.p1), float(args.p2)],
            "stationary": [float(x) for x in stationary],
            "fixed_point_residual": _residual_check(residual),
            "classical_p_gain": float(gain),
            "classification": classify_gain(gain),
        }

    if args.game == "sequence":
        effect = parrondo_effect_check(args.epsilon)
        classical, gains = sequence_quantized_gains(
            0.5,
            (effect["single_coin_gain"],) * 4,
            hd_params_reversed(effect["history_coins_loss_first"]),
        )
        return {
            "command": "parrondo",
            "game": "sequence",
            "effect_check": effect,
            "mixture_p_gain": float(classical),
            "mixture_classification": classify_gain(classical),
            "quantum_p_gain": _gain_checks("construction", gains, classical),
        }

    # fna
    thetas = parse_float_list(args.thetas, 4, "--thetas")
    phis = parse_float_list(args.phis, 4, "--phis")
    etas = parse_float_list(args.etas, 4, "--etas")
    gates = [
        SU2Gate(np.exp(1j * phi) * np.cos(theta / 2.0), np.exp(1j * eta) * np.sin(theta / 2.0))
        for theta, phi, eta in zip(thetas, phis, etas)
    ]
    equal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p_win, simulated = fna_p_win_pair(gates, equal, equal, equal)
    return {
        "command": "parrondo",
        "game": "fna",
        "thetas": thetas,
        "phis": phis,
        "etas": etas,
        "p_win": float(p_win),
        "simulated_p_win": float(simulated),
        "comparison": check_record(
            "product-state closed form vs simulation", 1, 1e-12, abs(p_win - simulated)
        ),
        "classification": classify_gain(p_win),
    }


def _fmt(x):
    return "%.12g" % x


def _verdict(passed):
    return "PASS" if passed else "FAIL"


def check_line(record):
    """The one text form of a check record, its named values in parentheses."""
    named = ", ".join(
        "%s %s" % (key, _fmt(value) if isinstance(value, float) else value)
        for key, value in record.items()
        if key not in RECORD_KEYS
    )
    return "%s%s: max deviation %s over %d samples (tolerance %s): %s" % (
        record["check"],
        " (%s)" % named if named else "",
        _fmt(record["max_deviation"]),
        record["samples"],
        _fmt(record["tolerance"]),
        _verdict(record["passed"]),
    )


def _data_lines(report):
    """A report's lines other than its check records."""
    command = report["command"]
    if command == "distribution":
        lines = ["warning: %s" % warning for warning in report["warnings"]]
        lines.append(
            "outcome distribution (%d players, %s route):"
            % (report["players"], report["method"])
        )
        lines += ["  %s  %s" % (label, _fmt(p)) for label, p in report["distribution"].items()]
        if "payoffs" in report:
            lines.append(
                "expected payoffs (%s): %s"
                % (report["game"], ", ".join(_fmt(v) for v in report["payoffs"]))
            )
        return lines
    if command == "equilibrium":
        return ["game: %s (3 players)" % report["game"]] + [
            "note: %s" % note for note in report["notes"]
        ]
    game = report["game"]
    if game in ("hd", "capital"):
        return [
            "%s game coins: %s" % (game, ", ".join(_fmt(c) for c in report["coins"])),
            "stationary state: (%s)" % ", ".join(_fmt(x) for x in report["stationary"]),
            "classical p_gain: %s" % _fmt(report["classical_p_gain"]),
            "classification: %s" % report["classification"],
        ]
    if game == "sequence":
        effect = report["effect_check"]
        return [
            "epsilon: %s" % _fmt(effect["epsilon"]),
            "game A p_gain: %s" % _fmt(effect["p_gain_a"]),
            "game B p_gain: %s" % _fmt(effect["p_gain_b"]),
            "mixture p_gain: %s" % _fmt(effect["p_gain_mixture"]),
            "Parrondo effect: %s" % ("YES" if effect["effect"] else "NO"),
        ]
    return [
        "product-state quantization p_win: %s" % _fmt(report["p_win"]),
        "direct simulation p_win: %s" % _fmt(report["simulated_p_win"]),
        "classification: %s" % report["classification"],
    ]


def render_text(report):
    """Text lines of a report: its data lines, then one line per check.

    verify reports have no data lines; each check line carries its suite's
    name, and a last line gives the overall result.
    """
    if "command" not in report:
        suites = report.get("suites", [report])
        lines = [
            "%s: %s" % (suite["suite"], check_line(check))
            for suite in suites
            for check in suite["checks"]
        ]
        return lines + ["result: %s" % _verdict(report["passed"])]
    return _data_lines(report) + [check_line(record) for record in records(report)]


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument(
        "--seed", type=parse_seed, default=0, help="seed for randomized checks"
    )

    parser = _Parser(
        prog="hypergames",
        description="Hypercomplex coordinatizations of quantized coin and matrix games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_dist = sub.add_parser(
        "distribution",
        parents=[common],
        help="outcome distribution of explicit strategies",
    )
    p_dist.add_argument(
        "strategies",
        nargs="+",
        help="one per player: 'reA,imA,reB,imB' of the SU(2) pair (A, B)",
    )
    p_dist.add_argument(
        "--method",
        choices=("octonion", "quaternion", "oracle", "both"),
        default="both",
        help="closed-form route, state-vector oracle, or both with a comparison",
    )
    p_dist.add_argument("--game", help="payoff table (file path or bundled name)")
    p_dist.add_argument(
        "--tol", type=positive_float, default=1e-10,
        help="comparison tolerance for --method both",
    )
    p_dist.set_defaults(func=cmd_distribution)

    p_eq = sub.add_parser(
        "equilibrium",
        parents=[common],
        help="quarter-weight mixed-strategy analysis of a 3-player table",
    )
    p_eq.add_argument("game", help="payoff table (file path or bundled name)")
    p_eq.add_argument(
        "--samples", type=positive_int, default=1000, help="deviation samples per player"
    )
    p_eq.add_argument(
        "--tol", type=positive_float, default=1e-10, help="indifference tolerance"
    )
    p_eq.set_defaults(func=cmd_equilibrium)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="closed form versus state vector suites"
    )
    p_ver.add_argument(
        "--suite",
        choices=("theorem1", "corollary", "landsburg", "parrondo", "all"),
        default="all",
    )
    p_ver.add_argument(
        "--samples", type=positive_int, default=None,
        help="override the suite's sample count",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_par = sub.add_parser(
        "parrondo", parents=[common], help="coin games and their quantizations"
    )
    p_par.add_argument(
        "--game", choices=("hd", "capital", "sequence", "fna"), required=True
    )
    p_par.add_argument("--coins", help="hd: gain probabilities 'p1,p2,p3,p4'")
    p_par.add_argument("--p1", type=float, help="capital: coin for capital divisible by 3")
    p_par.add_argument("--p2", type=float, help="capital: coin otherwise")
    p_par.add_argument(
        "--epsilon", type=float, default=0.005, help="sequence: bias shift of the coin family"
    )
    p_par.add_argument("--thetas", default="0,0,0,0", help="fna: four rotation angles")
    p_par.add_argument("--phis", default="0,0,0,0", help="fna: four keep-amplitude phases")
    p_par.add_argument("--etas", default="0,0,0,0", help="fna: four flip-amplitude phases")
    p_par.set_defaults(func=cmd_parrondo)
    return parser


@functools.cache
def _parser():
    """The parser, built on the first main call and reused by later ones."""
    return build_parser()


def main(argv=None):
    """Run one command; exit 0 when every check record passed, 1 when one
    failed, 2 on bad input, which includes any ValueError from the library."""
    try:
        args = _parser().parse_args(argv)
        report = args.func(args)
    except (InputError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(render_text(report))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader left, as in `hypergames verify | head -1`; with stdout on
        # devnull the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
