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
    expected_payoff_mixture,
    indifference_check,
    load_game_file,
    special_distribution,
)
from .parrondo import (
    TYPE1,
    TYPE2,
    CoinEmbedding,
    HDGameParams,
    Multiplexer3,
    capital_game_stationary,
    capital_p_gain,
    capital_transition_matrix,
    classify_gain,
    fna_p_win,
    hd_p_gain,
    hd_params_reversed,
    hd_stationary,
    hd_transition_matrix,
    mux_from_coins,
    parrondo_effect_check,
    proper_initial_state,
    proper_quantized_gains,
    quantized_p_gain,
    superpose_mux,
)
from .qstate import SU2Gate, oracle_distribution2, oracle_distribution3

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
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
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
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError("bad game file %s: %s" % (source, exc))
    raise InputError(
        "game %r is neither a file nor a bundled table %s"
        % (source, list(BUILTIN_GAME_NAMES))
    )


def _deviation_check(deviation, tol):
    return {
        "max_deviation": float(deviation),
        "tolerance": float(tol),
        "passed": bool(deviation < tol),
    }


def _fixed_point_check(matrix, stationary):
    """How far one step of the chain moves its stationary state."""
    return _deviation_check(np.max(np.abs(matrix @ stationary - stationary)), 1e-12)


def _coerce_params(text, flag="--coins"):
    vals = parse_float_list(text, 4, flag)
    if not all(0.0 <= v <= 1.0 for v in vals):
        raise InputError("%s values must lie in [0, 1]" % flag)
    return HDGameParams(*vals)


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

    def closed_route():
        if players == 3:
            fams = [embed3(k + 1, a, b) for k, (a, b) in enumerate(pairs)]
            return theorem1_distribution(*fams)
        (a1, b1), (a2, b2) = pairs
        return landsburg_probs(a1, b1, a2, b2)

    def oracle_route():
        flat = [z for pair in pairs for z in pair]
        if players == 3:
            return oracle_distribution3(*flat)
        return oracle_distribution2(*flat)

    report = {
        "command": "distribution",
        "players": players,
        "method": method,
        "strategies": [[a.real, a.imag, b.real, b.imag] for a, b in pairs],
        "warnings": warnings,
    }
    code = 0
    if method in ("octonion", "quaternion"):
        report["distribution"] = closed_route().as_dict()
    elif method == "oracle":
        report["distribution"] = oracle_route().as_dict()
    else:
        closed = closed_route()
        oracle = oracle_route()
        deviation = closed.max_deviation(oracle)
        report["distribution"] = closed.as_dict()
        report["oracle_distribution"] = oracle.as_dict()
        report["comparison"] = _deviation_check(deviation, args.tol)
        if not report["comparison"]["passed"]:
            code = 1

    if args.game is not None:
        game_file, name = resolve_game(args.game)
        if game_file.players != players:
            raise InputError(
                "game %s is for %d players but %d strategies were given"
                % (name, game_file.players, players)
            )
        dist = report["distribution"]
        report["game"] = name
        report["payoffs"] = [
            sum(dist[label] * game_file.payoffs[label][k] for label in dist)
            for k in range(players)
        ]
    return code, report


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

    mixtures = [special_distribution(k) for k in (1, 2, 3)]
    special = []
    for k in (1, 2, 3):
        value = expected_payoff_mixture(k, *mixtures, game=game)
        average = float(game.payoffs_for(k).mean())
        deviation = abs(value - average)
        special.append(
            {
                "player": k,
                "payoff": float(value),
                "average_of_eight": average,
                "deviation": float(deviation),
                "tolerance": 1e-12,
                "passed": bool(deviation < 1e-12),
            }
        )

    rng = np.random.default_rng(args.seed)
    indifference = [
        indifference_check(k, game, samples=args.samples, tol=args.tol, rng=rng)
        for k in (1, 2, 3)
    ]

    pure = classical_pure_scan(game)
    if pure:
        for label, payoffs in pure:
            notes.append(
                "classical pure equilibrium at %s paying (%g, %g, %g)"
                % ((label,) + tuple(payoffs))
            )
    else:
        notes.append("no classical pure equilibrium")

    report = {
        "command": "equilibrium",
        "game": name,
        "players": 3,
        "zero_sum_claimed": bool(game.zero_sum_claimed),
        "zero_sum_defects": {lbl: float(s) for lbl, s in defects.items()},
        "samples": int(args.samples),
        "seed": int(args.seed),
        "special_payoffs": special,
        "indifference": indifference,
        "classical_pure_equilibria": [
            {"profile": label, "payoffs": list(payoffs)} for label, payoffs in pure
        ],
        "notes": notes,
    }
    checks = [row["passed"] for row in special] + [row["passed"] for row in indifference]
    return (0 if all(checks) else 1), report


def cmd_verify(args):
    report = verify_suites.run_suite(args.suite, samples=args.samples, seed=args.seed)
    return (0 if report["passed"] else 1), report


def _gain_row(key, name, value, classical, tol=1e-12):
    """One quantized gain checked against the classical gain it should equal."""
    deviation = abs(value - classical)
    return {
        key: name,
        "p_gain": float(value),
        "deviation": float(deviation),
        "tolerance": tol,
        "passed": bool(deviation < tol),
    }


def cmd_parrondo(args):
    if args.game == "hd":
        if args.coins is None:
            raise InputError("--coins p1,p2,p3,p4 is required for the hd game")
        coins = _coerce_params(args.coins)
        try:
            stationary = hd_stationary(coins)
            classical, gains = proper_quantized_gains(coins)
        except ValueError as exc:
            raise InputError(str(exc))
        quantum = [
            _gain_row("embedding", kind, gain, classical) for kind, gain in gains.items()
        ]
        report = {
            "command": "parrondo",
            "game": "hd",
            "coins": list(coins),
            "stationary": [float(x) for x in stationary],
            "fixed_point_residual": _fixed_point_check(
                hd_transition_matrix(coins), stationary
            ),
            "classical_p_gain": float(classical),
            "quantum_p_gain": quantum,
            "classification": classify_gain(classical),
        }
        ok = report["fixed_point_residual"]["passed"] and all(
            row["passed"] for row in quantum
        )
        return (0 if ok else 1), report

    if args.game == "capital":
        for v, flag in ((args.p1, "--p1"), (args.p2, "--p2")):
            if v is None:
                raise InputError("%s is required for the capital game" % flag)
            if not 0.0 <= v <= 1.0:
                raise InputError("%s must lie in [0, 1]" % flag)
        try:
            stationary = capital_game_stationary(args.p1, args.p2)
            gain = capital_p_gain(args.p1, args.p2)
        except ValueError as exc:
            raise InputError(str(exc))
        report = {
            "command": "parrondo",
            "game": "capital",
            "coins": [float(args.p1), float(args.p2)],
            "stationary": [float(x) for x in stationary],
            "fixed_point_residual": _fixed_point_check(
                capital_transition_matrix(args.p1, args.p2), stationary
            ),
            "classical_p_gain": float(gain),
            "classification": classify_gain(gain),
        }
        return (0 if report["fixed_point_residual"]["passed"] else 1), report

    if args.game == "sequence":
        try:
            effect = parrondo_effect_check(args.epsilon)
        except ValueError as exc:
            raise InputError(str(exc))
        single = effect["single_coin_gain"]
        mixture_gain_first = hd_params_reversed(effect["mixture_coins_loss_first"])
        classical = hd_p_gain(mixture_gain_first)
        tau = hd_stationary(mixture_gain_first)
        init = proper_initial_state(tau)
        superposed = superpose_mux(
            0.5,
            mux_from_coins((single,) * 4, CoinEmbedding(TYPE2)),
            mux_from_coins(
                hd_params_reversed(effect["history_coins_loss_first"]),
                CoinEmbedding(TYPE1),
            ),
        )
        second = mux_from_coins(mixture_gain_first, CoinEmbedding(TYPE1))
        quantum = [
            _gain_row("construction", label, quantized_p_gain(mux, init, 0), classical)
            for label, mux in (("superposed", superposed), ("second_quantization", second))
        ]
        report = {
            "command": "parrondo",
            "game": "sequence",
            "effect_check": effect,
            "mixture_p_gain": float(classical),
            "mixture_classification": classify_gain(classical),
            "quantum_p_gain": quantum,
        }
        return (0 if all(row["passed"] for row in quantum) else 1), report

    # fna
    thetas = parse_float_list(args.thetas, 4, "--thetas")
    phis = parse_float_list(args.phis, 4, "--phis")
    etas = parse_float_list(args.etas, 4, "--etas")
    gates = [
        SU2Gate(
            np.exp(1j * phis[j]) * np.cos(thetas[j] / 2.0),
            np.exp(1j * etas[j]) * np.sin(thetas[j] / 2.0),
        )
        for j in range(4)
    ]
    equal = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p_win = fna_p_win(gates, equal, equal, equal)
    state = np.kron(np.kron(equal, equal), equal)
    direct = quantized_p_gain(Multiplexer3(gates), state, 1)
    report = {
        "command": "parrondo",
        "game": "fna",
        "thetas": thetas,
        "phis": phis,
        "etas": etas,
        "p_win": float(p_win),
        "simulated_p_win": float(direct),
        "comparison": _deviation_check(abs(p_win - direct), 1e-12),
        "classification": classify_gain(p_win),
    }
    return (0 if report["comparison"]["passed"] else 1), report


def _fmt(x):
    return "%.12g" % x


def _render_check(prefix, entry):
    return "%s%s (tolerance %s): %s" % (
        prefix,
        _fmt(entry["max_deviation"]),
        _fmt(entry["tolerance"]),
        "PASS" if entry["passed"] else "FAIL",
    )


def _render_gain(name, row):
    return "quantum p_gain (%s): %s (deviation %s, tolerance %s): %s" % (
        name,
        _fmt(row["p_gain"]),
        _fmt(row["deviation"]),
        _fmt(row["tolerance"]),
        "PASS" if row["passed"] else "FAIL",
    )


def render_text(report):
    lines = []
    command = report["command"] if "command" in report else "verify"
    if command == "distribution":
        for warning in report["warnings"]:
            lines.append("warning: %s" % warning)
        lines.append(
            "outcome distribution (%d players, %s route):"
            % (report["players"], report["method"])
        )
        for label, p in report["distribution"].items():
            lines.append("  %s  %s" % (label, _fmt(p)))
        if "comparison" in report:
            lines.append(
                _render_check("max deviation vs oracle: ", report["comparison"])
            )
        if "payoffs" in report:
            lines.append(
                "expected payoffs (%s): %s"
                % (report["game"], ", ".join(_fmt(v) for v in report["payoffs"]))
            )
    elif command == "equilibrium":
        lines.append("game: %s (3 players)" % report["game"])
        for note in report["notes"]:
            lines.append("note: %s" % note)
        lines.append("quarter-weight mixed strategy payoffs:")
        for row in report["special_payoffs"]:
            lines.append(
                "  player %d: %s (average of eight %s, deviation %s, tolerance %s): %s"
                % (
                    row["player"],
                    _fmt(row["payoff"]),
                    _fmt(row["average_of_eight"]),
                    _fmt(row["deviation"]),
                    _fmt(row["tolerance"]),
                    "PASS" if row["passed"] else "FAIL",
                )
            )
        for row in report["indifference"]:
            lines.append(
                "indifference player %d: max deviation %s over %d samples (tolerance %s): %s"
                % (
                    row["player"],
                    _fmt(row["max_deviation"]),
                    row["samples"],
                    _fmt(row["tolerance"]),
                    "PASS" if row["passed"] else "FAIL",
                )
            )
    elif command == "verify" or "suites" in report or "checks" in report:
        suites = report.get("suites", [report]) if "suite" in report else [report]
        for suite in suites:
            for check in suite["checks"]:
                lines.append(
                    "%s: %s: max deviation %s over %d samples (tolerance %s): %s"
                    % (
                        suite["suite"],
                        check["check"],
                        _fmt(check["max_deviation"]),
                        check["samples"],
                        _fmt(check["tolerance"]),
                        "PASS" if check["passed"] else "FAIL",
                    )
                )
        lines.append("result: %s" % ("PASS" if report["passed"] else "FAIL"))
    elif command == "parrondo":
        game = report["game"]
        if game in ("hd", "capital"):
            lines.append("%s game coins: %s" % (game, ", ".join(_fmt(c) for c in report["coins"])))
            lines.append(
                "stationary state: (%s)" % ", ".join(_fmt(x) for x in report["stationary"])
            )
            lines.append(
                _render_check("fixed-point residual: ", report["fixed_point_residual"])
            )
            lines.append("classical p_gain: %s" % _fmt(report["classical_p_gain"]))
            for row in report.get("quantum_p_gain", []):
                lines.append(_render_gain("%s embedding" % row["embedding"], row))
            lines.append("classification: %s" % report["classification"])
        elif game == "sequence":
            effect = report["effect_check"]
            lines.append("epsilon: %s" % _fmt(effect["epsilon"]))
            lines.append("game A p_gain: %s" % _fmt(effect["p_gain_a"]))
            lines.append("game B p_gain: %s" % _fmt(effect["p_gain_b"]))
            lines.append("mixture p_gain: %s" % _fmt(effect["p_gain_mixture"]))
            for row in report["quantum_p_gain"]:
                lines.append(_render_gain(row["construction"], row))
            lines.append("Parrondo effect: %s" % ("YES" if effect["effect"] else "NO"))
        else:
            lines.append("product-state quantization p_win: %s" % _fmt(report["p_win"]))
            lines.append("direct simulation p_win: %s" % _fmt(report["simulated_p_win"]))
            lines.append(_render_check("closed form vs simulation: ", report["comparison"]))
            lines.append("classification: %s" % report["classification"])
    return lines


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


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_text(report)))
    return code


if __name__ == "__main__":
    sys.exit(main())
