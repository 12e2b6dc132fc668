"""Report shape: every check is one record, printed as one text line.

Also runs the README's command-line examples, so the documented commands
stay working, and checks that the library builds each report: the CLI adds
only echoes of its input.
"""

import ast
import contextlib
import functools
import io
import json
import pathlib
import shlex

import pytest

from hypergames import cli
from hypergames.cli import check_line, main, parse_float_list, parse_strategy, resolve_game
from hypergames.coordgame import distribution_report
from hypergames.equilibria import equilibrium_report
from hypergames.parrondo import capital_report, fna_report, hd_report, sequence_report
from hypergames.records import RECORD_KEYS, records
from hypergames.verify import run_suite

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of each `hypergames ...` line in README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```")[1]
    return [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hypergames ")
    ]


README_COMMANDS = readme_commands()
MORE_COMMANDS = [
    ["distribution", "0.6,0,0.8,0", "0,0.6,0,0.8", "--method", "both"],
    ["distribution", "0.6,0,0.8,0", "0,0.6,0,0.8", "0,0,0,1", "--method", "both"],
    ["distribution", "1,0,0,0", "0,0,1,0", "1,0,0,0", "--game", "poker_printed"],
]


@functools.lru_cache(maxsize=None)
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def in_format(argv, fmt):
    """argv with its --format option, if any, replaced by fmt."""
    argv = list(argv)
    if "--format" in argv:
        at = argv.index("--format")
        del argv[at : at + 2]
    return tuple(argv + ["--format", fmt])


def flagged(node):
    """Every dict carrying `passed`, except report roll-ups (which carry
    their checks or suites beside the flag)."""
    if isinstance(node, dict):
        if "passed" in node and not {"checks", "suites"} & set(node):
            yield node
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from flagged(value)


def test_readme_lists_the_commands():
    assert len(README_COMMANDS) == 8
    assert {argv[0] for argv in README_COMMANDS} == {
        "distribution", "equilibrium", "verify", "parrondo"
    }


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_example_runs(argv):
    code, out, err = run(tuple(argv))
    assert code == 0, err
    assert err == ""
    if in_format(argv, "json") == tuple(argv):
        json.loads(out)


@pytest.mark.parametrize("argv", README_COMMANDS + MORE_COMMANDS, ids=" ".join)
def test_every_check_is_one_record_printed_on_one_line(argv):
    code, out, _ = run(in_format(argv, "json"))
    assert code == 0
    report = json.loads(out)
    checks = list(flagged(report))
    assert checks
    for record in checks:
        assert set(RECORD_KEYS) <= set(record), record
    assert checks == list(records(report))

    # JSON sorts keys, so records and text lines are matched in any order.
    _, text, _ = run(in_format(argv, "text"))
    lines = [line for line in text.splitlines() if " max deviation " in line]
    assert len(lines) == len(checks)
    for record in checks:
        lines.remove(next(line for line in lines if prints(line, record)))


def prints(line, record):
    """Whether a text line is the check line of a (JSON-decoded) record."""
    bare = {key: record[key] for key in RECORD_KEYS}
    named = [
        "%s %s" % (key, "%.12g" % value if isinstance(value, float) else value)
        for key, value in record.items()
        if key not in RECORD_KEYS
    ]
    return (
        line.endswith(check_line(bare).split(": ", 1)[1])
        and record["check"] in line
        and all(item in line for item in named)
    )


def library_report(argv):
    """The report of argv built by the library directly, and the keys the
    CLI adds to it, which echo the input."""
    args = cli.build_parser().parse_args(list(argv))
    if args.subcommand == "distribution":
        pairs = [parse_strategy(text)[:2] for text in args.strategies]
        game = resolve_game(args.game)[0] if args.game else None
        echo = {"command", "strategies", "warnings"} | ({"game"} if args.game else set())
        return distribution_report(pairs, args.method, args.tol, game), echo
    if args.subcommand == "equilibrium":
        report = equilibrium_report(resolve_game(args.game)[0], args.samples, args.tol, args.seed)
        return report, {"command", "game"}
    if args.subcommand == "verify":
        return run_suite(args.suite, samples=args.samples, seed=args.seed), set()
    if args.game == "hd":
        report = hd_report(parse_float_list(args.coins, 4, "--coins"))
    elif args.game == "capital":
        report = capital_report(args.p1, args.p2)
    elif args.game == "sequence":
        report = sequence_report(args.epsilon)
    else:
        report = fna_report(*(parse_float_list(text, 4, "angles")
                              for text in (args.thetas, args.phis, args.etas)))
    return report, {"command", "game"}


@pytest.mark.parametrize("argv", README_COMMANDS + MORE_COMMANDS, ids=" ".join)
def test_the_library_builds_the_report(argv):
    code, out, _ = run(in_format(argv, "json"))
    assert code == 0
    report = json.loads(out)
    built, echo = library_report(argv)
    assert set(report) == set(built) | echo
    assert not set(built) & echo
    assert {key: report[key] for key in built} == json.loads(json.dumps(built))


def test_cli_imports_no_numpy():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported if name and name.split(".")[0] == "numpy"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distribution", "--game", "nosuch", "--", "1,0,0,0"],
         "give 2 or 3 strategies, one per player"),
        (["distribution", "0.6,0,0.8,0", "0,0.6,0,0.8", "0,0,0,1",
          "--method", "quaternion", "--game", "dilemma_printed"],
         "the quaternion route needs 2 players"),
        (["distribution", "0.6,0,0.8,0", "0,0.6,0,0.8", "--method", "octonion",
          "--game", "nosuch"],
         "the octonion route needs 3 players"),
    ],
)
def test_count_and_route_errors_come_before_game_errors(argv, message):
    assert run(tuple(argv)) == (2, "", "error: %s\n" % message)


def test_a_game_for_another_player_count_raises():
    game = resolve_game("poker_printed")[0]
    with pytest.raises(ValueError, match="expected 8 outcome probabilities"):
        distribution_report([(1, 0), (1, 0)], "both", 1e-10, game)
