"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypergames
from hypergames import parrondo, verify
from hypergames.cli import InputError, main, parse_strategy
from hypergames.qstate import ACTION_LABELS3, outcome_labels

IDENTITY = "1,0,0,0"
FLIP = "0,0,1,0"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStrategyParsing:
    def test_exact_unit(self):
        a, b, warning = parse_strategy("0.6,0,0.8,0")
        assert a == 0.6 and b == 0.8
        assert warning is None

    def test_small_drift_normalized_with_warning(self):
        a, b, warning = parse_strategy("1.0000001,0,0,0")
        assert warning is not None
        assert abs(abs(a) - 1.0) < 1e-12 and b == 0

    def test_large_drift_rejected(self):
        with pytest.raises(InputError):
            parse_strategy("1.1,0,0,0")
        with pytest.raises(InputError):
            parse_strategy("0,0,0,0")

    def test_malformed(self):
        with pytest.raises(InputError):
            parse_strategy("1,0,0")
        with pytest.raises(InputError):
            parse_strategy("1,0,0,x")


class TestDistributionCommand:
    def test_identity_three_players(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", IDENTITY, IDENTITY, IDENTITY)
        assert code == 0
        assert "NNN  1" in out
        assert "PASS" in out

    def test_all_flip_three_players(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", FLIP, FLIP, FLIP, "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["distribution"]["FFF"] - 1.0) < 1e-12
        assert report["comparison"]["passed"]

    def test_zero_strategy_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "distribution", "0,0,0,0", IDENTITY, IDENTITY)
        assert code == 2
        assert "is not unit norm" in err

    def test_normalization_warning_surfaces(self, capsys):
        drift = "1.0000001,0,0,0"
        code, out, _ = run_cli(capsys, "distribution", drift, IDENTITY, IDENTITY)
        assert code == 0
        assert "warning" in out

    def test_drift_below_warning_is_still_normalized(self, capsys):
        code, out, err = run_cli(
            capsys, "distribution", "--", "1.0000000004,0,0,0", IDENTITY, IDENTITY
        )
        assert code == 0 and err == ""
        assert "NNN  1\n" in out and "warning" not in out

    def test_two_player_routes_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribution", "0.6,0,0,0.8", "0,0.8,0.6,0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["players"] == 2
        assert report["comparison"]["max_deviation"] < 1e-10

    def test_method_requires_matching_player_count(self, capsys):
        code, _, err = run_cli(
            capsys, "distribution", IDENTITY, IDENTITY, "--method", "octonion"
        )
        assert code == 2
        assert "3 players" in err

    def test_payoffs_against_bundled_game(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "distribution",
            IDENTITY,
            IDENTITY,
            IDENTITY,
            "--game",
            "poker_printed",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(report["payoffs"], [-2.0, -2.0, 4.0], atol=1e-12)

    def test_game_player_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "distribution", IDENTITY, IDENTITY, "--game", "poker_printed"
        )
        assert code == 2
        assert "3 players" in err or "players" in err

    def test_two_player_payoffs_in_player_order(self, capsys, tmp_path):
        # Player 1 flips, player 2 does not: the outcome is FN, which pays
        # player 1 -1 and player 2 1.
        doc = {"players": 2, "payoffs": {"NN": [0, 0], "NF": [1, -1], "FN": [-1, 1], "FF": [0, 0]}}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        flip = "0,0,0.70710678118654752,0.70710678118654752"
        code, out, _ = run_cli(
            capsys, "distribution", "--game", str(path), "--format", "json", "--", flip, IDENTITY
        )
        assert code == 0
        report = json.loads(out)
        assert report["distribution"]["FN"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report["payoffs"], [-1.0, 1.0], atol=1e-12)

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "distribution", IDENTITY, IDENTITY, IDENTITY, "--format", "json"
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report


class TestEquilibriumCommand:
    def test_printed_poker_payoffs_and_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "poker_printed", "--samples", "50", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        payoffs = [row["payoff"] for row in report["special_payoffs"]]
        assert payoffs == [0.875, 0.875, 3.0]
        assert any("zero-sum claim violated" in note for note in report["notes"])
        assert report["zero_sum_defects"] == {"FFN": 40.0, "FNF": -2.0}

    def test_corrected_poker_player3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "equilibrium",
            "poker_zero_sum_corrected",
            "--samples",
            "50",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [row["payoff"] for row in report["special_payoffs"]] == [0.875, 0.875, -1.75]
        assert report["classical_pure_equilibria"] == []
        assert not any("violated" in note for note in report["notes"])

    def test_dilemma_reports_pure_equilibrium(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "dilemma_printed", "--samples", "50", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["classical_pure_equilibria"] == [
            {"profile": "FFN", "payoffs": [10.0, 10.0, 20.0]}
        ]

    def test_indifference_entries_carry_tolerance(self, capsys):
        _, out, _ = run_cli(
            capsys, "equilibrium", "poker_printed", "--samples", "50", "--format", "json"
        )
        report = json.loads(out)
        for row in report["indifference"]:
            assert row["tolerance"] == 1e-10
            assert row["passed"]

    def test_two_player_file_rejected(self, capsys, tmp_path):
        doc = {
            "players": 2,
            "payoffs": {"NN": [1, -1], "NF": [0, 0], "FN": [0, 0], "FF": [-1, 1]},
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "equilibrium", str(path))
        assert code == 2
        assert "3-player" in err

    def test_unknown_game(self, capsys):
        code, _, err = run_cli(capsys, "equilibrium", "no_such_table")
        assert code == 2
        assert "neither a file nor a bundled table" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"players\": 3}")
        code, _, err = run_cli(capsys, "equilibrium", str(path))
        assert code == 2
        assert "bad game file" in err
        # A payoff whose sums would overflow is bad input, not an inf deviation.
        payoffs = {label: [0.0, 0.0, 0.0] for label in ACTION_LABELS3}
        payoffs["FNF"] = [0.0, 1e308, 0.0]
        path.write_text(json.dumps({"players": 3, "payoffs": payoffs}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "equilibrium", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad game file") and "FNF" in err
        assert len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_corollary_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "corollary")
        assert code == 0
        assert "result: PASS" in out

    def test_json_matches_library_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "landsburg",
            "--samples",
            "64",
            "--seed",
            "11",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == verify.run_suite("landsburg", samples=64, seed=11)

    def test_seeded_output_byte_identical(self, capsys):
        args = ("verify", "--suite", "theorem1", "--samples", "128", "--seed", "3",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--samples", "32", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert [s["suite"] for s in report["suites"]] == [
            "theorem1",
            "corollary",
            "landsburg",
            "parrondo",
        ]


class TestParrondoCommand:
    def test_capital_frozen_stationary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "parrondo",
            "--game",
            "capital",
            "--p1",
            "0.1",
            "--p2",
            "0.75",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(
            report["stationary"], np.array([5.0, 2.0, 6.0]) / 13.0, atol=1e-12
        )
        assert report["classification"] == "fair"

    def test_hd_fair_coins(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "parrondo",
            "--game",
            "hd",
            "--coins",
            "0.5,0.5,0.5,0.5",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["classical_p_gain"] == 0.5
        assert report["classification"] == "fair"
        assert all(row["passed"] for row in report["quantum_p_gain"])

    def test_sequence_small_epsilon_shows_effect(self, capsys):
        code, out, _ = run_cli(
            capsys, "parrondo", "--game", "sequence", "--epsilon", "0.005"
        )
        assert code == 0
        assert "Parrondo effect: YES" in out

    def test_sequence_large_epsilon_no_effect(self, capsys):
        code, out, _ = run_cli(
            capsys, "parrondo", "--game", "sequence", "--epsilon", "0.01"
        )
        assert code == 0
        assert "Parrondo effect: NO" in out

    def test_fna_zero_angles_fair(self, capsys):
        code, out, _ = run_cli(capsys, "parrondo", "--game", "fna", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["p_win"] - 0.5) < 1e-12
        assert report["classification"] == "fair"
        assert report["comparison"]["passed"]

    def test_fna_quarter_turn_loses(self, capsys):
        halfpi = repr(np.pi / 2.0)
        code, out, _ = run_cli(
            capsys,
            "parrondo",
            "--game",
            "fna",
            "--thetas",
            ",".join([halfpi] * 4),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["p_win"] < 1e-12
        assert report["classification"] == "losing"

    def test_missing_flags_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "parrondo", "--game", "hd")
        assert code == 2
        assert "--coins" in err
        code, _, err = run_cli(capsys, "parrondo", "--game", "capital", "--p1", "0.5")
        assert code == 2
        assert "--p2" in err

    def test_out_of_range_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "parrondo", "--game", "hd", "--coins", "1.2,0.5,0.5,0.5"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "parrondo", "--game", "sequence", "--epsilon", "-0.1"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "parrondo", "--game", "capital", "--p1", "0.5", "--p2", "1.5"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["distribution", "nan,0,0,0", IDENTITY, IDENTITY],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "-3"],
        ["equilibrium", "poker_printed", "--samples", "0"],
        ["distribution", IDENTITY, IDENTITY, IDENTITY, "--tol", "nan"],
        ["parrondo", "--game", "fna", "--thetas", "nan,0,0,0"],
    ],
)
def test_non_finite_and_non_positive_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err and all(line.startswith("error:") for line in err.splitlines())


_NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-1", "nan", "inf", "-inf", "1e309", "-0", "2", "x", ""]),
    st.floats(0.0, 1.0).map(repr),
    st.floats().map(repr),
)


def _csv():
    """Comma-separated numbers, usually four of them."""
    return st.sampled_from((4, 4, 3, 5)).flatmap(
        lambda n: st.lists(_NUMBER, min_size=n, max_size=n).map(",".join)
    )


_VALID_STRATEGY = st.sampled_from(
    [IDENTITY, FLIP, "0.6,0,0.8,0", "0,0.6,0,-0.8", "1.0000001,0,0,0"]
)
_STRATEGIES = st.sampled_from([2, 3, 2, 3, 0, 1, 4]).flatmap(
    lambda n: st.lists(st.one_of(_VALID_STRATEGY, _csv()), min_size=n, max_size=n)
)


def _four(low, high):
    """Four comma-separated reals in [low, high], or any _csv."""
    valid = st.lists(st.floats(low, high), min_size=4, max_size=4)
    return st.one_of(valid.map(lambda v: ",".join(map(repr, v))), _csv())


def _options(choices):
    """A random subset of (flag, value strategy) pairs, flattened into argv."""
    return st.lists(st.sampled_from(choices), unique_by=lambda c: c[0]).flatmap(
        lambda picked: st.tuples(*(st.tuples(st.just(f), v) for f, v in picked))
    ).map(lambda pairs: [x for pair in pairs for x in pair])


_DISTRIBUTION_ARGV = st.tuples(
    _STRATEGIES,
    _options([
        ("--method", st.sampled_from(["both", "octonion", "quaternion", "oracle"])),
        ("--game", st.sampled_from(["poker_printed", "dilemma_printed", "no_such_table"])),
        ("--tol", _NUMBER),
        ("--format", st.sampled_from(["text", "json"])),
    ]),
).map(lambda t: ["distribution"] + t[1] + ["--"] + t[0])

_PARRONDO_ARGV = st.tuples(
    st.sampled_from(["hd", "capital", "sequence", "fna"]),
    _options([
        ("--coins", _four(0.0, 1.0)),
        ("--p1", _NUMBER),
        ("--p2", _NUMBER),
        ("--epsilon", _NUMBER),
        ("--thetas", _four(-7.0, 7.0)),
        ("--phis", _four(-7.0, 7.0)),
        ("--etas", _four(-7.0, 7.0)),
        ("--format", st.sampled_from(["text", "json"])),
    ]),
).map(lambda t: ["parrondo", "--game", t[0]] + t[1])


_VERIFY_ARGV = _options([
    ("--suite", st.sampled_from(list(verify.SUITE_NAMES) + ["all", "ALL", "none", ""])),
    ("--samples", st.one_of(
        st.integers(1, 8).map(str),
        st.sampled_from(["0", "-3", "1.5", "1e3", "nan", "x", ""]),
    )),
    ("--seed", st.one_of(
        st.integers(0, 2**64 - 1).map(str),
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(["-1", str(2**64 - 1), str(2**64), "1.5", "1e3", "x", ""]),
    )),
    ("--format", st.sampled_from(["text", "json", "csv"])),
]).map(lambda options: ["verify"] + options)


def assert_exit_contract(argv):
    """main exits 0, 1 or 2 without a traceback, writes only error: lines
    to stderr, and on exit 2 writes nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert all(line.startswith("error:") for line in err.getvalue().splitlines())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue() != ""


# Hypothesis's own failure report raises this warning; under "error" alone the
# run ends in an INTERNALERROR and the falsifying example is never shown.  The
# ignore takes effect only when it sits above the "error" mark.
_REPORT_WARNING_IGNORED = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


@_REPORT_WARNING_IGNORED
@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
@given(st.one_of(_DISTRIBUTION_ARGV, _PARRONDO_ARGV))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_exit_contract_holds_for_any_input(argv):
    assert_exit_contract(argv)


@_REPORT_WARNING_IGNORED
@pytest.mark.filterwarnings("error")
@given(_VERIFY_ARGV)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_verify_holds_the_exit_contract(argv):
    # --samples, when valid, stays at most 8, so every suite runs small.
    assert_exit_contract(argv)


_FINITE_PAYOFF = st.one_of(st.integers(-10, 10), st.floats(-1e3, 1e3))
_BAD_PAYOFF = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, True, None, "1", [1]]
)
_BAD_CELL = st.one_of(
    st.lists(_FINITE_PAYOFF, max_size=4),
    st.just("123"),
    st.dictionaries(st.sampled_from("123"), _FINITE_PAYOFF, max_size=3),
    st.lists(st.booleans(), min_size=1, max_size=3),
    _FINITE_PAYOFF,
    st.none(),
)


@st.composite
def _game_file_text(draw):
    """A game file, valid or broken one way: a bad cell or payoff, a label
    dropped or added, a wrong player count, or JSON cut short."""
    players = draw(st.sampled_from([2, 3]))
    labels = outcome_labels(players)
    cell = st.lists(_FINITE_PAYOFF, min_size=players, max_size=players)
    payoffs = draw(st.fixed_dictionaries({label: cell for label in labels}))
    doc = {"players": players, "payoffs": payoffs}
    if draw(st.booleans()):
        doc["zero_sum"] = draw(st.sampled_from([True, False, None, "yes", 1]))
    damage = draw(
        st.sampled_from(["none", "cell", "payoff", "drop", "add", "players", "json"])
    )
    target = draw(st.sampled_from(labels))
    if damage == "cell":
        payoffs[target] = draw(_BAD_CELL)
    elif damage == "payoff":
        payoffs[target][draw(st.integers(0, players - 1))] = draw(_BAD_PAYOFF)
    elif damage == "drop":
        del payoffs[target]
    elif damage == "add":
        payoffs[draw(st.sampled_from(["NNNN", "NX", "nn", ""]))] = [0] * players
    elif damage == "players":
        doc["players"] = draw(st.sampled_from([0, 1, 4, 5 - players, 2.0, "3", True, None]))
    text = json.dumps(doc)
    if damage == "json":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@_REPORT_WARNING_IGNORED
@pytest.mark.filterwarnings("error")
@given(_game_file_text(), st.sampled_from([2, 3]), st.sampled_from(["text", "json"]))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_game_file_boundary_holds_the_exit_contract(text, strategies, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert_exit_contract(["equilibrium", path, "--samples", "1", "--format", fmt])
        assert_exit_contract(
            ["distribution", "--game", path, "--format", fmt, "--"] + [FLIP] * strategies
        )


def package_env():
    """The environment of a new interpreter importing this package."""
    src = str(pathlib.Path(hypergames.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def fresh_process_run(argv):
    """main(argv) in a new interpreter: exit code, stdout and stderr."""
    code = "import sys; from hypergames.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=package_env()
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_back_to_back_calls_match_fresh_processes(capsys):
    # main reuses one parser; no call may leak options into the next.
    calls = [
        ["parrondo", "--game", "hd", "--coins", "0.9,0.25,0.25,0.7", "--format", "json"],
        ["parrondo", "--game", "capital", "--p1", "0.3", "--p2", "0.625"],
        ["verify", "--suite", "landsburg", "--samples", "16", "--seed", "5"],
        ["parrondo", "--game", "hd", "--coins", "0.5,0.5,0.5"],
        ["verify", "--suite", "corollary", "--format", "json"],
        ["parrondo", "--game", "fna"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert in_process == [fresh_process_run(argv) for argv in calls]


@pytest.mark.parametrize("lines_read", [0, 1])
def test_reader_closing_the_pipe_is_no_traceback(lines_read):
    # As in `hypergames verify | head -1`.  Reading no line closes the pipe
    # before the report is written, so the write always finds it closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypergames.cli", "verify", "--suite", "corollary"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
    )
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"corollary: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and err == ""


def test_capital_command_solves_the_chain_once(capsys, monkeypatch):
    solve = parrondo.capital_game_stationary
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(parrondo, "capital_game_stationary", counted)
    code, _, _ = run_cli(capsys, "parrondo", "--game", "capital", "--p1", "0.3", "--p2", "0.625")
    assert code == 0
    assert len(calls) == 1


def test_hd_command_solves_the_chain_once(capsys, monkeypatch):
    solve = parrondo._hd_solve
    calls = []

    def counted(p):
        calls.append(p)
        return solve(p)

    monkeypatch.setattr(parrondo, "_hd_solve", counted)
    code, _, _ = run_cli(capsys, "parrondo", "--game", "hd", "--coins", "0.9,0.25,0.25,0.7")
    assert code == 0
    assert len(calls) == 1
