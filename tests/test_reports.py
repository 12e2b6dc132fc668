"""Report shape: every check is one record, printed as one text line.

Also runs the README's command-line examples, so the documented commands
stay working.
"""

import contextlib
import functools
import io
import json
import pathlib
import shlex

import pytest

from hypergames.cli import check_line, main
from hypergames.verify import RECORD_KEYS, records

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
