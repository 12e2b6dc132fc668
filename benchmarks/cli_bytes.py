"""Compare the command line's bytes between two trees.

    python3 benchmarks/cli_bytes.py --parent OTHER/src
    python3 benchmarks/cli_bytes.py --parent OTHER/src --src THIS/src

Runs a fixed list of `hypergames` commands, each in a fresh interpreter,
once with the package imported from ``--parent`` and once from ``--src``
(``src/`` of this checkout by default), and compares their exit codes,
stdout and stderr.  The list holds the README's commands, the commands
below, perfbench's contract probes and the three demos; every command but
the probes and the demos runs in text and in JSON.  Each difference is
printed with a diff of the differing stream, and the script exits 1 when
there is any, 0 when every command printed the same bytes.  The last line
counts the change's exit codes, so two trees that fail alike show.
"""

import argparse
import collections
import concurrent.futures
import difflib
import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = 2  # interpreters running at once

S3 = ["0.6,0,0.8,0", "0,0.6,0,0.8", "0,0,0,1"]
S2 = S3[:2]
DRIFTED = "0.6,0,0.8,1e-4"  # norm off by 5e-9: normalized with a warning
REJECTED = "0.6,0,0.8,0.1"  # norm off by 5e-3: rejected

COMMANDS = (
    [["verify", "--suite", "all", "--seed", seed] for seed in ("0", "7", "123", "906064")]
    + [["verify", "--suite", suite, "--samples", "5"]
       for suite in ("theorem1", "corollary", "landsburg", "parrondo", "all")]
    + [["equilibrium", table]
       for table in ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")]
    + [["equilibrium", "poker_printed", "--samples", "7", "--seed", "5", "--tol", "1e-3"],
       ["equilibrium", "no_such_table"]]
    + [["distribution", *strategies, "--method", method]
       for strategies in (S2, S3)
       for method in ("octonion", "quaternion", "oracle", "both")]
    + [["distribution", *S3, "--game", "poker_printed"],
       ["distribution", *S3, "--method", "oracle", "--game", "dilemma_printed"],
       ["distribution", *S2, "--game", "poker_printed"],
       ["distribution", *S3, "--game", "no_such_table"],
       ["distribution", "--game", "nosuch", "--", "1,0,0,0"],
       ["distribution", *S3, "--method", "quaternion", "--game", "dilemma_printed"],
       ["distribution", *S2, "--method", "octonion", "--game", "nosuch"],
       ["distribution", DRIFTED, *S3[1:]],
       ["distribution", DRIFTED, S3[1]],
       ["distribution", REJECTED, *S3[1:]],
       ["distribution", "1,0,0", *S3[1:]],
       ["distribution", *S3, "--tol", "1e-30"]]
    + [["parrondo", "--game", "hd", "--coins", coins]
       for coins in ("0.9,0.25,0.25,0.7", "0.5,0.5,0.5,0.5", "0.3,0.8,0.6,0.2")]
    + [["parrondo", "--game", "hd"],
       ["parrondo", "--game", "hd", "--coins", "0.5,0.5,0.5"],
       ["parrondo", "--game", "hd", "--coins", "1.5,0.5,0.5,0.5"],
       ["parrondo", "--game", "hd", "--coins", "1,0.5,0,0.5"],
       ["parrondo", "--game", "capital", "--p1", "0.3", "--p2", "0.625"],
       ["parrondo", "--game", "capital", "--p1", "0.3"],
       ["parrondo", "--game", "capital", "--p2", "0.3"],
       ["parrondo", "--game", "capital", "--p1", "1.2", "--p2", "0.5"],
       ["parrondo", "--game", "sequence"],
       ["parrondo", "--game", "sequence", "--epsilon", "0.02"],
       ["parrondo", "--game", "sequence", "--epsilon", "0.3"],
       ["parrondo", "--game", "fna"],
       ["parrondo", "--game", "fna", "--thetas", "0.3,1.2,2.5,0.7", "--phis", "0.1,0.2,0.3,0.4",
        "--etas", "1,2,3,4"],
       ["parrondo", "--game", "fna", "--thetas", "0,0,0"],
       ["parrondo", "--game", "fna", "--phis", "inf,0,0,0"],
       ["parrondo", "--game", "nosuch"]]
)
DEMOS = ("outcome_distributions.py", "poker_table_analysis.py", "coin_game_quantizations.py")


def readme_commands():
    """argv of each `hypergames ...` line in README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hypergames ")]


def contract_probes():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CONTRACT_PROBES
    finally:
        sys.path.pop(0)
    return [list(argv) for argv in CONTRACT_PROBES]


def in_format(argv, fmt):
    """argv with its --format option, if any, replaced by fmt; placed before
    a `--` so that it stays an option."""
    argv = list(argv)
    if "--format" in argv:
        at = argv.index("--format")
        del argv[at : at + 2]
    at = argv.index("--") if "--" in argv else len(argv)
    return argv[:at] + ["--format", fmt] + argv[at:]


def runs():
    """Every run, as (label, argv after the interpreter)."""
    out = []
    for argv in readme_commands() + COMMANDS:
        for fmt in ("text", "json"):
            command = ["-m", "hypergames.cli", *in_format(argv, fmt)]
            out.append((shlex.join(command[2:]), command))
    out += [(shlex.join(argv), ["-m", "hypergames.cli", *argv]) for argv in contract_probes()]
    out += [("demos/" + name, [str(ROOT / "demos" / name)]) for name in DEMOS]
    return out


def run(src, command):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *command], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def differences(label, parent, change):
    """Printable lines describing how change's (code, stdout, stderr)
    differs from parent's; empty when they are the same."""
    lines = []
    if parent[0] != change[0]:
        lines.append("  exit code %s -> %s" % (parent[0], change[0]))
    for name, old, new in zip(("stdout", "stderr"), parent[1:], change[1:]):
        if old != new:
            lines.append("  %s differs:" % name)
            lines += ["    " + line.rstrip("\n") for line in difflib.unified_diff(
                old.splitlines(True), new.splitlines(True), "parent", "change", n=1)]
    return ["%s:" % label] + lines if lines else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="src directory of the parent tree")
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory of the change")
    args = parser.parse_args(argv)
    for src in (args.parent, args.src):
        if not os.path.isfile(os.path.join(src, "hypergames", "__init__.py")):
            parser.error("%s holds no hypergames package" % src)
    todo = runs()
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = [(label, pool.submit(run, args.parent, command),
                    pool.submit(run, args.src, command)) for label, command in todo]
        found, codes = 0, collections.Counter()
        for label, parent, change in results:
            lines = differences(label, parent.result(), change.result())
            found += bool(lines)
            codes[change.result()[0]] += 1
            for line in lines:
                print(line)
    print("%d runs, %d with differences; the change's exit codes: %s"
          % (len(todo), found, ", ".join("%s x%d" % item for item in sorted(codes.items()))))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
