"""Do the command line's checks catch a wrong closed form?

    python3 benchmarks/mutants.py
    python3 benchmarks/mutants.py --src OTHER/src

For each mutant, copies ``src/`` (of this checkout by default) into a
temporary directory, applies the mutant's one edit to the copy, and runs
`hypergames verify --suite all` and `hypergames equilibrium` on each bundled
table there, each in a fresh interpreter.  A mutant is an exact string
replacement that must match exactly once in its file; an anchor that does
not is an error.  The unedited copy runs first as the control, on which
every check must exit 0.

Prints a mutant x check table of exit codes.  `verify` catches a mutant when
it exits non-zero; `equilibrium` catches one only when it exits 1, a failed
check, since 2 means bad input.  Exits 1 when a mutant survives every check
or when an `equilibrium` run does not catch it, 2 when an anchor does not
match once or the control fails, and 0 otherwise.  The source tree is never
edited.
"""

import argparse
import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = 2  # interpreters running at once

TABLES = ("poker_printed", "poker_zero_sum_corrected", "dilemma_printed")
CHECKS = [("verify", ["verify", "--suite", "all"])] + [
    (table, ["equilibrium", table]) for table in TABLES]

# (name, file under src/hypergames, anchor, replacement): the route mutants,
# each a one-line edit that changes the closed form or the oracle.
MUTANTS = (
    ("OUTCOME_OF_INDEX NFF<->FFN", "coordgame.py",
     'OUTCOME_OF_INDEX = ("NNN", "FFF", "NFF", "FFN",',
     'OUTCOME_OF_INDEX = ("NNN", "FFF", "FFN", "NFF",'),
    ("ETA3 = e^(i pi/6)", "qstate.py",
     "ETA3 = complex(0.5, SQRT3 / 2.0)", "ETA3 = complex(SQRT3 / 2.0, 0.5)"),
    ("_TWIST3 = e^(i pi/3)", "coordgame.py",
     "_TWIST3 = complex(SQRT3 / 2.0, 0.5)", "_TWIST3 = complex(0.5, SQRT3 / 2.0)"),
    ("Fano (5, 6, 1) -> (6, 5, 1)", "hypercomplex.py", "    (5, 6, 1),\n", "    (6, 5, 1),\n"),
    ("g without u01", "coordgame.py",
     "    ((0, 1, 3, 7), (0,), (0,), (1,)),\n", "    ((0, 1, 3, 7), (0,), (0,), ()),\n"),
    ("h without s-", "coordgame.py",
     "    ((2, 4, 5, 6), (0,), (), ()),\n", "    ((2, 4, 5, 6), (), (), ()),\n"),
)


class AnchorError(Exception):
    """A mutant's anchor does not match exactly once."""


def mutated_copy(src, into, mutant):
    """Copy src to into/src with the mutant's edit applied (None: unedited)."""
    copy = pathlib.Path(into) / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        name, filename, anchor, replacement = mutant
        path = copy / "hypergames" / filename
        text = path.read_text(encoding="utf-8")
        if text.count(anchor) != 1:
            raise AnchorError("mutant %r: anchor %r matches %d times in %s"
                              % (name, anchor, text.count(anchor), filename))
        path.write_text(text.replace(anchor, replacement), encoding="utf-8")
    return copy


def exit_code(src, argv):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "hypergames.cli", *argv], capture_output=True,
                          env=env, cwd=src.parent, timeout=300)
    return proc.returncode


def verdict(codes):
    """How the checks' exit codes judge a mutant, and whether that is a fault."""
    if not any(codes):
        return "SURVIVED", True
    if any(code != 1 for code in codes[1:]):
        return "missed by equilibrium", True
    return "caught", False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory to mutate")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "hypergames", "__init__.py")):
        parser.error("%s holds no hypergames package" % args.src)
    rows = [("(control)", None)] + [(mutant[0], mutant) for mutant in MUTANTS]
    with tempfile.TemporaryDirectory() as tmp, concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        try:
            copies = [mutated_copy(args.src, os.path.join(tmp, str(k)), mutant)
                      for k, (_, mutant) in enumerate(rows)]
        except AnchorError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        runs = [[pool.submit(exit_code, copy, check) for _, check in CHECKS] for copy in copies]
        codes = [[run.result() for run in row] for row in runs]
    width = max(len(name) for name, _ in rows)
    print("  ".join(["mutant".ljust(width)] + [name for name, _ in CHECKS] + ["verdict"]))
    faults = 0
    for (name, mutant), row in zip(rows, codes):
        if mutant is None:
            text, fault = ("control", False) if not any(row) else ("CONTROL FAILED", True)
        else:
            text, fault = verdict(row)
        faults += fault
        cells = [str(code).rjust(len(check)) for code, (check, _) in zip(row, CHECKS)]
        print("  ".join([name.ljust(width)] + cells + [text]))
    if any(codes[0]):
        return 2
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
