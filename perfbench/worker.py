"""One fresh interpreter running one workload; started by run.py.

    python3 perfbench/worker.py <workload> setup
    python3 perfbench/worker.py <workload> measure <seed> <seconds>
    python3 perfbench/worker.py <workload> trace <seed> <seconds> <spans file>

Everything before the "ready" line is the program-side set-up that
``setup_s`` times from process start: importing ``hypergames`` (numpy
included) and, for ``equilibrium``, loading the bundled tables.  The
benchmark's own modules load only after it, so they never count towards
``setup_s``.  The last stdout line of measure and trace is one JSON object.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def program_setup(workload):
    sys.path.insert(0, SRC)
    import hypergames
    from hypergames import coordgame, hypercomplex, qstate

    if not os.path.abspath(hypergames.__file__).startswith(SRC + os.sep):
        raise SystemExit("hypergames was not imported from %s" % SRC)
    hg = {"coordgame": coordgame, "hypercomplex": hypercomplex, "qstate": qstate}
    if workload == "equilibrium":
        from hypergames import equilibria

        hg["equilibria"] = equilibria
        hg["games"] = {name: equilibria.builtin_game_file(name).game3()
                       for name in equilibria.BUILTIN_GAME_NAMES}
        hg["mixtures"] = [equilibria.special_distribution(k) for k in (1, 2, 3)]
    elif workload in ("interactive", "verify"):
        from hypergames import cli

        hg["cli"] = cli
    return hg


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__)
    hg = program_setup(argv[0])
    print("ready", flush=True)
    if argv[1] == "setup":
        return 0
    sys.path.insert(0, HERE)
    import loop

    return loop.main(argv, hg, ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
