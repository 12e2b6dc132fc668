"""Benchmark of the hypergames package: closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload's table

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  Human-readable lines come
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A JSON copy with the recorded
environment is written to ``perfbench/out/``.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits 2 and prints no result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
# Never used while tuning the benchmark or a change; a later claim is
# re-checked at this seed.
HELD_OUT_SEED = 906064
SETUP_PROBES = 15
# Reference kernel calls, in this process, per kernel time around a set-up probe.
KERNEL_PER_SAMPLE = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, HERE)
from reference import NOMINAL_S, at_nominal, time_kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Single caller per process: numpy's thread pools get one thread.

    On a few shared cores a second pool thread makes the caller wait on a
    core it does not hold, which measures the host's scheduler.
    """
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                **{var: "1" for var in THREAD_VARS})


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def source_digest():
    """SHA-256 over the package sources, the code identity without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hypergames")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, workload):
    env = child_env()
    role = {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(args.seed, "other")
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": args.seed,
        "seed_role": role,
        "workload": workload,
        "op_size": WORKLOADS[workload].op_size,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def run_worker(argv):
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, WORKER, *argv], env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError("worker %s exited %d" % (" ".join(argv), proc.returncode))
    return json.loads(lines[-1])


def setup_seconds(workload):
    """Fresh interpreter start to the worker's "ready" line, one probe."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, workload, "setup"],
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe for %s exited %d" % (workload, code))
    return elapsed


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def kernel_sample():
    return statistics.median(time_kernel() for _ in range(KERNEL_PER_SAMPLE))


def setup_probes(workload, count):
    """(probe times, kernel times): probe i ran between kernel[i] and kernel[i + 1]."""
    kernel = [kernel_sample()]
    probes = []
    for _ in range(count):
        probes.append(setup_seconds(workload))
        kernel.append(kernel_sample())
    return probes, kernel


def end_to_end(workload, args):
    # Half the set-up probes before the timed run and half after it, so the
    # median spans the same stretch of machine speed as the operations.
    setups, before = setup_probes(workload, SETUP_PROBES // 2)
    raw = run_worker([workload, "measure", str(args.seed), str(args.seconds)])
    more, after = setup_probes(workload, SETUP_PROBES - len(setups))
    setups += more
    kernel_around = [(a + b) / 2.0 for k in (before, after) for a, b in zip(k, k[1:])]
    # Times are reported at nominal machine speed (see reference.py): each
    # operation and each probe scaled by the kernel times around it.
    setups_nominal = [at_nominal(t, k) for t, k in zip(setups, kernel_around)]
    busy = raw["busy_s"]
    busy_nominal = math.fsum(at_nominal(t, k)
                             for t, k in zip(raw["elapsed_s"], raw["kernel_s"]))
    lat = sorted(raw["latencies_s"])
    lat_nominal = sorted(at_nominal(t, k)
                         for t, k in zip(raw["latencies_s"], raw["kernel_s"]))

    def as_ms(seconds, whole_run):
        # A failed operation misses every latency limit: it reads as the whole run.
        return 1000.0 * (whole_run if seconds == math.inf else seconds)

    pct = WORKLOADS[workload].tail_pct
    ok = raw["attempted"] - raw["failed"]
    wall = {
        "ops_per_s": ok / busy,
        "latency_p50_ms": as_ms(statistics.median(lat), busy),
        "latency_tail_ms": as_ms(nearest_rank(lat, pct), busy),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ops_per_s": ok / busy_nominal,
        "latency_p50_ms": as_ms(statistics.median(lat_nominal), busy_nominal),
        "latency_tail_ms": as_ms(nearest_rank(lat_nominal, pct), busy_nominal),
        "setup_s": statistics.median(setups_nominal),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    beyond = len(lat) - math.ceil(pct / 100.0 * len(lat))
    details = {
        "failed_frac": raw["failed"] / raw["attempted"],
        "tail_percentile": pct,
        "latency_samples": len(lat),
        "samples_beyond_tail": beyond,
        "setup_probes_s": setups,
        "timed_op_seconds": busy,
        "wall_clock": wall,
        "kernel_nominal_s": NOMINAL_S,
        "kernel_median_s": statistics.median(raw["kernel_s"]),
        "setup_kernel_median_s": statistics.median(kernel_around),
        "numpy": raw["numpy"],
    }
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}}
    notes = {k: "wall clock %.6g" % v for k, v in wall.items()}
    notes["latency_tail_ms"] += ", p%g of %d samples, %d beyond" % (pct, len(lat), beyond)
    notes["failed_frac"] = "%d of %d failed" % (raw["failed"], raw["attempted"])
    rows = list(metrics.items())
    rows.insert(3, ("failed_frac", details["failed_frac"]))
    units = dict(END_TO_END_UNITS, failed_frac="ratio")
    lines = ["%-16s %14.6g %-5s %s" % (k, v, units[k], notes.get(k, "")) for k, v in rows]
    lines.append("times at nominal speed: reference kernel %.4g ms in the run, "
                 "%.4g ms around set-up, nominal %.4g ms" % (
                     1000 * details["kernel_median_s"],
                     1000 * details["setup_kernel_median_s"], 1000 * NOMINAL_S))
    return result, details, lines


def per_layer(workload, args):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, args.seed))
    raw = run_worker([workload, "trace", str(args.seed), str(args.seconds), spans])
    result = {"correct": raw["failed"] == 0 and raw["counts_repeat"],
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": raw["metrics"]}
    details = {key: raw[key] for key in ("counts_repeat", "traced_passes",
                                         "ops_per_pass", "numpy")}
    details["spans_file"] = os.path.relpath(spans, ROOT)
    lines = ["%-52s %14.6g %s" % (k, m["value"], m["unit"])
             for k, m in raw["metrics"].items() if m["value"]]
    lines.append("calls and items repeat across %d traced passes of %d ops: %s" % (
        raw["traced_passes"], raw["ops_per_pass"], raw["counts_repeat"]))
    return result, details, lines


def run_one(workload, args):
    env = environment(args, workload)
    measure = per_layer if args.trace else end_to_end
    result, details, lines = measure(workload, args)
    env["numpy"] = details.pop("numpy")
    print("workload %s  seed %d (%s)  op = %s" % (
        workload, args.seed, env["seed_role"], env["op_size"]))
    for line in lines:
        print("  " + line)
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "details": details, "result": result}, fh,
                  indent=1, sort_keys=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; held-out seed %d)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hypergames", "__init__.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_one(name, args) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
