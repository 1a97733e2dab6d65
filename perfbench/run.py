"""pottsim benchmark: one workload, end-to-end or traced per-layer figures.

Usage, from the repository root:

    python3 perfbench/run.py --workload kings7-batch --seed 1 --seconds 30 --trace 0

Writes the workload's graphs under perfbench/out/<workload>/, measures the
workload in a fresh single-threaded process (worker.py), then times set-up
in fresh interpreters (setup_probe.py). The last line of standard output is
one JSON object: correct, attempted, failed and metrics; the exit code is 1
if a check failed or an operation raised. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run, whose
spans are written to perfbench/out/<workload>/trace.npz. Times are at the
reference host speed (hostspeed.py); see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 160


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # `pottsim solve` reads a config file named here; the benchmark runs defaults
    env.pop("POTTSIM_CONFIG", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{args[0]} exited with code {proc.returncode}")
    return proc


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pottsim" / "__init__.py").is_file():
        print(f"error: no pottsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = HERE / "out" / args.workload
    spec = workloads.build(args.workload, args.seed, outdir)
    env = child_env()
    result_path = outdir / f"result-trace{args.trace}.json"
    run_child([str(HERE / "worker.py"), "--spec", spec["spec_path"],
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(result_path), "--trace-file", str(outdir / "trace.npz")], env)
    doc = json.loads(result_path.read_text())
    # the worker has filled the bytecode and file caches, which users pay once
    probe = [str(HERE / "setup_probe.py"), spec["spec_path"]]
    setups = [json.loads(run_child(probe, env).stdout) for _ in range(SETUP_REPEATS)]

    def median(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        doc["metrics"]["setup.import_s"] = {"value": median("import_s"), "unit": "s"}
        doc["metrics"]["graph.load_graph.s"] = {"value": median("load_graph_s"), "unit": "s"}
    else:
        doc["metrics"]["setup_s"] = {"value": median("total_s"), "unit": "s"}
    print(json.dumps(doc))
    # no operation of any workload is expected to raise, so one that does is an error
    return 0 if doc["correct"] and doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
