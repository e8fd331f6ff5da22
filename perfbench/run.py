"""geonlf benchmark: train / register / render workloads.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs each workload in its own child process (worker.py) with the BLAS and
OpenMP thread counts pinned to 1, prints every metric by name and unit,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Exits 1 when an output check failed and 2 when the workload could not run.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_corridor", "register_lowoverlap", "render_corridor")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """The worker's result, or None if it crashed, timed out or printed no
    result."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def record(result: dict) -> None:
    """Print every metric of the result and store it under out/."""
    name = result["workload"]
    print(f"{name}: machine {json.dumps(result['machine'], sort_keys=True)}")
    for key, m in result.get("report", result["metrics"]).items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: {result['attempted']} operations, {result['failed']} failed")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{name}-seed{result['seed']}-trace{result['trace']}.json"
     ).write_text(json.dumps(result, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        record(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
