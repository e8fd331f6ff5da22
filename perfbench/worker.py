"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a child process with the BLAS thread counts pinned;
see README.md. With --trace 1 the operations alternate between untraced
and traced, and the spans are written to out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from run import THREAD_VARS
from spans import Tracer, layer_metrics
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3

# Metrics printed on the result line: end-to-end without tracing, per layer
# with it. BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER_UNITS = {"_s": "s", "_ns_per_point": "ns", "_bytes_computed": "B",
                   "_frac": "ratio"}
QUALITY_UNITS = {"ate": "unit", "ate_icp": "unit", "rpe_r_deg": "deg",
                 "depth_rmse": "unit", "drop_acc": "ratio"}


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_REPEATS times, warm up once, then run operations while
    the next one is expected to end within `seconds`, and at least
    keys + 1 of them, so that one output is compared with a repeat."""
    tracer = Tracer()

    def traced(on: bool, run: str):
        tracer.run = run
        return tracer.installed() if on else contextlib.nullcontext()

    setup_times = []
    for k in range(SETUP_REPEATS):
        with traced(trace, f"setup{k}"):
            t0 = time.perf_counter()
            st = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.warm_up(st)
    warm_s = time.perf_counter() - t0

    ops = []              # (traced, wall, rate) of operations that returned
    first = {}            # key -> Outcome of its first run
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        expected_end = elapsed * (attempted + 1) / max(attempted, 1)
        if attempted > workload.keys and expected_end > seconds:
            break
        key = attempted % workload.keys
        on = trace and attempted % 2 == 1
        attempted += 1
        try:
            with traced(on, f"op{attempted - 1}"):
                t0 = time.perf_counter()
                out = workload.run(st, key)
                wall = time.perf_counter() - t0
            ops.append((on, wall, workload.rate(st, out, wall)))
            outcome = workload.inspect(st, key, out)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        problems = list(outcome.problems)
        ref = first.setdefault(key, outcome)
        if outcome.digest != ref.digest:
            problems.append(f"output of key {key} differs from its first run")
        if problems:
            print(f"{workload.name} op {attempted - 1}: {'; '.join(problems)}",
                  file=sys.stderr)
            failed += 1

    plain = [w for on, w, _ in ops if not on]
    result = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "machine": machine(), "correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "walls": {"setup": setup_times, "warm_up": warm_s,
                        "untraced": plain, "traced": [w for on, w, _ in ops if on]}}
    if trace:
        layers = layer_metrics(tracer.spans, "op", sum(on for on, _, _ in ops))
        scan = layer_metrics(tracer.spans, "setup", SETUP_REPEATS)
        layers.update({k: v for k, v in scan.items() if k.startswith("scene.")})
        layers["trace_overhead_frac"] = (
            _median([w for on, w, _ in ops if on]) / _median(plain, 1.0) - 1.0)
        result["metrics"] = {k: {"value": v, "unit": _unit(k)}
                             for k, v in layers.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{workload.name}-seed{seed}.json").write_text(
            json.dumps({"machine": result["machine"], "spans": tracer.dump()}))
        return result

    qualities = [o.quality for _, o in sorted(first.items())]
    report = {
        "setup_s": (_median(setup_times) + warm_s, "s"),
        "wall_s": (_median(plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_frac": (failed / attempted, "ratio"),
        workload.rate_name: (_median([r for on, _, r in ops if not on]), "1/s"),
    }
    for name in (qualities[0] if qualities else {}):
        report[name] = (statistics.fmean(q[name] for q in qualities),
                        QUALITY_UNITS[name])
    result["report"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    result["metrics"] = {k: result["report"][k] for k in END_TO_END}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload](SIZES["full"])
    print(json.dumps(measure(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
