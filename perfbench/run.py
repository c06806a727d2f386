"""Benchmark of specdetect: statistic builds and the Monte-Carlo power sweep.

    python3 perfbench/run.py --workload design-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads and the reasons for them are in perfbench/README.md.  All load
runs in one worker process with BLAS, OpenMP and MKL pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics; set-up is timed
separately in fresh interpreters.  ``--trace 1`` runs an untraced pass
and a traced pass and reports the per-layer metrics.  The last stdout
line is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs every workload untraced and traced in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design-small", "design-ar1", "power-ar1")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# printed for every workload; the JSON line carries the metrics that
# BENCHMARK.json lists, as the others are not defined on every workload
# (build_s_p50, omh_mad) or are zero there (fail_ratio)
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "build_s_p50": "s",
         "omh_mad": "1", "fail_ratio": "1"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        _fail("out of time before the worker could start")
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        _fail(f"worker did not finish within {RUN_LIMIT_S:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        _fail(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return proc


def setup_seconds(workload: str, seed: int, deadline: float) -> list[float]:
    """Fresh interpreter, ``import specdetect`` and the workload's inputs, timed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
        times.append(time.perf_counter() - t0)
    return times


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [] if trace else setup_seconds(workload, seed, deadline)
    proc = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)], deadline)
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = res["ops"]
    failed = [op for op in ops if op["problems"]]
    builds = res["build_s"]
    e2e = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "build_s_p50": statistics.median(builds) if workload != "power-ar1" else None,
        "omh_mad": res["omh_mad"],
        "fail_ratio": len(failed) / len(ops),
    }

    print(f"== {workload} seed={seed} trace={trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"passes {len(res['walls'])}: wall_s " + " ".join(f"{w:.3f}" for w in res["walls"]))
    if setup:
        print(f"setup probes {len(setup)}: " + " ".join(f"{s:.3f}" for s in setup))
    for name, value in e2e.items():
        if value is None:
            shown = "n/a"
        elif name == "build_s_p50":
            shown = f"{value:.4f} {UNITS[name]} (n={len(builds)}, max {max(builds):.4f})"
        elif name == "fail_ratio":
            shown = f"{value:.4f} ({len(failed)}/{len(ops)})"
        else:
            shown = f"{value:.6g} {UNITS[name]}"
        print(f"  {name:<12} {shown}")
    for op in failed:
        tag = " [known defect]" if op["known_defect"] else ""
        print(f"  FAILED {op['label']}{tag}: {'; '.join(op['problems'])}")
    if trace:
        for name, value in res["layers"].items():
            print(f"  {name:<40} {value:.6g}")

    with open(ROOT / "BENCHMARK.json") as fh:
        specs = json.load(fh)["per_layer" if trace else "end_to_end"]
    values = res["layers"] if trace else e2e
    missing = [spec["name"] for spec in specs if values.get(spec["name"]) is None]
    if missing:
        _fail(f"no value for {', '.join(missing)}")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    return {
        "correct": all(op["known_defect"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    for need in ("BENCHMARK.json", "src/specdetect/__init__.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            _fail(f"{need} is missing: run from the root of a specdetect checkout")

    if args.workload == "all":
        for workload in WORKLOADS:
            for trace in (0, 1):
                print(json.dumps(run_one(workload, args.seed, args.seconds, trace)))
        return
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
