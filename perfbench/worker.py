"""One workload in one process; started by run.py with BLAS pinned to one thread.

Prints one JSON object as its last stdout line: pass times, per-operation
check results, peak memory, the environment and, with ``--trace 1``, the
per-layer metrics of one traced pass.  ``--setup-only`` stops after the
import and the inputs, so run.py can time set-up in a fresh interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

import specdetect as sd
import spans as layer_trace
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Known defects stay counted in ``failed``; they do not make a run incorrect.
# spike-0.05 sits in the lower spike window: optimal_lss builds a bump there,
# power_experiment builds the upward surrogate instead (ROADMAP known defect)
KNOWN_DEFECTS = {("power-ar1", "spike-0.05")}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PIN_VARS},
        "commit": commit,
        "seed": seed,
    }


def _ms_quantile(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    return 1e3 * float(np.quantile(np.asarray(durations), q))


def layer_metrics(tracer: layer_trace.Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict:
    """Per-layer metrics of the traced passes, times and counts per pass."""
    passes = len(traced_walls)
    spans = tracer.spans
    selfs = layer_trace.self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), s in zip(spans, selfs):
        busy[name] = busy.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    draws = [end - start for name, start, end, _ in spans
             if name == "simulate.sample_eigenvalues"]

    res = tracer.calls
    curves = [(*(args[:2] if len(args) >= 2 else (kw["H"], kw["gamma"])), out)
              for args, kw, out in res["stieltjes_grid"]]
    grid_points = sum(c.grid.size for _, _, c in curves)
    dropped = sum(len(c.dropped) for _, _, c in curves)
    m2_err = 0.0
    for H, gamma, c in curves:
        exact = sd.forward_moments(H, gamma, 2)[1]
        quad = sd.esd_expectation(c, lambda x: x**2, f_at_zero=0.0)
        m2_err = max(m2_err, abs(quad - exact) / exact)
    gaps = [g for _, _, d in res["delta_diff"] for g in d.gaps]

    residuals = [out.residual_norm for attr in ("solve_diagreg", "solve_collocation")
                 for _, _, out in res[attr]]
    factored = {id(out[0]): args[0] for args, _, out in res["cho_factor"]}
    for args, _, x in res["cho_solve"]:
        (c, _), b = args[0], args[1]
        residuals.append(float(np.linalg.norm(factored[id(c)] @ x - b)))

    reports = [out[1] for attr in ("optimal_lss", "optimal_ls3") for _, _, out in res[attr]]
    sweep_s = busy.get("simulate.power_experiment", 0.0)

    totals = {
        "mp.support_intervals.busy_s": busy.get("mp.support_intervals", 0.0),
        "mp.support_intervals.calls": calls.get("mp.support_intervals", 0),
        "mp.stieltjes_grid.self_s": own.get("mp.stieltjes_grid", 0.0),
        "mp.stieltjes_grid.calls": calls.get("mp.stieltjes_grid", 0),
        "mp.pointwise_solves": tracer.counts["mp.pointwise_solves"],
        "mp.grid_points": grid_points,
        "mp.dropped_points": dropped,
        "weak_derivative.delta_diff.self_s": own.get("weak_derivative.delta_diff", 0.0),
        "weak_derivative.delta_diff.calls": calls.get("weak_derivative.delta_diff", 0),
        "weak_derivative.edge_refinements_failed":
            sum(g.startswith("edge refinement failed") for g in gaps),
        "weak_derivative.near_pole_points": sum(g.startswith("near-pole") for g in gaps),
        "kernel.assemble.busy_s": busy.get("kernel.assemble", 0.0),
        "kernel.assemble.calls": calls.get("kernel.assemble", 0),
        "kernel.solve.busy_s": busy.get("kernel.solve", 0.0),
        "kernel.solve.calls": calls.get("kernel.solve", 0),
        "optimal.self_s": own.get("optimal", 0.0),
        "optimal.builds_subcritical": sum(r.regime == wl.SUB for r in reports),
        "optimal.builds_supercritical": sum(r.regime == wl.SUPER for r in reports),
        "simulate.sample_eigenvalues.busy_s": busy.get("simulate.sample_eigenvalues", 0.0),
        "simulate.draws": len(draws),
        "simulate.apply_lss.busy_s": busy.get("simulate.apply_lss", 0.0),
        "simulate.power_experiment.self_s": own.get("simulate.power_experiment", 0.0),
    }
    # totals over several traced passes are reported per pass
    m = {k: v / passes for k, v in totals.items()}
    m.update({
        "mp.converged_ratio": grid_points / (grid_points + dropped) if curves else 1.0,
        "mp.m2_relerr": m2_err,
        "kernel.matrix_n": max((out.size for _, _, out in res["assemble_diagreg"]), default=0),
        "kernel.solve_residual_max": max(residuals, default=0.0),
        "simulate.draw_ms_p50": _ms_quantile(draws, 0.5),
        "simulate.draw_ms_p99": _ms_quantile(draws, 0.99),
        "simulate.reps_per_s": len(draws) / sweep_s if sweep_s > 0 else 0.0,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.coverage": sum(selfs) / sum(traced_walls),
    })
    return m


def check_ops(workload: str, ops: list) -> tuple[list[dict], float | None]:
    """Check every operation run: ([{label, problems, known_defect}], worst OMH MAD)."""
    records = []
    worst = None
    if workload == "power-ar1":
        bumps = wl.bump_spikes(ops[0][0])
        for _, _, outcome in ops:
            for label, problems in wl.check_power(outcome, bumps):
                records.append({"label": label, "problems": problems})
    else:
        reference = wl.load_reference()
        for build, _, outcome in ops:
            problems, mad = wl.check_build(build, outcome, reference)
            if mad is not None:
                worst = mad if worst is None else max(worst, mad)
            records.append({"label": build.label, "problems": problems})
    for r in records:
        r["known_defect"] = (workload, r["label"]) in KNOWN_DEFECTS
    return records, worst


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = wl.build_inputs(args.workload, args.seed)
    if args.setup_only:
        return

    walls, traced_walls, ops, build_s = [], [], [], []
    tracer = layer_trace.Tracer()
    start = time.perf_counter()
    while True:
        wall, done = wl.run_pass(args.workload, inputs)
        walls.append(wall)
        ops += done
        build_s += [t for _, t, _ in done]
        if args.trace:
            tracer.install()
            try:
                wall, done = wl.run_pass(args.workload, inputs)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            ops += done
        spent = time.perf_counter() - start
        if spent + spent / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, worst_mad = check_ops(args.workload, ops)
    result = {
        "walls": walls,
        "build_s": build_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "omh_mad": worst_mad,
        "env": environment(args.seed),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, traced_walls, walls)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
