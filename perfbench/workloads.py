"""Workload inputs and the per-operation output checks.

Why each workload exists, and which metric each layer should move on
it, is written down in README.md next to this file.  A workload is a
list of operations; ``build_inputs`` makes them from the seed and
``run_pass`` executes them once, timing each one.
"""
from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import specdetect as sd
from specdetect.optimal import SEG_BUMP

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SUB = "subcritical-solvable"
SUPER = "supercritical-full-power"

# criterion-1 tolerance on the MAD against the closed-form OMH statistic
OMH_MAD_TOL = 1e-2
# drift allowed against the seed-commit reference outputs of a design build
REF_EFFICACY_RTOL = 1e-6
REF_POWER_ATOL = 1e-6
# power-ar1: held-out level, LSS-over-top margin below the threshold, and
# the power a bump statistic must reach where optimal_lss builds one
LEVEL_TARGET, LEVEL_TOL = 0.05, 0.04
MIN_MARGIN = 0.10
MIN_BUMP_POWER = 0.9

POWER_REPS = 300
POWER_SPIKES = (0.05, 2.0, 3.0, 4.0, 5.0, 10.0)


@dataclass(frozen=True)
class Build:
    """One statistic build as a user or the CLI runs it: curve included."""

    label: str
    model: sd.SpikedModel
    config: sd.AlgoConfig
    scale_invariant: bool  # optimal_ls3 instead of optimal_lss
    regime: str
    omh_t: float | None = None  # unit-bulk spike compared with the OMH oracle

    def run(self):
        fn = sd.optimal_ls3 if self.scale_invariant else sd.optimal_lss
        return fn(self.model, self.config)


def _point(x: float) -> sd.AtomicMeasure:
    return sd.AtomicMeasure.point_mass(x)


def design_small_builds() -> list[Build]:
    unit = _point(1.0)
    fine = dict(epsilon=1e-6)

    def unit_build(label, t, regime, solver="diagreg", ls3=False, omh=False):
        model = sd.SpikedModel(H=unit, G0=unit, G1=_point(t), gamma=0.5)
        return Build(label, model, sd.AlgoConfig(solver=solver, **fine), ls3, regime,
                     t if omh else None)

    two = sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))

    def two_build(label, t, regime):
        model = sd.SpikedModel(H=two, G0=unit, G1=_point(t), gamma=0.1)
        return Build(label, model, sd.AlgoConfig(points_per_interval=600), False, regime)

    return [
        unit_build("unit-t1.2-diagreg", 1.2, SUB, omh=True),
        unit_build("unit-t1.6-diagreg", 1.6, SUB, omh=True),
        unit_build("unit-t1.6-collocation", 1.6, SUB, solver="collocation", omh=True),
        unit_build("unit-t1.6-ls3", 1.6, SUB, ls3=True),
        unit_build("unit-t2.0-surrogate", 2.0, SUPER),
        unit_build("unit-t3.0-bump", 3.0, SUPER),
        two_build("two-atom-t3.0", 3.0, SUB),
        two_build("two-atom-t1.5-gap", 1.5, SUPER),
        two_build("two-atom-t5.0-above", 5.0, SUPER),
    ]


def design_ar1_builds() -> list[Build]:
    def ar1_build(rho, p, n, spike):
        H = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(rho, p))
        model = sd.SpikedModel(H=H, G0=_point(1.0), G1=_point(spike), gamma=(p + 1) / n,
                               h=1, n=n)
        return Build(f"ar1-rho{rho}-p{p}-s{spike}", model,
                     sd.AlgoConfig(points_per_interval=1000), False, SUB)

    return [
        ar1_build(0.7, 249, 500, 4.0),
        ar1_build(0.5, 249, 500, 3.5),
        ar1_build(0.5, 399, 800, 3.0),
    ]


def power_config(seed: int) -> sd.SimConfig:
    """The criterion-8 sweep with the spike grid widened to both windows."""
    return sd.SimConfig(
        population={"kind": "ar1", "rho": 0.7, "p": 249},
        n=500, n_reps=POWER_REPS, alpha=0.05, seed=seed,
        spike_grid=POWER_SPIKES, points_per_interval=1000,
    )


WORKLOADS = ("design-small", "design-ar1", "power-ar1")


def build_inputs(workload: str, seed: int):
    """Inputs of one workload; the seed fixes the build order or the MC seed."""
    if workload == "power-ar1":
        return power_config(seed)
    builds = design_small_builds() if workload == "design-small" else design_ar1_builds()
    random.Random(seed).shuffle(builds)
    return builds


def run_pass(workload: str, inputs) -> tuple[float, list]:
    """Run every operation once: (pass seconds, [(operation input, seconds, outcome)])."""
    if workload == "power-ar1":
        calls = [(inputs, lambda: sd.power_experiment(inputs))]
    else:
        calls = [(build, build.run) for build in inputs]
    ops = []
    start = time.perf_counter()
    for op_input, call in calls:
        t0 = time.perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = exc
        ops.append((op_input, time.perf_counter() - t0, outcome))
    return time.perf_counter() - start, ops


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def load_reference() -> dict:
    """Seed-commit outputs of every design build, keyed by label."""
    with open(REFERENCE) as fh:
        return json.load(fh)["builds"]


@functools.cache
def _load_oracles():
    """``tests/oracles.py`` of the checkout, imported without touching ``tests``."""
    import importlib.util

    path = HERE.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def omh_mad(build: Build, phi) -> float:
    oracles = _load_oracles()
    mask = np.array([s == "in-support" for s in phi.segments])
    xs = phi.grid[mask]
    ours = oracles.normalize_curve(phi.values[mask])
    return oracles.mad(ours, oracles.normalize_curve(oracles.omh_lss(xs, build.omh_t,
                                                                     build.model.gamma)))


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def check_build(build: Build, outcome, reference: dict) -> tuple[list[str], float | None]:
    """Problems with one design build, and its OMH MAD where the oracle applies."""
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome}"], None
    phi, rep = outcome
    problems = []
    if not (np.all(np.isfinite(phi.grid)) and np.all(np.isfinite(phi.values))):
        problems.append("non-finite test function")
    finite = [rep.power] + ([rep.mu, rep.sigma, rep.efficacy] if rep.regime == SUB else [])
    if not all(math.isfinite(x) for x in finite):
        problems.append(f"non-finite report {rep.to_dict()}")
    if rep.regime != build.regime:
        problems.append(f"regime {rep.regime}, expected {build.regime}")
    ref = reference.get(build.label)
    if ref is None:
        problems.append("no reference output")
    else:
        if ref["regime"] != rep.regime:
            problems.append(f"regime {rep.regime} differs from the reference {ref['regime']}")
        if not _close(rep.efficacy, ref["efficacy"], rtol=REF_EFFICACY_RTOL):
            problems.append(f"efficacy {rep.efficacy!r} drifted from {ref['efficacy']!r}")
        if not _close(rep.power, ref["power"], atol=REF_POWER_ATOL):
            problems.append(f"power {rep.power!r} drifted from {ref['power']!r}")
    mad = None
    if build.omh_t is not None:
        mad = omh_mad(build, phi)
        if not mad <= OMH_MAD_TOL:
            problems.append(f"OMH MAD {mad:.3e} > {OMH_MAD_TOL:g}")
    return problems, mad


def bump_spikes(config: sd.SimConfig) -> set[float]:
    """Spikes of the sweep for which optimal_lss builds a bump on the same model."""
    bulk = np.sort(config.bulk_eigenvalues())
    H = sd.AtomicMeasure.uniform(bulk)
    gamma = config.gamma
    algo = sd.AlgoConfig(points_per_interval=config.points_per_interval, solver=config.solver)
    curve = sd.stieltjes_grid(H, gamma, points_per_interval=algo.points_per_interval,
                              epsilon=algo.epsilon)
    out = set()
    for s in config.spike_grid:
        model = sd.SpikedModel(H=H, G0=_point(config.null_spike), G1=_point(s), gamma=gamma,
                               h=config.h, n=config.n)
        phi, _ = sd.optimal_lss(model, algo, curve=curve)
        if SEG_BUMP in phi.segments:
            out.add(float(s))
    return out


def check_power(outcome, bumps: set[float]) -> list[tuple[str, list[str]]]:
    """One (label, problems) per spike plus one for the held-out level."""
    spikes = POWER_SPIKES
    if isinstance(outcome, Exception):
        msg = [f"raised {type(outcome).__name__}: {outcome}"]
        return [("level", msg)] + [(f"spike-{s:g}", msg) for s in spikes]
    curve = outcome
    level = curve.realized_level_lss
    ops = [("level", [] if abs(level - LEVEL_TARGET) <= LEVEL_TOL
            else [f"held-out level {level:.3f} outside {LEVEL_TARGET} +/- {LEVEL_TOL}"])]
    below = curve.spikes < curve.pt_threshold
    margins = np.where(below, curve.power_lss - curve.power_top, -np.inf)
    best = int(np.argmax(margins))
    for i, s in enumerate(curve.spikes):
        problems = []
        if not (math.isfinite(curve.power_lss[i]) and math.isfinite(curve.power_top[i])):
            problems.append("non-finite power")
        if i == best and not margins[i] >= MIN_MARGIN:
            problems.append(f"largest LSS-top margin below the threshold {margins[i]:.2f} "
                            f"< {MIN_MARGIN}")
        if float(s) in bumps and not curve.power_lss[i] >= MIN_BUMP_POWER:
            problems.append(f"optimal_lss builds a bump here but power_lss is "
                            f"{curve.power_lss[i]:.3f} < {MIN_BUMP_POWER}")
        ops.append((f"spike-{s:g}", problems))
    return ops
