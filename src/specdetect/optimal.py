"""Construction of the best linear spectral statistic for a spiked model.

The driver decides the regime from the alternative spikes: when every
sample spike stays inside the bulk, the test function solves the
first-kind equation and is recovered by integrating its derivative; when
a spike escapes, power is asymptotically full and the statistic is the
distance from the null support, on the side of it where the escaped
sample eigenvalue lies.  A scale-invariant variant projects the equation
onto the complement of the identity-direction D(x) = x * density(x).
"""
from __future__ import annotations

import functools
import math
import numbers
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kernel import (
    EfficacyReport,
    KernelMatrix,
    assemble_diagreg,
    derivative_efficacy,
    efficacy_report,
    solve_collocation,
    solve_diagreg,
    solve_regularized,
)
from .measures import AtomicMeasure
from .mp import MIN_POINTS_PER_INTERVAL, StieltjesCurve, _check_bulk, stieltjes_grid
from .weak_derivative import SignedMeasureCdf, SpikeRecord, classify_spikes, delta_diff

__all__ = [
    "SpikedModel",
    "AlgoConfig",
    "LssFunction",
    "optimal_lss",
    "optimal_ls3",
    "lss_above_pt",
    "integrate_derivative",
]

SEG_SUPPORT = "in-support"
# the nodes an escaped spike's statistic adds outside the support and at its edges
SEG_BUMP = "outside-distance"

SOLVERS = ("diagreg", "collocation")

# curves kept for builds given none, the least recently used going first:
# spikes swept over one bulk, or two bulks used in turn, build each curve
# once, while three or more bulks in a cycle never reuse one and pay
# nothing for it; a 15-interval AR(1) rho 0.99 curve is under 1 MB
_CURVES = 2


# the least value of each integer setting of a model, a build or a sweep
LEAST = {"n": 1, "h": 1, "seed": 0, "n_reps": 100,
         "points_per_interval": MIN_POINTS_PER_INTERVAL}


def check_solver(solver: str) -> None:
    """Reject a solver name that no kernel solve implements."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver '{solver}'; expected one of {', '.join(SOLVERS)}")


def check_at_least(**values) -> None:
    """Reject an integer setting that is no integer or below its least value in LEAST."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < LEAST[name]:
            raise ValueError(f"{name} must be at least {LEAST[name]}, not {value!r}")


@dataclass(frozen=True)
class SpikedModel:
    """Null bulk H with spike distributions under null (G0) and alternative (G1).

    The sample size ``n`` is checked and kept, but no statistic or report
    reads it: every number is that of the limit at ``gamma``.
    """

    H: AtomicMeasure
    G0: AtomicMeasure
    G1: AtomicMeasure
    gamma: float
    h: int = 1
    n: int | None = None

    def __post_init__(self) -> None:
        _check_bulk(self.H, self.gamma)
        check_at_least(h=self.h)
        if self.n is not None:
            check_at_least(n=self.n)


@dataclass(frozen=True)
class AlgoConfig:
    """The choices of one statistic build; the method's constants are fixed."""

    # changes no number; kept because the benchmark in perfbench/ sets it
    epsilon: float = 5e-6
    points_per_interval: int = 1000
    solver: str = "diagreg"
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        check_solver(self.solver)
        check_at_least(points_per_interval=self.points_per_interval)


@dataclass(slots=True)
class LssFunction:
    """Test function stored at its grid points.

    Evaluation is the one extension rule: linear between stored points and
    constant beyond the outermost ones.  ``distance_nodes`` indexes the
    grid points that an escaped spike's distance statistic adds, and is
    None for a statistic on the curve's grid alone; ``segments`` reads a
    label per point from it.
    """

    grid: np.ndarray
    values: np.ndarray
    distance_nodes: np.ndarray | None = None

    @property
    def segments(self) -> list[str]:
        """SEG_BUMP at each distance node and SEG_SUPPORT at every other point."""
        labels = [SEG_SUPPORT] * self.grid.size
        if self.distance_nodes is not None:
            for i in self.distance_nodes.tolist():
                labels[i] = SEG_BUMP
        return labels

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values)

    def normalized(self) -> "LssFunction":
        """Copy anchored to zero at the left and scaled to max-abs one."""
        vals = self.values - self.values[0]
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0:
            scale = 1.0
        return LssFunction(grid=self.grid.copy(), values=vals / scale,
                           distance_nodes=self.distance_nodes)

    def to_rows(self):
        return zip(self.grid, self.values, self.segments)


def integrate_derivative(curve: StieltjesCurve, g: np.ndarray) -> LssFunction:
    """Cumulative trapezoid of g on the curve's grid, zero at its first point.

    Refuses a curve with dropped points; evaluation extends the result,
    whose grid is the curve's own read-only grid.
    """
    curve.require_complete()
    grid = curve.grid
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))])
    return LssFunction(grid=grid, values=phi)


def lss_above_pt(escaped: tuple[SpikeRecord, ...], curve: StieltjesCurve) -> LssFunction:
    """Distance from the null support, for spikes whose sample location escapes it.

    No null eigenvalue lies outside the support in the limit (Bai &
    Silverstein 1999), and an escaped spike's sample eigenvalue sits at psi
    (Baik, Ben Arous & Peche 2005).  Each record in ``escaped`` (the
    supercritical spikes of G1) takes the distance from the support in the
    part of its complement that holds psi: x - b above the top edge b, up
    to a last node at 2 psi and constant beyond it; a - x on [0, a] below
    the lower edge a; the tent min(x - c, d - x) in a gap (c, d).  phi is
    zero on the support and is stored at the curve's grid plus those
    nodes, its ``distance_nodes``; no sample size enters it.
    """
    if not escaped:
        raise ValueError("no supercritical spike; below-transition route applies")
    intervals = np.array(curve.support.intervals)
    lo, hi = intervals[0, 0], intervals[-1, 1]
    nodes = []
    for rec in escaped:
        if rec.psi > hi:
            nodes += [hi, 2.0 * rec.psi]
        elif rec.psi < lo:
            nodes += [0.0, lo]
        else:  # the gap (c, d) that holds psi
            c = intervals[intervals[:, 1] < rec.psi, 1].max()
            d = intervals[intervals[:, 0] > rec.psi, 0].min()
            nodes += [c, 0.5 * (c + d), d]
    nodes = np.unique(nodes)
    # phi is linear between the nodes, with the distance at each; the curve's
    # grid lies inside the support, so between two nodes that read zero
    distance = np.maximum(np.maximum(intervals[:, :1] - nodes, nodes - intervals[:, 1:]), 0.0)
    grid = np.union1d(curve.grid, nodes)
    return LssFunction(grid=grid, values=np.interp(grid, nodes, distance.min(axis=0)),
                       distance_nodes=np.searchsorted(grid, nodes))


def optimal_lss(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Best LSS for the model, with its predicted mean shift, sd and power.

    Below the transition the derivative solves the regularized first-kind
    system and is integrated; once a spike escapes, the statistic is the
    distance from the null support (``lss_above_pt``) and the report's
    efficacy is infinite, so its power is one.
    """
    return _build(model, config or AlgoConfig(), curve, _configured_solve)


def optimal_ls3(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Scale-invariant variant: the derivative is constrained orthogonal to
    D(x) = x * density(x), removing sensitivity to an unknown overall scale.

    The statistic is in the model's own units, like that of ``optimal_lss``,
    and so is the regime; an escaped spike gets the same distance statistic
    as there.  The constrained system has a diagreg solve only.
    """
    config = config or AlgoConfig()
    if config.solver != "diagreg":
        raise ValueError(f"the scale-invariant statistic has no '{config.solver}' solve; "
                         "use solver 'diagreg'")
    return _build(model, config, curve, _projected_solve)


@functools.lru_cache(maxsize=_CURVES)
def _curve(H: AtomicMeasure, gamma: float, points_per_interval: int) -> StieltjesCurve:
    """The curve of H at gamma on the given grid, built on a miss.

    ``epsilon`` changes no number, so it is no part of the key.
    """
    return stieltjes_grid(H, gamma, points_per_interval=points_per_interval)


_KERNEL_LOCK = threading.Lock()
# the kernel of the curve of the last subcritical build, at most one
_kernel_slot: list[KernelMatrix] = []


def _kernel(curve: StieltjesCurve) -> KernelMatrix:
    """The kernel matrix of the curve, assembled on a miss.

    K depends on the bulk and gamma alone, so every build on one curve
    solves with one K, factored by its first solve.  The one slot is keyed
    by the curve object and emptied before another curve's K is assembled,
    so it never holds two N x N arrays.
    """
    with _KERNEL_LOCK:
        if not (_kernel_slot and _kernel_slot[0].curve is curve):
            _kernel_slot.clear()
            _kernel_slot.append(assemble_diagreg(curve))
        return _kernel_slot[0]


def _build(model: SpikedModel, config: AlgoConfig, curve: StieltjesCurve | None,
           solve: Callable[[KernelMatrix, SignedMeasureCdf, AlgoConfig], np.ndarray]
           ) -> tuple[LssFunction, EfficacyReport]:
    """The statistic path shared by ``optimal_lss`` and ``optimal_ls3``.

    Given no curve, takes that of (H, gamma, points_per_interval) from the
    last _CURVES built so, or builds it.  Refuses a curve of another bulk
    or gamma, or one with dropped grid points; rejects a supercritical G0
    and decides the regime from G1.
    Below the transition ``solve`` returns the derivative from the kernel
    system of the curve (``_kernel``) and it is integrated; a supercritical
    G1 gets the distance statistic of ``lss_above_pt``.
    """
    if curve is None:
        curve = _curve(model.H, model.gamma, config.points_per_interval)
    curve.require_model(model.H, model.gamma)
    curve.require_complete()
    if any(r.supercritical for r in classify_spikes(model.G0, curve)):
        raise ValueError("null spike distribution G0 must be fully subcritical")
    escaped = tuple(r for r in classify_spikes(model.G1, curve) if r.supercritical)
    if escaped:
        return lss_above_pt(escaped, curve), efficacy_report(math.inf, 0.0, config.alpha)

    delta = delta_diff(model.G0, model.G1, curve)
    # the slot keeps K, and its factor, for the next build on this curve
    K = _kernel(curve)
    g = solve(K, delta, config)
    report = derivative_efficacy(K, g, delta, model.h, config.alpha)
    return integrate_derivative(curve, g), report


def _configured_solve(K: KernelMatrix, delta: SignedMeasureCdf, config: AlgoConfig) -> np.ndarray:
    if config.solver == "collocation":
        return solve_collocation(delta).values
    return solve_diagreg(K, delta).values


def _projected_solve(K: KernelMatrix, delta: SignedMeasureCdf, config: AlgoConfig) -> np.ndarray:
    """Derivative of the equation projected off the identity direction D."""
    sq = np.sqrt(K.weights)
    d_vec = sq * K.curve.grid * K.curve.density
    d_norm2 = float(d_vec @ d_vec)
    if d_norm2 <= 0.0:
        raise AssertionError("identity direction has zero norm; degenerate bulk")

    def project(u: np.ndarray) -> np.ndarray:
        return u - d_vec * (d_vec @ u) / d_norm2

    # the projected system (P K P + r I) u = -P b with P = I - d d^T/|d|^2
    # is (K + r I) u = -P b + lam d with d^T u = 0: one factor, two columns
    u_b, u_d = solve_regularized(K, np.column_stack([-project(sq * delta.cdf), d_vec])).T
    u = project(u_b - (d_vec @ u_b) / (d_vec @ u_d) * u_d)
    return u / sq
