"""Construction of the best linear spectral statistic for a spiked model.

The driver decides the regime from the alternative spikes: when every
sample spike stays inside the bulk, the test function solves the
first-kind equation and is recovered by integrating its derivative; when
a spike escapes, power is asymptotically full and the statistic is a
narrow Epanechnikov bump at each escaped sample location.  A
scale-invariant variant projects the equation onto the complement of the
identity-direction D(x) = x * density(x).
"""
from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace

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
from .mp import MIN_POINTS_PER_INTERVAL, StieltjesCurve, SupportSet, stieltjes_grid
from .weak_derivative import SignedMeasureCdf, SpikeRecord, classify_spikes, delta_diff

__all__ = [
    "SpikedModel",
    "AlgoConfig",
    "LssFunction",
    "optimal_lss",
    "optimal_ls3",
    "lss_above_pt",
    "integrate_derivative",
    "epanechnikov",
]

SEG_SUPPORT = "in-support"
SEG_OUTSIDE = "outside-constant"
SEG_BUMP = "epanechnikov-bump"

SOLVERS = ("diagreg", "collocation")

_N_SD = 3.0  # half-width of an escaped spike's bump, in asymptotic sds
_S_PLUS_COEFF = 0.75  # the surrogate rule's window ends at s_plus = this * (1 + sqrt(gamma)) a_pt
_S_MINUS_COEFF = 0.99  # the surrogate spike is s_minus = this * a_pt
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

    Give the sample size ``n`` whenever a spike may escape: it sets a
    bump's half-width _N_SD * sd / sqrt(n).  The default (d + h)/gamma is
    4 on the unit bulk at gamma = 0.5, where the bump covers the support.
    """

    H: AtomicMeasure
    G0: AtomicMeasure
    G1: AtomicMeasure
    gamma: float
    h: int = 1
    n: int | None = None

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        check_at_least(h=self.h)
        if self.n is not None:
            check_at_least(n=self.n)

    def resolved_n(self) -> int:
        """Sample size; defaults to (d + h)/gamma when not supplied."""
        if self.n is not None:
            return self.n
        return max(1, round((self.H.n_atoms + self.h) / self.gamma))


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


@dataclass
class LssFunction:
    """Test function stored at its grid points; ``segments`` labels each
    point with the construction it came from.

    Evaluation is the one extension rule: linear between stored points and
    constant beyond the outermost ones.  The derivative on the support grid
    is kept when the function came from the integral-equation route.
    """

    grid: np.ndarray
    values: np.ndarray
    segments: list[str]
    derivative: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values)

    def normalized(self) -> "LssFunction":
        """Copy anchored to zero at the left and scaled to max-abs one, without a derivative."""
        vals = self.values - self.values[0]
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0:
            scale = 1.0
        return LssFunction(grid=self.grid.copy(), values=vals / scale,
                           segments=list(self.segments))

    def to_rows(self):
        for i in range(self.grid.size):
            yield (self.grid[i], self.values[i], self.segments[i])


def epanechnikov(x: np.ndarray) -> np.ndarray:
    """Bump shape max(0, 1 - x^2)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, 1.0 - x**2)


def integrate_derivative(curve: StieltjesCurve, g: np.ndarray) -> LssFunction:
    """Cumulative trapezoid of g on the curve's grid, zero at its first point.

    Refuses a curve with dropped points; evaluation extends the result,
    whose grid is the curve's own read-only grid.
    """
    curve.require_complete()
    grid = curve.grid
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))])
    return LssFunction(grid=grid, values=phi, segments=[SEG_SUPPORT] * grid.size,
                       derivative=np.asarray(g, dtype=float).copy())


def surrogate_spike(model: SpikedModel, escaped: tuple[SpikeRecord, ...],
                    support: SupportSet) -> float | None:
    """Location s_minus of the subcritical surrogate that replaces G1, or None.

    ``escaped`` holds the supercritical records of G1.  The rule fires for
    a single supercritical spike (h = 1) whose sample location lies above
    the top edge and whose location is below s_plus: just past the
    uppermost threshold the n^-1/2 bump width badly overstates the actual
    fluctuation of the escaping eigenvalue.  A spike escaping below the
    bulk keeps its bump.
    """
    if model.h != 1 or model.G1.n_atoms != 1 or not escaped:
        return None
    a_pt = support.upper_pt_threshold
    rec = escaped[0]
    s_plus = _S_PLUS_COEFF * (1.0 + math.sqrt(model.gamma)) * a_pt
    if rec.psi > support.intervals[-1][1] and rec.location < s_plus:
        return _S_MINUS_COEFF * a_pt
    return None


def lss_above_pt(model: SpikedModel, escaped: tuple[SpikeRecord, ...],
                 curve: StieltjesCurve) -> LssFunction:
    """Bump statistic for spikes whose sample location escapes the bulk.

    Each record in ``escaped`` (the supercritical spikes of G1) gets an
    Epanechnikov bump of half-width _N_SD * n^-1/2 * sd centered at its
    sample location; spikes beyond the outermost bulk edge continue as the
    constant one away from the bulk.
    """
    if not escaped:
        raise ValueError("no supercritical spike; below-transition route applies")
    n = model.resolved_n()
    support = curve.support
    s_min = support.intervals[0][0]
    s_max = support.intervals[-1][1]

    bump_specs = []
    for rec in escaped:
        w = _N_SD * rec.asy_sd / math.sqrt(n)
        bump_specs.append((rec.psi, w, rec.psi > s_max, rec.psi < s_min))

    xs = list(curve.grid)
    for psi, w, _, _ in bump_specs:
        xs.extend(np.linspace(psi - w, psi + w, 201).tolist())
    grid = np.unique(np.array(xs))

    values = np.zeros_like(grid)
    bump_mask = np.zeros(grid.size, dtype=bool)
    for psi, w, above, below in bump_specs:
        # zero from the end nodes psi -/+ w outward, whatever (x - psi)/w rounds to there
        inside = (grid > psi - w) & (grid < psi + w)
        contribution = np.where(inside, epanechnikov((grid - psi) / w), 0.0)
        if above:  # constant one pointing away from the bulk
            contribution[grid >= psi] = 1.0
        if below:
            contribution[grid <= psi] = 1.0
        values = np.maximum(values, contribution)
        bump_mask |= contribution > 0
    labels = [SEG_BUMP if bump else SEG_SUPPORT if support.contains(x) else SEG_OUTSIDE
              for x, bump in zip(grid, bump_mask)]
    return LssFunction(grid=grid, values=values, segments=labels)


def optimal_lss(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Best LSS for the model, with its predicted mean shift, sd and power.

    Below the transition the derivative solves the regularized first-kind
    system and is integrated; above it the bump construction applies and
    the report's efficacy is infinite, so its power is one.  A single
    slightly supercritical spike (h = 1, below s_plus) is replaced by the
    subcritical surrogate s_minus to avoid the finite-sample power drop
    right above the threshold.
    """
    return _build(model, config or AlgoConfig(), curve, _configured_solve)


def optimal_ls3(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Scale-invariant variant: the derivative is constrained orthogonal to
    D(x) = x * density(x), removing sensitivity to an unknown overall scale.

    The statistic is in the model's own units, like that of ``optimal_lss``,
    and so are the regime and the surrogate rule; the constrained system
    has a diagreg solve only.
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


def _build(model: SpikedModel, config: AlgoConfig, curve: StieltjesCurve | None,
           solve: Callable[[StieltjesCurve, KernelMatrix, SignedMeasureCdf, AlgoConfig],
                           np.ndarray]) -> tuple[LssFunction, EfficacyReport]:
    """The statistic path shared by ``optimal_lss`` and ``optimal_ls3``.

    Given no curve, takes that of (H, gamma, points_per_interval) from the
    last _CURVES built so, or builds it.  Refuses a curve of another bulk
    or gamma, or one with dropped grid points; rejects a supercritical G0
    and decides the regime from G1.
    Below the transition, and for the surrogate that replaces a spike just
    above it, ``solve`` returns the derivative from the kernel system and
    it is integrated; any other supercritical G1 gets the bump
    construction.
    """
    if curve is None:
        curve = _curve(model.H, model.gamma, config.points_per_interval)
    curve.require_model(model.H, model.gamma)
    curve.require_complete()
    H, gamma, support = model.H, model.gamma, curve.support
    if any(r.supercritical for r in classify_spikes(H, gamma, model.G0, support)):
        raise ValueError("null spike distribution G0 must be fully subcritical")
    escaped = tuple(r for r in classify_spikes(H, gamma, model.G1, support) if r.supercritical)
    if escaped:
        report = efficacy_report(math.inf, 0.0, config.alpha)
        s_sur = surrogate_spike(model, escaped, support)
        if s_sur is None:
            return lss_above_pt(model, escaped, curve), report
        model = replace(model, G1=AtomicMeasure.point_mass(s_sur))

    delta = delta_diff(model.H, model.G0, model.G1, model.gamma, curve)
    K = assemble_diagreg(curve)
    g = solve(curve, K, delta, config)
    if not escaped:
        report = derivative_efficacy(K, g, delta, model.h, config.alpha)
    # free the N x N matrix before the statistic's arrays are allocated:
    # made while it is live, they can land above it in the heap, and the
    # next build's matrix then takes fresh pages instead of its space
    del K
    return integrate_derivative(curve, g), report


def _configured_solve(curve: StieltjesCurve, K: KernelMatrix, delta: SignedMeasureCdf,
                      config: AlgoConfig) -> np.ndarray:
    if config.solver == "collocation":
        return solve_collocation(curve, delta).values
    return solve_diagreg(K, delta).values


def _projected_solve(curve: StieltjesCurve, K: KernelMatrix, delta: SignedMeasureCdf,
                     config: AlgoConfig) -> np.ndarray:
    """Derivative of the equation projected off the identity direction D."""
    sq = np.sqrt(K.weights)
    d_vec = sq * curve.grid * curve.density
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
