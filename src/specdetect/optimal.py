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

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .kernel import (
    REGIME_SUPERCRITICAL,
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
from .mp import StieltjesCurve, SupportSet, stieltjes_grid
from .weak_derivative import (
    SignedMeasureCdf,
    SpikeClassification,
    classify_spikes,
    delta_diff,
)

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
SEG_BETWEEN = "between-bulk-linear"
SEG_OUTSIDE = "outside-constant"
SEG_BUMP = "epanechnikov-bump"

SOLVERS = ("diagreg", "collocation")


def check_solver(solver: str) -> None:
    """Reject a solver name that no kernel solve implements."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver '{solver}'; expected one of {', '.join(SOLVERS)}")


@dataclass(frozen=True)
class SpikedModel:
    """Null bulk H with spike distributions under null (G0) and alternative (G1)."""

    H: AtomicMeasure
    G0: AtomicMeasure
    G1: AtomicMeasure
    gamma: float
    h: int = 1
    n: int | None = None

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.h < 1:
            raise ValueError("local parameter h must be at least 1")
        if self.n is not None and self.n < 1:
            raise ValueError("sample size must be positive")

    def resolved_n(self) -> int:
        """Sample size; defaults to (d + h)/gamma when not supplied."""
        if self.n is not None:
            return self.n
        return max(1, round((self.H.n_atoms + self.h) / self.gamma))


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithmic constants; defaults follow the standard parameter table."""

    # changes no number; kept because the benchmark in perfbench/ sets it
    epsilon: float = 5e-6
    c1: float = 1.5
    ridge_coeff: float = 1e-4
    n_sd: float = 3.0
    s_plus_coeff: float = 0.75
    s_minus_coeff: float = 0.99
    points_per_interval: int = 1000
    solver: str = "diagreg"
    collocation_nodes: int = 150
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        check_solver(self.solver)

    def s_plus(self, gamma: float, a_pt: float) -> float:
        return self.s_plus_coeff * (1.0 + math.sqrt(gamma)) * a_pt

    def s_minus(self, a_pt: float) -> float:
        return self.s_minus_coeff * a_pt


@dataclass
class LssFunction:
    """Pointwise test function with piecewise-linear interpolation.

    Constant beyond the outermost grid points on each side; ``segments``
    labels every grid point with the construction it came from.  The
    derivative on the support grid is kept when the function came from
    the integral-equation route.
    """

    grid: np.ndarray
    values: np.ndarray
    segments: list[str]
    normalization: float | None = None
    derivative: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values,
                         left=self.values[0], right=self.values[-1])

    def normalized(self) -> "LssFunction":
        """Copy anchored to zero at the left and scaled to max-abs one."""
        vals = self.values - self.values[0]
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0:
            scale = 1.0
        return LssFunction(
            grid=self.grid.copy(),
            values=vals / scale,
            segments=list(self.segments),
            normalization=scale,
            derivative=None if self.derivative is None else self.derivative / scale,
        )

    def to_rows(self):
        for i in range(self.grid.size):
            yield (self.grid[i], self.values[i], self.segments[i])


def epanechnikov(x: np.ndarray) -> np.ndarray:
    """Bump shape max(0, 1 - x^2)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, 1.0 - x**2)


def integrate_derivative(curve: StieltjesCurve, g: np.ndarray) -> LssFunction:
    """Antiderivative of g on the support, extended linearly between bulks
    and as a constant outside."""
    grid = curve.grid
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(grid))])
    a, b = curve.support.enclosing_interval
    xs = [a]
    ys = [phi[0]]
    labels = [SEG_OUTSIDE]
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        if j > 0:
            # support edges bounding the gap, values on the connecting line
            prev_hi = curve.support.intervals[j - 1][1]
            this_lo = curve.support.intervals[j][0]
            x0, y0 = xs[-1], ys[-1]
            x1, y1 = grid[sl.start], phi[sl.start]
            for xg in (prev_hi, this_lo):
                yg = y0 + (y1 - y0) * (xg - x0) / (x1 - x0)
                xs.append(xg)
                ys.append(yg)
                labels.append(SEG_BETWEEN)
        xs.extend(grid[sl].tolist())
        ys.extend(phi[sl].tolist())
        labels.extend([SEG_SUPPORT] * (sl.stop - sl.start))
    xs.append(b)
    ys.append(ys[-1])
    labels.append(SEG_OUTSIDE)
    return LssFunction(
        grid=np.array(xs),
        values=np.array(ys),
        segments=labels,
        derivative=np.asarray(g, dtype=float).copy(),
    )


def surrogate_spike(model: SpikedModel, classification: SpikeClassification,
                    config: AlgoConfig, support: SupportSet) -> float | None:
    """Location s_minus of the subcritical surrogate that replaces G1, or None.

    The rule fires for a single supercritical spike (h = 1) whose sample
    location lies above the top edge and whose location is below s_plus:
    just past the uppermost threshold the n^-1/2 bump width badly
    overstates the actual fluctuation of the escaping eigenvalue.  A
    spike escaping below the bulk keeps its bump.
    """
    if model.h != 1 or model.G1.n_atoms != 1 or not classification.any_supercritical:
        return None
    a_pt = support.upper_pt_threshold
    rec = classification.supercritical[0]
    if rec.psi > support.intervals[-1][1] and rec.location < config.s_plus(model.gamma, a_pt):
        return config.s_minus(a_pt)
    return None


def lss_above_pt(model: SpikedModel, classification: SpikeClassification,
                 config: AlgoConfig, curve: StieltjesCurve) -> LssFunction:
    """Bump statistic for spikes whose sample location escapes the bulk.

    Each escaped spike gets an Epanechnikov bump of half-width
    n_sd * n^-1/2 * sd centered at its sample location; spikes beyond the
    outermost bulk edge continue as the constant one away from the bulk.
    """
    sup = classification.supercritical
    if not sup:
        raise ValueError("no supercritical spike; below-transition route applies")
    n = model.resolved_n()
    support = curve.support
    s_min = support.intervals[0][0]
    s_max = support.intervals[-1][1]
    a, b = support.enclosing_interval

    bump_specs = []
    for rec in sup:
        w = config.n_sd * rec.asy_sd / math.sqrt(n)
        bump_specs.append((rec.psi, w, rec.psi > s_max, rec.psi < s_min))

    xs = list(curve.grid)
    for psi, w, _, _ in bump_specs:
        xs.extend(np.linspace(psi - w, psi + w, 201).tolist())
    lo = min(a, min(psi - 2 * w for psi, w, _, _ in bump_specs))
    hi = max(b, max(psi + 2 * w for psi, w, _, _ in bump_specs))
    xs.extend([lo, hi])
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
    labels = []
    for i, x in enumerate(grid):
        if bump_mask[i]:
            labels.append(SEG_BUMP)
        elif support.contains(x):
            labels.append(SEG_SUPPORT)
        else:
            labels.append(SEG_OUTSIDE)
    return LssFunction(grid=grid, values=values, segments=labels)


def optimal_lss(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Best LSS for the model, with its predicted mean shift, sd and power.

    Below the transition the derivative solves the regularized first-kind
    system and is integrated; above it the bump construction applies, the
    regime is flagged and the asymptotic power is one.  A single slightly
    supercritical spike (h = 1, below s_plus) is replaced by the
    subcritical surrogate s_minus to avoid the finite-sample power drop
    right above the threshold.
    """
    return _build(model, config or AlgoConfig(), curve, _configured_solve)


def optimal_ls3(model: SpikedModel, config: AlgoConfig | None = None,
                curve: StieltjesCurve | None = None) -> tuple[LssFunction, EfficacyReport]:
    """Scale-invariant variant: the derivative is constrained orthogonal to
    D(x) = x * density(x), removing sensitivity to an unknown overall scale.

    Works at the unit-mean normalization; models with a different
    population mean are rescaled internally and the returned function is
    meant to be applied to standardized eigenvalues.  The regime and the
    surrogate rule are those of ``optimal_lss``; the constrained system
    has a diagreg solve only.
    """
    config = config or AlgoConfig()
    if config.solver != "diagreg":
        raise ValueError(f"the scale-invariant statistic has no '{config.solver}' solve; "
                         "use solver 'diagreg'")
    m1 = model.H.moment(1)
    if abs(m1 - 1.0) > 1e-12:
        scale = 1.0 / m1

        def scaled(mu: AtomicMeasure) -> AtomicMeasure:
            return AtomicMeasure(mu.atoms * scale, mu.weights)

        model = replace(model, H=scaled(model.H), G0=scaled(model.G0), G1=scaled(model.G1))
        curve = None
    return _build(model, config, curve, _projected_solve)


def _build(model: SpikedModel, config: AlgoConfig, curve: StieltjesCurve | None,
           solve: Callable[[StieltjesCurve, KernelMatrix, SignedMeasureCdf, AlgoConfig],
                           np.ndarray]) -> tuple[LssFunction, EfficacyReport]:
    """The statistic path shared by ``optimal_lss`` and ``optimal_ls3``.

    Builds the curve when none is given, refuses one with dropped grid
    points, rejects a supercritical G0 and decides the regime from G1.
    Below the transition, and for the surrogate that replaces a spike just
    above it, ``solve`` returns the derivative from the kernel system and
    it is integrated; any other supercritical G1 gets the bump
    construction.
    """
    if curve is None:
        curve = stieltjes_grid(model.H, model.gamma,
                               points_per_interval=config.points_per_interval)
    curve.require_complete()
    if classify_spikes(model.H, model.gamma, model.G0, curve.support).any_supercritical:
        raise ValueError("null spike distribution G0 must be fully subcritical")
    cls1 = classify_spikes(model.H, model.gamma, model.G1, curve.support)
    if cls1.any_supercritical:
        report = efficacy_report(math.inf, 0.0, config.alpha, regime=REGIME_SUPERCRITICAL)
        s_sur = surrogate_spike(model, cls1, config, curve.support)
        if s_sur is None:
            return lss_above_pt(model, cls1, config, curve), report
        model = replace(model, G1=AtomicMeasure.point_mass(s_sur))

    delta = delta_diff(model.H, model.G0, model.G1, model.gamma, curve)
    K = assemble_diagreg(curve, c1=config.c1, ridge_coeff=config.ridge_coeff)
    g = solve(curve, K, delta, config)
    if not cls1.any_supercritical:
        report = derivative_efficacy(K, g, delta, model.h, config.alpha)
    return integrate_derivative(curve, g), report


def _configured_solve(curve: StieltjesCurve, K: KernelMatrix, delta: SignedMeasureCdf,
                      config: AlgoConfig) -> np.ndarray:
    if config.solver == "collocation":
        return solve_collocation(curve, delta, coarse_grid_size=config.collocation_nodes,
                                 c1=config.c1).values
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
