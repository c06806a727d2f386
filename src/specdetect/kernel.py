"""Covariance kernel of linear spectral statistics and the first-kind solve.

The asymptotic covariance of two statistics with derivatives g, j is the
double integral of g(x) k(x,y) j(y) against the kernel

    k(x,y) = (1/2 pi^2) * log(1 + 4 Im(v(x)) Im(v(y)) / |v(x)-v(y)|^2),

which vanishes off the support and is log-singular on the diagonal.  The
best test function solves the ill-posed equation K(phi') = -Delta; two
numerical routes are provided, a fast diagonally regularized pointwise
discretization and a hat-function collocation scheme on a coarser grid.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .mp import StieltjesCurve
from .weak_derivative import SignedMeasureCdf

__all__ = [
    "KernelMatrix",
    "EfficacyReport",
    "SolvedDerivative",
    "assemble_diagreg",
    "solve_diagreg",
    "solve_collocation",
    "lss_moments",
]

REGIME_SUBCRITICAL = "subcritical-solvable"
REGIME_SUPERCRITICAL = "supercritical-full-power"

# the standard library's normal law: scipy.stats would cost most of the
# package's import time for these two calls
_STD_NORMAL = NormalDist()

# rows per block when the kernel matrix is built: the block
# temporaries stay at 64 x N, so the matrix itself is the only N x N array
_ROWS = 64


@dataclass
class KernelMatrix:
    """Symmetric discretization of the kernel operator on the support grid.

    Trapezoid cell weights are folded symmetrically, entries =
    sqrt(w_i) k(x_i,x_j) sqrt(w_j), so linear systems remain in function
    values while the matrix stays exactly symmetric.  The diagonal uses
    the neighbor rule c1 * k(x_i, x_{i-1}); ``ridge`` is the Tikhonov
    parameter 1e-4 * tr / I derived from the assembled matrix.
    """

    grid: np.ndarray
    entries: np.ndarray
    weights: np.ndarray
    ridge: float

    @property
    def size(self) -> int:
        return self.grid.size

    def quadratic_form(self, g: np.ndarray) -> float:
        u = np.sqrt(self.weights) * g
        return float(u @ self.entries @ u)

    def inner(self, g: np.ndarray, j: np.ndarray) -> float:
        return float(np.sum(self.weights * g * j))

    def regularized(self) -> np.ndarray:
        """Copy of the entries with the ridge added on the diagonal."""
        A = self.entries.copy()
        A[np.diag_indices_from(A)] += self.ridge
        return A


def _kernel_rows(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """k(x_i, x_j) for each i in ``rows`` and every grid point j.

    |v_i - v_j|^2 is formed from the real and imaginary differences; an
    entry with v_i = v_j (the diagonal) is left non-finite for the caller's
    diagonal rule.
    """
    re, im = v.real, v.imag
    diff2 = np.subtract.outer(re[rows], re)
    diff2 *= diff2
    block = np.subtract.outer(im[rows], im)
    block *= block
    diff2 += block
    np.multiply.outer(4.0 * im[rows], im, out=block)
    with np.errstate(divide="ignore", invalid="ignore"):
        block /= diff2
    np.log1p(block, out=block)
    block /= 2.0 * math.pi**2
    return block


def _weighted_kernel_matrix(curve: StieltjesCurve, c1: float, sq: np.ndarray) -> np.ndarray:
    """sqrt(w_i) k(x_i, x_j) sqrt(w_j), diagonal by the neighbor rule, built in row blocks."""
    n = curve.grid.size
    K = np.empty((n, n))
    for r0 in range(0, n, _ROWS):
        rows = np.arange(r0, min(r0 + _ROWS, n))
        block = _kernel_rows(curve.v, rows)
        block[rows - r0, rows] = c1 * block[rows - r0, np.where(rows == 0, 1, rows - 1)]
        block *= np.outer(sq[rows], sq)
        K[rows] = block
    return K


def _trapezoid_weights(curve: StieltjesCurve) -> np.ndarray:
    w = np.empty(curve.grid.size)
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        xs = curve.grid[sl]
        wj = np.zeros(xs.size)
        dx = np.diff(xs)
        wj[:-1] += 0.5 * dx
        wj[1:] += 0.5 * dx
        # half cells at the interval edges belong to the edge grid points
        wj[0] += xs[0] - curve.support.intervals[j][0]
        wj[-1] += curve.support.intervals[j][1] - xs[-1]
        w[sl] = wj
    return w


def assemble_diagreg(curve: StieltjesCurve, c1: float = 1.5,
                     ridge_coeff: float = 1e-4) -> KernelMatrix:
    """Assemble the weighted kernel matrix with neighbor-diagonal rule and ridge."""
    w = _trapezoid_weights(curve)
    sq = np.sqrt(w)
    entries = _weighted_kernel_matrix(curve, c1, sq)
    ridge = ridge_coeff * float(np.trace(entries)) / entries.shape[0]
    return KernelMatrix(
        grid=curve.grid.copy(),
        entries=entries,
        weights=w,
        ridge=ridge,
    )


@dataclass
class SolvedDerivative:
    """Derivative g of a test function on the support grid, with solve diagnostics."""

    grid: np.ndarray
    values: np.ndarray
    residual_norm: float
    condition_number: float | None = None


def solve_regularized(K: KernelMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (K + r I) u = rhs for one right-hand side or a column of them.

    K is symmetric but may be indefinite (a split support gives negative
    eigenvalues below the ridge), so this is an LU solve, not Cholesky;
    it works on the one N x N ridged copy and leaves K unchanged.
    """
    return np.linalg.solve(K.regularized(), rhs)


def solve_diagreg(K: KernelMatrix, delta: SignedMeasureCdf) -> SolvedDerivative:
    """Solve (K + r I) g = -Delta in function values."""
    if delta.grid.shape != K.grid.shape or not np.allclose(delta.grid, K.grid):
        raise ValueError("delta is not on the kernel grid")
    sq = np.sqrt(K.weights)
    rhs = -sq * delta.cdf
    u = solve_regularized(K, rhs)
    resid = float(np.linalg.norm(K.entries @ u + K.ridge * u - rhs))
    return SolvedDerivative(grid=K.grid.copy(), values=u / sq, residual_norm=resid)


def _hats(xs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Hat functions on ``nodes`` at each x, one column per node.

    Each x has weight t = (x - x_k)/(x_{k+1} - x_k) on the right node of
    its cell and 1 - t on the left one, in the arithmetic of np.interp.
    """
    k = np.clip(np.searchsorted(nodes, xs, side="right") - 1, 0, nodes.size - 2)
    t = np.where(xs >= nodes[-1], 1.0, 1.0 / (nodes[k + 1] - nodes[k]) * (xs - nodes[k]))
    hats = np.zeros((xs.size, nodes.size))
    hats[np.arange(xs.size), k] = 1.0 - t
    hats[np.arange(xs.size), k + 1] = t
    return hats


def solve_collocation(curve: StieltjesCurve, delta: SignedMeasureCdf,
                      coarse_grid_size: int = 150, c1: float = 1.5,
                      max_condition: float = 1e13) -> SolvedDerivative:
    """Collocation solve with a hat-function basis on a coarse sub-grid.

    The curve's own grid serves as the dense quadrature grid; the
    collocation nodes are an every-k-th subsample of it, so the kernel
    singularity always lands on a quadrature node and is replaced by
    c1 times the largest regular value in its row.
    """
    if delta.grid.shape != curve.grid.shape or not np.allclose(delta.grid, curve.grid):
        raise ValueError("delta is not on the curve grid")
    dense_w = _trapezoid_weights(curve)
    coarse_idx: list[np.ndarray] = []
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        n_j = sl.stop - sl.start
        take = min(coarse_grid_size, n_j)
        idx = sl.start + np.unique(np.round(np.linspace(0, n_j - 1, take)).astype(int))
        coarse_idx.append(idx)
    nodes = np.concatenate(coarse_idx)

    # kernel rows between collocation nodes and the dense grid
    rows = _kernel_rows(curve.v, nodes)
    rows[~np.isfinite(rows)] = np.nan
    rows = np.where(np.isnan(rows), c1 * np.nanmax(rows, axis=1, keepdims=True), rows)

    # hat-function basis on the coarse nodes, one column per node.  Each
    # interval's first and last grid points are nodes, so no cell spans a
    # gap and the basis is block diagonal by interval
    hats = _hats(curve.grid, curve.grid[nodes])
    A = (rows * dense_w) @ hats

    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > max_condition:
        raise RuntimeError(f"collocation matrix is rank deficient (condition number {cond:.3e})")
    coeffs = np.linalg.solve(A, -delta.cdf[nodes])
    resid = float(np.linalg.norm(A @ coeffs - (-delta.cdf[nodes])))

    return SolvedDerivative(grid=curve.grid.copy(), values=hats @ coeffs, residual_norm=resid,
                            condition_number=cond)


# ----------------------------------------------------------------------
# moments, efficacy and predicted power
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EfficacyReport:
    """Mean shift, standard deviation, efficacy and asymptotic power of an LSS."""

    mu: float
    sigma: float
    efficacy: float
    power: float
    alpha: float
    regime: str = REGIME_SUBCRITICAL

    def to_dict(self) -> dict:
        return asdict(self)


def power_from_efficacy(theta: float, alpha: float) -> float:
    """Asymptotic power Phi(z_alpha + theta), z_alpha the alpha quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if math.isinf(theta):
        return 1.0
    return _STD_NORMAL.cdf(_STD_NORMAL.inv_cdf(alpha) + abs(theta))


def efficacy_report(mu: float, sigma2: float, alpha: float,
                    regime: str = REGIME_SUBCRITICAL) -> EfficacyReport:
    sigma2 = max(sigma2, 0.0)  # guard tiny negative round-off in the quadratic form
    sigma = math.sqrt(sigma2)
    if sigma == 0.0:
        theta = 0.0 if mu == 0.0 else math.inf
    else:
        theta = mu / sigma
    if regime == REGIME_SUPERCRITICAL:
        power = 1.0
        theta = math.inf
    else:
        power = power_from_efficacy(theta, alpha)
    return EfficacyReport(mu=mu, sigma=sigma, efficacy=theta, power=power,
                          alpha=alpha, regime=regime)


def derivative_efficacy(K: KernelMatrix, g: np.ndarray, delta: SignedMeasureCdf, h: int,
                        alpha: float) -> EfficacyReport:
    """Report of the statistic whose derivative on the grid is g.

    mu = -h * integral g(x) Delta(x) dx and sigma^2 the kernel quadratic
    form in g, both over the support grid.
    """
    return efficacy_report(-h * K.inner(g, delta.cdf), K.quadratic_form(g), alpha)


def lss_moments(curve: StieltjesCurve, K: KernelMatrix, phi, delta: SignedMeasureCdf,
                h: int, alpha: float = 0.05) -> EfficacyReport:
    """Mean shift and variance of the statistic built from phi.

    phi' is taken by finite differences on each support interval, central
    inside and one-sided at the ends; phi may be an LssFunction or any
    callable evaluable on the grid.
    """
    values = phi(curve.grid) if callable(phi) else np.asarray(phi, dtype=float)
    g = np.empty_like(values)
    for j in np.unique(curve.interval_id):
        sl = curve.interval_slice(j)
        g[sl] = np.gradient(values[sl], curve.grid[sl])
    return derivative_efficacy(K, g, delta, h, alpha)
