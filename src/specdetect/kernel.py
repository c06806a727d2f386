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
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from scipy.linalg import solve

from .mp import StieltjesCurve
from .weak_derivative import SignedMeasureCdf

__all__ = [
    "KernelMatrix",
    "EfficacyReport",
    "SolvedDerivative",
    "kernel_eval",
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


def _kernel_from_v(vx: complex, vy: complex) -> float:
    num = 4.0 * vx.imag * vy.imag
    den = abs(vx - vy) ** 2
    if den == 0.0:
        return math.inf
    return math.log1p(num / den) / (2.0 * math.pi**2)


def kernel_eval(curve: StieltjesCurve, x: float, y: float) -> float:
    """Kernel value at (x, y) using nearest-grid lookups of v.

    Returns 0 when either argument is outside the support; raises on the
    diagonal, where the caller must apply a diagonal rule.
    """
    if x == y:
        raise ValueError("kernel is singular on the diagonal; use a diagonal rule")
    if not curve.support.contains(x) or not curve.support.contains(y):
        return 0.0
    vx = curve.v[curve.nearest_index(x)]
    vy = curve.v[curve.nearest_index(y)]
    return _kernel_from_v(vx, vy)


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
    diag_rule: dict = field(default_factory=dict)

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

    def to_rows(self):
        for i in range(self.size):
            yield self.entries[i, :].tolist()

    def to_csv(self, path) -> None:
        """Dump the full matrix for inspection, one grid row per line."""
        from .io import write_csv

        write_csv(path, [f"x={format(x, '.8g')}" for x in self.grid], self.to_rows())


def _weighted_kernel_matrix(curve: StieltjesCurve, c1: float, sq: np.ndarray) -> np.ndarray:
    """sqrt(w_i) k(x_i, x_j) sqrt(w_j), diagonal by the neighbor rule, built in row blocks."""
    re, im = curve.v.real, curve.v.imag
    n = re.size
    K = np.empty((n, n))
    for r0 in range(0, n, _ROWS):
        rows = np.arange(r0, min(r0 + _ROWS, n))
        # |v_i - v_j|^2 from the real and imaginary differences
        diff2 = np.subtract.outer(re[rows], re)
        diff2 *= diff2
        block = np.subtract.outer(im[rows], im)
        block *= block
        diff2 += block
        diff2[rows - r0, rows] = 1.0
        np.multiply.outer(4.0 * im[rows], im, out=block)
        block /= diff2
        np.log1p(block, out=block)
        block /= 2.0 * math.pi**2
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
        diag_rule={"c1": c1, "rule": "neighbor", "ridge_coeff": ridge_coeff},
    )


@dataclass
class SolvedDerivative:
    """Derivative g of a test function on the support grid, with solve diagnostics."""

    grid: np.ndarray
    values: np.ndarray
    residual_norm: float
    method: str
    condition_number: float | None = None


def solve_regularized(K: KernelMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (K + r I) u = rhs for one right-hand side or a column of them.

    K is symmetric but may be indefinite (a split support gives negative
    eigenvalues below the ridge), so this uses the symmetric indefinite
    factorization, not Cholesky.
    """
    return solve(K.regularized(), rhs, assume_a="sym", overwrite_a=True)


def solve_diagreg(K: KernelMatrix, delta: SignedMeasureCdf) -> SolvedDerivative:
    """Solve (K + r I) g = -Delta in function values."""
    if delta.grid.shape != K.grid.shape or not np.allclose(delta.grid, K.grid):
        raise ValueError("delta is not on the kernel grid")
    sq = np.sqrt(K.weights)
    rhs = -sq * delta.cdf
    u = solve_regularized(K, rhs)
    resid = float(np.linalg.norm(K.entries @ u + K.ridge * u - rhs))
    return SolvedDerivative(grid=K.grid.copy(), values=u / sq, residual_norm=resid,
                            method="diagreg")


def solve_collocation(curve: StieltjesCurve, delta: SignedMeasureCdf,
                      coarse_grid_size: int = 150, epsilon1: float = 1e-8,
                      c1: float = 1.5, max_condition: float = 1e13) -> SolvedDerivative:
    """Collocation solve with a hat-function basis on a coarse sub-grid.

    The curve's own grid (already resolved to accuracy ``epsilon1`` by the
    imaginary-offset limit) serves as the dense quadrature grid; the
    collocation nodes are an every-k-th subsample of it, so the kernel
    singularity always lands on a quadrature node and is replaced by
    c1 times the largest regular value in its row.
    """
    if delta.grid.shape != curve.grid.shape or not np.allclose(delta.grid, curve.grid):
        raise ValueError("delta is not on the curve grid")
    resolved = max(1e-8, 1e-2 * curve.epsilon)
    if resolved > epsilon1 * (1.0 + 1e-12):
        raise ValueError(
            f"curve resolved to {resolved:.1e} but collocation accuracy {epsilon1:.1e} "
            "was requested; rebuild the curve with a smaller epsilon"
        )
    dense_w = _trapezoid_weights(curve)
    coarse_idx: list[np.ndarray] = []
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        n_j = sl.stop - sl.start
        take = min(coarse_grid_size, n_j)
        idx = sl.start + np.unique(np.round(np.linspace(0, n_j - 1, take)).astype(int))
        coarse_idx.append(idx)
    nodes = np.concatenate(coarse_idx)
    I = nodes.size

    v = curve.v
    im = v.imag
    # kernel rows between collocation nodes and the dense grid
    diff2 = np.abs(v[nodes, None] - v[None, :]) ** 2
    rows = np.empty_like(diff2)
    finite = diff2 > 0
    rows[finite] = np.log1p(4.0 * np.outer(im[nodes], im)[finite] / diff2[finite]) / (2.0 * math.pi**2)
    rows[~finite] = np.nan
    for r in range(I):
        bad = ~np.isfinite(rows[r])
        if bad.any():
            rows[r, bad] = c1 * np.nanmax(rows[r])

    # hat-function basis per interval on the coarse nodes
    A = np.zeros((I, I))
    col = 0
    for j, idx in enumerate(coarse_idx):
        sl = curve.interval_slice(j)
        xs_dense = curve.grid[sl]
        xs_nodes = curve.grid[idx]
        n_nodes = idx.size
        hats = np.zeros((xs_dense.size, n_nodes))
        for i in range(n_nodes):
            e = np.zeros(n_nodes)
            e[i] = 1.0
            hats[:, i] = np.interp(xs_dense, xs_nodes, e)
        contrib = (rows[:, sl] * dense_w[sl][None, :]) @ hats
        A[:, col:col + n_nodes] = contrib
        col += n_nodes

    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > max_condition:
        raise RuntimeError(f"collocation matrix is rank deficient (condition number {cond:.3e})")
    coeffs = np.linalg.solve(A, -delta.cdf[nodes])
    resid = float(np.linalg.norm(A @ coeffs - (-delta.cdf[nodes])))

    g = np.zeros_like(curve.grid)
    col = 0
    for j, idx in enumerate(coarse_idx):
        sl = curve.interval_slice(j)
        n_nodes = idx.size
        g[sl] = np.interp(curve.grid[sl], curve.grid[idx], coeffs[col:col + n_nodes])
        col += n_nodes
    return SolvedDerivative(grid=curve.grid.copy(), values=g, residual_norm=resid,
                            method="collocation", condition_number=cond)


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
        return {
            "mu": self.mu,
            "sigma": self.sigma,
            "efficacy": self.efficacy,
            "power": self.power,
            "alpha": self.alpha,
            "regime": self.regime,
        }


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


def finite_difference_derivative(grid: np.ndarray, values: np.ndarray,
                                 interval_id: np.ndarray) -> np.ndarray:
    """Per-interval finite differences: central inside, one-sided at the ends."""
    out = np.empty_like(values)
    for j in np.unique(interval_id):
        idx = np.flatnonzero(interval_id == j)
        x = grid[idx]
        f = values[idx]
        d = np.gradient(f, x)
        out[idx] = d
    return out


def lss_moments(curve: StieltjesCurve, K: KernelMatrix, phi, delta: SignedMeasureCdf,
                h: int, alpha: float = 0.05) -> EfficacyReport:
    """Mean shift and variance of the statistic built from phi.

    mu = -h * integral phi'(x) Delta(x) dx and sigma^2 the kernel
    quadratic form in phi', both over the support grid; phi may be an
    LssFunction or any callable evaluable on the grid.
    """
    values = phi(curve.grid) if callable(phi) else np.asarray(phi, dtype=float)
    g = finite_difference_derivative(curve.grid, values, curve.interval_id)
    mu = -h * K.inner(g, delta.cdf)
    sigma2 = K.quadratic_form(g)
    return efficacy_report(mu, sigma2, alpha)
