"""Covariance kernel of linear spectral statistics and the first-kind solve.

The asymptotic covariance of two statistics with derivatives g, j is the
double integral of g(x) k(x,y) j(y) against the kernel

    k(x,y) = (1/2 pi^2) * log(1 + 4 Im(v(x)) Im(v(y)) / |v(x)-v(y)|^2),

which vanishes off the support and is log-singular on the diagonal.  The
best test function solves the ill-posed equation K(phi') = -Delta; two
numerical routes are provided, a fast diagonally regularized pointwise
discretization and a hat-function collocation scheme on a coarser grid.

The pointwise matrix is assembled by evaluating its upper triangle and
mirroring it.  Its solve factors the ridged matrix by a blocked Cholesky in
the matrix's own lower triangle and mirrors the untouched upper triangle
back afterwards, so a solve holds one N x N array (8 MB at N = 1000).  On a
split support the diagonal at each interval start is taken across the gap
(ROADMAP known defect "The diagonal taken across a support gap"); the
solve factors the matrix with those entries taken from inside the interval
and corrects for them by a rank-m Woodbury term, m the number of starts
(none on one interval).  Only a matrix whose factorization fails takes an
LU solve and, with it, LAPACK's copy of the matrix.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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

# rows per block when the kernel matrix is built, and the block size of
# its Cholesky factor: the block temporaries stay at 64 x N and 128 x 64,
# so the matrix itself is the only N x N array
_ROWS = 64
_PANEL_ROWS = 128

_C1 = 1.5  # the diagonal is _C1 times a neighbouring kernel value
_RIDGE_COEFF = 1e-4  # the ridge is _RIDGE_COEFF * tr / N
_COLLOCATION_NODES = 150  # collocation nodes per support interval, at most
_MAX_CONDITION = 1e13  # a collocation matrix above this condition number is refused


@dataclass
class KernelMatrix:
    """Symmetric discretization of the kernel operator on the support grid.

    Trapezoid cell weights are folded symmetrically, entries =
    sqrt(w_i) k(x_i,x_j) sqrt(w_j), so linear systems remain in function
    values while the matrix stays exactly symmetric.  The diagonal uses
    the neighbor rule _C1 * k(x_i, x_{i-1}), which at the first point of
    every support interval but the first reads a point across the gap
    (ROADMAP known defect "The diagonal taken across a support gap"), and
    makes the matrix of a split support indefinite; ``starts`` indexes
    those points, one per interval after the first (empty for a matrix
    built without a curve).  ``ridge`` is the Tikhonov parameter
    _RIDGE_COEFF * tr / I derived from the assembled matrix.
    The upper triangle is evaluated and mirrored into the lower one.  No
    ridged copy or factor is kept: ``solve_regularized`` works in
    ``entries`` and restores it, so every solve holds ``entries`` alone,
    except where the start-corrected matrix fails to factor and the solve
    takes LU, with LAPACK's copy of it.
    """

    grid: np.ndarray
    entries: np.ndarray
    weights: np.ndarray
    ridge: float
    starts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def size(self) -> int:
        return self.grid.size

    def quadratic_form(self, g: np.ndarray) -> float:
        u = np.sqrt(self.weights) * g
        return float(u @ self.entries @ u)

    def inner(self, g: np.ndarray, j: np.ndarray) -> float:
        return float(np.sum(self.weights * g * j))


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


def _weighted_kernel_matrix(curve: StieltjesCurve, sq: np.ndarray) -> np.ndarray:
    """sqrt(w_i) k(x_i, x_j) sqrt(w_j), diagonal by the neighbor rule, built in row blocks.

    Each block of rows is evaluated only against the columns from its first
    row on, and its transpose fills the same columns below the block:
    k(x_i, x_j) is symmetric bit for bit, so the matrix equals a full
    evaluation.  A block's first row takes its left neighbor k(x_r0, x_{r0-1})
    from the previous block's last row, read before weighting.
    """
    n = curve.grid.size
    K = np.empty((n, n))
    left = 0.0
    for r0 in range(0, n, _ROWS):
        r1 = min(r0 + _ROWS, n)
        rows = np.arange(r1 - r0)
        block = _kernel_rows(curve.v[r0:], rows)
        nbr = block[rows, rows - 1]  # row 0 reads the last column here; replaced next
        nbr[0] = left if r0 else block[0, 1]
        if r1 < n:
            left = block[-1, rows.size]
        block[rows, rows] = _C1 * nbr
        block *= np.outer(sq[r0:r1], sq[r0:])
        K[r0:r1, r0:] = block
        K[r1:, r0:r1] = block[:, rows.size:].T
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


def assemble_diagreg(curve: StieltjesCurve) -> KernelMatrix:
    """Assemble the weighted kernel matrix with neighbor-diagonal rule and ridge."""
    w = _trapezoid_weights(curve)
    sq = np.sqrt(w)
    entries = _weighted_kernel_matrix(curve, sq)
    ridge = _RIDGE_COEFF * float(np.trace(entries)) / entries.shape[0]
    return KernelMatrix(
        grid=curve.grid,
        entries=entries,
        weights=w,
        ridge=ridge,
        starts=np.flatnonzero(np.diff(curve.interval_id)) + 1,
    )


@dataclass
class SolvedDerivative:
    """Derivative g of a test function on the support grid, with solve diagnostics."""

    grid: np.ndarray
    values: np.ndarray
    residual_norm: float
    condition_number: float | None = None


def _factor(A: np.ndarray) -> None:
    """Blocked Cholesky A = L L^T in place, in A's lower triangle.

    Left-looking by blocks of _ROWS columns: the block column of L at
    columns j0:j1 is formed from A's entries there, not yet overwritten,
    and the columns of L left of it, so A's strictly upper triangle is
    never written.  An off-diagonal block holds L's block; a diagonal
    block's lower triangle holds the inverse of L's block there, which is
    all that the substitutions need.  The panel below a diagonal block is
    updated _PANEL_ROWS rows at a time, so no temporary exceeds
    _PANEL_ROWS x _ROWS.  Raises LinAlgError when A is not positive
    definite.
    """
    n = A.shape[0]
    for j0 in range(0, n, _ROWS):
        j1 = min(j0 + _ROWS, n)
        left = A[j0:j1, :j0]
        diag = left @ left.T
        np.subtract(A[j0:j1, j0:j1], diag, out=diag)
        inv = np.linalg.inv(np.linalg.cholesky(diag))
        np.copyto(A[j0:j1, j0:j1], inv, where=np.tri(j1 - j0, dtype=bool))
        for i0 in range(j1, n, _PANEL_ROWS):
            i1 = min(i0 + _PANEL_ROWS, n)
            panel = A[i0:i1, :j0] @ left.T
            np.subtract(A[i0:i1, j0:j1], panel, out=panel)
            A[i0:i1, j0:j1] = panel @ inv.T


def _substitute(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T u = rhs by blocks, with L as ``_factor`` left it in A."""
    n = A.shape[0]
    u = np.array(rhs, dtype=float)
    starts = range(0, n, _ROWS)
    for j0 in starts:
        j1 = min(j0 + _ROWS, n)
        u[j0:j1] -= A[j0:j1, :j0] @ u[:j0]
        u[j0:j1] = np.tril(A[j0:j1, j0:j1]) @ u[j0:j1]
    for j0 in reversed(starts):
        j1 = min(j0 + _ROWS, n)
        u[j0:j1] -= A[j1:, j0:j1].T @ u[j1:]
        u[j0:j1] = np.tril(A[j0:j1, j0:j1]).T @ u[j0:j1]
    return u


def _mirror(A: np.ndarray) -> None:
    """Copy A's strictly upper triangle onto its strictly lower one, by _ROWS x _ROWS tiles."""
    n = A.shape[0]
    for j0 in range(0, n, _ROWS):
        j1 = min(j0 + _ROWS, n)
        tile = A[j0:j1, j0:j1]
        np.copyto(tile, tile.T, where=np.tri(j1 - j0, k=-1, dtype=bool))
        for i0 in range(j1, n, _ROWS):
            A[i0:i0 + _ROWS, j0:j1] = A[j0:j1, i0:i0 + _ROWS].T


def solve_regularized(K: KernelMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (K + r I) u = rhs for one right-hand side or a column of them.

    Write K + r I = P - U diag(c) U^T, with U the unit columns at the
    interval starts s (``K.starts``) and P equal to K + r I except that
    each start's diagonal takes the in-interval right neighbour, as row 0
    does: P_ss = _C1 K_s,s+1 sqrt(w_s / w_s+1) + r, and c = P_ss - (K_ss + r).
    P is factored by a blocked Cholesky in ``K.entries``' own lower
    triangle (``_factor``), one blocked substitution gives y = P^-1 rhs and
    Z = P^-1 U, and the m x m system (I - Z_s diag(c)) a = y_s gives
    u = y + Z diag(c) a; no step divides by c.  With no starts P is K + r I,
    Z is empty and u = y.  The exactly symmetric upper triangle is left
    untouched, and it and the saved diagonal are put back afterwards, so K
    comes back bit for bit, also when anything raises.  A solve holds one
    N x N array, K itself, except where P is not positive definite: its
    factorization fails, and the solve is an LU solve of K + r I with the
    ridge added to K's own diagonal, which holds LAPACK's copy of K as well.
    A solve must not run concurrently with another use of the same K.
    """
    A = K.entries
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[:1] != (n,):
        raise ValueError(f"a right-hand side of shape {rhs.shape} does not fit a {n} x {n} kernel")
    saved = A.diagonal().copy()
    ridged = saved + K.ridge
    s = K.starts
    corrected = ridged.copy()
    corrected[s] = _C1 * A[s, s + 1] * np.sqrt(K.weights[s] / K.weights[s + 1]) + K.ridge
    try:
        np.fill_diagonal(A, corrected)
        try:
            _factor(A)
        except np.linalg.LinAlgError:  # P is not positive definite: LU on K + r I
            _mirror(A)
            np.fill_diagonal(A, ridged)
            return np.linalg.solve(A, rhs)
        return _woodbury(A, rhs, s, corrected[s] - ridged[s])
    finally:
        _mirror(A)
        np.fill_diagonal(A, saved)


def _woodbury(A: np.ndarray, rhs: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve (P - U diag(c) U^T) u = rhs, U the unit columns at s, with P factored in A."""
    n, m = A.shape[0], s.size
    cols = rhs.reshape(n, -1)
    unit = np.zeros((n, m))
    unit[s, np.arange(m)] = 1.0
    yz = _substitute(A, np.hstack([cols, unit]))
    y, Z = yz[:, :cols.shape[1]], yz[:, cols.shape[1]:]
    a = np.linalg.solve(np.eye(m) - Z[s] * c, y[s])
    return (y + Z @ (c[:, None] * a)).reshape(rhs.shape)


def solve_diagreg(K: KernelMatrix, delta: SignedMeasureCdf) -> SolvedDerivative:
    """Solve (K + r I) g = -Delta in function values."""
    if not np.array_equal(delta.grid, K.grid):
        raise ValueError("delta is not on the kernel grid")
    sq = np.sqrt(K.weights)
    rhs = -sq * delta.cdf
    u = solve_regularized(K, rhs)
    resid = float(np.linalg.norm(K.entries @ u + K.ridge * u - rhs))
    return SolvedDerivative(grid=K.grid, values=u / sq, residual_norm=resid)


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


def solve_collocation(curve: StieltjesCurve, delta: SignedMeasureCdf) -> SolvedDerivative:
    """Collocation solve with a hat-function basis on a coarse sub-grid.

    The curve's own grid serves as the dense quadrature grid; the
    collocation nodes are an every-k-th subsample of it, so the kernel
    singularity always lands on a quadrature node and is replaced by
    _C1 times the largest regular value in its row.
    """
    if not np.array_equal(delta.grid, curve.grid):
        raise ValueError("delta is not on the curve grid")
    dense_w = _trapezoid_weights(curve)
    coarse_idx: list[np.ndarray] = []
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        n_j = sl.stop - sl.start
        take = min(_COLLOCATION_NODES, n_j)
        idx = sl.start + np.unique(np.round(np.linspace(0, n_j - 1, take)).astype(int))
        coarse_idx.append(idx)
    nodes = np.concatenate(coarse_idx)

    # kernel rows between collocation nodes and the dense grid
    rows = _kernel_rows(curve.v, nodes)
    rows[~np.isfinite(rows)] = np.nan
    rows = np.where(np.isnan(rows), _C1 * np.nanmax(rows, axis=1, keepdims=True), rows)

    # hat-function basis on the coarse nodes, one column per node.  Each
    # interval's first and last grid points are nodes, so no cell spans a
    # gap and the basis is block diagonal by interval
    hats = _hats(curve.grid, curve.grid[nodes])
    A = (rows * dense_w) @ hats

    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > _MAX_CONDITION:
        raise RuntimeError(f"collocation matrix is rank deficient (condition number {cond:.3e})")
    coeffs = np.linalg.solve(A, -delta.cdf[nodes])
    resid = float(np.linalg.norm(A @ coeffs - (-delta.cdf[nodes])))

    return SolvedDerivative(grid=curve.grid, values=hats @ coeffs, residual_norm=resid,
                            condition_number=cond)


# ----------------------------------------------------------------------
# moments, efficacy and predicted power
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EfficacyReport:
    """Mean shift, standard deviation, efficacy and asymptotic power of an LSS.

    Full power is an infinite efficacy, and the regime is read from it.
    """

    mu: float
    sigma: float
    efficacy: float
    power: float
    alpha: float

    @property
    def regime(self) -> str:
        return REGIME_SUPERCRITICAL if math.isinf(self.efficacy) else REGIME_SUBCRITICAL

    def to_dict(self) -> dict:
        return {**asdict(self), "regime": self.regime}


def power_from_efficacy(theta: float, alpha: float) -> float:
    """Asymptotic power Phi(z_alpha + theta), z_alpha the alpha quantile; 1 at theta = inf."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return _STD_NORMAL.cdf(_STD_NORMAL.inv_cdf(alpha) + abs(theta))


def efficacy_report(mu: float, sigma2: float, alpha: float) -> EfficacyReport:
    sigma2 = max(sigma2, 0.0)  # guard tiny negative round-off in the quadratic form
    sigma = math.sqrt(sigma2)
    if sigma == 0.0:
        theta = 0.0 if mu == 0.0 else math.inf
    else:
        theta = mu / sigma
    return EfficacyReport(mu=mu, sigma=sigma, efficacy=theta,
                          power=power_from_efficacy(theta, alpha), alpha=alpha)


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
    values = phi(curve.grid)
    g = np.empty_like(values)
    for j in np.unique(curve.interval_id):
        sl = curve.interval_slice(j)
        g[sl] = np.gradient(values[sl], curve.grid[sl])
    return derivative_efficacy(K, g, delta, h, alpha)
