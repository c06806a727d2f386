"""Limiting spectra of large sample covariance matrices with discrete population spectra.

Everything here revolves around the companion Stieltjes transform v(z),
the unique upper-half-plane root of the fixed-point equation

    -1/v = z - gamma * sum_i w_i t_i / (1 + t_i v),

where ``sum_i w_i delta_{t_i}`` is the population spectral measure and
gamma the dimension-to-sample aspect ratio.  The module solves this
equation off and on the real axis, locates the support of the limiting
eigenvalue distribution from the real inverse map, evaluates v on dense
in-support grids, and integrates moments of the limiting distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMeasure

__all__ = [
    "SupportSet",
    "StieltjesCurve",
    "SilversteinError",
    "solve_silverstein",
    "silverstein_residual",
    "derivative_map",
    "support_intervals",
    "stieltjes_grid",
    "esd_moment",
    "esd_expectation",
    "forward_moments",
    "solve_real_outside",
]

# residual targets: Newton aims for machine precision, a grid point is
# reported converged only when it lands below the contract tolerance
_NEWTON_TOL = 1e-13
_CONVERGED_RESID = 1e-8
# element budget of one (points x atoms) block in the atom sums; blocks keep
# the complex temporaries near 1 MB each on bulks with hundreds of atoms
_BLOCK_ELEMENTS = 1 << 16


class SilversteinError(RuntimeError):
    """Fixed-point solve failed to converge or hit a pole/edge."""


def _check_bulk(H: AtomicMeasure) -> None:
    if H.is_zero_mass_at_origin():
        raise ValueError("population spectrum delta_0 is degenerate and not supported")


def _blocks(n: int, H: AtomicMeasure):
    step = max(1, _BLOCK_ELEMENTS // H.n_atoms)
    return (slice(i, i + step) for i in range(0, n, step))


def _sums(H: AtomicMeasure, v: np.ndarray, orders: tuple[int, ...] = (1, 2)) -> list[np.ndarray]:
    """Integrands of the fixed-point equation at each entry of the 1-d array v.

    Order 1 is ``sum w t/(1+tv)``, order 2 is ``sum w t^2/(1+tv)^2``; the
    sums run over (points x atoms) blocks.  Each row is reduced exactly
    as a single point would be, so real v gives bit-identical values.
    """
    numerators = [H.weights * H.atoms**k for k in orders]
    out = [np.empty(v.shape, dtype=np.result_type(v, 1.0)) for _ in orders]
    for sl in _blocks(v.size, H):
        den = 1.0 + np.multiply.outer(v[sl], H.atoms)
        for o, num, k in zip(out, numerators, orders):
            o[sl] = np.sum(num / (den if k == 1 else den**2), axis=1)
    return out


def _residual(H: AtomicMeasure, gamma: float, z, v: np.ndarray) -> np.ndarray:
    return -1.0 / v - z + gamma * _sums(H, v, (1,))[0]


def silverstein_residual(H: AtomicMeasure, gamma: float, z: complex, v: complex) -> complex:
    """Defect of v in the fixed-point equation at z (zero at a solution)."""
    return _residual(H, gamma, z, np.array([v]))[0]


def _derivative(H: AtomicMeasure, gamma: float, v: np.ndarray) -> tuple[np.ndarray, dict]:
    """dv/dz at each entry of v, plus {index: error} where it is undefined."""
    with np.errstate(all="ignore"):
        d = 1.0 / v**2 - gamma * _sums(H, v, (2,))[0]
        vp = 1.0 / d
    near_pole = np.empty(v.size, dtype=bool)
    for sl in _blocks(v.size, H):
        near_pole[sl] = np.any(np.abs(1.0 + np.multiply.outer(v[sl], H.atoms)) < 1e-14, axis=1)
    errors: dict = {}
    for i in np.flatnonzero((v == 0) | near_pole | (np.abs(d) < 1e-14)):
        if v[i] == 0:
            errors[i] = ValueError("derivative map undefined at v = 0")
        elif near_pole[i]:
            errors[i] = ValueError("derivative map evaluated at a pole 1 + t*v = 0")
        else:
            errors[i] = SilversteinError("derivative map denominator vanished (support edge)")
    return vp, errors


def derivative_map(H: AtomicMeasure, gamma: float, v: complex) -> complex:
    """Closed-form dv/dz expressed through v itself.

    Differentiating the fixed-point equation in z gives
    ``v'(z) = [1/v^2 - gamma * sum w t^2/(1+tv)^2]^-1``.  The denominator
    vanishes exactly at support edges, where the derivative blows up.
    """
    vp, errors = _derivative(H, gamma, np.array([complex(v)]))
    if errors:
        raise errors[0]
    return vp[0]


def _newton(H: AtomicMeasure, gamma: float, z: np.ndarray, v0: np.ndarray,
            tol: float = _NEWTON_TOL, max_iter: int = 80) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration on the fixed-point defect for every entry at once.

    Each entry stops on its own once its residual is below ``tol``, its
    step stalls or leaves the finite numbers; entries with Im z > 0 have
    their steps halved until they stay in C+.  Returns the best iterate
    of each entry and its residual modulus.
    """
    v = np.array(v0, dtype=complex)
    best_v = v.copy()
    best_r = np.full(v.size, np.inf)
    upper = z.imag > 0
    act = np.arange(v.size)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if act.size == 0:
                break
            va, za = v[act], z[act]
            s1, s2 = _sums(H, va)
            r = -1.0 / va - za + gamma * s1
            ar = np.abs(r)
            better = ar < best_r[act]
            best_v[act[better]] = va[better]
            best_r[act[better]] = ar[better]
            rp = 1.0 / va**2 - gamma * s2
            step = r / rp
            go = np.isfinite(ar) & (ar >= tol) & (rp != 0) & np.isfinite(rp)
            vn = va - step
            # for z strictly above the axis the root lies in C+: damp any
            # step that would cross into the lower half plane
            low = go & upper[act] & (vn.imag <= 0)
            for _ in range(50):
                if not low.any():
                    break
                step[low] *= 0.5
                vn[low] = va[low] - step[low]
                low &= vn.imag <= 0
            go &= (vn != va) & np.isfinite(np.abs(vn))
            v[act[go]] = vn[go]
            act = act[go]
    return best_v, best_r


def _fixed_point(H: AtomicMeasure, gamma: float, z: np.ndarray, v0: np.ndarray,
                 n_iter: int = 60) -> np.ndarray:
    v = v0
    with np.errstate(all="ignore"):
        for _ in range(n_iter):
            denom = -z + gamma * _sums(H, v, (1,))[0]
            # an entry whose denominator vanished keeps its value, and so
            # meets the same zero on every later pass
            v = np.where(denom == 0, v, 1.0 / denom)
    return v


def _solve(H: AtomicMeasure, gamma: float, z: np.ndarray, v0: np.ndarray | None,
           tol: float) -> tuple[np.ndarray, dict]:
    """Roots at every z, plus {index: message} for entries that failed."""
    with np.errstate(all="ignore"):
        if v0 is None:
            v0 = np.where(z != 0, -1.0 / z, 1j)
            v0 = np.where((z.imag > 0) & (v0.imag <= 0), v0.real + 1e-8j, v0)
            v0 = _fixed_point(H, gamma, z, v0)
        v, resid = _newton(H, gamma, z, v0)
        retry = np.flatnonzero(resid > tol)
        if retry.size:
            # one retry from a fresh contraction run before giving up
            zr = z[retry]
            v_retry = _fixed_point(H, gamma, zr, np.where(zr != 0, -1.0 / zr + 1e-6j, 1e-6j), 200)
            v_retry, resid_retry = _newton(H, gamma, zr, v_retry)
            won = resid_retry < resid[retry]
            v[retry[won]] = v_retry[won]
            resid[retry[won]] = resid_retry[won]
    errors = {}
    for i in np.flatnonzero((resid > tol) | ((z.imag > 0) & (v.imag < 0))):
        zi = complex(z[i])
        if resid[i] > tol:
            errors[i] = (f"no convergence at z={zi!r}: residual {resid[i]:.3e} > {tol:.1e}; "
                         "retry with a larger imaginary offset")
        else:
            errors[i] = f"root left the upper half plane at z={zi!r}"
    return v, errors


def solve_silverstein(H: AtomicMeasure, gamma: float, z: complex, v0: complex | None = None,
                      tol: float = 1e-12) -> complex:
    """Solve the fixed-point equation for v(z).

    For Im(z) > 0 returns the unique root in the upper half plane.  For
    real z the caller must know that z lies outside the support (use
    :func:`solve_real_outside` or an imaginary-offset limit otherwise).

    Raises
    ------
    SilversteinError
        If the iteration stalls above the requested residual ``tol``.
    """
    _check_bulk(H)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    v, errors = _solve(H, gamma, np.array([complex(z)]),
                       None if v0 is None else np.array([complex(v0)]), tol)
    if errors:
        raise SilversteinError(errors[0])
    return complex(v[0])


# ----------------------------------------------------------------------
# support of the limiting distribution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupportSet:
    """Closed support intervals of the limiting eigenvalue distribution.

    ``edge_v[j]`` holds the real critical values of the inverse map at the
    two endpoints of ``intervals[j]``; they give phase-transition
    thresholds via s = -1/v.  ``spike_windows`` lists the open intervals
    of population-spike locations whose sample spike escapes the bulk,
    each paired with the gap of the complement it maps into.
    """

    intervals: tuple[tuple[float, float], ...]
    enclosing_interval: tuple[float, float]
    edge_v: tuple[tuple[float, float], ...] = field(default=())
    spike_windows: tuple[tuple[float, float, float, float], ...] = field(default=())

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(l - tol <= x <= u + tol for l, u in self.intervals)

    def distance(self, x: float) -> float:
        """Distance from x to the union of support intervals (0 inside)."""
        best = math.inf
        for l, u in self.intervals:
            if l <= x <= u:
                return 0.0
            best = min(best, abs(x - l), abs(x - u))
        return best

    @property
    def upper_pt_threshold(self) -> float:
        """Population-spike threshold above the top edge, -1/v(u_J)."""
        return -1.0 / self.edge_v[-1][1]

    def to_dict(self) -> dict:
        return {
            "intervals": [list(iv) for iv in self.intervals],
            "enclosing_interval": list(self.enclosing_interval),
        }


def _inverse_map(H: AtomicMeasure, gamma: float):
    """x(v) and x'(v) of the real inverse map, elementwise on 1-d arrays of v."""

    def x_of_v(v: np.ndarray) -> np.ndarray:
        return -1.0 / v + gamma * _sums(H, v, (1,))[0]

    def xp_of_v(v: np.ndarray) -> np.ndarray:
        return 1.0 / v**2 - gamma * _sums(H, v, (2,))[0]

    return x_of_v, xp_of_v


def _at(f, v: float) -> float:
    """One real point of an array map."""
    return float(f(np.array([v]))[0])


def _bisect_sign_change(f, a: float, b: float, fa_sign: float, max_iter: int = 200) -> float:
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = _at(f, m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == fa_sign:
            a = m
        else:
            b = m
        if abs(b - a) <= 1e-13 * max(1.0, abs(m)):
            break
    return 0.5 * (a + b)


def support_intervals(H: AtomicMeasure, gamma: float, samples_per_interval: int = 800) -> SupportSet:
    """Support of the limiting distribution from the real inverse map.

    On the real v-line, x(v) = -1/v + gamma * sum w t/(1+tv) is increasing
    exactly on the complement of the support image.  x'(v) is evaluated
    on all ``samples_per_interval`` samples of each v-interval between
    consecutive poles v = -1/t_i in one array call; each sign change is
    refined by bisection on x'(v), and the images of the increasing
    branches are the gaps.
    """
    _check_bulk(H)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x_of_v, xp_of_v = _inverse_map(H, gamma)
    pos = H.atoms > 0
    poles = np.sort(-1.0 / H.atoms[pos])
    t_max = float(H.atoms.max())
    upper_bound = (1.0 + math.sqrt(gamma)) ** 2 * t_max

    # v-intervals between consecutive poles, plus the two unbounded ends
    # and the positive axis (poles are all negative, 0 is always a pole)
    segments: list[tuple[float, float]] = [(-math.inf, poles[0])]
    for i in range(len(poles) - 1):
        segments.append((poles[i], poles[i + 1]))
    segments.append((poles[-1], 0.0))
    segments.append((0.0, math.inf))

    def sample(lo: float, hi: float) -> np.ndarray:
        if math.isinf(lo):
            off = np.geomspace(1e-9 * max(abs(hi), 1e-12), 1e5 * max(1.0, abs(hi)), samples_per_interval)
            return (hi - off)[::-1]
        if math.isinf(hi):
            base = 1.0 / t_max
            off = np.geomspace(1e-12 * base, 1e8 * base, samples_per_interval)
            return lo + off
        width = hi - lo
        u = np.linspace(0.0, 1.0, samples_per_interval)[1:-1]
        clustered = 0.5 * (1.0 + np.tanh(3.0 * (2.0 * u - 1.0)) / math.tanh(3.0))
        return lo + clustered * width

    branches: list[tuple[float, float]] = []
    for lo, hi in segments:
        vv = sample(lo, hi)
        signs = np.sign(xp_of_v(vv))
        crossings = np.flatnonzero((signs[:-1] != 0) & (signs[:-1] * signs[1:] < 0))
        zeros = [_bisect_sign_change(xp_of_v, vv[i], vv[i + 1], signs[i]) for i in crossings]
        pts = [lo, *zeros, hi]
        for i in range(len(pts) - 1):
            a, b = pts[i], pts[i + 1]
            if math.isinf(a):
                probe = b - 2.0 * max(abs(b), 1.0)
            elif math.isinf(b):
                probe = a + 2.0 * max(abs(a), 1.0)
            else:
                probe = 0.5 * (a + b)
            if _at(xp_of_v, probe) > 0:
                branches.append((a, b))

    # image of each increasing branch is a gap in the support
    complement: list[tuple[float, float, float, float]] = []  # (x_lo, x_hi, v_lo, v_hi)
    for a, b in branches:
        xa = 0.0 if math.isinf(a) else (-math.inf if a == 0.0 else _at(x_of_v, a))
        xb = 0.0 if math.isinf(b) else (math.inf if b == 0.0 else _at(x_of_v, b))
        if xa <= xb:
            complement.append((xa, xb, a, b))
        else:
            complement.append((xb, xa, b, a))
    complement.sort()

    intervals: list[tuple[float, float]] = []
    edge_v: list[tuple[float, float]] = []
    cursor, cursor_v = 0.0, math.nan
    for x_lo, x_hi, v_lo, v_hi in complement:
        if x_hi <= cursor:
            continue
        if x_lo > cursor + 1e-12 * max(1.0, upper_bound):
            intervals.append((cursor, x_lo))
            edge_v.append((cursor_v, v_lo))
        cursor, cursor_v = x_hi, v_hi
    if cursor < upper_bound:
        intervals.append((cursor, upper_bound))
        edge_v.append((cursor_v, math.nan))

    if not intervals:
        raise SilversteinError("support detection produced no intervals")

    # population-spike windows: s = -1/v over each increasing branch.  The
    # map s(v) is increasing on any zero-free v-interval; branches with
    # v >= 0 yield negative s and carry no physical spikes.
    windows: list[tuple[float, float, float, float]] = []
    for x_lo, x_hi, v_lo, v_hi in complement:
        if v_lo >= 0.0:
            continue
        s_lo = 0.0 if math.isinf(v_lo) else -1.0 / v_lo
        s_hi = math.inf if v_hi == 0.0 else -1.0 / v_hi
        windows.append((s_lo, s_hi, x_lo, x_hi))
    windows.sort()

    lo_all = intervals[0][0]
    hi_all = intervals[-1][1]
    margin = 0.05 * (hi_all - lo_all)
    enclosing = (max(0.0, lo_all - margin), hi_all + margin)
    return SupportSet(
        intervals=tuple(intervals),
        enclosing_interval=enclosing,
        edge_v=tuple(edge_v),
        spike_windows=tuple(windows),
    )


def _real_limit(H: AtomicMeasure, gamma: float, x: np.ndarray, v0: np.ndarray, eta0,
                eps1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array core of :func:`solve_real_limit`; ``eta0`` is a scalar or one per point.

    Every point halves its own eta until its own increment drops below
    ``eps1``; converged points are frozen while the rest descend.
    """
    v = np.array(v0, dtype=complex)
    eta = np.array(np.broadcast_to(eta0, x.shape), dtype=float)
    increment = np.full(x.size, np.inf)
    act = np.arange(x.size)
    for k in range(60):
        if act.size == 0:
            break
        v_new, _ = _newton(H, gamma, x[act] + 1j * eta[act], v[act])
        if k > 0:
            increment[act] = np.abs(v_new - v[act])
        v[act] = v_new
        act = act[~(increment[act] < eps1)]
        eta[act] *= 0.5
    z = x.astype(complex)
    v_polish, resid = _newton(H, gamma, z, v)
    guard = np.where(np.isfinite(increment), np.maximum(10.0 * increment, 1e-6), 1e-6)
    keep = (v_polish.imag > 0) & (np.abs(v_polish - v) < guard) & (resid < _CONVERGED_RESID)
    v_polish[~keep] = v[~keep]
    resid[~keep] = np.abs(_residual(H, gamma, z[~keep], v[~keep]))
    return v_polish, resid, increment


def solve_real_limit(H: AtomicMeasure, gamma: float, x: float, v0: complex,
                     eta0: float, eps1: float) -> tuple[complex, float, float]:
    """Real-axis boundary value of v at x inside the support.

    Descends the imaginary offset geometrically from ``eta0`` until
    successive values differ by less than ``eps1``, then polishes with a
    Newton step at eta = 0 unless that jumps to a different root.
    Returns (v, residual at eta=0, last increment of the eta limit).
    """
    v, resid, increment = _real_limit(H, gamma, np.array([float(x)]), np.array([complex(v0)]),
                                      eta0, eps1)
    return complex(v[0]), float(resid[0]), float(increment[0])


def solve_real_outside(H: AtomicMeasure, gamma: float, support: SupportSet, x: float) -> float:
    """Real-axis v(x) for x strictly outside the support.

    Uses the branch structure recorded in the support set: x lies in the
    image of exactly one increasing branch of the inverse map, and v(x) is
    found by bisection of x(v) = x there.
    """
    if support.contains(x):
        raise ValueError(f"x={x} lies inside the support; no real-axis value exists")
    x_of_v, _ = _inverse_map(H, gamma)
    for s_lo, s_hi, x_lo, x_hi in support.spike_windows:
        if x_lo < x < x_hi:
            # v endpoints of this branch: s = -1/v
            v_a = -1.0 / s_lo if s_lo > 0 else -math.inf
            v_b = -1.0 / s_hi if math.isfinite(s_hi) else 0.0
            lo, hi = min(v_a, v_b), max(v_a, v_b)
            # shrink infinite / pole ends to finite brackets
            if math.isinf(lo):
                lo = hi - 1.0
                while _at(x_of_v, lo) > x:
                    lo = hi - 2 * (hi - lo)
            span = hi - lo
            a = lo + 1e-13 * max(span, 1.0)
            b = hi - 1e-13 * max(span, 1.0)
            fa = _at(x_of_v, a) - x
            for _ in range(300):
                m = 0.5 * (a + b)
                fm = _at(x_of_v, m) - x
                if fm == 0:
                    return m
                if math.copysign(1.0, fm) == math.copysign(1.0, fa):
                    a, fa = m, fm
                else:
                    b = m
                if abs(b - a) < 1e-15 * max(1.0, abs(m)):
                    break
            return 0.5 * (a + b)
    raise ValueError(f"x={x} not located in any complement gap")


# ----------------------------------------------------------------------
# dense evaluation on the support
# ----------------------------------------------------------------------

@dataclass
class StieltjesCurve:
    """v and v' on a dense in-support grid, plus the support itself.

    ``edge_samples[(j, "lo"|"hi")]`` holds (distances ascending, v, v') at
    1/64, 1/16 and 1/4 of the way from that edge of interval j to its
    nearest grid point; ``edge_failures`` lists (x, reason) for each edge
    whose samples could not be solved, which is then left unrefined.
    """

    gamma: float
    grid: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    support: SupportSet
    interval_id: np.ndarray
    cell_widths: np.ndarray
    dropped: list[tuple[float, str]] = field(default_factory=list)
    epsilon: float = 5e-6
    atom_at_zero: float = 0.0  # mass of the limiting law at 0
    edge_samples: dict = field(default_factory=dict)
    edge_failures: list[tuple[float, str]] = field(default_factory=list)

    @property
    def density(self) -> np.ndarray:
        """Density of the limiting distribution on the grid, Im(v)/(pi*gamma)."""
        return self.v.imag / (math.pi * self.gamma)

    def interval_slice(self, j: int) -> slice:
        idx = np.flatnonzero(self.interval_id == j)
        return slice(idx[0], idx[-1] + 1)

    @property
    def n_intervals(self) -> int:
        return len(self.support.intervals)

    def to_rows(self):
        """Rows for CSV export: x, re_v, im_v, re_vp, im_vp, in_support."""
        for i in range(self.grid.size):
            yield (
                self.grid[i],
                self.v[i].real,
                self.v[i].imag,
                self.v_prime[i].real,
                self.v_prime[i].imag,
                1,
            )


def _real_points(H: AtomicMeasure, gamma: float, x: np.ndarray, v0: np.ndarray, eta0,
                 eps1: float, min_imag: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Real-axis limits and v' at x; {index: reason} for points that failed.

    A point fails when its eta=0 residual exceeds 1e-8, when Im v is below
    ``min_imag`` or when the derivative map is undefined there.
    """
    v, resid, _ = _real_limit(H, gamma, x, v0, eta0, eps1)
    failed = {i: f"residual {resid[i]:.2e}"
              for i in np.flatnonzero((resid > _CONVERGED_RESID) | (v.imag < min_imag))}
    ok = np.setdiff1d(np.arange(x.size), list(failed))
    vp = np.full(x.size, np.nan, dtype=complex)
    vp[ok], errors = _derivative(H, gamma, v[ok])
    failed.update({ok[i]: str(exc) for i, exc in errors.items()})
    return v, vp, failed


def _edge_samples(H: AtomicMeasure, gamma: float, grid: np.ndarray, v: np.ndarray,
                  interval_id: np.ndarray, support: SupportSet,
                  eps1: float) -> tuple[dict, list[tuple[float, str]]]:
    """v and v' at sub-cell distances from each support edge.

    The boundary value of v exists up to the edges; three direct solves
    per edge pin down the tail of a sqrt-singular density far better than
    extrapolation from the grid.  All edges step toward their edge
    together, each warm-started from its previous sample; an edge stops
    at its first failure.
    """
    keys, edge, near = [], [], []
    for j, (lo, hi) in enumerate(support.intervals):
        idx = np.flatnonzero(interval_id == j)
        if idx.size:
            keys += [(j, "lo"), (j, "hi")]
            edge += [lo, hi]
            near += [idx[0], idx[-1]]
    edge = np.array(edge)
    inward = np.array([1.0 if side == "lo" else -1.0 for _, side in keys])
    dists = np.abs(grid[near] - edge)[:, None] * np.array([1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0])
    vs = np.empty(dists.shape, dtype=complex)
    vps = np.empty(dists.shape, dtype=complex)
    warm = v[near]
    failures: dict[int, tuple[float, str]] = {}
    for col in (2, 1, 0):  # walk toward the edge
        live = np.setdiff1d(np.arange(len(keys)), list(failures))
        x = edge[live] + inward[live] * dists[live, col]
        vs[live, col], vps[live, col], failed = _real_points(
            H, gamma, x, warm[live], dists[live, col], eps1, 0.0)
        failures.update({live[i]: (float(x[i]), reason) for i, reason in failed.items()})
        warm = vs[:, col]
    samples = {keys[e]: (dists[e], vs[e], vps[e]) for e in range(len(keys)) if e not in failures}
    return samples, [failures[e] for e in sorted(failures)]


def stieltjes_grid(H: AtomicMeasure, gamma: float, points_per_interval: int = 1000,
                   epsilon: float = 5e-6, support: SupportSet | None = None) -> StieltjesCurve:
    """Evaluate v on uniform midpoint grids inside each support interval.

    All grid points are solved together by one array Newton.  Each point
    starts from a contraction run at x + i*eta_0, then takes the limit
    over the geometric sequence eta_0 * 2^-k, stopped once its successive
    values differ by less than eps1 = max(1e-8, 1e-2*epsilon); a final
    Newton polish at eta = 0 then drives the residual to machine
    precision.  Points whose residual stays above 1e-8, or where v' is
    undefined, are dropped and recorded with the reason, never
    interpolated.  The same solver also samples v and v' at sub-cell
    distances from every support edge (``edge_samples``).
    """
    if points_per_interval < 16:
        raise ValueError("points_per_interval must be at least 16")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_bulk(H)
    if support is None:
        support = support_intervals(H, gamma)
    eps1 = max(1e-8, 1e-2 * epsilon)
    span = support.intervals[-1][1] - support.intervals[0][0]
    eta0 = 1e-2 * span

    cells = np.array([(hi - lo) / points_per_interval for lo, hi in support.intervals])
    xs = np.concatenate([lo + (np.arange(points_per_interval) + 0.5) * cell
                         for (lo, _), cell in zip(support.intervals, cells)])
    ids = np.repeat(np.arange(cells.size), points_per_interval)

    v_start, failed = _solve(H, gamma, xs + 1j * eta0, None, 1e-10)
    ok = np.setdiff1d(np.arange(xs.size), list(failed))
    v = np.full(xs.size, np.nan, dtype=complex)
    vp = np.full(xs.size, np.nan, dtype=complex)
    v[ok], vp[ok], failed_real = _real_points(H, gamma, xs[ok], v_start[ok], eta0 * 0.5, eps1,
                                              -1e-10)
    failed.update({ok[i]: reason for i, reason in failed_real.items()})
    if len(failed) == xs.size:
        raise SilversteinError("all grid points failed to converge")
    keep = np.setdiff1d(np.arange(xs.size), list(failed))
    edge_samples, edge_failures = _edge_samples(H, gamma, xs[keep], v[keep], ids[keep],
                                                support, eps1)
    # fraction of zero sample eigenvalues: population null directions plus
    # any rank deficit when the dimension exceeds the sample size
    w0 = float(np.sum(H.weights[H.atoms == 0.0]))
    atom0 = max(0.0, 1.0 - min(1.0 - w0, 1.0 / gamma))
    return StieltjesCurve(
        gamma=gamma,
        grid=xs[keep],
        v=v[keep],
        v_prime=vp[keep],
        support=support,
        interval_id=ids[keep],
        cell_widths=cells[ids[keep]],
        dropped=[(float(xs[i]), failed[i]) for i in sorted(failed)],
        epsilon=epsilon,
        atom_at_zero=atom0,
        edge_samples=edge_samples,
        edge_failures=edge_failures,
    )


# ----------------------------------------------------------------------
# integration against the limiting distribution
# ----------------------------------------------------------------------

def _interval_quad(curve: StieltjesCurve, values: np.ndarray) -> float:
    """Trapezoid of ``values`` over the grid, intervals closed by zero anchors."""
    total = 0.0
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        xs = curve.grid[sl]
        ys = values[sl]
        lo, hi = curve.support.intervals[j]
        xs_ext = np.concatenate([[lo], xs, [hi]])
        ys_ext = np.concatenate([[0.0], ys, [0.0]])
        total += float(np.trapezoid(ys_ext, xs_ext))
    return total


def esd_expectation(curve: StieltjesCurve, f, f_at_zero: float | None = None) -> float:
    """Integral of f under the limiting distribution.

    Adds the point mass at zero (1 - 1/gamma for an all-positive bulk
    with gamma > 1, more when the population itself has null directions);
    ``f_at_zero`` overrides f(0) there (mandatory when f is singular at
    the origin).
    """
    vals = f(curve.grid) * curve.density
    total = _interval_quad(curve, vals)
    if curve.atom_at_zero > 0.0:
        fz = f_at_zero if f_at_zero is not None else float(f(np.array([0.0]))[0])
        if not math.isfinite(fz):
            raise ValueError("integrand is singular at 0 where the ESD has an atom")
        total += curve.atom_at_zero * fz
    return total


def esd_moment(curve: StieltjesCurve, H: AtomicMeasure, k: int) -> float:
    """k-th moment of the limiting distribution by grid quadrature.

    The atom at zero present for gamma > 1 contributes nothing for k >= 1.
    The first moment reproduces the population mean and is cross-checked
    against it in the tests.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("moment order restricted to 1..4")
    if curve.dropped:
        raise ValueError(f"curve has {len(curve.dropped)} non-converged points; refusing to integrate")
    return esd_expectation(curve, lambda x: x**k, f_at_zero=0.0)


def forward_moments(H: AtomicMeasure, gamma: float, k_max: int = 4) -> list[float]:
    """Exact moments m_1..m_k of the limiting distribution.

    Polynomials in the population moments obtained from the non-crossing
    partition expansion of the forward map; exact for any discrete H, so
    usable as an independent check of the quadrature route.
    """
    if not 1 <= k_max <= 4:
        raise ValueError("k_max restricted to 1..4")
    h = [H.moment(k) for k in range(0, 5)]
    out = [h[1]]
    if k_max >= 2:
        out.append(h[2] + gamma * h[1] ** 2)
    if k_max >= 3:
        out.append(h[3] + 3 * gamma * h[2] * h[1] + gamma**2 * h[1] ** 3)
    if k_max >= 4:
        out.append(
            h[4]
            + gamma * (4 * h[3] * h[1] + 2 * h[2] ** 2)
            + 6 * gamma**2 * h[2] * h[1] ** 2
            + gamma**3 * h[1] ** 4
        )
    return out[:k_max]
