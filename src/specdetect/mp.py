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
    "derivative_map",
    "support_intervals",
    "stieltjes_grid",
    "esd_moment",
    "esd_expectation",
    "forward_moments",
    "solve_real_outside",
]

# a point of the curve is kept only when its residual is at most this
_CONVERGED_RESID = 1e-8
# element budget of one (points x atoms) block in the atom sums; blocks keep
# the complex temporaries near 1 MB each on bulks with hundreds of atoms
_BLOCK_ELEMENTS = 1 << 16
# a Newton entry whose residual is settled at round-off stops after this
# many iterations in a row that do not lower it
_NEWTON_PATIENCE = 3
# a real-axis Newton run that ends with Im v at most this fraction of |v|
# found a real root of x(v) = x, on a falling branch of the inverse map,
# not the boundary value of v; its Im v is round-off
_REAL_ROOT = 1e-10
# the grid's contraction start runs on every _ANCHOR_STRIDE-th point of an
# interval (the anchors); the other _COARSE_STRIDE-th points start from the
# anchors' roots interpolated, and every remaining point from both
_ANCHOR_STRIDE = 32
_COARSE_STRIDE = 16
# a cubic Hermite start is kept only where its correction over the linear
# interpolant is at most this fraction of the step between its two nodes
_HERMITE_GUARD = 0.1
# the fewest grid points per support interval that a curve is built on
MIN_POINTS_PER_INTERVAL = 16


class SilversteinError(RuntimeError):
    """Fixed-point solve failed to converge or hit a pole/edge."""


def _check_bulk(H: AtomicMeasure) -> None:
    if H.is_zero_mass_at_origin():
        raise ValueError("population spectrum delta_0 is degenerate and not supported")


def _blocks(n: int, n_atoms: int):
    step = max(1, _BLOCK_ELEMENTS // n_atoms)
    return (slice(i, i + step) for i in range(0, n, step))


def _near_pole(atoms: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Entries of the 1-d array v where some 1 + t*v, t in ``atoms``, is within ``tol`` of 0.

    Since |1 + t v| >= max(|t| |Im v|, 1 - |t| |v|), only an entry with
    |Im v| (1 - tol) <= tol |v| can be one (every entry, at tol >= 1); the
    atoms are tried on those entries alone, with tol doubled in this
    prefilter to cover its rounding.
    """
    out = np.zeros(v.size, dtype=bool)
    idx = np.flatnonzero(np.abs(np.imag(v)) * (1.0 - tol) <= 2.0 * tol * np.abs(v))
    for sl in _blocks(idx.size, atoms.size):
        out[idx[sl]] = np.any(np.abs(1.0 + np.multiply.outer(v[idx[sl]], atoms)) < tol, axis=1)
    return out


def _sums(H: AtomicMeasure, v: np.ndarray, orders: tuple[int, ...]) -> list[np.ndarray]:
    """Integrands of the fixed-point equation at each entry of the 1-d array v.

    Order k (1, 2 or 3, ascending in ``orders``) is ``sum w t^k/(1+tv)^k``.
    Per (points x atoms) block, R = 1/(1 + v t) is formed once and order k
    is the matrix-vector product R^k @ (w t^k).  BLAS reduces a row in an
    order that depends on the block's shape and the thread count, so a
    value agrees with a single-point call to round-off, not bit for bit.
    """
    numerators = [H.weights * H.atoms**k for k in orders]
    out = [np.empty(v.shape, dtype=np.result_type(v, 1.0)) for _ in orders]
    for sl in _blocks(v.size, H.n_atoms):
        r = np.multiply.outer(v[sl], H.atoms)
        r += 1.0
        np.reciprocal(r, out=r)
        rk, k_done = r, 1
        for o, num, k in zip(out, numerators, orders):
            # powers by multiplication: R**3 goes through pow, which is
            # some 100x slower on negative reals
            for _ in range(k - k_done):
                rk = rk * r
            k_done = k
            o[sl] = rk @ num
    return out


def _inverse_map(H: AtomicMeasure, gamma: float, v: np.ndarray, z=0.0,
                 orders: tuple[int, ...] = (1,)) -> list[np.ndarray]:
    """The inverse map at each entry of the 1-d array v, from one call of the atom sums.

    Order 1 is x(v) - z with x(v) = -1/v + gamma * sum w t/(1+tv), the
    defect of v in the fixed-point equation at z; order 2 is its slope
    x'(v) = 1/v^2 - gamma * sum w t^2/(1+tv)^2.
    """
    return [-1.0 / v - z + gamma * s if k == 1 else 1.0 / v**2 - gamma * s
            for k, s in zip(orders, _sums(H, v, orders))]


def _derivative(H: AtomicMeasure, gamma: float, v: np.ndarray,
                slope: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """dv/dz = 1/x'(v) at each entry of v, plus {index: error} where it is undefined.

    ``slope`` is x'(v) when the caller already has it, e.g. from Newton.
    """
    with np.errstate(all="ignore"):
        d = _inverse_map(H, gamma, v, orders=(2,))[0] if slope is None else slope
        vp = 1.0 / d
    near_pole = _near_pole(H.atoms, v, 1e-14)
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
            max_iter: int = 80) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton iteration on the fixed-point defect for every entry at once.

    Each entry stops on its own once its step reaches round-off
    (|dv| <= 4e-16 |v|) or leaves the finite numbers, or once it has
    settled: _NEWTON_PATIENCE consecutive iterations that do not lower its
    best residual, counted only while that residual is at most
    1e-12 max(1, |z|).  Entries with Im z > 0 have their steps halved
    until they stay in C+.  Returns the best iterate of each entry, its
    residual modulus and the slope x'(v) there, which the same evaluation
    of the atom sums gave (nan for an entry with no finite residual).
    """
    v = np.array(v0, dtype=complex)
    best_v = v.copy()
    best_r = np.full(v.size, np.inf)
    best_slope = np.full(v.size, np.nan, dtype=complex)
    upper = z.imag > 0
    settled_r = 1e-12 * np.maximum(1.0, np.abs(z))
    stalls = np.zeros(v.size, dtype=int)
    act = np.arange(v.size)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if act.size == 0:
                break
            va, za = v[act], z[act]
            r, rp = _inverse_map(H, gamma, va, za, (1, 2))
            ar = np.abs(r)
            better = ar < best_r[act]
            best_v[act[better]] = va[better]
            best_r[act[better]] = ar[better]
            best_slope[act[better]] = rp[better]
            stalls[act] = np.where(better | (best_r[act] > settled_r[act]), 0, stalls[act] + 1)
            step = r / rp
            go = np.isfinite(ar) & (rp != 0) & np.isfinite(rp)
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
            go &= (np.abs(vn - va) > 4e-16 * np.abs(va)) & np.isfinite(np.abs(vn))
            go &= stalls[act] < _NEWTON_PATIENCE
            v[act[go]] = vn[go]
            act = act[go]
    return best_v, best_r, best_slope


def _fixed_point(H: AtomicMeasure, gamma: float, z: np.ndarray, v0: np.ndarray,
                 n_iter: int = 60) -> np.ndarray:
    """Contraction v <- 1/(-z + gamma * sum w t/(1+tv)) for every entry at once.

    Each entry stops on its own once its step is at most 1e-13 of its new
    value, or once its denominator vanishes, where it keeps its value;
    no entry takes more than ``n_iter`` steps.
    """
    v = np.array(v0, dtype=complex)
    act = np.arange(v.size)
    with np.errstate(all="ignore"):
        for _ in range(n_iter):
            if act.size == 0:
                break
            va = v[act]
            denom = -z[act] + gamma * _sums(H, va, (1,))[0]
            # an entry whose denominator vanished keeps its value, a zero
            # step, and so stops
            vn = np.where(denom == 0, va, 1.0 / denom)
            v[act] = vn
            act = act[~(np.abs(vn - va) <= 1e-13 * np.abs(vn))]
    return v


def _solve(H: AtomicMeasure, gamma: float, z: np.ndarray, v0: np.ndarray | None,
           tol: float) -> tuple[np.ndarray, dict]:
    """Roots at every z, plus {index: message} for entries that failed."""
    with np.errstate(all="ignore"):
        if v0 is None:
            v0 = np.where(z != 0, -1.0 / z, 1j)
            v0 = np.where((z.imag > 0) & (v0.imag <= 0), v0.real + 1e-8j, v0)
            v0 = _fixed_point(H, gamma, z, v0)
        v, resid, _ = _newton(H, gamma, z, v0)
        retry = np.flatnonzero(resid > tol)
        if retry.size:
            # one retry from a fresh contraction run before giving up
            zr = z[retry]
            v_retry = _fixed_point(H, gamma, zr, np.where(zr != 0, -1.0 / zr + 1e-6j, 1e-6j), 200)
            v_retry, resid_retry, _ = _newton(H, gamma, zr, v_retry)
            won = resid_retry < resid[retry]
            v[retry[won]] = v_retry[won]
            resid[retry[won]] = resid_retry[won]
    errors = {}
    for i in np.flatnonzero((resid > tol) | ((z.imag > 0) & (v.imag < 0))):
        zi = complex(z[i])
        if resid[i] > tol:
            errors[i] = f"no convergence at z={zi!r}: residual {resid[i]:.3e} > {tol:.1e}"
        else:
            errors[i] = f"root left the upper half plane at z={zi!r}"
    return v, errors


def solve_silverstein(H: AtomicMeasure, gamma: float, z: complex, v0: complex | None = None,
                      tol: float = 1e-12) -> complex:
    """Solve the fixed-point equation for v(z).

    For Im(z) > 0 returns the unique root in the upper half plane.  For
    real z the caller must know that z lies outside the support (use
    :func:`solve_real_outside`, or :func:`solve_real_limit` inside it).

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
    edge_v: tuple[tuple[float, float], ...] = field(default=())
    spike_windows: tuple[tuple[float, float, float, float], ...] = field(default=())

    def contains(self, x: float) -> bool:
        return any(l <= x <= u for l, u in self.intervals)

    @property
    def upper_pt_threshold(self) -> float:
        """Population-spike threshold above the top edge, -1/v(u_J)."""
        return -1.0 / self.edge_v[-1][1]

    def to_dict(self) -> dict:
        return {"intervals": [list(iv) for iv in self.intervals]}


def _bisect(f, neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sign change of f in every bracket at once, to the last float.

    f is an elementwise map of 1-d arrays that is negative next to
    ``neg[i]`` and positive next to ``pos[i]`` (either may be the larger
    end).  f is evaluated strictly inside the brackets only, so an end may
    be a pole or zero.  Each bracket halves until its midpoint rounds to
    one of its ends.
    """
    neg = np.array(neg, dtype=float)
    pos = np.array(pos, dtype=float)
    act = np.arange(neg.size)
    with np.errstate(all="ignore"):
        while True:
            mid = 0.5 * (neg[act] + pos[act])
            inside = (mid != neg[act]) & (mid != pos[act])
            act, mid = act[inside], mid[inside]
            if act.size == 0:
                return 0.5 * (neg + pos)
            below = f(mid) < 0
            neg[act[below]] = mid[below]
            pos[act[~below]] = mid[~below]


def support_intervals(H: AtomicMeasure, gamma: float) -> SupportSet:
    """Support of the limiting distribution from the real inverse map.

    On the real v-line, x(v) = -1/v + gamma * sum w t/(1+tv) has
    x'(v) = (1 - g(v))/v^2 with g(v) = gamma * sum w (tv/(1+tv))^2, and the
    images of its increasing branches (g < 1) are the gaps of the support.
    Every term of g is convex in v < 0 (Silverstein & Choi 1995), which
    fixes the number of edges, the zeros of x', on each v-segment:

    - between consecutive poles v = -1/t_i, g -> +inf at both ends: two
      edges if the minimum of g is below one, none otherwise;
    - on (-1/t_max, 0), g falls from +inf to 0: one edge;
    - on (-inf, -1/t_min), g rises from gamma' to +inf, and on v > 0 from 0
      to gamma', where gamma' is gamma times the mass of the positive
      atoms: one edge on the first if gamma' < 1, on the second if
      gamma' > 1.

    The nearer of its two poles bounds g below on a segment between poles;
    where that bound is at least 2 the segment has no edge.  One array
    bisection of g' finds the minimum on every other segment between
    poles, and a second one of x' finds every edge.  Each edge lies
    strictly inside its segment, so every interval end is finite.
    """
    _check_bulk(H)
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def xp_of_v(v: np.ndarray) -> np.ndarray:
        return _inverse_map(H, gamma, v, orders=(2,))[0]

    pos = H.atoms > 0
    poles = np.sort(-1.0 / H.atoms[pos])
    t_min = float(H.atoms[pos].min())
    g_inf = gamma * (1.0 - float(np.sum(H.weights[~pos])))
    upper_bound = (1.0 + math.sqrt(gamma)) ** 2 * float(H.atoms.max())

    def g_slope(v: np.ndarray) -> np.ndarray:  # g'(v) / (2 gamma)
        s2, s3 = _sums(H, v, (2, 3))
        return v * (s2 - v * s3)

    # on a pole segment (v_lo, v_hi) some pole is within (v_hi - v_lo)/2 of
    # every v and |v| > |v_hi|, so g >= 4 gamma min(w_i, w_i+1) v_hi^2 /
    # (v_hi - v_lo)^2 there; a segment where that is at least 2 has no edge
    w = H.weights[pos]
    bound = 4.0 * gamma * np.minimum(w[:-1], w[1:]) * (poles[1:] / np.diff(poles)) ** 2
    segments = np.column_stack([poles[:-1], poles[1:]])[bound < 2.0]
    v_min = _bisect(g_slope, segments[:, 0], segments[:, 1])
    split = xp_of_v(v_min) > 0
    # brackets (x' < 0 end, x' > 0 end) of every edge, in increasing v.
    # Past the stand-ins for the infinite ends, g is bounded by
    # gamma' (t_min v/(1 + t_min v))^2, which is below one (v < 0) or
    # above one (v > 0) there.
    neg = [segments[split].ravel(), poles[-1:]]
    pos_ = [np.repeat(v_min[split], 2), [0.0]]
    if g_inf < 1.0:
        neg.insert(0, poles[:1])
        pos_.insert(0, [-2.0 / ((1.0 - math.sqrt(g_inf)) * t_min)])
    if g_inf > 1.0:
        neg.append([2.0 / ((math.sqrt(g_inf) - 1.0) * t_min)])
        pos_.append([0.0])
    v_edge = _bisect(xp_of_v, np.concatenate(neg), np.concatenate(pos_))
    v_e, x_e = v_edge.tolist(), _inverse_map(H, gamma, v_edge)[0].tolist()

    # increasing branches (x_lo, x_hi, v_lo, v_hi).  On v > 0, x rises from
    # -inf to the edge, or to 0 when there is none.  For v < 0 the branch
    # ends are the edges in pairs, with v = -inf (x = 0) in front when
    # gamma' < 1 and v = 0- (x = +inf) at the back.
    if g_inf > 1.0:
        complement = [(-math.inf, x_e.pop(), 0.0, v_e.pop())]
    else:
        complement = [(-math.inf, 0.0, 0.0, math.inf)]
    lead = 1 if g_inf < 1.0 else 0
    v_b = [-math.inf] * lead + v_e + [0.0]
    x_b = [0.0] * lead + x_e + [math.inf]
    complement += [(x_b[i], x_b[i + 1], v_b[i], v_b[i + 1]) for i in range(0, len(v_b), 2)]
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
    return SupportSet(intervals=tuple(intervals), edge_v=tuple(edge_v),
                      spike_windows=tuple(windows))


def _real_limit(H: AtomicMeasure, gamma: float, x: np.ndarray,
                v0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array core of :func:`solve_real_limit`: v, its residual and x'(v) at every x.

    One Newton run at z = x from each v0, a start in the basin of the
    upper-half-plane root: the root at x + i*eta for small eta, or roots
    at nearby real points interpolated.  For x inside the support that
    root is unique (Silverstein & Choi 1995); a run that lands on its
    conjugate is reflected, with its slope, since x(conj v) = x and
    x'(conj v) = conj x'(v) for real x.
    """
    v, resid, slope = _newton(H, gamma, x.astype(complex), v0)
    low = v.imag < 0
    return np.where(low, v.conj(), v), resid, np.where(low, slope.conj(), slope)


def solve_real_limit(H: AtomicMeasure, gamma: float, x: float,
                     v0: complex) -> tuple[complex, float]:
    """Real-axis boundary value of v at x inside the support.

    Newton at eta = 0 from ``v0``, e.g. the root at x + i*eta; returns
    (v, residual).  The grid calls the array core; this one-point entry
    stays because the benchmark in perfbench/ counts its calls.
    """
    v, resid, _ = _real_limit(H, gamma, np.array([float(x)]), np.array([complex(v0)]))
    return complex(v[0]), float(resid[0])


def solve_real_outside(H: AtomicMeasure, gamma: float, support: SupportSet, x: float) -> float:
    """Real-axis v(x) for x strictly outside the support.

    Uses the branch structure recorded in the support set: x lies in the
    image of exactly one increasing branch of the inverse map, and v(x) is
    found there by bisection of x(-1/s) = x in s = -1/v, which rises with v.
    """
    if support.contains(x):
        raise ValueError(f"x={x} lies inside the support; no real-axis value exists")
    for s_lo, s_hi, x_lo, x_hi in support.spike_windows:
        if x_lo < x < x_hi:
            # bisect in s = -1/v, over which x rises through the branch;
            # s = 0 stands for v = -inf, and on the top branch x(s) > s
            # closes the bracket at s = x
            s = _bisect(lambda s: _inverse_map(H, gamma, -1.0 / s, x)[0], [s_lo],
                        [s_hi if math.isfinite(s_hi) else x])
            return float(-1.0 / s[0])
    v_lo = support.edge_v[0][0]
    if x < support.intervals[0][0] and 0.0 < v_lo < math.inf:
        # gamma' > 1: below the bulk x rises from -inf (v = 0+) to the
        # lowest edge on the v > 0 branch
        return float(_bisect(lambda v: _inverse_map(H, gamma, v, x)[0], [0.0], [v_lo])[0])
    raise ValueError(f"x={x} not located in any complement gap")


# ----------------------------------------------------------------------
# dense evaluation on the support
# ----------------------------------------------------------------------

def _brief(m: AtomicMeasure) -> str:
    """The atoms and weights of m, elided past six of each."""
    fmt = dict(threshold=6, edgeitems=2, precision=17)
    return f"atoms {np.array2string(m.atoms, **fmt)}, weights {np.array2string(m.weights, **fmt)}"


@dataclass
class StieltjesCurve:
    """v and v' on a dense in-support grid of the bulk H at gamma, plus the support itself.

    ``edge_samples[(j, "lo"|"hi")]`` holds (distances ascending, v, v') at
    1/64, 1/16 and 1/4 of the way from that edge of interval j to its
    nearest grid point.  An edge has all three samples or none:
    ``edge_failures`` lists (x, reason) once for each edge with a failed
    sample, at the failed sample farthest from the edge, and that edge is
    left unrefined.  Every array that ``stieltjes_grid`` stores is
    read-only, so statistics built on the curve share its grid.
    """

    H: AtomicMeasure
    gamma: float
    grid: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    support: SupportSet
    interval_id: np.ndarray
    dropped: list[tuple[float, str]] = field(default_factory=list)
    atom_at_zero: float = 0.0  # mass of the limiting law at 0
    edge_samples: dict = field(default_factory=dict)
    edge_failures: list[tuple[float, str]] = field(default_factory=list)

    @property
    def density(self) -> np.ndarray:
        """Density of the limiting distribution on the grid, Im(v)/(pi*gamma)."""
        return self.v.imag / (math.pi * self.gamma)

    def interval_slice(self, j: int) -> slice:
        """Grid indices of support interval j; refuses a curve with dropped points.

        Every quadrature, cumulative sum and finite difference over the grid
        goes through here or ``require_complete``, so none can bridge a hole.
        """
        self.require_complete()
        idx = np.flatnonzero(self.interval_id == j)
        return slice(idx[0], idx[-1] + 1)

    @property
    def n_intervals(self) -> int:
        return len(self.support.intervals)

    def require_model(self, H: AtomicMeasure, gamma: float) -> None:
        """Raise ValueError unless the curve is that of the bulk H at gamma.

        H is compared value for value, so an equal measure made apart passes.
        """
        if abs(gamma - self.gamma) > 1e-12:
            raise ValueError("gamma does not match the curve")
        if H != self.H:
            raise ValueError(f"the bulk H ({_brief(H)}) is not the curve's bulk "
                             f"({_brief(self.H)})")

    def require_complete(self) -> None:
        """Raise ValueError naming the dropped grid points, if any.

        Quadrature on the grid would bridge each hole with a widened cell.
        """
        if self.dropped:
            xs = ", ".join(str(float(x)) for x, _ in self.dropped)
            raise ValueError(f"curve has {len(self.dropped)} non-converged points (x = {xs}); "
                             "refusing to integrate")

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


def _real_points(H: AtomicMeasure, gamma: float, x: np.ndarray,
                 v0: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Real-axis limits and v' at x from one Newton run at eta = 0 each.

    v' = 1/x'(v) takes x'(v) from the evaluation at the Newton run's best
    iterate, so the atom sums are not evaluated again.  A point is kept
    when its residual is at most 1e-8, Im v is positive beyond round-off
    (the run did not end on a real root) and v' is defined there (v != 0,
    no pole 1 + t*v = 0, x'(v) not vanished); {index: reason} names the
    others.
    """
    v, resid, slope = _real_limit(H, gamma, x, v0)
    failed = {i: f"real root of x(v) = x: Im v {v[i].imag:.2e}"
              for i in np.flatnonzero(v.imag <= _REAL_ROOT * np.abs(v))}
    failed.update({i: f"residual {resid[i]:.2e}"
                   for i in np.flatnonzero(resid > _CONVERGED_RESID)})
    ok = np.setdiff1d(np.arange(x.size), list(failed))
    vp = np.full(x.size, np.nan, dtype=complex)
    vp[ok], errors = _derivative(H, gamma, v[ok], slope[ok])
    failed.update({ok[i]: str(exc) for i, exc in errors.items()})
    return v, vp, failed


def _contraction_points(H: AtomicMeasure, gamma: float, x: np.ndarray,
                        z: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """v and v' at x from a contraction start and Newton at z = x + i*eta,
    then :func:`_real_points`; {index: reason} for points that failed."""
    v_eta, failed = _solve(H, gamma, z, None, 1e-10)
    ok = np.setdiff1d(np.arange(x.size), list(failed))
    v = np.full(x.size, np.nan, dtype=complex)
    vp = np.full(x.size, np.nan, dtype=complex)
    v[ok], vp[ok], failed_real = _real_points(H, gamma, x[ok], v_eta[ok])
    failed.update({ok[i]: reason for i, reason in failed_real.items()})
    return v, vp, failed


def _hermite_start(t: np.ndarray, f: np.ndarray, df: np.ndarray,
                   t_new: np.ndarray) -> np.ndarray:
    """Start values at ``t_new`` from the nodes (t, f), t ascending, with slopes df/dt.

    Between nodes k and k+1 the cubic Hermite interpolant is the linear one
    plus s(1-s) [(1-s)(h df_k - D) - s(h df_k+1 - D)], with h the node
    step, D = f_k+1 - f_k and s the fraction of the step.  That correction
    is kept where it is at most _HERMITE_GUARD |D| and dropped elsewhere,
    a nan slope included; outside [t_0, t_-1] the end values hold, as in
    np.interp.
    """
    linear = np.interp(t_new, t, f.real) + 1j * np.interp(t_new, t, f.imag)
    if t.size < 2:
        return linear
    k = np.clip(np.searchsorted(t, t_new) - 1, 0, t.size - 2)
    h = t[k + 1] - t[k]
    d = f[k + 1] - f[k]
    with np.errstate(all="ignore"):
        s = np.clip((t_new - t[k]) / h, 0.0, 1.0)
        c = s * (1.0 - s) * ((1.0 - s) * (h * df[k] - d) - s * (h * df[k + 1] - d))
        keep = np.abs(c) <= _HERMITE_GUARD * np.abs(d)
    return linear + np.where(keep, c, 0.0)


def stieltjes_grid(H: AtomicMeasure, gamma: float, points_per_interval: int = 1000,
                   epsilon: float = 5e-6) -> StieltjesCurve:
    """Evaluate v on uniform midpoint grids inside each support interval.

    Three edge samples per support edge, at 1/64, 1/16 and 1/4 of the way
    from the edge to its nearest midpoint (``edge_samples``), and every
    32nd grid point of an interval, with its last, are the anchors.  Each
    is solved at x + i*min(eta_0, d), with eta_0 = 1e-2 * span and d the
    distance from x to the nearer edge of its interval, by Newton from a
    contraction run, and then taken to round-off by one Newton run at
    eta = 0.  The other every-16th grid points, and then all the others,
    each get a single Newton run at eta = 0, started from the solved
    level above interpolated in theta = arccos(1 - 2 (x - lo)/(hi - lo))
    + pi * (interval index), in which v is smooth at both sqrt edges of an
    interval.  The start is the cubic Hermite interpolant with slopes
    dv/dtheta = v' (hi - lo)/2 sin(theta - pi j) from the solved points'
    own v', or the linear one where the cubic's correction exceeds 0.1 of
    the step in v between its nodes: about 3.1 atom-sum evaluations per
    point on the AR(1) rho = 0.7 bulk, against 4.2 with linear starts
    from contraction runs on every 16th point.  v' is 1/x'(v) from each
    point's own Newton run.  A point whose residual stays above 1e-8,
    whose Im v is not positive beyond round-off (a real root of
    x(v) = x) or where v' is undefined fails; a failed point of the later
    levels is retried once by the anchors' path.  A grid point that still
    fails, an anchor included, gets one more Newton run at eta = 0 from the
    Hermite start through every solved grid point, and a point that fails
    that too is dropped and recorded with its first reason, never
    interpolated.
    The boundary value of v exists up to the edges, and the samples pin
    down the tail of a sqrt-singular density far better than
    extrapolation from the grid.
    An edge keeps its samples only when all three succeed; otherwise it is
    left unrefined and listed once, at its failed sample farthest from the
    edge.  ``epsilon`` changes no number; it is still accepted because the
    benchmark in perfbench/ passes it.
    """
    if points_per_interval < MIN_POINTS_PER_INTERVAL:
        raise ValueError(f"points_per_interval must be at least {MIN_POINTS_PER_INTERVAL}, "
                         f"not {points_per_interval!r}")
    support = support_intervals(H, gamma)
    n = points_per_interval
    lo, hi = np.array(support.intervals).T
    cells = (hi - lo) / n
    xs = np.concatenate([a + (np.arange(n) + 0.5) * cell for a, cell in zip(lo, cells)])
    ids = np.repeat(np.arange(cells.size), n)

    # edge samples, each edge's row in ascending distance: (0, lo), (0, hi), (1, lo), ...
    keys = [(j, side) for j in range(cells.size) for side in ("lo", "hi")]
    edge = np.column_stack([lo, hi]).ravel()
    near = np.column_stack([xs[::n], xs[n - 1::n]]).ravel()
    dists = np.abs(near - edge)[:, None] * np.array([1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0])
    inward = np.tile([1.0, -1.0], cells.size)[:, None]
    x = np.concatenate([xs, (edge[:, None] + inward * dists).ravel()])
    own = np.concatenate([ids, np.repeat(np.arange(cells.size), 2 * dists.shape[1])])
    eta = np.minimum(1e-2 * (hi[-1] - lo[0]), np.minimum(x - lo[own], hi[own] - x))
    z = x + 1j * eta

    # theta rises through each interval and by pi from one to the next:
    # x = lo + (hi - lo) (1 - cos(theta - pi j))/2 on interval j
    theta = np.arccos(1.0 - 2.0 * (x - lo[own]) / (hi[own] - lo[own])) + np.pi * own
    dx_dtheta = 0.5 * (hi[own] - lo[own]) * np.sin(theta - np.pi * own)
    v = np.full(x.size, np.nan, dtype=complex)
    vp = np.full(x.size, np.nan, dtype=complex)
    failed: dict = {}

    def contraction(points: np.ndarray) -> None:
        v[points], vp[points], fails = _contraction_points(H, gamma, x[points], z[points])
        failed.update({points[i]: reason for i, reason in fails.items()})

    def refine(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
        # one Newton run at eta = 0 per point, from the solved nodes'
        # Hermite prediction in theta; returns the points that failed it
        good = np.setdiff1d(nodes, list(failed))
        good = good[np.argsort(theta[good])]
        if not good.size:
            return points
        v0 = _hermite_start(theta[good], v[good], vp[good] * dx_dtheta[good], theta[points])
        v[points], vp[points], fails = _real_points(H, gamma, x[points], v0)
        return points[sorted(fails)]

    # the anchors: every _ANCHOR_STRIDE-th grid point of an interval, its
    # last, and the edge samples; then the other coarse points, then all
    # others, whose failed points take the contraction route
    j = np.arange(x.size) % n
    anchor = (j % _ANCHOR_STRIDE == 0) | (j == n - 1) | (np.arange(x.size) >= xs.size)
    middle = ~anchor & (j % _COARSE_STRIDE == 0)
    contraction(np.flatnonzero(anchor))
    for nodes, points in ((anchor, middle), (anchor | middle, ~anchor & ~middle)):
        again = refine(np.flatnonzero(nodes), np.flatnonzero(points))
        if again.size:
            contraction(again)
    # a grid point that failed its route is retried once from the Hermite
    # prediction through every solved grid point, whose nearest nodes are
    # one cell away; it keeps its first reason if it fails again
    retry = np.array([i for i in sorted(failed) if i < xs.size], dtype=int)
    if retry.size:
        solved = np.setdiff1d(np.arange(xs.size), retry)
        for i in np.setdiff1d(retry, refine(solved, retry)):
            del failed[i]
    dropped = [(float(x[i]), failed[i]) for i in sorted(failed) if i < xs.size]
    if len(dropped) == xs.size:
        raise SilversteinError("all grid points failed to converge")
    keep = np.setdiff1d(np.arange(xs.size), list(failed))

    # a row's distances ascend, so its last failed sample is the farthest
    m = dists.shape[1]
    edge_failed = {(i - xs.size) // m: (float(x[i]), failed[i]) for i in sorted(failed)
                   if i >= xs.size}
    vs, vps = v[xs.size:].reshape(dists.shape), vp[xs.size:].reshape(dists.shape)
    # read-only, as the atoms of a measure are: a statistic keeps the grid
    # itself, and a curve may serve several builds
    grid, v_kept, vp_kept, ids_kept = xs[keep], v[keep], vp[keep], ids[keep]
    for a in (grid, v_kept, vp_kept, ids_kept, dists, vs, vps):
        a.setflags(write=False)
    # fraction of zero sample eigenvalues: population null directions plus
    # any rank deficit when the dimension exceeds the sample size
    w0 = float(np.sum(H.weights[H.atoms == 0.0]))
    atom0 = max(0.0, 1.0 - min(1.0 - w0, 1.0 / gamma))
    return StieltjesCurve(
        H=H,
        gamma=gamma,
        grid=grid,
        v=v_kept,
        v_prime=vp_kept,
        support=support,
        interval_id=ids_kept,
        dropped=dropped,
        atom_at_zero=atom0,
        edge_samples={key: (dists[e], vs[e], vps[e]) for e, key in enumerate(keys)
                      if e not in edge_failed},
        edge_failures=[edge_failed[e] for e in sorted(edge_failed)],
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


def esd_moment(curve: StieltjesCurve, k: int) -> float:
    """k-th moment of the limiting distribution by grid quadrature.

    The atom at zero present for gamma > 1 contributes nothing for k >= 1.
    The first moment reproduces the population mean and is cross-checked
    against it in the tests.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("moment order restricted to 1..4")
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
