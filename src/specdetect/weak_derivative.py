"""Directional derivative of the forward spectral map and its distribution function.

Perturbing the population spectrum H toward a spike distribution G moves
the limiting eigenvalue distribution; the first-order change is a signed
measure with zero total mass.  Its companion Stieltjes transform has the
closed form

    s(z) = -gamma * v'(z) * integral t/(1+t v(z)) d(G - H)(t),

which is evaluated here on the grid of a precomputed curve.  Inside the
bulk the derivative has a density pi^-1 Im(s); each supercritical spike
s_j of G additionally contributes an exact point mass gamma*u_j at its
sample location psi(s_j).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMeasure
from .mp import StieltjesCurve, SupportSet, derivative_map, solve_silverstein, solve_real_outside

__all__ = [
    "SpikeRecord",
    "SpikeClassification",
    "SignedMeasureCdf",
    "spike_forward_map",
    "spike_forward_map_prime",
    "classify_spikes",
    "near_pole_mask",
    "weak_derivative_st",
    "weak_derivative_st_at",
    "weak_derivative_cdf",
    "delta_diff",
    "point_mass_residue",
]

_POLE_TOL = 1e-12


def spike_forward_map(H: AtomicMeasure, gamma: float, s: float) -> float:
    """Sample-spike location psi(s) = s * [1 + gamma * sum w_i t_i/(s - t_i)]."""
    if s <= 0:
        raise ValueError("spike location must be positive")
    diffs = s - H.atoms
    if np.any(np.abs(diffs) < _POLE_TOL * max(1.0, s)):
        raise ValueError(f"spike s={s} coincides with a population atom (pole)")
    return float(s * (1.0 + gamma * np.sum(H.weights * H.atoms / diffs)))


def spike_forward_map_prime(H: AtomicMeasure, gamma: float, s: float) -> float:
    """Analytic derivative psi'(s) = 1 - gamma * sum w_i t_i^2/(s - t_i)^2."""
    diffs = s - H.atoms
    if np.any(np.abs(diffs) < _POLE_TOL * max(1.0, s)):
        raise ValueError(f"spike s={s} coincides with a population atom (pole)")
    return float(1.0 - gamma * np.sum(H.weights * H.atoms**2 / diffs**2))


@dataclass(frozen=True)
class SpikeRecord:
    location: float
    weight: float
    psi: float
    psi_prime: float
    supercritical: bool
    asy_sd: float | None = None  # sqrt(2 s^2 psi'(s)), set when supercritical


@dataclass(frozen=True)
class SpikeClassification:
    records: tuple[SpikeRecord, ...]

    @property
    def any_supercritical(self) -> bool:
        return any(r.supercritical for r in self.records)

    @property
    def supercritical(self) -> tuple[SpikeRecord, ...]:
        return tuple(r for r in self.records if r.supercritical)


def classify_spikes(H: AtomicMeasure, gamma: float, G: AtomicMeasure,
                    support: SupportSet, cell_width: float = 0.0) -> SpikeClassification:
    """Classify each atom of G as sub- or supercritical.

    A spike is supercritical when it falls in one of the support set's
    spike windows, i.e. when its sample location psi(s) escapes the bulk.
    The window test is robust for bulks with many tightly packed atoms,
    where evaluating psi at a spike buried inside the bulk is meaningless.
    ``cell_width`` > 0 additionally demands psi beyond the edge by that
    margin; the default trusts the located edges, since psi - edge shrinks
    quadratically at the threshold and any sample-space margin would mask
    the near-threshold surrogate handling.
    """
    records = []
    for s, u in zip(G.atoms, G.weights):
        in_window = any(s_lo < s < s_hi for s_lo, s_hi, _, _ in support.spike_windows)
        psi = psi_p = math.nan
        sd = None
        supercritical = False
        if in_window:
            psi = spike_forward_map(H, gamma, float(s))
            psi_p = spike_forward_map_prime(H, gamma, float(s))
            supercritical = support.distance(psi) > cell_width
            if supercritical:
                sd = math.sqrt(max(2.0 * s**2 * psi_p, 0.0))
        else:
            # psi is still well defined away from the atoms; record it for
            # reporting but the classification stands
            min_gap = float(np.min(np.abs(s - H.atoms)))
            if min_gap > 1e-9 * max(1.0, s):
                psi = spike_forward_map(H, gamma, float(s))
                psi_p = spike_forward_map_prime(H, gamma, float(s))
        records.append(
            SpikeRecord(
                location=float(s),
                weight=float(u),
                psi=psi,
                psi_prime=psi_p,
                supercritical=supercritical,
                asy_sd=sd,
            )
        )
    return SpikeClassification(records=tuple(records))


# ----------------------------------------------------------------------
# Stieltjes transform of the derivative
# ----------------------------------------------------------------------

def _st_from_v(H: AtomicMeasure, G: AtomicMeasure, gamma: float, v: np.ndarray,
               vp) -> np.ndarray:
    """s = -gamma v' integral t/(1+tv) d(G-H)(t), elementwise in v and v'."""
    nu = np.zeros_like(v, dtype=complex)
    for t, u in zip(G.atoms, G.weights):
        nu += u * t / (1.0 + t * v)
    for t, w in zip(H.atoms, H.weights):
        nu -= w * t / (1.0 + t * v)
    return -gamma * vp * nu


def near_pole_mask(H: AtomicMeasure, G: AtomicMeasure, curve: StieltjesCurve,
                   pole_tol: float = 1e-12) -> np.ndarray:
    """Grid points where some 1 + t*v(x_m) is within ``pole_tol`` of zero."""
    mask = np.zeros(curve.grid.size, dtype=bool)
    for t in np.concatenate([H.atoms, G.atoms]):
        mask |= np.abs(1.0 + t * curve.v) < pole_tol
    return mask


def weak_derivative_st(H: AtomicMeasure, G: AtomicMeasure, curve: StieltjesCurve,
                       pole_tol: float = 1e-12) -> np.ndarray:
    """s(x_m) on the curve's grid from the stored v and v'.

    Raises if any 1 + t*v(x_m) is within ``pole_tol`` of zero, which marks
    a sample spike sitting on the grid.
    """
    if near_pole_mask(H, G, curve, pole_tol).any():
        raise ValueError("near-pole: 1 + t*v vanished on the grid")
    return _st_from_v(H, G, curve.gamma, curve.v, curve.v_prime)


def weak_derivative_st_at(H: AtomicMeasure, G: AtomicMeasure, gamma: float, z: complex,
                          support: SupportSet | None = None) -> complex:
    """s(z) at an arbitrary point, solving for v(z) on the fly.

    For real z outside the support the real-branch solve is used, giving
    an exactly real value; for Im(z) > 0 the upper-half-plane root.
    """
    z = complex(z)
    if z.imag == 0:
        if support is None:
            raise ValueError("support required for real-axis evaluation")
        v = complex(solve_real_outside(H, gamma, support, z.real), 0.0)
    else:
        v = solve_silverstein(H, gamma, z)
    vp = derivative_map(H, gamma, v)
    return complex(_st_from_v(H, G, gamma, np.array([v]), vp)[0])


def point_mass_residue(H: AtomicMeasure, G: AtomicMeasure, gamma: float, x: float,
                       eps: float = 1e-7) -> float:
    """Residue-style estimate of the point mass at x: -Re(i*eps*s(x+i*eps))."""
    s = weak_derivative_st_at(H, G, gamma, complex(x, eps))
    return float(-(1j * eps * s).real)


# ----------------------------------------------------------------------
# distribution function
# ----------------------------------------------------------------------

@dataclass
class SignedMeasureCdf:
    """Distribution function of a compactly supported signed measure.

    ``cdf[m]`` is the measure of (-inf, x_m]; point masses are kept as an
    explicit list and already folded into the stored values for grid
    points beyond their location.  ``right_tail`` is the estimated mass
    between the last grid point and the top support edge, so
    ``cdf_at(x)`` for x past the support returns the total mass.
    """

    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    point_masses: list[tuple[float, float]] = field(default_factory=list)
    right_tail: float = 0.0
    gaps: list[str] = field(default_factory=list)

    def cdf_at(self, x: float) -> float:
        """Evaluate the distribution function at an arbitrary point."""
        if x >= self.grid[-1]:
            jumps = sum(w for loc, w in self.point_masses if self.grid[-1] < loc <= x)
            return float(self.cdf[-1] + self.right_tail + jumps)
        if x < self.grid[0]:
            return float(sum(w for loc, w in self.point_masses if loc <= x))
        i = int(np.searchsorted(self.grid, x, side="right")) - 1
        jumps = sum(w for loc, w in self.point_masses if self.grid[i] < loc <= x)
        return float(self.cdf[i] + jumps)

    @property
    def total_mass(self) -> float:
        return self.cdf_at(math.inf)

    def total_variation_proxy(self) -> float:
        dx = np.diff(self.grid, prepend=self.grid[0])
        return float(np.sum(np.abs(self.density) * dx) + sum(abs(w) for _, w in self.point_masses))

    def to_rows(self):
        for i in range(self.grid.size):
            yield (self.grid[i], self.density[i], self.cdf[i])


def _edge_region_masses(xs: np.ndarray, fs: np.ndarray, edge: float, inward: int,
                        n_cells: int = 48,
                        refined: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> tuple[float, np.ndarray]:
    """Integrate a sqrt-singular density over the cells nearest one edge.

    Substituting u = sqrt(|x - edge|) turns the integral into
    int g(u) du with g(u) = 2 u f, which is bounded and smooth at the
    edge; the cells are integrated by the trapezoid rule in u.  The
    clipped piece between the edge and the first grid point uses extra
    density samples at sub-cell distances when available (``refined`` =
    (distances, values), distances ascending), else a quadratic
    extrapolation of g to u = 0.  Returns (tail mass in the clipped
    piece, per-cell masses ordered as the grid runs).
    """
    n_cells = min(n_cells, xs.size - 1)
    if inward > 0:  # left edge: nearest points first
        d = xs[:n_cells + 1] - edge
        fi = fs[:n_cells + 1]
    else:
        d = (edge - xs[-(n_cells + 1):])[::-1]
        fi = fs[-(n_cells + 1):][::-1]
    u = np.sqrt(d)
    g = 2.0 * u * fi
    cells = 0.5 * (g[1:] + g[:-1]) * np.diff(u)
    if refined is not None and refined[0].size >= 2:
        ur = np.sqrt(refined[0])
        gr = 2.0 * ur * refined[1]
        # innermost piece [0, ur_0] by quadratic extrapolation, then
        # trapezoid over the refined samples up to the first grid point
        pts_u = np.concatenate([ur, u[:1]])
        pts_g = np.concatenate([gr, g[:1]])
        kfit = min(3, pts_u.size)
        coeffs = np.polyfit(pts_u[:kfit], pts_g[:kfit], kfit - 1)
        tail = float(np.polyval(np.polyint(coeffs), pts_u[0]))
        tail += float(np.sum(0.5 * (pts_g[1:] + pts_g[:-1]) * np.diff(pts_u)))
    elif u.size >= 3:
        coeffs = np.polyfit(u[:3], g[:3], 2)
        tail = float(np.polyval(np.polyint(coeffs), u[0]))
    else:
        g0 = g[0] - u[0] * (g[1] - g[0]) / (u[1] - u[0])
        tail = 0.5 * (g0 + g[0]) * u[0]
    if inward > 0:
        return tail, cells
    return tail, cells[::-1]


def _integrate_signed_density(curve: StieltjesCurve, dens: np.ndarray,
                              point_masses: list[tuple[float, float]],
                              refinements: dict | None = None) -> tuple[np.ndarray, float]:
    """Cumulative integral of a signed density with sqrt-singular edges.

    Interior cells use the trapezoid rule.  Near each support edge the
    density behaves like c/sqrt(dist); plain trapezoid there loses mass
    of order sqrt(cell), so the edge regions are integrated in the
    sqrt-distance variable, optionally helped by refined sub-cell samples
    keyed by (interval index, "lo"|"hi") in ``refinements``.  Point
    masses located below a grid point are added as exact jumps.
    """
    refinements = refinements or {}
    cdf = np.zeros_like(dens)
    acc = 0.0
    right_tail = 0.0
    masses_left = sorted(point_masses)
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        xs = curve.grid[sl]
        fs = dens[sl]
        lo, hi = curve.support.intervals[j]
        # fold in point masses lying below this interval (gaps, or below the bulk)
        while masses_left and masses_left[0][0] < lo:
            acc += masses_left.pop(0)[1]
        n = xs.size
        n_corr = min(48, max(1, (n - 1) // 4))
        left_tail, left_cells = _edge_region_masses(xs, fs, lo, +1, n_cells=n_corr,
                                                    refined=refinements.get((j, "lo")))
        tail_r, right_cells = _edge_region_masses(xs, fs, hi, -1, n_cells=n_corr,
                                                  refined=refinements.get((j, "hi")))
        cells = 0.5 * (fs[1:] + fs[:-1]) * np.diff(xs)
        cells[:left_cells.size] = left_cells
        cells[cells.size - right_cells.size:] = right_cells
        acc += left_tail
        cdf[sl.start] = acc
        cdf[sl.start + 1:sl.stop] = acc + np.cumsum(cells)
        acc = cdf[sl.stop - 1]
        if j == curve.n_intervals - 1:
            right_tail = tail_r
        else:
            acc += tail_r  # mass between the last grid point and the gap edge
            # plus the symmetric tail entering the next interval is added
            # on the next pass via its own left_tail
    return cdf, right_tail


def _edge_refinements(H: AtomicMeasure, G: AtomicMeasure, gamma: float,
                      curve: StieltjesCurve) -> tuple[dict, list[str]]:
    """Density samples at sub-cell distances from each support edge.

    Evaluates s from the v and v' the curve stored at each edge
    (``curve.edge_samples``); edges whose samples failed are recorded as
    gaps and left unrefined.
    """
    refinements = {key: (dists, _st_from_v(H, G, gamma, v, vp).imag / math.pi)
                   for key, (dists, v, vp) in curve.edge_samples.items()}
    gaps = [f"edge refinement failed at x={x:.6g}: {reason}" for x, reason in curve.edge_failures]
    return refinements, gaps


def weak_derivative_cdf(H: AtomicMeasure, G: AtomicMeasure, gamma: float,
                        curve: StieltjesCurve) -> SignedMeasureCdf:
    """Distribution function of the derivative of the forward map at H toward G.

    The density inside the bulk is pi^-1 Im(s); each supercritical atom
    s_j of G (weight u_j) contributes an exact point mass gamma*u_j at
    its sample location psi(s_j), placed analytically rather than
    detected numerically.
    """
    if abs(gamma - curve.gamma) > 1e-12:
        raise ValueError("gamma does not match the curve")
    classification = classify_spikes(H, gamma, G, curve.support)
    pole_points = near_pole_mask(H, G, curve)
    dens = _st_from_v(H, G, gamma, curve.v, curve.v_prime).imag / math.pi
    gaps = []
    if pole_points.any():
        # excluded from integration, never interpolated
        dens = np.where(pole_points, 0.0, dens)
        for x in curve.grid[pole_points]:
            gaps.append(f"near-pole grid point excluded at x={x:.8g}")
    masses = [(r.psi, gamma * r.weight) for r in classification.supercritical]
    masses.sort()
    refinements, edge_gaps = _edge_refinements(H, G, gamma, curve)
    gaps.extend(edge_gaps)
    cdf, right_tail = _integrate_signed_density(curve, dens, masses, refinements)
    return SignedMeasureCdf(
        grid=curve.grid.copy(),
        density=dens,
        cdf=cdf,
        point_masses=masses,
        right_tail=right_tail,
        gaps=gaps,
    )


def delta_diff(H: AtomicMeasure, G0: AtomicMeasure, G1: AtomicMeasure, gamma: float,
               curve: StieltjesCurve) -> SignedMeasureCdf:
    """Difference of the two derivative distribution functions on a shared grid."""
    d1 = weak_derivative_cdf(H, G1, gamma, curve)
    d0 = weak_derivative_cdf(H, G0, gamma, curve)
    if d1.grid.shape != d0.grid.shape or not np.array_equal(d1.grid, d0.grid):
        raise ValueError("grids of the two derivative cdfs do not match")
    masses = sorted(d1.point_masses + [(loc, -w) for loc, w in d0.point_masses])
    return SignedMeasureCdf(
        grid=d1.grid,
        density=d1.density - d0.density,
        cdf=d1.cdf - d0.cdf,
        point_masses=masses,
        right_tail=d1.right_tail - d0.right_tail,
        gaps=d1.gaps + d0.gaps,
    )
