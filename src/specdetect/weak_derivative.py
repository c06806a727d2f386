"""Directional derivative of the forward spectral map and its distribution function.

Perturbing the population spectrum H toward a spike distribution G moves
the limiting eigenvalue distribution; the first-order change is a signed
measure with zero total mass.  Its companion Stieltjes transform has the
closed form

    s(z) = -gamma * v'(z) * integral t/(1+t v(z)) d(G - H)(t),

which is evaluated here on the grid of a precomputed curve.  Inside the
bulk the derivative has a density pi^-1 Im(s); each supercritical spike
s_j of G additionally contributes an exact point mass gamma*u_j at its
sample location psi(s_j) = x(-1/s_j), x the real inverse map.  The
derivative is linear in G, so Delta is one pass over G1 - G0: H cancels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMeasure
from .mp import (StieltjesCurve, _inverse_map, _near_pole, _sums, derivative_map,
                 solve_silverstein, solve_real_outside)

__all__ = [
    "SpikeRecord",
    "SignedMeasureCdf",
    "spike_forward_map",
    "spike_forward_map_prime",
    "classify_spikes",
    "weak_derivative_st_at",
    "weak_derivative_cdf",
    "delta_diff",
]

_POLE_TOL = 1e-12


def _on_atom(H: AtomicMeasure, s: float, tol: float) -> bool:
    """Whether the spike s > 0 lies within tol * max(1, s) of an atom of H."""
    return bool(_near_pole(H.atoms, np.array([-1.0 / s]), tol * max(1.0, 1.0 / s))[0])


def _spike_v(H: AtomicMeasure, s: float) -> np.ndarray:
    """v = -1/s, at which x(v) = psi(s); refuses a spike on an atom of H (a pole)."""
    if s <= 0:
        raise ValueError("spike location must be positive")
    if _on_atom(H, s, _POLE_TOL):
        raise ValueError(f"spike s={s} coincides with a population atom (pole)")
    return np.array([-1.0 / s])


def spike_forward_map(H: AtomicMeasure, gamma: float, s: float) -> float:
    """Sample-spike location psi(s) = x(-1/s) = s * [1 + gamma * sum w_i t_i/(s - t_i)]."""
    return float(_inverse_map(H, gamma, _spike_v(H, s))[0][0])


def spike_forward_map_prime(H: AtomicMeasure, gamma: float, s: float) -> float:
    """Analytic derivative psi'(s) = x'(-1/s)/s^2 = 1 - gamma * sum w_i t_i^2/(s - t_i)^2."""
    return float(_inverse_map(H, gamma, _spike_v(H, s), orders=(2,))[0][0] / s**2)


@dataclass(frozen=True)
class SpikeRecord:
    location: float
    weight: float
    psi: float
    psi_prime: float
    supercritical: bool
    asy_sd: float | None = None  # sqrt(2 s^2 psi'(s)), set when supercritical


def classify_spikes(G: AtomicMeasure, curve: StieltjesCurve) -> tuple[SpikeRecord, ...]:
    """Classify each atom of G as sub- or supercritical on the curve's bulk, one record per atom.

    A spike is supercritical when it falls in one of the spike windows of
    the curve's support and psi(s) lies outside it, with no margin:
    psi - edge shrinks quadratically at the threshold.  The window test
    stays robust for tightly packed atoms, where psi of a spike buried in
    the bulk is meaningless; psi is still recorded for reporting wherever
    the spike is more than 1e-9 from every atom.
    """
    H, gamma, support = curve.H, curve.gamma, curve.support
    records = []
    for s, u in zip(G.atoms.tolist(), G.weights.tolist()):
        in_window = any(s_lo < s < s_hi for s_lo, s_hi, _, _ in support.spike_windows)
        psi = psi_p = math.nan
        if in_window or s <= 0 or not _on_atom(H, s, 1e-9):
            psi = spike_forward_map(H, gamma, s)
            psi_p = spike_forward_map_prime(H, gamma, s)
        supercritical = in_window and not support.contains(psi)
        records.append(SpikeRecord(
            location=s, weight=u, psi=psi, psi_prime=psi_p, supercritical=supercritical,
            asy_sd=math.sqrt(max(2.0 * s**2 * psi_p, 0.0)) if supercritical else None))
    return tuple(records)


# ----------------------------------------------------------------------
# Stieltjes transform of the derivative
# ----------------------------------------------------------------------

def _st_from_v(minus: AtomicMeasure, plus: AtomicMeasure, gamma: float, v: np.ndarray,
               vp) -> np.ndarray:
    """s = -gamma v' integral t/(1+tv) d(plus - minus)(t), elementwise in v and v'."""
    nu = _sums(plus, v, (1,))[0] - _sums(minus, v, (1,))[0]
    return -gamma * vp * nu


def weak_derivative_st_at(G: AtomicMeasure, curve: StieltjesCurve, z: complex) -> complex:
    """s(z) of the derivative at the curve's bulk toward G, solving for v(z) on the fly.

    For real z outside the curve's support the real-branch solve is used,
    giving an exactly real value; for Im(z) > 0 the upper-half-plane root.
    The curve's grid is not read.
    """
    H, gamma = curve.H, curve.gamma
    z = complex(z)
    if z.imag == 0:
        v = complex(solve_real_outside(H, gamma, curve.support, z.real), 0.0)
    else:
        v = solve_silverstein(H, gamma, z)
    vp = derivative_map(H, gamma, v)
    return complex(_st_from_v(H, G, gamma, np.array([v]), vp)[0])


# ----------------------------------------------------------------------
# distribution function
# ----------------------------------------------------------------------

@dataclass
class SignedMeasureCdf:
    """Distribution function of a compactly supported signed measure.

    ``cdf[m]`` is the measure of (-inf, x_m], x_m the grid of ``curve``;
    point masses are kept as an explicit list and already folded into the
    stored values for grid points beyond their location.  ``right_tail`` is
    the estimated mass between the last grid point and the top support
    edge, so ``cdf_at(x)`` for x past the support returns the total mass.
    """

    curve: StieltjesCurve
    density: np.ndarray
    cdf: np.ndarray
    point_masses: list[tuple[float, float]] = field(default_factory=list)
    right_tail: float = 0.0
    gaps: list[str] = field(default_factory=list)

    def cdf_at(self, x: float) -> float:
        """Evaluate the distribution function at an arbitrary point."""
        grid = self.curve.grid
        if x > grid[-1]:
            jumps = sum(w for loc, w in self.point_masses if grid[-1] < loc <= x)
            return float(self.cdf[-1] + self.right_tail + jumps)
        if x < grid[0]:
            return float(sum(w for loc, w in self.point_masses if loc <= x))
        i = int(np.searchsorted(grid, x, side="right")) - 1
        jumps = sum(w for loc, w in self.point_masses if grid[i] < loc <= x)
        return float(self.cdf[i] + jumps)

    @property
    def total_mass(self) -> float:
        return self.cdf_at(math.inf)

    def to_rows(self):
        yield from zip(self.curve.grid, self.density, self.cdf)


def _edge_region_masses(xs: np.ndarray, fs: np.ndarray, edge: float, inward: int,
                        n_cells: int, refined: tuple[np.ndarray, np.ndarray] | None
                        ) -> tuple[float, np.ndarray]:
    """Integrate a sqrt-singular density over the cells nearest one edge.

    Substituting u = sqrt(|x - edge|) turns the integral into
    int g(u) du with g(u) = 2 u f, which is bounded and smooth at the
    edge; the cells are integrated by the trapezoid rule in u.  The
    clipped piece between the edge and the first grid point runs over
    the nodes: the sub-cell samples ``refined`` = (distances ascending,
    values), if any, then the grid points.  A polynomial of degree
    min(2, nodes - 1) through the first three nodes covers [0, first
    node], and the trapezoid rule the rest up to the first grid point.
    Returns (tail mass in the clipped piece, per-cell masses ordered as
    the grid runs).
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
    dr, fr = refined if refined is not None else (np.empty(0), np.empty(0))
    ur = np.sqrt(dr)
    nodes_u = np.concatenate([ur, u])
    nodes_g = np.concatenate([2.0 * ur * fr, g])
    coeffs = np.polyfit(nodes_u[:3], nodes_g[:3], min(2, nodes_u.size - 1))
    tail = float(np.polyval(np.polyint(coeffs), nodes_u[0]))
    k = ur.size + 1  # the nodes up to the first grid point
    tail += float(np.sum(0.5 * (nodes_g[1:k] + nodes_g[:k - 1]) * np.diff(nodes_u[:k])))
    return tail, (cells if inward > 0 else cells[::-1])


def _integrate_signed_density(curve: StieltjesCurve, dens: np.ndarray,
                              point_masses: list[tuple[float, float]],
                              refinements: dict) -> tuple[np.ndarray, float]:
    """Cumulative integral of a signed density with sqrt-singular edges.

    Interior cells use the trapezoid rule.  Near each support edge the
    density behaves like c/sqrt(dist); plain trapezoid there loses mass
    of order sqrt(cell), so the edge regions are integrated in the
    sqrt-distance variable, helped by refined sub-cell samples keyed by
    (interval index, "lo"|"hi") in ``refinements`` where present.  Point
    masses located below a grid point are added as exact jumps.  Returns
    the cdf and the mass between the last grid point and the top edge.
    """
    cdf = np.zeros_like(dens)
    acc = 0.0
    masses_left = sorted(point_masses)
    for j in range(curve.n_intervals):
        sl = curve.interval_slice(j)
        xs = curve.grid[sl]
        fs = dens[sl]
        lo, hi = curve.support.intervals[j]
        # fold in point masses lying below this interval (gaps, or below the bulk)
        while masses_left and masses_left[0][0] < lo:
            acc += masses_left.pop(0)[1]
        n_corr = min(48, max(1, (xs.size - 1) // 4))
        left_tail, left_cells = _edge_region_masses(xs, fs, lo, +1, n_corr,
                                                    refinements.get((j, "lo")))
        tail_r, right_cells = _edge_region_masses(xs, fs, hi, -1, n_corr,
                                                  refinements.get((j, "hi")))
        cells = 0.5 * (fs[1:] + fs[:-1]) * np.diff(xs)
        cells[:left_cells.size] = left_cells
        cells[cells.size - right_cells.size:] = right_cells
        acc += left_tail
        cdf[sl.start] = acc
        cdf[sl.start + 1:sl.stop] = acc + np.cumsum(cells)
        # mass between the last grid point and the gap edge; the tail entering
        # the next interval is its own left_tail
        acc = cdf[sl.stop - 1] + tail_r
    return cdf, tail_r


def _edge_refinements(H: AtomicMeasure, G: AtomicMeasure,
                      curve: StieltjesCurve) -> tuple[dict, list[str]]:
    """Density samples at sub-cell distances from each support edge.

    Evaluates s of the derivative toward G - H (any pair of measures)
    from the v and v' the curve stored at each edge
    (``curve.edge_samples``); edges whose samples failed are recorded as
    gaps and left unrefined.
    """
    refinements = {key: (dists, _st_from_v(H, G, curve.gamma, v, vp).imag / math.pi)
                   for key, (dists, v, vp) in curve.edge_samples.items()}
    gaps = [f"edge refinement failed at x={x:.6g}: {reason}" for x, reason in curve.edge_failures]
    return refinements, gaps


def _signed_cdf(minus: AtomicMeasure, plus: AtomicMeasure, curve: StieltjesCurve,
                masses: list[tuple[float, float]]) -> SignedMeasureCdf:
    """Distribution function of the derivative toward the signed measure plus - minus.

    The density is pi^-1 Im(s), set to 0 with a gap at grid points near a
    pole of s, never interpolated.  ``masses`` are the exact (location,
    weight) point masses of the escaped spikes, placed analytically.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # at a pole; zeroed below
        dens = _st_from_v(minus, plus, curve.gamma, curve.v, curve.v_prime).imag / math.pi
    poles = _near_pole(np.concatenate([minus.atoms, plus.atoms]), curve.v, _POLE_TOL)
    dens[poles] = 0.0
    gaps = [f"near-pole grid point excluded at x={x:.8g}" for x in curve.grid[poles]]
    refinements, edge_gaps = _edge_refinements(minus, plus, curve)
    cdf, right_tail = _integrate_signed_density(curve, dens, masses, refinements)
    return SignedMeasureCdf(curve=curve, density=dens, cdf=cdf,
                            point_masses=sorted(masses), right_tail=right_tail,
                            gaps=gaps + edge_gaps)


def _escaped(G: AtomicMeasure, curve: StieltjesCurve,
             sign: float = 1.0) -> list[tuple[float, float]]:
    """(psi(s_j), sign * gamma * u_j) for each supercritical atom s_j of G."""
    return [(r.psi, sign * curve.gamma * r.weight)
            for r in classify_spikes(G, curve) if r.supercritical]


def weak_derivative_cdf(G: AtomicMeasure, curve: StieltjesCurve) -> SignedMeasureCdf:
    """Distribution function of the derivative of the forward map at the curve's bulk H toward G.

    Each supercritical atom s_j of G (weight u_j) contributes the point
    mass gamma*u_j at its sample location psi(s_j); the bulk H adds none,
    so only the atoms of G are classified.
    """
    return _signed_cdf(curve.H, G, curve, _escaped(G, curve))


def delta_diff(G0: AtomicMeasure, G1: AtomicMeasure, curve: StieltjesCurve) -> SignedMeasureCdf:
    """Derivative toward G1 minus the derivative toward G0, as one pass over G1 - G0.

    The curve's bulk H cancels from the density; the point masses are
    +gamma*u at each supercritical atom of G1 and -gamma*u at each of G0.
    """
    masses = _escaped(G1, curve) + _escaped(G0, curve, -1.0)
    return _signed_cdf(G0, G1, curve, masses)
