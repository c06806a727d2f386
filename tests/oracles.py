"""Independent reference implementations used to check the library.

Everything here is deliberately written from closed forms or brute
force, never by calling the code paths under test.
"""
from __future__ import annotations

import cmath
import math
from math import comb

import numpy as np


def mp_companion_transform(z: complex, sigma: float = 1.0, gamma: float = 0.5) -> complex:
    """Closed-form companion transform for a single-atom population at sigma.

    Root of the quadratic z*sigma*v^2 + (z + sigma - gamma*sigma)*v + 1 = 0
    with positive imaginary part (upper-half-plane branch).
    """
    a = z * sigma
    b = z + sigma - gamma * sigma
    disc = cmath.sqrt(b * b - 4.0 * a)
    r1 = (-b + disc) / (2.0 * a)
    r2 = (-b - disc) / (2.0 * a)
    return r1 if r1.imag > 0 else r2


def mp_density(x: np.ndarray, gamma: float) -> np.ndarray:
    """Closed-form density of the limiting law for a unit single-atom population."""
    a = (1.0 - math.sqrt(gamma)) ** 2
    b = (1.0 + math.sqrt(gamma)) ** 2
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > a) & (x < b)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (2.0 * math.pi * gamma * xi)
    return out


def mp_edges(gamma: float, sigma: float = 1.0) -> tuple[float, float]:
    return sigma * (1.0 - math.sqrt(gamma)) ** 2, sigma * (1.0 + math.sqrt(gamma)) ** 2


def omh_lss(x: np.ndarray, t: float, gamma: float) -> np.ndarray:
    """Reference test function -log(z(t) - x) with z(t) = t*(1 + gamma/(t-1))."""
    z = t * (1.0 + gamma / (t - 1.0))
    return -np.log(z - np.asarray(x, dtype=float))


def finite_difference(f, z: complex, step: float = 1e-5) -> complex:
    """Central difference along the real direction."""
    return (f(z + step) - f(z - step)) / (2.0 * step)


def normalize_curve(values: np.ndarray) -> np.ndarray:
    """Anchor at the first point and scale to unit max-abs (plot convention)."""
    v = np.asarray(values, dtype=float)
    v = v - v[0]
    scale = np.max(np.abs(v))
    return v / scale if scale > 0 else v


def mad(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(a) - np.asarray(b))))


def direct_sample_eigenvalues(pop_eigs, n: int, seed) -> np.ndarray:
    """Ascending eigenvalues of X^T X / n with X = Z diag(sqrt(pop_eigs)),
    Z an n x p matrix of standard normals drawn first from ``seed``."""
    pop = np.asarray(pop_eigs, dtype=float)
    z = np.random.default_rng(seed).standard_normal((n, pop.size))
    x = z * np.sqrt(pop)
    return np.linalg.eigvalsh(x.T @ x / n)


def spike_forward_map(atoms, weights, gamma: float, s: float) -> tuple[float, float]:
    """psi(s) and psi'(s) of a discrete bulk, each from one exactly rounded sum.

    psi(s) = s * [1 + gamma * sum w t/(s - t)] and
    psi'(s) = 1 - gamma * sum w t^2/(s - t)^2.
    """
    terms = [(w * t / (s - t), w * t * t / (s - t) ** 2) for t, w in zip(atoms, weights)]
    return (s * (1.0 + gamma * math.fsum(a for a, _ in terms)),
            1.0 - gamma * math.fsum(b for _, b in terms))


def _companion_transform(atoms, weights, gamma: float, z: np.ndarray):
    """v(z) and v'(z) at complex z off the real axis, for the bulk sum w delta_t.

    v solves z = -1/v + gamma * sum w t/(1 + t v) with Im v of the sign of
    Im z.  The fixed-point iteration v <- -1/(z - gamma * sum w t/(1 + t v))
    maps that half-plane into itself and converges there; Newton steps on
    z(v) then polish v, and v' = 1/z'(v).
    """
    t = np.asarray(atoms, dtype=float)[:, None]
    w = np.asarray(weights, dtype=float)[:, None]
    v = -1.0 / z
    for _ in range(5000):
        new = -1.0 / (z - gamma * np.sum(w * t / (1.0 + t * v), axis=0))
        done = np.max(np.abs(new - v)) <= 1e-14 * np.max(np.abs(new))
        v = new
        if done:
            break
    for _ in range(3):
        z_of_v = -1.0 / v + gamma * np.sum(w * t / (1.0 + t * v), axis=0)
        dz_dv = 1.0 / v**2 - gamma * np.sum(w * t * t / (1.0 + t * v) ** 2, axis=0)
        v = v - (z_of_v - z) / dz_dv
    return v, 1.0 / dz_dv


def _top_edge(atoms, weights, gamma: float) -> float:
    """Top edge of the support: x(v) at the root of g(v) = 1 in (-1/t_max, 0).

    x'(v) = (1 - g(v))/v^2 with g(v) = gamma * sum w (t v/(1 + t v))^2, and g
    falls from infinity to 0 across that interval, so bisection finds it.
    """
    t = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    lo, hi = -1.0 / np.max(t), 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma * np.sum(w * (t * mid / (1.0 + t * mid)) ** 2) > 1.0:
            lo = mid
        else:
            hi = mid
    return float(-1.0 / hi + gamma * np.sum(w * t / (1.0 + t * hi)))


def contour_cov(H, gamma: float, f, g, nodes: int = 400) -> float:
    """Limiting covariance of sum f(lambda_i) and sum g(lambda_i), real case.

    Bai & Silverstein (2004):
    Cov(f, g) = -1/(2 pi^2) oint oint f(z1) g(z2) v'(z1) v'(z2) / (v(z1) - v(z2))^2 dz1 dz2,
    with z1 and z2 on two nested counterclockwise ellipses centred at x_max/2
    (x_max the top edge), of semi-axes (0.62 x_max, 0.25 x_max + 0.05) and
    (0.8 x_max, 0.45 x_max + 0.1).  Both enclose the support and 0, and the
    midpoint rule in the angle, ``nodes`` points each, puts no node on the
    real axis.  f and g must be analytic inside the outer ellipse.
    """
    x_max = _top_edge(H.atoms, H.weights, gamma)
    theta = 2.0 * math.pi * (np.arange(nodes) + 0.5) / nodes

    def ellipse(a: float, b: float):
        z = 0.5 * x_max + a * np.cos(theta) + 1j * b * np.sin(theta)
        dz = (-a * np.sin(theta) + 1j * b * np.cos(theta)) * (2.0 * math.pi / nodes)
        v, v_prime = _companion_transform(H.atoms, H.weights, gamma, z)
        return z, v, v_prime * dz

    z1, v1, dv1 = ellipse(0.62 * x_max, 0.25 * x_max + 0.05)
    z2, v2, dv2 = ellipse(0.8 * x_max, 0.45 * x_max + 0.1)
    total = (f(z1) * dv1) @ ((1.0 / (v1[:, None] - v2[None, :]) ** 2) @ (g(z2) * dv2))
    return float((-total / (2.0 * math.pi**2)).real)


def unit_bulk_power_variance(gamma: float, k: int) -> float:
    """Limiting Var sum lambda_i^k on the unit bulk, real case (Bai & Silverstein 2004):

    2 gamma^(2k) sum_{k1<k} sum_{k2<=k} C(k,k1) C(k,k2) ((1-gamma)/gamma)^(k1+k2)
      * sum_{l=1}^{k-k1} l C(2k-1-k1-l, k-1) C(2k-1-k2+l, k-1).
    """
    c = (1.0 - gamma) / gamma
    return 2 * gamma ** (2 * k) * sum(
        comb(k, k1) * comb(k, k2) * c ** (k1 + k2)
        * sum(l * comb(2 * k - 1 - k1 - l, k - 1) * comb(2 * k - 1 - k2 + l, k - 1)
              for l in range(1, k - k1 + 1))
        for k1 in range(k) for k2 in range(k + 1))


def power_mean_shift(H, G0, G1, gamma: float, k: int) -> float:
    """Limiting mean shift of sum lambda_i^k, k = 1, 2 or 3, when one spike
    slot moves from G0 to G1: the derivative of the moment m_k of the
    limiting law toward G1 - G0.

    With h_j the moments of H and d_j = int t^j d(G1 - G0):
    D m_1 = d_1, D m_2 = d_2 + 2 gamma h_1 d_1 and
    D m_3 = d_3 + 3 gamma (h_1 d_2 + h_2 d_1) + 3 gamma^2 h_1^2 d_1,
    from m_2 = h_2 + gamma h_1^2 and m_3 = h_3 + 3 gamma h_1 h_2 + gamma^2 h_1^3.
    """
    def moment(measure, j):
        return float(np.sum(measure.weights * measure.atoms**j))

    h1, h2 = moment(H, 1), moment(H, 2)
    d1, d2, d3 = (moment(G1, j) - moment(G0, j) for j in (1, 2, 3))
    return (d1, d2 + 2 * gamma * h1 * d1,
            d3 + 3 * gamma * (h1 * d2 + h2 * d1) + 3 * gamma**2 * h1**2 * d1)[k - 1]


def lan_efficacy(thetas, gamma: float, scale_known: bool) -> float:
    """Efficacy tau of the likelihood ratio test for h spikes 1 + theta_i on
    the unit bulk, each below the transition (theta_i^2 < gamma), in the
    real case (Onatski, Moreira & Hallin: one spike 2013, several 2014):

        tau^2 = -1/2 sum_ij log(1 - theta_i theta_j / gamma)

    when the noise scale is known; when it is not, each term of the sum
    gains + theta_i theta_j / gamma."""
    prod = np.outer(thetas, thetas) / gamma
    terms = np.log1p(-prod) + (0.0 if scale_known else prod)
    return math.sqrt(-0.5 * float(np.sum(terms)))
