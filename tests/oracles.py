"""Independent reference implementations used to check the library.

Everything here is deliberately written from closed forms or brute
force, never by calling the code paths under test.
"""
from __future__ import annotations

import cmath
import math

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
