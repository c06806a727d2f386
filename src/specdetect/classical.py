"""Classical identity/sphericity tests and their equivalent spectral statistics.

Every entry carries the original eigenvalue statistic together with a
builder for the asymptotically equivalent test function, parameterized by
the limiting-distribution moments m_i so that the equivalence holds for
arbitrary population spectra, not just the white-noise null.  A
delta-method linearization reduces smooth bivariate functionals of two
statistics to a single equivalent one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .io import reject_unknown
from .measures import AtomicMeasure
from .mp import StieltjesCurve, esd_expectation, forward_moments
from .optimal import SEG_OUTSIDE, SEG_SUPPORT, LssFunction

__all__ = [
    "TestCatalogEntry",
    "catalog_ids",
    "equivalent_lss",
    "evaluate_statistic",
    "linearize",
    "omh_z",
]


def omh_z(t: float, gamma: float) -> float:
    """Sample-spike location z(t) = t * (1 + gamma/(t-1)) for the white-noise bulk."""
    if t == 1.0:
        raise ValueError("z(t) undefined at t = 1")
    return t * (1.0 + gamma / (t - 1.0))


def _require_positive(eigs: np.ndarray, what: str) -> None:
    if np.any(eigs <= 0):
        raise ValueError(f"{what} requires strictly positive eigenvalues")


@dataclass(frozen=True)
class TestCatalogEntry:
    """One classical test: original statistic plus equivalent-LSS builder."""

    test_id: str
    build: Callable[..., Callable[[np.ndarray], np.ndarray]]
    original: Callable[..., float]
    needs: tuple[str, ...] = ()  # required parameter names


def _entry_definitions() -> list[TestCatalogEntry]:
    def lrt_identity_lss(m, gamma, params):
        return lambda x: x - np.log(x) - 1.0

    def lrt_identity_stat(eigs, n, params):
        _require_positive(eigs, "identity LRT")
        return float(np.sum(eigs) - np.sum(np.log(eigs)) - eigs.size)

    def mauchly_lss(m, gamma, params):
        return lambda x: x / m[0] - np.log(x / m[0]) - 1.0

    def mauchly_stat(eigs, n, params):
        _require_positive(eigs, "sphericity LRT")
        p = eigs.size
        return float(p * math.log(np.mean(eigs)) - np.sum(np.log(eigs)))

    def john_identity_lss(m, gamma, params):
        return lambda x: np.asarray(x, dtype=float)

    def john_identity_stat(eigs, n, params):
        return float(np.sum(eigs))

    def john_sphericity_lss(m, gamma, params):
        return lambda x: m[0] * x**2 - 2.0 * m[1] * x

    def john_sphericity_stat(eigs, n, params):
        p = eigs.size
        scaled = p * eigs / np.sum(eigs)
        return float(np.sum((scaled - 1.0) ** 2))

    def nagao_lss(m, gamma, params):
        return lambda x: (x - 1.0) ** 2

    def nagao_stat(eigs, n, params):
        return float(np.sum((eigs - 1.0) ** 2))

    def ledoit_wolf_lss(m, gamma, params):
        return lambda x: x**2 - 2.0 * (1.0 + gamma * m[0]) * x

    def ledoit_wolf_stat(eigs, n, params):
        return float(np.sum((eigs - 1.0) ** 2) - np.sum(eigs) ** 2 / n)

    def fisher_lss(m, gamma, params):
        return lambda x: m[1] * x**4 - 2.0 * m[3] * x**2

    def fisher_stat(eigs, n, params):
        return float(eigs.size * np.sum(eigs**4) / np.sum(eigs**2) ** 2)

    def omh_identity_lss(m, gamma, params):
        z = omh_z(params["t"], gamma)
        def phi(x):
            arg = z - np.asarray(x, dtype=float)
            if np.any(arg <= 0):
                raise ValueError("z(t) - x must stay positive: spike is supercritical "
                                 "for this grid")
            return -np.log(arg)
        return phi

    def omh_sphericity_lss(m, gamma, params):
        slope = (params["t"] - 1.0) / gamma
        phi = omh_identity_lss(m, gamma, params)
        return lambda x: phi(x) - slope * np.asarray(x, dtype=float)

    def on_sample(build):
        # the statistic is the sum of the equivalent LSS at gamma = p/n
        return lambda eigs, n, params: float(np.sum(build(None, eigs.size / n, params)(eigs)))

    def reg_lrt_lss(m, gamma, params):
        lam = params["lam"]
        return lambda x: x - np.log(x + lam)

    def reg_lrt_stat(eigs, n, params):
        lam = params["lam"]
        if np.any(eigs + lam <= 0):
            raise ValueError("regularized LRT requires eigenvalues + lam > 0")
        return float(np.sum(eigs) - np.sum(np.log(eigs + lam)))

    return [
        TestCatalogEntry("lrt-identity", lrt_identity_lss, lrt_identity_stat),
        TestCatalogEntry("mauchly", mauchly_lss, mauchly_stat),
        TestCatalogEntry("john-identity", john_identity_lss, john_identity_stat),
        TestCatalogEntry("john-sphericity", john_sphericity_lss, john_sphericity_stat),
        TestCatalogEntry("nagao", nagao_lss, nagao_stat),
        TestCatalogEntry("ledoit-wolf", ledoit_wolf_lss, ledoit_wolf_stat),
        TestCatalogEntry("fisher-2010", fisher_lss, fisher_stat),
        TestCatalogEntry("omh-identity", omh_identity_lss, on_sample(omh_identity_lss),
                         needs=("t",)),
        TestCatalogEntry("omh-sphericity", omh_sphericity_lss, on_sample(omh_sphericity_lss),
                         needs=("t",)),
        TestCatalogEntry("regularized-lrt", reg_lrt_lss, reg_lrt_stat, needs=("lam",)),
    ]


_CATALOG = {e.test_id: e for e in _entry_definitions()}


def catalog_ids() -> list[str]:
    return list(_CATALOG)


def _resolve_entry(entry: TestCatalogEntry | str, params: dict) -> TestCatalogEntry:
    """The catalog entry named by ``entry`` (or ``entry`` itself), given exactly what it needs."""
    if isinstance(entry, str):
        try:
            entry = _CATALOG[entry]
        except KeyError:
            raise KeyError(f"unknown test id '{entry}'; known: {catalog_ids()}") from None
    for name in entry.needs:
        if name not in params:
            raise ValueError(f"test '{entry.test_id}' requires parameter '{name}'")
    reject_unknown(params, entry.needs, f"test '{entry.test_id}' takes no parameter")
    return entry


def _on_curve(phi: Callable[[np.ndarray], np.ndarray], curve: StieltjesCurve) -> LssFunction:
    """phi on the curve's grid, held at its end values out to the enclosing interval."""
    a, b = curve.support.enclosing_interval
    return LssFunction(grid=np.concatenate([[a], curve.grid, [b]]),
                       values=np.pad(phi(curve.grid), 1, mode="edge"),
                       segments=[SEG_OUTSIDE] + [SEG_SUPPORT] * curve.grid.size + [SEG_OUTSIDE])


def equivalent_lss(entry: TestCatalogEntry | str, H: AtomicMeasure, gamma: float,
                   curve: StieltjesCurve, **params) -> LssFunction:
    """Equivalent test function of a catalog entry on the curve's grid.

    Moments m_1..m_4 of the limiting distribution are resolved exactly
    from (H, gamma) so the catalog algebra (e.g. the sphericity LRT
    reducing to the identity LRT at unit mean) holds to round-off.
    """
    entry = _resolve_entry(entry, params)
    return _on_curve(entry.build(forward_moments(H, gamma, 4), gamma, params), curve)


def evaluate_statistic(entry: TestCatalogEntry | str, eigenvalues, n: int, **params) -> float:
    """Original-form statistic on a set of sample eigenvalues."""
    entry = _resolve_entry(entry, params)
    return entry.original(np.asarray(eigenvalues, dtype=float), n, params)


def linearize(y_gradient: Callable[[float, float], tuple[float, float]],
              phi: Callable[[np.ndarray], np.ndarray],
              psi: Callable[[np.ndarray], np.ndarray],
              curve: StieltjesCurve,
              phi_at_zero: float | None = None,
              psi_at_zero: float | None = None,
              sigma_check: Callable[[np.ndarray], float] | None = None) -> LssFunction:
    """Delta-method reduction of y(T(phi)/p, T(psi)/p) to one test function.

    Returns j = d1*phi + d2*psi with the gradient of y taken at the
    limiting means (F(phi), F(psi)) computed by grid quadrature.  If
    ``sigma_check`` (mapping grid values to an asymptotic variance) is
    supplied, a vanishing variance is rejected, since the equivalence
    needs a nondegenerate limit.
    """
    a1 = esd_expectation(curve, phi, f_at_zero=phi_at_zero)
    a2 = esd_expectation(curve, psi, f_at_zero=psi_at_zero)
    d1, d2 = y_gradient(a1, a2)
    j = _on_curve(lambda x: d1 * phi(x) + d2 * psi(x), curve)
    if sigma_check is not None and sigma_check(j.values[1:-1]) <= 0:
        raise ValueError("linearized statistic has zero asymptotic variance")
    return j
