"""Classical identity/sphericity tests and their equivalent spectral statistics.

Every entry carries the original eigenvalue statistic together with a
builder for the asymptotically equivalent test function, parameterized by
the limiting-distribution moments m_i so that the equivalence holds for
arbitrary population spectra, not just the white-noise null.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .io import reject_unknown
from .measures import AtomicMeasure
from .mp import StieltjesCurve, forward_moments
from .optimal import SEG_SUPPORT, LssFunction

__all__ = [
    "catalog_ids",
    "equivalent_lss",
    "evaluate_statistic",
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
class _CatalogEntry:
    """One classical test: original statistic plus equivalent-LSS builder."""

    test_id: str
    build: Callable[..., Callable[[np.ndarray], np.ndarray]]
    original: Callable[..., float]
    needs: tuple[str, ...] = ()  # required parameter names


def _entry_definitions() -> list[_CatalogEntry]:
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
        _CatalogEntry("lrt-identity", lrt_identity_lss, lrt_identity_stat),
        _CatalogEntry("mauchly", mauchly_lss, mauchly_stat),
        _CatalogEntry("john-identity", john_identity_lss, john_identity_stat),
        _CatalogEntry("john-sphericity", john_sphericity_lss, john_sphericity_stat),
        _CatalogEntry("nagao", nagao_lss, nagao_stat),
        _CatalogEntry("ledoit-wolf", ledoit_wolf_lss, ledoit_wolf_stat),
        _CatalogEntry("fisher-2010", fisher_lss, fisher_stat),
        _CatalogEntry("omh-identity", omh_identity_lss, on_sample(omh_identity_lss),
                      needs=("t",)),
        _CatalogEntry("omh-sphericity", omh_sphericity_lss, on_sample(omh_sphericity_lss),
                      needs=("t",)),
        _CatalogEntry("regularized-lrt", reg_lrt_lss, reg_lrt_stat, needs=("lam",)),
    ]


_CATALOG = {e.test_id: e for e in _entry_definitions()}


def catalog_ids() -> list[str]:
    return list(_CATALOG)


def _resolve_entry(test_id: str, params: dict) -> _CatalogEntry:
    """The catalog entry named ``test_id``, given exactly the parameters it needs."""
    try:
        entry = _CATALOG[test_id]
    except KeyError:
        raise KeyError(f"unknown test id '{test_id}'; known: {catalog_ids()}") from None
    for name in entry.needs:
        if name not in params:
            raise ValueError(f"test '{entry.test_id}' requires parameter '{name}'")
    reject_unknown(params, entry.needs, f"test '{entry.test_id}' takes no parameter")
    return entry


def _on_curve(phi: Callable[[np.ndarray], np.ndarray], curve: StieltjesCurve) -> LssFunction:
    """phi on the curve's grid; evaluation extends it."""
    return LssFunction(grid=curve.grid.copy(), values=np.array(phi(curve.grid), dtype=float),
                       segments=[SEG_SUPPORT] * curve.grid.size)


def equivalent_lss(test_id: str, H: AtomicMeasure, gamma: float, curve: StieltjesCurve,
                   **params) -> LssFunction:
    """Equivalent test function of a catalog entry on the curve's grid.

    Moments m_1..m_4 of the limiting distribution are resolved exactly
    from (H, gamma) so the catalog algebra (e.g. the sphericity LRT
    reducing to the identity LRT at unit mean) holds to round-off.
    """
    entry = _resolve_entry(test_id, params)
    return _on_curve(entry.build(forward_moments(H, gamma, 4), gamma, params), curve)


def evaluate_statistic(test_id: str, eigenvalues, n: int, **params) -> float:
    """Original-form statistic on a set of sample eigenvalues."""
    entry = _resolve_entry(test_id, params)
    return entry.original(np.asarray(eigenvalues, dtype=float), n, params)
