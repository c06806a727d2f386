"""Classical identity/sphericity tests and their equivalent spectral statistics.

Every entry builds the asymptotically equivalent test function from the
limiting-distribution moments m_i, so the equivalence holds for arbitrary
population spectra, not just the white-noise null.  Seven tests are that
function summed over the sample at the sample's own moments; the three
that normalize by sample sums keep their own original statistic.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .io import reject_unknown
from .mp import StieltjesCurve, forward_moments
from .optimal import LssFunction, check_at_least

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


_Phi = Callable[[np.ndarray], np.ndarray]


def _guarded(phi: _Phi, ok: _Phi, message: str) -> _Phi:
    """phi, refusing with ``message`` any x outside its domain, where ok(x) fails."""
    def guarded(x):
        x = np.asarray(x, dtype=float)
        if not np.all(ok(x)):
            raise ValueError(message)
        return phi(x)
    return guarded


@dataclass(frozen=True)
class _CatalogEntry:
    """One classical test: equivalent-LSS builder and, if any, its own original statistic."""

    test_id: str
    build: Callable[..., _Phi]
    original: Callable[..., float] | None = None  # None: build's phi summed over the sample
    needs: tuple[str, ...] = ()  # required parameter names


def _entry_definitions() -> list[_CatalogEntry]:
    def lrt_identity_lss(m, gamma, params):
        return _guarded(lambda x: x - np.log(x) - 1.0, lambda x: x > 0,
                        "identity LRT requires strictly positive eigenvalues")

    def mauchly_lss(m, gamma, params):
        return _guarded(lambda x: x / m[0] - np.log(x / m[0]) - 1.0, lambda x: x > 0,
                        "sphericity LRT requires strictly positive eigenvalues")

    def john_identity_lss(m, gamma, params):
        return lambda x: np.asarray(x, dtype=float)

    def john_sphericity_lss(m, gamma, params):
        return lambda x: m[0] * x**2 - 2.0 * m[1] * x

    def john_sphericity_stat(eigs, n, params):
        total = np.sum(eigs)
        if not total > 0:
            raise ValueError("John's sphericity test requires a positive eigenvalue sum")
        return float(np.sum((eigs.size * eigs / total - 1.0) ** 2))

    def nagao_lss(m, gamma, params):
        return lambda x: (x - 1.0) ** 2

    def ledoit_wolf_lss(m, gamma, params):
        return lambda x: x**2 - 2.0 * (1.0 + gamma * m[0]) * x

    def ledoit_wolf_stat(eigs, n, params):
        return float(np.sum((eigs - 1.0) ** 2) - np.sum(eigs) ** 2 / n)

    def fisher_lss(m, gamma, params):
        return lambda x: m[1] * x**4 - 2.0 * m[3] * x**2

    def fisher_stat(eigs, n, params):
        # the ratio does not depend on scale; formed from lambda / max|lambda|,
        # it overflows no power on a huge finite sample
        scale = np.max(np.abs(eigs))
        if not scale > 0:
            raise ValueError("Fisher's 2010 test requires a positive sum of squared eigenvalues")
        unit = eigs / scale
        return float(eigs.size * np.sum(unit**4) / np.sum(unit**2) ** 2)

    def omh_identity_lss(m, gamma, params):
        z = omh_z(params["t"], gamma)
        return _guarded(lambda x: -np.log(z - x), lambda x: z - x > 0,
                        "z(t) - x must stay positive: spike is supercritical for this grid")

    def omh_sphericity_lss(m, gamma, params):
        slope = (params["t"] - 1.0) / gamma
        phi = omh_identity_lss(m, gamma, params)
        return lambda x: phi(x) - slope * np.asarray(x, dtype=float)

    def reg_lrt_lss(m, gamma, params):
        lam = params["lam"]
        return _guarded(lambda x: x - np.log(x + lam), lambda x: x + lam > 0,
                        "regularized LRT requires eigenvalues + lam > 0")

    return [
        _CatalogEntry("lrt-identity", lrt_identity_lss),
        _CatalogEntry("mauchly", mauchly_lss),
        _CatalogEntry("john-identity", john_identity_lss),
        _CatalogEntry("john-sphericity", john_sphericity_lss, john_sphericity_stat),
        _CatalogEntry("nagao", nagao_lss),
        _CatalogEntry("ledoit-wolf", ledoit_wolf_lss, ledoit_wolf_stat),
        _CatalogEntry("fisher-2010", fisher_lss, fisher_stat),
        _CatalogEntry("omh-identity", omh_identity_lss, needs=("t",)),
        _CatalogEntry("omh-sphericity", omh_sphericity_lss, needs=("t",)),
        _CatalogEntry("regularized-lrt", reg_lrt_lss, needs=("lam",)),
    ]


_CATALOG = {e.test_id: e for e in _entry_definitions()}


def catalog_ids() -> list[str]:
    return list(_CATALOG)


def _resolve_entry(test_id: str, params: dict) -> _CatalogEntry:
    """The catalog entry named ``test_id``, given exactly the parameters it
    needs, each a finite number."""
    try:
        entry = _CATALOG[test_id]
    except KeyError:
        raise KeyError(f"unknown test id '{test_id}'; known: {catalog_ids()}") from None
    for name in entry.needs:
        if name not in params:
            raise ValueError(f"test '{entry.test_id}' requires parameter '{name}'")
        value = params[name]
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"test '{entry.test_id}' parameter '{name}' must be a finite "
                             f"number, not {value!r}")
    reject_unknown(params, entry.needs, f"test '{entry.test_id}' takes no parameter")
    return entry


def _on_curve(phi: _Phi, curve: StieltjesCurve) -> LssFunction:
    """phi on the curve's grid; evaluation extends it."""
    return LssFunction(grid=curve.grid, values=np.array(phi(curve.grid), dtype=float))


def equivalent_lss(test_id: str, curve: StieltjesCurve, **params) -> LssFunction:
    """Equivalent test function of a catalog entry on the curve's grid.

    Moments m_1..m_4 of the limiting distribution are resolved exactly
    from the curve's bulk H and gamma so the catalog algebra (e.g. the
    sphericity LRT reducing to the identity LRT at unit mean) holds to
    round-off.
    """
    entry = _resolve_entry(test_id, params)
    m = forward_moments(curve.H, curve.gamma, 4)
    return _on_curve(entry.build(m, curve.gamma, params), curve)


def evaluate_statistic(test_id: str, eigenvalues, n: int, **params) -> float:
    """Original-form statistic on a set of sample eigenvalues: for a test
    without its own, the equivalent test function summed over the sample,
    built at gamma = p/n and at the sample mean m_1, the one moment that
    such a test function reads (mauchly's)."""
    entry = _resolve_entry(test_id, params)
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError(f"eigenvalues must be a nonempty 1-d array, not shape {eigs.shape}")
    if not np.all(np.isfinite(eigs)):
        raise ValueError("eigenvalues must be finite")
    check_at_least(n=n)
    if entry.original is not None:
        return entry.original(eigs, n, params)
    # m_2..m_4, which no such test function reads, overflow on a huge sample
    return float(np.sum(entry.build([float(np.mean(eigs))], eigs.size / n, params)(eigs)))
