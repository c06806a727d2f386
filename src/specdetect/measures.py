"""Discrete probability measures on the nonnegative half-line.

These carry the population spectra: the noise bulk, the spike
distributions under null and alternative, and any mixture of them.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .io import reject_unknown

__all__ = ["AtomicMeasure", "ar1_eigenvalues"]

_WEIGHT_TOL = 1e-12

# what each key of a bulk description holds: its name in messages, whether
# it is a list, and the type of the value or of each item
_BULK_VALUES = {
    "rho": ("a number", False, numbers.Real),
    "p": ("an integer", False, numbers.Integral),
    "atoms": ("a list of numbers", True, numbers.Real),
    "weights": ("a list of numbers", True, numbers.Real),
}


def ar1_eigenvalues(rho: float, p: int) -> np.ndarray:
    """Descending eigenvalues of the p x p first-order autoregressive matrix
    with entries rho^|i-j|; rho = 0 degenerates to the identity."""
    if p < 2:
        raise ValueError(f"p must be at least 2, not {p!r}")
    if rho == 0.0:
        return np.ones(p)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), not {rho!r}")
    i = np.arange(p)
    sigma = rho ** np.abs(i[:, None] - i)
    return np.sort(np.linalg.eigvalsh(sigma))[::-1]


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finite mixture of point masses ``sum_i w_i * delta_{t_i}`` on [0, inf).

    Atoms are kept strictly increasing; constructing with duplicate
    locations merges them by summing weights.  Weights must be positive
    and sum to one within 1e-12.  Two measures are equal when their atoms
    and weights are equal value for value, and equal measures hash alike.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.shape != weights.shape:
            raise ValueError("atoms and weights must be 1-d arrays of equal length")
        if atoms.size == 0:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite(atoms)) or np.any(atoms < 0):
            raise ValueError("atoms must be finite and nonnegative")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValueError("weights must be finite and positive")
        order = np.argsort(atoms, kind="stable")
        atoms = atoms[order]
        weights = weights[order]
        # merge exact duplicates by summing their weights
        keep = np.concatenate([[True], np.diff(atoms) > 0])
        if not keep.all():
            idx = np.cumsum(keep) - 1
            merged = np.zeros(keep.sum())
            np.add.at(merged, idx, weights)
            atoms = atoms[keep]
            weights = merged
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    # both arrays are read-only, so the value a hash is taken of never changes
    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return (np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:
        # float hashing: -0.0 and 0.0 hash alike, as they compare equal
        return hash((tuple(self.atoms.tolist()), tuple(self.weights.tolist())))

    # -- constructors ------------------------------------------------

    @classmethod
    def point_mass(cls, location: float) -> "AtomicMeasure":
        return cls(np.array([float(location)]), np.array([1.0]))

    @classmethod
    def uniform(cls, locations) -> "AtomicMeasure":
        """Uniform weights on the given locations (a matrix spectrum, say)."""
        locations = np.asarray(locations, dtype=float)
        n = locations.size
        return cls(locations, np.full(n, 1.0 / n))

    @classmethod
    def mixture(cls, parts: list[tuple[float, "AtomicMeasure"]]) -> "AtomicMeasure":
        """Convex combination ``sum_j a_j * mu_j`` with ``a_j`` summing to 1."""
        coeffs = np.array([a for a, _ in parts], dtype=float)
        if np.any(coeffs <= 0) or abs(coeffs.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("mixture coefficients must be positive and sum to 1")
        atoms = np.concatenate([m.atoms for _, m in parts])
        weights = np.concatenate([a * m.weights for a, m in parts])
        return cls(atoms, weights)

    # -- queries -----------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    def moment(self, k: int) -> float:
        """k-th raw moment ``sum w_i t_i^k``."""
        return float(np.sum(self.weights * self.atoms**k))

    def is_zero_mass_at_origin(self) -> bool:
        """True when the measure is exactly the point mass at zero."""
        return self.n_atoms == 1 and self.atoms[0] == 0.0

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "AtomicMeasure":
        """The bulk a config field describes, in one of two forms:

        - a measure, {"atoms": [..], "weights": [..]} with an optional "p",
          the dimension of a matrix with this spectrum, for which each
          weight times p must be a positive integer;
        - the AR(1) shorthand {"kind": "ar1", "rho": rho, "p": p}, the
          spectrum of the p x p matrix rho^|i-j| (``ar1_eigenvalues``).

        A missing key raises ``KeyError``; an unknown kind or key, a value of
        the wrong type or out of range, and a payload that is no object raise
        ``ValueError``.  Each message names the key.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"bulk must be an object, not {type(payload).__name__}")
        if "kind" in payload and payload["kind"] != "ar1":
            raise ValueError(f"unknown bulk kind {payload['kind']!r}")
        name, required = (("bulk 'ar1'", ("kind", "rho", "p")) if "kind" in payload
                          else ("measure", ("atoms", "weights")))
        for key in required:
            if key not in payload:
                raise KeyError(f"{name} is missing required key '{key}'")
        reject_unknown(payload, (*required, "p"), f"{name} has no key")
        for key, (what, listed, kind) in _BULK_VALUES.items():
            value = payload.get(key, [] if listed else 0)
            items = value if listed and isinstance(value, list) else [value]
            if listed != isinstance(value, list) or not all(
                    isinstance(v, kind) and not isinstance(v, bool) for v in items):
                raise ValueError(f"{name} key '{key}' must be {what}, not {value!r}")
        if "kind" in payload:
            return cls.uniform(ar1_eigenvalues(payload["rho"], payload["p"]))
        measure = cls(np.asarray(payload["atoms"], float), np.asarray(payload["weights"], float))
        if "p" in payload:
            scaled = measure.weights * payload["p"]
            counts = np.rint(scaled)
            if np.any(counts < 1) or np.any(np.abs(scaled - counts) > _WEIGHT_TOL * payload["p"]):
                raise ValueError(f"measure weights times p = {payload['p']} must be positive "
                                 f"integers, not {scaled.tolist()}")
        return measure

    @classmethod
    def eigenvalues_from_dict(cls, payload: dict) -> np.ndarray:
        """The p ascending eigenvalues of the bulk ``payload`` describes (see
        ``from_dict``), which must name its dimension "p": atom t_i repeated
        w_i p times."""
        bulk = cls.from_dict(payload)
        if "p" not in payload:
            raise KeyError("measure is missing required key 'p'")
        return np.repeat(bulk.atoms, np.rint(bulk.weights * payload["p"]).astype(int))
