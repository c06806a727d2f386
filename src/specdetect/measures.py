"""Discrete probability measures on the nonnegative half-line.

These carry the population spectra: the noise bulk, the spike
distributions under null and alternative, and any mixture of them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["AtomicMeasure"]

_WEIGHT_TOL = 1e-12


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "AtomicMeasure":
        for key in ("atoms", "weights"):
            if key not in payload:
                raise KeyError(f"measure is missing required field '{key}'")
        return cls(np.asarray(payload["atoms"], float), np.asarray(payload["weights"], float))

    @classmethod
    def from_json(cls, text: str) -> "AtomicMeasure":
        return cls.from_dict(json.loads(text))
