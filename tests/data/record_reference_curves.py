"""Record the reference curves pinned by tests/test_spectral_core.py.

The committed ``reference_curves.npz`` was written by this script run
against the scalar per-point solver at commit 54dbb45:

    PYTHONPATH=src python tests/data/record_reference_curves.py

Running it on a later tree overwrites the pin with that tree's values.
The AR(1) atoms are read from the pin itself (``ar1/atoms``, added later
from ``ar1_eigenvalues(0.7, 249)`` with default BLAS threads, which
reproduces the recorded curves) and written back unchanged.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import specdetect as sd
from specdetect.weak_derivative import _edge_refinements

OUT = Path(__file__).with_name("reference_curves.npz")


def ar1_atoms() -> np.ndarray:
    """The pinned AR(1) rho=0.7, p=249 eigenvalues.

    ``ar1_eigenvalues`` rounds differently with the BLAS thread count (209
    of the 249 atoms move by up to 7e-15 between one and two threads), and
    the recorded grids are compared bit for bit, so the bulk is not
    recomputed.
    """
    return np.load(OUT)["ar1/atoms"]


def cases():
    two_atom = sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    ar1 = sd.AtomicMeasure.uniform(ar1_atoms())
    unit = sd.AtomicMeasure.point_mass(1.0)
    # name, H, gamma, grid keywords, alternative spike for the edge densities
    return [
        ("two_atom", two_atom, 0.1, {"points_per_interval": 600}, 3.0),
        ("ar1", ar1, 250 / 500, {"points_per_interval": 1000}, 4.0),
        ("unit", unit, 0.5, {"points_per_interval": 1000, "epsilon": 1e-6}, 1.6),
    ]


def main() -> None:
    data: dict[str, np.ndarray] = {"ar1/atoms": ar1_atoms()}
    for name, H, gamma, kw, spike in cases():
        curve = sd.stieltjes_grid(H, gamma, **kw)
        sup = curve.support
        data[f"{name}/grid"] = curve.grid
        data[f"{name}/v"] = curve.v
        data[f"{name}/v_prime"] = curve.v_prime
        data[f"{name}/interval_id"] = curve.interval_id
        data[f"{name}/dropped_x"] = np.array([x for x, _ in curve.dropped], dtype=float)
        data[f"{name}/dropped_reason"] = np.array([r for _, r in curve.dropped], dtype=str)
        data[f"{name}/intervals"] = np.array(sup.intervals, dtype=float)
        data[f"{name}/edge_v"] = np.array(sup.edge_v, dtype=float)
        data[f"{name}/spike_windows"] = np.array(sup.spike_windows, dtype=float).reshape(-1, 4)
        refinements, gaps = _edge_refinements(H, sd.AtomicMeasure.point_mass(spike), curve)
        for (j, side), (dists, dens) in refinements.items():
            data[f"{name}/edge/{j}/{side}/dists"] = dists
            data[f"{name}/edge/{j}/{side}/density"] = dens
        data[f"{name}/edge_gaps"] = np.array(gaps, dtype=str)
    np.savez_compressed(OUT, **data)


if __name__ == "__main__":
    main()
