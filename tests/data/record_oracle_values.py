"""Record the 40-digit oracle values gated by tests/test_spectral_core.py.

For every bulk of ``record_reference_curves.cases()`` this solves the
fixed-point equation x(v) = x with ``mpmath.findroot`` at 40 significant
digits, at each support-edge sample of the curve and at five grid points
of each support interval (its ends, quartiles and middle).  It writes v,
v' = 1/x'(v) and the density of the derivative toward the case's spike
minus the bulk, pi^-1 Im(-gamma v' int t/(1+tv) d(G - H)), each rounded
to double precision, to ``oracle_values.npz``:

    PYTHONPATH=src python tests/data/record_oracle_values.py

The tree only supplies the points (the grid, the support edges and the
edge-sample distances, all pinned by ``reference_curves.npz``) and the
start of each root search; each root is then refined to 40 digits, so
the recorded values do not depend on the solver that ran the script.
``mpmath`` is needed here only: the tests read the committed file.
"""
from __future__ import annotations

from pathlib import Path

import mpmath
import numpy as np

import specdetect as sd
from record_reference_curves import cases

OUT = Path(__file__).with_name("oracle_values.npz")
DIGITS = 40


def _oracle(H: sd.AtomicMeasure, gamma: float, spike: float, x: float, v0: complex):
    """(v, v', Delta density) at the real point x, from the start v0 near the root."""
    t = [mpmath.mpf(float(a)) for a in H.atoms]
    w = [mpmath.mpf(float(a)) for a in H.weights]
    g, xm = mpmath.mpf(gamma), mpmath.mpf(x)

    def defect(v):
        return -1 / v + g * mpmath.fsum(wi * ti / (1 + ti * v) for wi, ti in zip(w, t)) - xm

    v = mpmath.findroot(defect, mpmath.mpc(v0), tol=mpmath.mpf(10) ** (-2 * DIGITS + 10))
    scale = mpmath.fsum(abs(wi * ti / (1 + ti * v)) for wi, ti in zip(w, t)) * g + 1 / abs(v)
    if not (v.imag > 0 and abs(defect(v)) < mpmath.mpf(10) ** (-DIGITS + 5) * scale):
        raise RuntimeError(f"no upper-half-plane root at x={x!r} from v0={v0!r}")
    vp = 1 / (1 / v**2 - g * mpmath.fsum(wi * ti**2 / (1 + ti * v) ** 2 for wi, ti in zip(w, t)))
    ts = mpmath.mpf(spike)
    nu = ts / (1 + ts * v) - mpmath.fsum(wi * ti / (1 + ti * v) for wi, ti in zip(w, t))
    density = (-g * vp * nu).imag / mpmath.pi
    return complex(v), complex(vp), float(density)


def _grid_indices(curve: sd.StieltjesCurve) -> np.ndarray:
    out = []
    for j in range(curve.n_intervals):
        idx = np.flatnonzero(curve.interval_id == j)
        out += [idx[round(q * (idx.size - 1))] for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return np.array(out)


def main() -> None:
    mpmath.mp.dps = DIGITS
    data: dict[str, np.ndarray] = {}
    for name, H, gamma, kw, spike in cases():
        curve = sd.stieltjes_grid(H, gamma, **kw)
        idx = _grid_indices(curve)
        rows = [_oracle(H, gamma, spike, float(curve.grid[i]), complex(curve.v[i])) for i in idx]
        data[f"{name}/grid/index"] = idx
        data[f"{name}/grid/x"] = curve.grid[idx]
        for k, field in enumerate(("v", "v_prime", "density")):
            data[f"{name}/grid/{field}"] = np.array([r[k] for r in rows])
        for (j, side), (dists, v, _) in curve.edge_samples.items():
            edge = curve.support.intervals[j][0 if side == "lo" else 1]
            x = edge + (1.0 if side == "lo" else -1.0) * dists
            rows = [_oracle(H, gamma, spike, float(xi), complex(vi)) for xi, vi in zip(x, v)]
            prefix = f"{name}/edge/{j}/{side}"
            data[f"{prefix}/dists"] = dists
            data[f"{prefix}/x"] = x
            for k, field in enumerate(("v", "v_prime", "density")):
                data[f"{prefix}/{field}"] = np.array([r[k] for r in rows])
    np.savez_compressed(OUT, **data)


if __name__ == "__main__":
    main()
