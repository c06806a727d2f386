"""The array spectral core against independent references.

``data/reference_curves.npz`` holds curves, supports and edge densities
recorded from the scalar per-point solver (see
``data/record_reference_curves.py``); the unit bulk is also checked
against its closed-form transform.
"""
from pathlib import Path

import numpy as np
import pytest

import specdetect as sd
from data.record_reference_curves import cases
from oracles import mp_companion_transform
from specdetect import mp
from specdetect.weak_derivative import _edge_refinements

REF = np.load(Path(__file__).parent / "data" / "reference_curves.npz")
CASES = {name: (H, gamma, kw, spike) for name, H, gamma, kw, spike in cases()}


def rel_err(a, ref) -> float:
    """Largest relative difference from ref; inf where a zero or a non-finite
    entry (nan, +-inf) of ref is not matched exactly."""
    a, ref = np.asarray(a, dtype=float), np.asarray(ref, dtype=float)
    assert a.shape == ref.shape
    finite = np.isfinite(ref)
    if not np.array_equal(a[~finite], ref[~finite], equal_nan=True):
        return np.inf
    diff = np.abs(a[finite] - ref[finite])
    scale = np.abs(ref[finite])
    rel = np.divide(diff, scale, out=np.where(diff == 0, 0.0, np.inf), where=scale > 0)
    return float(np.max(rel, initial=0.0))


@pytest.fixture(scope="module")
def curves():
    return {name: sd.stieltjes_grid(H, gamma, **kw) for name, (H, gamma, kw, _) in CASES.items()}


@pytest.mark.parametrize("name", ["two_atom", "ar1"])
class TestAgainstScalarSolver:
    def test_grid_v_and_v_prime(self, curves, name):
        curve = curves[name]
        assert rel_err(curve.grid, REF[f"{name}/grid"]) <= 1e-14
        assert np.array_equal(curve.interval_id, REF[f"{name}/interval_id"])
        assert np.max(np.abs(curve.v - REF[f"{name}/v"])) <= 1e-12
        vp = REF[f"{name}/v_prime"]
        assert np.max(np.abs(curve.v_prime - vp) / np.abs(vp)) <= 1e-10

    def test_dropped_points(self, curves, name):
        assert [x for x, _ in curves[name].dropped] == REF[f"{name}/dropped_x"].tolist()
        assert [r for _, r in curves[name].dropped] == REF[f"{name}/dropped_reason"].tolist()

    def test_support_set_matches(self, curves, name):
        # the recorded edges are bisection midpoints to within
        # 1e-13 * max(1, |v|); x is stationary in v there, so the interval
        # ends agree to round-off
        sup = curves[name].support
        assert rel_err(sup.intervals, REF[f"{name}/intervals"]) <= 1e-14
        assert rel_err(sup.enclosing_interval, REF[f"{name}/enclosing_interval"]) <= 1e-14
        assert rel_err(sup.edge_v, REF[f"{name}/edge_v"]) <= 2e-13
        windows = np.reshape(sup.spike_windows, (-1, 4))
        assert rel_err(windows, REF[f"{name}/spike_windows"]) <= 2e-13


@pytest.mark.parametrize("name", ["two_atom", "ar1", "unit"])
def test_edge_refinement_densities_unchanged(curves, name):
    H, gamma, _, spike = CASES[name]
    refinements, gaps = _edge_refinements(H, sd.AtomicMeasure.point_mass(spike), gamma,
                                          curves[name])
    assert gaps == REF[f"{name}/edge_gaps"].tolist()
    recorded = {(int(key.split("/")[2]), key.split("/")[3])
                for key in REF.files if key.startswith(f"{name}/edge/")}
    assert set(refinements) == recorded
    for (j, side), (dists, dens) in refinements.items():
        prefix = f"{name}/edge/{j}/{side}"
        assert np.array_equal(dists, REF[f"{prefix}/dists"])
        ref = REF[f"{prefix}/density"]
        assert np.max(np.abs(dens - ref) / np.abs(ref)) <= 1e-10


@pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0])
def test_unit_bulk_matches_closed_form_at_every_grid_point(mp_unit, gamma):
    curve = sd.stieltjes_grid(mp_unit, gamma, points_per_interval=1000)
    oracle = np.array([mp_companion_transform(complex(x), 1.0, gamma) for x in curve.grid])
    assert curve.dropped == []
    assert np.max(np.abs(curve.v - oracle)) <= 1e-11


def test_block_size_does_not_change_the_curve(monkeypatch):
    H = sd.AtomicMeasure(np.array([1.0, 4.0, 10.0]), np.array([0.3, 0.3, 0.4]))
    whole = sd.stieltjes_grid(H, 0.05, points_per_interval=64)
    monkeypatch.setattr(mp, "_BLOCK_ELEMENTS", 7)  # two points per block
    blocked = sd.stieltjes_grid(H, 0.05, points_per_interval=64)
    assert np.array_equal(whole.v, blocked.v)
    assert np.array_equal(whole.v_prime, blocked.v_prime)
    assert whole.support == blocked.support


def test_single_point_wrappers_agree_with_the_grid(two_atom, two_atom_curve_01):
    curve = two_atom_curve_01
    span = curve.support.intervals[-1][1] - curve.support.intervals[0][0]
    eta0 = 1e-2 * span
    for i in (0, 311, curve.grid.size - 1):
        x = float(curve.grid[i])
        v0 = sd.solve_silverstein(two_atom, 0.1, complex(x, eta0), tol=1e-10)
        v, resid, _ = mp.solve_real_limit(two_atom, 0.1, x, v0, 0.5 * eta0, 5e-8)
        assert v == curve.v[i]
        assert resid <= 1e-8


def test_failed_edge_sample_leaves_its_edge_unrefined():
    # the lower edge sits at 1.3e-7, where the derivative map is undefined at
    # the first sample toward it; the scalar solver recorded the same gap.
    # The second interval, the bulk of the atom at 1, holds half the mass.
    H = sd.AtomicMeasure(np.array([1e-6, 1.0]), np.array([0.5, 0.5]))
    curve = sd.stieltjes_grid(H, 0.5, points_per_interval=100)
    assert set(curve.edge_samples) == {(0, "hi"), (1, "lo"), (1, "hi")}
    assert sd.esd_moment(curve, H, 1) == pytest.approx(sd.forward_moments(H, 0.5, 1)[0], rel=1e-3)
    cdf = sd.weak_derivative_cdf(H, sd.AtomicMeasure.point_mass(2.0), 0.5, curve)
    assert cdf.gaps == ["edge refinement failed at x=1.34516e-07: "
                        "derivative map denominator vanished (support edge)"]
