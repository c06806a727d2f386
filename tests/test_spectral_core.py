"""The array spectral core against independent references.

``data/reference_curves.npz`` holds curves, supports and edge densities
recorded from the scalar per-point solver (see
``data/record_reference_curves.py``).  ``data/oracle_values.npz`` holds
v, v' and the derivative density solved to 40 digits at the edge samples
and at five grid points per support interval of the same bulks (see
``data/record_oracle_values.py``); the edge densities are checked
against these, as the scalar solver's sit up to 4.7e-10 from them.  The
unit bulk is also checked against its closed-form transform.
"""
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import specdetect as sd
from data.record_reference_curves import cases
from oracles import mp_companion_transform
from specdetect import mp
from specdetect.weak_derivative import _edge_refinements

REF = np.load(Path(__file__).parent / "data" / "reference_curves.npz")
ORACLE = np.load(Path(__file__).parent / "data" / "oracle_values.npz")
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


def complex_rel_err(a, ref) -> float:
    """Largest |a - ref| / |ref| over complex entries."""
    return float(np.max(np.abs(np.asarray(a) - ref) / np.abs(ref)))


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
        assert rel_err(sup.edge_v, REF[f"{name}/edge_v"]) <= 2e-13
        windows = np.reshape(sup.spike_windows, (-1, 4))
        assert rel_err(windows, REF[f"{name}/spike_windows"]) <= 2e-13


@pytest.mark.parametrize("name", ["two_atom", "ar1", "unit"])
class TestAgainstOracle:
    def test_grid_points(self, curves, name):
        curve, prefix = curves[name], f"{name}/grid"
        idx = ORACLE[f"{prefix}/index"]
        assert np.array_equal(curve.grid[idx], ORACLE[f"{prefix}/x"])
        assert complex_rel_err(curve.v[idx], ORACLE[f"{prefix}/v"]) <= 5e-15
        assert complex_rel_err(curve.v_prime[idx], ORACLE[f"{prefix}/v_prime"]) <= 5e-13

    def test_edge_samples(self, curves, name):
        samples = curves[name].edge_samples
        assert {f"{name}/edge/{j}/{side}" for j, side in samples} == {
            key.rsplit("/", 1)[0] for key in ORACLE.files if key.startswith(f"{name}/edge/")}
        for (j, side), (dists, v, vp) in samples.items():
            prefix = f"{name}/edge/{j}/{side}"
            assert np.array_equal(dists, ORACLE[f"{prefix}/dists"])
            # v' = 1/x'(v) with x'(v) small near an edge: a round-off error
            # in v grows by |v' x''(v)| in v'
            assert complex_rel_err(v, ORACLE[f"{prefix}/v"]) <= 5e-14
            assert complex_rel_err(vp, ORACLE[f"{prefix}/v_prime"]) <= 1e-11


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
        assert rel_err(dens, ORACLE[f"{prefix}/density"]) <= 1e-11


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
    # a BLAS matrix-vector product reduces a row in an order that depends
    # on the block shape, so the curves agree to round-off
    assert np.max(np.abs(blocked.v - whole.v) / np.abs(whole.v)) <= 1e-14
    assert np.max(np.abs(blocked.v_prime - whole.v_prime) / np.abs(whole.v_prime)) <= 1e-13
    assert whole.support == blocked.support


AR1 = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.7, 249))


@pytest.mark.parametrize("orders", [(1,), (2,), (1, 2), (2, 3)])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_atom_sums_match_an_exact_per_atom_sum(orders, kind):
    # 1000 points over 249 atoms span four blocks.  Terms cancel (real v
    # crosses the poles -1/t, complex terms differ in phase), so a sum's
    # error is measured against the sum of its absolute terms
    v = np.linspace(-3.0, 1.0, 1000)
    if kind == "complex":
        v = v + 1j * np.linspace(1e-3, 1.0, 1000)
    sums = mp._sums(AR1, v, orders)
    for k, got in zip(orders, sums):
        for i in range(v.size):
            terms = AR1.weights * AR1.atoms**k / (1.0 + AR1.atoms * v[i])**k
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(got[i] - exact) <= 1e-13 * math.fsum(np.abs(terms))


def assert_certified_segments_edge_free(H, gamma) -> int:
    """Pole segments that ``support_intervals`` does not bisect have no edge.

    On each, g(v) = gamma * sum w (tv/(1+tv))^2, summed directly, is at
    least 1 at 200 interior points, and a bisection of g' over every
    segment finds its minimum where x' < 0.  Returns how many there are.
    """
    bisected = []
    bisect = mp._bisect

    def spy(f, neg, pos):
        bisected.append(np.asarray(neg, dtype=float))
        return bisect(f, neg, pos)

    with mock.patch.object(mp, "_bisect", spy):
        mp.support_intervals(H, gamma)
    poles = -1.0 / H.atoms[H.atoms > 0]
    lo, hi = poles[:-1], poles[1:]
    # the first bisection is the one of g' over the segments left open
    certified = ~np.isin(lo, bisected[0])
    inner = np.linspace(0.0, 1.0, 202)[1:-1]
    for a, b in zip(lo[certified], hi[certified]):
        tv = np.multiply.outer(a + (b - a) * inner, H.atoms)
        assert np.all(gamma * ((tv / (1.0 + tv)) ** 2 @ H.weights) >= 1.0)

    def g_slope(v):  # g'(v) / (2 gamma)
        s2, s3 = mp._sums(H, v, (2, 3))
        return v * (s2 - v * s3)

    v_min = mp._bisect(g_slope, lo, hi)
    split = mp._inverse_map(H, gamma, v_min, orders=(2,))[0] > 0
    assert not split[certified].any()
    return int(certified.sum())


@pytest.mark.parametrize("rho, n_certified", [(0.3, 248), (0.5, 248), (0.7, 248), (0.9, 221)])
def test_pole_segments_left_unbisected_have_no_edge(rho, n_certified):
    H = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(rho, 249))
    assert assert_certified_segments_edge_free(H, 0.5) == n_certified


def all_points_route(H, gamma, curve):
    """v and v' at the grid points and edge samples of ``curve``, each point
    started from its own contraction run at x + i*min(eta_0, d)."""
    lo, hi = np.array(curve.support.intervals).T
    x = np.concatenate([curve.grid] + [lo[j] + d if side == "lo" else hi[j] - d
                                       for (j, side), (d, _, _) in curve.edge_samples.items()])
    own = np.concatenate([curve.interval_id] + [np.full(d.size, j) for (j, _), (d, _, _)
                                                in curve.edge_samples.items()])
    eta = np.minimum(1e-2 * (hi[-1] - lo[0]), np.minimum(x - lo[own], hi[own] - x))
    v_eta, failed = mp._solve(H, gamma, x + 1j * eta, None, 1e-10)
    assert failed == {}
    v, resid, _ = mp._real_limit(H, gamma, x, v_eta)
    assert np.all(resid <= 1e-8)
    return v, mp._derivative(H, gamma, v)[0]


@pytest.mark.parametrize("name", ["two_atom", "ar1", "unit", "ar1_rho_0.9"])
def test_grid_agrees_with_the_all_points_contraction_route(curves, name):
    # the grid runs the contraction start on a coarse sub-grid only
    if name == "ar1_rho_0.9":
        H, gamma = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.9, 249)), 0.5
        curve = sd.stieltjes_grid(H, gamma)
    else:
        (H, gamma, _, _), curve = CASES[name], curves[name]
    assert curve.dropped == [] and curve.edge_failures == []
    v, vp = all_points_route(H, gamma, curve)
    samples = curve.edge_samples.values()
    assert complex_rel_err(np.concatenate([curve.v] + [s[1] for s in samples]), v) <= 1e-14
    assert complex_rel_err(np.concatenate([curve.v_prime] + [s[2] for s in samples]), vp) <= 1e-12


@pytest.mark.parametrize("name", ["two_atom", "ar1", "unit"])
def test_v_prime_is_the_derivative_map_at_v(curves, name):
    # v' comes from the slope of each point's own Newton run; the
    # derivative map evaluates x'(v) afresh
    H, gamma, _, _ = CASES[name]
    curve = curves[name]
    samples = curve.edge_samples.values()
    v = np.concatenate([curve.v] + [s[1] for s in samples])
    vp = np.concatenate([curve.v_prime] + [s[2] for s in samples])
    assert complex_rel_err(vp, mp._derivative(H, gamma, v)[0]) <= 1e-13


def coarse_x(curve):
    """x of the coarse points of a curve with no dropped point: every 16th
    grid point of an interval, its last, and the edge samples."""
    k = np.arange(curve.grid.size) % (curve.grid.size // curve.n_intervals)
    last = np.diff(curve.interval_id, append=-1) != 0
    lo, hi = np.array(curve.support.intervals).T
    samples = [lo[j] + d if side == "lo" else hi[j] - d
               for (j, side), (d, _, _) in curve.edge_samples.items()]
    return np.concatenate([curve.grid[(k % mp._COARSE_STRIDE == 0) | last]] + samples)


@pytest.mark.parametrize("rho", [0.7, 0.9, 0.95])
def test_no_fine_point_falls_back_to_a_contraction_start(monkeypatch, rho):
    # fine points start Newton at eta = 0 from the coarse roots interpolated
    # in theta, which is close to linear at a sqrt edge; started in x, some
    # points in the first stride above a lower edge missed Newton's basin
    started = []
    contraction_points = mp._contraction_points

    def spy(H, gamma, x, z):
        started.append(x)
        return contraction_points(H, gamma, x, z)

    monkeypatch.setattr(mp, "_contraction_points", spy)
    curve = sd.stieltjes_grid(sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(rho, 249)), 0.5)
    assert curve.dropped == [] and curve.edge_failures == []
    assert np.all(np.isin(np.concatenate(started), coarse_x(curve)))


# fine grid points of the two-atom curve (600 points per interval), the
# first and last of each interval's strides among them
FORCED = [1, 15, 17, 300, 598, 601, 900, 1198]


def failing_real_limit(x_forced, runs=math.inf):
    """mp._real_limit reporting an infinite residual at ``x_forced`` in the
    first ``runs`` real-axis Newton runs that reach them, and the list of
    how many points each of those runs hit."""
    real_limit = mp._real_limit
    hits = []

    def failing(H, gamma, x, v0):
        v, resid, slope = real_limit(H, gamma, x, v0)
        hit = np.isin(x, x_forced)
        if hit.any() and len(hits) < runs:
            hits.append(int(hit.sum()))
            resid[hit] = np.inf
        return v, resid, slope

    return failing, hits


def fail_forced_points(monkeypatch, x_forced, runs):
    """Install :func:`failing_real_limit`; returns how many points each failed run hit."""
    failing, hits = failing_real_limit(x_forced, runs)
    monkeypatch.setattr(mp, "_real_limit", failing)
    return hits


def test_failed_fine_points_are_retried_from_a_contraction_start(monkeypatch, curves):
    (H, gamma, kw, _), ref = CASES["two_atom"], curves["two_atom"]
    hits = fail_forced_points(monkeypatch, ref.grid[FORCED], runs=1)
    curve = sd.stieltjes_grid(H, gamma, **kw)
    assert hits == [len(FORCED)]
    assert curve.dropped == [] and curve.edge_failures == []
    assert np.array_equal(curve.grid, ref.grid)
    assert complex_rel_err(curve.v, ref.v) <= 1e-14
    assert complex_rel_err(curve.v_prime, ref.v_prime) <= 1e-12


def test_fine_points_that_fail_the_retry_are_dropped(monkeypatch, curves):
    (H, gamma, kw, _), ref = CASES["two_atom"], curves["two_atom"]
    hits = fail_forced_points(monkeypatch, ref.grid[FORCED], runs=3)
    curve = sd.stieltjes_grid(H, gamma, **kw)
    # the direct run, the contraction route, then the run from the solved grid
    assert hits == [len(FORCED)] * 3
    assert curve.dropped == [(float(x), "residual inf") for x in ref.grid[FORCED]]
    kept = np.setdiff1d(np.arange(ref.grid.size), FORCED)
    # the dropped points leave holes: nothing is interpolated into them
    assert np.array_equal(curve.grid, ref.grid[kept])
    assert np.array_equal(curve.interval_id, ref.interval_id[kept])
    assert np.array_equal(curve.v, ref.v[kept])
    assert np.array_equal(curve.v_prime, ref.v_prime[kept])
    with pytest.raises(ValueError, match=f"{len(FORCED)} non-converged points"):
        curve.require_complete()


def test_grid_points_failing_both_routes_are_recovered_from_the_solved_grid(monkeypatch,
                                                                           curves):
    (H, gamma, kw, _), ref = CASES["two_atom"], curves["two_atom"]
    hits = fail_forced_points(monkeypatch, ref.grid[FORCED], runs=2)
    curve = sd.stieltjes_grid(H, gamma, **kw)
    assert hits == [len(FORCED), len(FORCED)]  # the direct run, then the contraction route
    assert curve.dropped == [] and curve.edge_failures == []
    assert np.array_equal(curve.grid, ref.grid)
    assert complex_rel_err(curve.v, ref.v) <= 1e-14
    assert complex_rel_err(curve.v_prime, ref.v_prime) <= 1e-12


def test_a_point_failing_its_last_run_keeps_its_first_reason(monkeypatch, curves):
    # the first two runs report a residual, the last a real root
    (H, gamma, kw, _), ref = CASES["two_atom"], curves["two_atom"]
    real_limit, runs = mp._real_limit, []

    def failing(H, gamma, x, v0):
        v, resid, slope = real_limit(H, gamma, x, v0)
        hit = np.isin(x, ref.grid[FORCED])
        if hit.any():
            runs.append(int(hit.sum()))
            if len(runs) < 3:
                resid[hit] = np.inf
            else:
                v[hit] = v[hit].real
        return v, resid, slope

    monkeypatch.setattr(mp, "_real_limit", failing)
    curve = sd.stieltjes_grid(H, gamma, **kw)
    assert runs == [len(FORCED)] * 3
    assert curve.dropped == [(float(x), "residual inf") for x in ref.grid[FORCED]]


# the grid points of the AR(1) rho = 0.99, gamma = 1/2 curve that the
# contraction route dropped before failed anchors were retried
HOLES = [544, 576, 608, 672]


@pytest.fixture(scope="module")
def ar1_099():
    """AR(1) rho = 0.99, p = 249, at gamma = 1/2, with four grid points that
    fail every Newton run: a curve with dropped points."""
    H = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.99, 249))
    failing, _ = failing_real_limit(sd.stieltjes_grid(H, 0.5).grid[HOLES])
    with mock.patch.object(mp, "_real_limit", failing):
        return H, sd.stieltjes_grid(H, 0.5)


def test_real_roots_of_the_inverse_map_are_not_kept(monkeypatch):
    # on AR(1) rho = 0.99 the support has 15 narrow intervals, and a few
    # Newton runs at eta = 0 end on a real root of x(v) = x, with an Im v
    # of round-off.  Kept, such a point reads as zero density; each is
    # retried from the solved grid instead
    H = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.99, 249))
    reasons = []
    real_points = mp._real_points

    def spy(*args):
        out = real_points(*args)
        reasons.extend(out[2].values())
        return out

    monkeypatch.setattr(mp, "_real_points", spy)
    curve = sd.stieltjes_grid(H, 0.5)
    assert curve.n_intervals == 15 and curve.edge_failures == [] and curve.dropped == []
    assert 0 < len(reasons) <= 10
    assert all(reason.startswith("real root of x(v) = x: Im v ") for reason in reasons)
    near, failed = mp._solve(H, 0.5, curve.grid + 1e-10j, None, 1e-10)
    assert failed == {}
    assert complex_rel_err(curve.v, near) <= 1e-6


@pytest.mark.parametrize("rho, gamma, dropped", [
    (0.9, 0.1, [(0.409732418040529, "real root")]),
    (0.99, 1.5, [(1.252560677053537, "residual"), (1.391550186926132, "real root")]),
])
def test_only_anchors_failing_the_contraction_route_are_dropped(monkeypatch, rho, gamma,
                                                                dropped):
    # ``dropped``: the anchors (index 256, 576, 640) whose contraction route
    # fails, the only points that fail a route here.  With the contraction
    # start on every 16th point, 3 and 3 points failed.  Each anchor is then
    # retried from the solved grid points and recovered: it is kept, on the
    # right root, with v between its neighbours'
    routes = {}
    contraction_points = mp._contraction_points

    def spy(H, gamma, x, z):
        out = contraction_points(H, gamma, x, z)
        routes.update({float(x[i]): reason for i, reason in out[2].items()})
        return out

    monkeypatch.setattr(mp, "_contraction_points", spy)
    H = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(rho, 249))
    curve = sd.stieltjes_grid(H, gamma)
    assert curve.dropped == [] and curve.edge_failures == []
    assert sorted(routes) == pytest.approx([x for x, _ in dropped], rel=1e-12)
    assert all(routes[x].startswith(cause) for x, (_, cause) in zip(sorted(routes), dropped))
    near, _ = mp._solve(H, gamma, curve.grid + 1e-10j, None, 1e-10)
    for x, _ in dropped:
        i = int(np.argmin(np.abs(curve.grid - x)))
        assert curve.grid[i] == pytest.approx(x, rel=1e-12)
        assert curve.interval_id[i - 1] == curve.interval_id[i + 1]
        for part in (np.real, np.imag):
            lo, hi = sorted(part(curve.v[[i - 1, i + 1]]))
            assert lo <= part(curve.v[i]) <= hi
        assert abs(curve.v[i] - near[i]) <= 1e-6 * abs(near[i])


@pytest.mark.parametrize("compute", [
    lambda H, curve: sd.esd_expectation(curve, lambda x: x),
    lambda H, curve: sd.weak_derivative_cdf(H, sd.AtomicMeasure.point_mass(1.5), 0.5, curve),
    lambda H, curve: sd.delta_diff(H, H, sd.AtomicMeasure.point_mass(1.5), 0.5, curve),
    lambda H, curve: sd.assemble_diagreg(curve),
    lambda H, curve: sd.integrate_derivative(curve, np.zeros(curve.grid.size)),
], ids=["esd_expectation", "weak_derivative_cdf", "delta_diff", "assemble_diagreg",
        "integrate_derivative"])
def test_nothing_integrates_across_dropped_points(ar1_099, compute):
    # each would bridge the holes with widened cells and return a number
    H, curve = ar1_099
    assert len(curve.dropped) == 4
    with pytest.raises(ValueError, match="4 non-converged points"):
        compute(H, curve)


def test_contraction_start_stops_each_point_at_its_fixed_point(monkeypatch):
    sup = mp.support_intervals(AR1, 0.5)
    lo, hi = sup.intervals[0][0], sup.intervals[-1][1]
    z = np.linspace(lo, hi, 500) + 1e-2j * (hi - lo)
    v = mp._fixed_point(AR1, 0.5, z, -1.0 / z)
    # an entry that stopped within the 60 steps is left alone by a 61st
    stopped = v == mp._fixed_point(AR1, 0.5, z, -1.0 / z, 61)
    assert stopped.mean() > 0.5
    step = 1.0 / (-z + 0.5 * mp._sums(AR1, v, (1,))[0]) - v
    assert np.all(np.abs(step[stopped]) <= 1e-13 * np.abs(v[stopped]))

    # 1/(1+1) = 1/2 exactly, so the denominator -z + gamma/2 vanishes at z = 1/4
    calls = []
    sums = mp._sums
    monkeypatch.setattr(mp, "_sums", lambda H, w, orders: calls.append(w.size) or sums(H, w, orders))
    v0 = np.array([1.0 + 0j])
    assert mp._fixed_point(sd.AtomicMeasure.point_mass(1.0), 0.5, np.array([0.25 + 0j]), v0) == v0
    assert calls == [1]


def test_single_point_wrappers_agree_with_the_grid(two_atom, two_atom_curve_01):
    curve = two_atom_curve_01
    span = curve.support.intervals[-1][1] - curve.support.intervals[0][0]
    for i in (0, 311, curve.grid.size - 1):
        x = float(curve.grid[i])
        lo, hi = curve.support.intervals[curve.interval_id[i]]
        eta = min(1e-2 * span, x - lo, hi - x)
        v0 = sd.solve_silverstein(two_atom, 0.1, complex(x, eta), tol=1e-10)
        v, resid = mp.solve_real_limit(two_atom, 0.1, x, v0)
        assert abs(v - curve.v[i]) <= 1e-14 * abs(curve.v[i])
        assert resid <= 1e-8


def test_root_found_in_the_lower_half_plane_is_reflected(two_atom, two_atom_curve_01):
    # from the conjugate of the root, Newton at real x runs to the conjugate
    # root, which solves x(v) = x as well
    curve = two_atom_curve_01
    for i in (0, 311, curve.grid.size - 1):
        v, resid = mp.solve_real_limit(two_atom, 0.1, float(curve.grid[i]), np.conj(curve.v[i]))
        assert v.imag > 0
        assert abs(v - curve.v[i]) <= 1e-14 * abs(curve.v[i])
        assert resid <= 1e-8


def test_failed_edge_sample_leaves_its_edge_unrefined():
    # the lower edge sits at 1.3e-7; its 1/4 sample converges, the derivative
    # map is undefined at its 1/16 and 1/64 samples, and the gap is reported
    # at the 1/16 one.  The scalar solver recorded the same gap.
    # The second interval, the bulk of the atom at 1, holds half the mass.
    H = sd.AtomicMeasure(np.array([1e-6, 1.0]), np.array([0.5, 0.5]))
    curve = sd.stieltjes_grid(H, 0.5, points_per_interval=100)
    assert set(curve.edge_samples) == {(0, "hi"), (1, "lo"), (1, "hi")}
    assert sd.esd_moment(curve, 1) == pytest.approx(sd.forward_moments(H, 0.5, 1)[0], rel=1e-3)
    cdf = sd.weak_derivative_cdf(H, sd.AtomicMeasure.point_mass(2.0), 0.5, curve)
    assert cdf.gaps == ["edge refinement failed at x=1.34516e-07: "
                        "derivative map denominator vanished (support edge)"]
