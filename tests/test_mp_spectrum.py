import math
import re

import numpy as np
import pytest

import specdetect as sd
from data.record_reference_curves import cases
from oracles import finite_difference, mp_companion_transform, mp_density, mp_edges
from specdetect import mp


class TestSolveSilverstein:
    def test_matches_closed_form_at_complex_point(self, mp_unit):
        z = 1.5 + 0.001j
        v = sd.solve_silverstein(mp_unit, 0.5, z)
        assert abs(v - mp_companion_transform(z, 1.0, 0.5)) <= 1e-8

    def test_residual_of_returned_root(self, mp_unit):
        for z in (1.5 + 0.001j, 0.3 + 1j, 5.0 + 0.01j, -2.0 + 0j):
            v = sd.solve_silverstein(mp_unit, 0.5, z)
            assert abs(mp._inverse_map(mp_unit, 0.5, np.array([v]), z)[0][0]) <= 1e-12

    def test_scale_equivariance(self):
        c = 2.5
        z = 1.2 + 0.01j
        v1 = sd.solve_silverstein(sd.AtomicMeasure.point_mass(1.0), 0.5, z)
        vc = sd.solve_silverstein(sd.AtomicMeasure.point_mass(c), 0.5, c * z)
        assert abs(vc - v1 / c) < 1e-10

    def test_upper_half_plane(self, mp_unit, rng):
        for _ in range(20):
            z = complex(rng.uniform(0.05, 4.0), rng.uniform(1e-4, 1.0))
            v = sd.solve_silverstein(mp_unit, 0.5, z)
            assert v.imag > 0

    def test_degenerate_bulk_rejected(self):
        dirac0 = sd.AtomicMeasure.point_mass(0.0)
        with pytest.raises(ValueError):
            sd.solve_silverstein(dirac0, 0.5, 1 + 1j)


class TestSolveFallbacks:
    """The retry, the half-plane damping and the failure messages of the array solve."""

    Z = 1 + 1j

    @pytest.fixture
    def contraction_runs(self, monkeypatch):
        # n_iter of every contraction run: the retry is the one with 200 steps
        runs = []
        original = mp._fixed_point

        def spy(H, gamma, z, v0, n_iter=60):
            runs.append(n_iter)
            return original(H, gamma, z, v0, n_iter)

        monkeypatch.setattr(mp, "_fixed_point", spy)
        return runs

    def test_start_on_a_pole_is_retried(self, mp_unit, contraction_runs):
        root = sd.solve_silverstein(mp_unit, 0.5, self.Z)
        contraction_runs.clear()
        # 1 + t*v0 = 0: Newton's first residual is not finite
        again = sd.solve_silverstein(mp_unit, 0.5, self.Z, v0=-1 + 0j)
        assert contraction_runs == [200]
        assert again == root

    def test_step_out_of_the_upper_half_plane_is_damped(self, mp_unit, contraction_runs):
        root = sd.solve_silverstein(mp_unit, 0.5, self.Z)
        contraction_runs.clear()
        v0 = 3j
        undamped = v0 - mp._inverse_map(mp_unit, 0.5, np.array([v0]), self.Z)[0][0] \
            * sd.derivative_map(mp_unit, 0.5, v0)
        assert undamped.imag < 0
        v = sd.solve_silverstein(mp_unit, 0.5, self.Z, v0=v0)
        assert contraction_runs == []  # converged without the retry
        assert abs(v - root) <= 1e-12 * abs(root)

    @pytest.mark.parametrize("v_out, resid, message", [
        (0.5j, np.inf, "no convergence at z=(1+1j)"),
        (-0.5j, 0.0, "root left the upper half plane at z=(1+1j)"),
    ])
    def test_failure_of_both_attempts_names_z(self, mp_unit, monkeypatch, v_out, resid,
                                              message):
        calls = []

        def failing_newton(H, gamma, z, v0):
            calls.append(z.size)
            return np.full(z.size, v_out), np.full(z.size, resid), np.full(z.size, np.nan)

        monkeypatch.setattr(mp, "_newton", failing_newton)
        # the whole message: a stalled residual is named with the tolerance it missed
        if resid > 0:
            message += f": residual {resid:.3e} > 1.0e-12"
        with pytest.raises(sd.SilversteinError, match=f"^{re.escape(message)}$"):
            sd.solve_silverstein(mp_unit, 0.5, self.Z)
        assert len(calls) == (2 if resid > 0 else 1)


class TestDerivativeMap:
    def test_matches_finite_difference(self, mp_unit):
        z = 1.5 + 0.001j
        v = sd.solve_silverstein(mp_unit, 0.5, z)
        vp = sd.derivative_map(mp_unit, 0.5, v)
        fd = finite_difference(lambda w: sd.solve_silverstein(mp_unit, 0.5, w), z)
        assert abs(vp - fd) <= 1e-5

    def test_decays_at_large_real_z(self, mp_unit):
        # far outside the support, v ~ -1/z and dv/dz ~ z^-2 -> 0
        sup = sd.support_intervals(mp_unit, 0.5)
        z = 50.0
        v = complex(sd.solve_real_outside(mp_unit, 0.5, sup, z))
        vp = sd.derivative_map(mp_unit, 0.5, v)
        fd = finite_difference(lambda w: sd.solve_silverstein(mp_unit, 0.5, complex(w.real, 1e-9)), z, 1e-3)
        assert abs(vp - fd) <= 1e-5
        assert abs(vp) == pytest.approx(1.0 / z**2, rel=0.2)

    def test_vanishing_denominator_raises(self, mp_unit):
        # the critical value of the inverse map is exactly where 1/v^2 = gamma/(1+v)^2
        v_star = 1.0 / (-math.sqrt(0.5) - 1.0)
        with pytest.raises(sd.SilversteinError):
            sd.derivative_map(mp_unit, 0.5, complex(v_star))

    def test_pole_rejected(self, mp_unit):
        with pytest.raises(ValueError):
            sd.derivative_map(mp_unit, 0.5, complex(-1.0))

    @pytest.mark.parametrize("tol", [1e-14, 1e-6, 0.5, 1.0, 2.0])
    def test_near_pole_equals_every_atom_tried(self, tol):
        # the |Im v| prefilter may only skip entries that no atom flags
        atoms = np.array([0.5, 1.0, 3.0])
        rng = np.random.default_rng(11)
        # half the entries within round-off of a pole -1/t, half anywhere
        poles = -1.0 / atoms[rng.integers(0, 3, 600)]
        re_v = np.concatenate([poles * (1 + 1e-15 * rng.normal(size=600)), rng.normal(size=600)])
        v = re_v + 1j * rng.normal(size=1200) * 10.0 ** rng.uniform(-18, 0, 1200)
        every = np.any(np.abs(1.0 + np.multiply.outer(v, atoms)) < tol, axis=1)
        assert every.any()
        assert np.array_equal(mp._near_pole(atoms, v, tol), every)


class TestSupport:
    def test_mp_edges(self, mp_unit):
        sup = sd.support_intervals(mp_unit, 0.5)
        a, b = mp_edges(0.5)
        assert len(sup.intervals) == 1
        assert sup.intervals[0][0] == pytest.approx(a, abs=1e-8)
        assert sup.intervals[0][1] == pytest.approx(b, abs=1e-8)

    def test_mp_edges_gamma_above_one(self, mp_unit):
        sup = sd.support_intervals(mp_unit, 2.0)
        a, b = mp_edges(2.0)
        assert sup.intervals[0][0] == pytest.approx(a, abs=1e-8)
        assert sup.intervals[0][1] == pytest.approx(b, abs=1e-8)

    def test_two_component_bulk_splits_with_small_gamma(self, two_atom):
        assert len(sd.support_intervals(two_atom, 0.1).intervals) == 2
        assert len(sd.support_intervals(two_atom, 0.5).intervals) == 1

    def test_scale_equivariance(self, mp_unit):
        c = 3.0
        sup1 = sd.support_intervals(mp_unit, 0.5)
        supc = sd.support_intervals(sd.AtomicMeasure.point_mass(c), 0.5)
        for (l1, u1), (lc, uc) in zip(sup1.intervals, supc.intervals):
            assert lc == pytest.approx(c * l1, rel=1e-6)
            assert uc == pytest.approx(c * u1, rel=1e-6)

    def test_pt_threshold_matches_closed_form(self, mp_unit):
        sup = sd.support_intervals(mp_unit, 0.5)
        assert sup.upper_pt_threshold == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-8)

    @pytest.mark.parametrize("atoms, gamma", [([1.0, 1.0001], 1e-9), ([1.0, 1.00000001], 1e-12)])
    def test_close_atoms_at_tiny_gamma(self, atoms, gamma):
        # the minimum of g between the two poles decides the split: below
        # one for the first bulk, far above it for the second
        expected = {1e-9: [(0.9999512, 1.0000382), (1.0000618, 1.0001488)],
                    1e-12: [(0.999998, 1.000002)]}[gamma]
        H = sd.AtomicMeasure(np.array(atoms), np.array([0.5, 0.5]))
        sup = sd.support_intervals(H, gamma)
        assert np.allclose(sup.intervals, expected, rtol=0.0, atol=1e-7)
        curve = sd.stieltjes_grid(H, gamma, points_per_interval=200)
        assert curve.dropped == [] and curve.edge_failures == []
        assert sd.esd_moment(curve, 1) == pytest.approx(sd.forward_moments(H, gamma, 1)[0],
                                                        rel=1e-3)

    def test_spike_windows_keep_their_infinite_end(self, mp_unit):
        s_lo, s_hi, x_lo, x_hi = sd.support_intervals(mp_unit, 0.5).spike_windows[-1]
        assert s_lo == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-8)
        assert math.isinf(s_hi) and math.isinf(x_hi) and math.isfinite(x_lo)


class TestStieltjesGrid:
    def test_residuals_within_contract(self, mp_unit, mp_curve):
        for x, v in zip(mp_curve.grid, mp_curve.v):
            r = abs(mp._inverse_map(mp_unit, 0.5, np.array([v]), complex(x))[0][0])
            assert r <= 1e-8

    def test_imaginary_part_positive_inside(self, mp_curve):
        assert (mp_curve.v.imag > 0).all()

    def test_grid_monotone_inside_support(self, mp_curve):
        assert (np.diff(mp_curve.grid) > 0).all()
        lo, hi = mp_curve.support.intervals[0]
        assert mp_curve.grid[0] > lo and mp_curve.grid[-1] < hi

    def test_epsilon_changes_no_number(self, mp_unit, mp_curve):
        # perfbench/workloads.py still passes epsilon=1e-6
        fine = sd.stieltjes_grid(mp_unit, 0.5, points_per_interval=1000, epsilon=1e-6)
        for name in ("grid", "v", "v_prime", "interval_id"):
            assert np.array_equal(getattr(fine, name), getattr(mp_curve, name))
        assert fine.support == mp_curve.support
        assert (fine.dropped, fine.edge_failures) == (mp_curve.dropped, mp_curve.edge_failures)
        assert fine.edge_samples.keys() == mp_curve.edge_samples.keys()
        for key, sample in fine.edge_samples.items():
            assert all(np.array_equal(a, b) for a, b in zip(sample, mp_curve.edge_samples[key]))

    def test_v_prime_equals_derivative_map(self, mp_unit, mp_curve):
        for i in range(0, mp_curve.grid.size, 137):
            vp = sd.derivative_map(mp_unit, 0.5, mp_curve.v[i])
            assert abs(vp - mp_curve.v_prime[i]) <= 1e-10

    def test_density_matches_closed_form(self, mp_curve):
        dens = mp_curve.density
        ref = mp_density(mp_curve.grid, 0.5)
        assert np.max(np.abs(dens - ref)) < 1e-8

    def test_nothing_dropped(self, mp_curve):
        assert mp_curve.dropped == []

    def test_rejects_small_grid(self, mp_unit):
        with pytest.raises(ValueError):
            sd.stieltjes_grid(mp_unit, 0.5, points_per_interval=8)

    @pytest.mark.parametrize("H, gamma, kw", [case[1:4] for case in cases()],
                             ids=[case[0] for case in cases()])
    def test_newton_runs_settle_within_20_iterations(self, monkeypatch, H, gamma, kw):
        # a Newton iteration is one call of the inverse map; near-edge
        # entries settled at round-off stop instead of running to max_iter
        runs, inside = [], []
        newton, inverse_map = mp._newton, mp._inverse_map

        def counted_newton(*args, **kwargs):
            runs.append(0)
            inside.append(True)
            try:
                return newton(*args, **kwargs)
            finally:
                inside.pop()

        def counted_map(*args, **kwargs):
            if inside:
                runs[-1] += 1
            return inverse_map(*args, **kwargs)

        monkeypatch.setattr(mp, "_newton", counted_newton)
        monkeypatch.setattr(mp, "_inverse_map", counted_map)
        sd.stieltjes_grid(H, gamma, **kw)
        assert max(runs) <= 20
        # coarse points at x + i*eta, coarse points at eta = 0, fine points at eta = 0
        assert len(runs) >= 3

    def test_inverse_map_evaluations_per_point(self, monkeypatch):
        # Newton's own slope gives v', and every point but the anchors gets
        # one run, at eta = 0, from a Hermite start; the grid with one
        # contraction-started Newton run for every point and a separate pass
        # for v' took 8.9 order-(1, 2) evaluations per point here, and with
        # linear starts and anchors at every 16th point 4.2
        _, H, gamma, kw, _ = next(case for case in cases() if case[0] == "ar1")
        evaluations, in_support = {(1, 2): 0, (2,): 0}, []
        inverse_map, support_intervals = mp._inverse_map, mp.support_intervals

        def counted_map(H, gamma, v, z=0.0, orders=(1,)):
            if orders in evaluations:
                evaluations[orders] += v.size
                assert orders != (2,) or in_support, "x'(v) evaluated outside the support search"
            return inverse_map(H, gamma, v, z, orders)

        def counted_support(*args):
            in_support.append(True)
            try:
                return support_intervals(*args)
            finally:
                in_support.pop()

        monkeypatch.setattr(mp, "_inverse_map", counted_map)
        monkeypatch.setattr(mp, "support_intervals", counted_support)
        curve = sd.stieltjes_grid(H, gamma, **kw)
        points = curve.n_intervals * (kw["points_per_interval"] + 6)
        assert curve.dropped == [] and curve.edge_failures == []
        assert evaluations[(1, 2)] <= 3.5 * points
        assert evaluations[(2,)] > 0  # the support search ran inside the count


class TestEsdMoments:
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0])
    def test_m2_m4_identities(self, mp_unit, gamma):
        curve = sd.stieltjes_grid(mp_unit, gamma, points_per_interval=1000)
        m2 = sd.esd_moment(curve, 2)
        m4 = sd.esd_moment(curve, 4)
        assert m2 == pytest.approx(1 + gamma, rel=1e-3)
        assert m4 == pytest.approx((1 + gamma) * (1 + 5 * gamma + gamma**2), rel=1e-3)

    def test_first_moment_identity(self, mp_unit, mp_curve, two_atom, two_atom_curve_01):
        assert sd.esd_moment(mp_curve, 1) == pytest.approx(1.0, rel=1e-3)
        assert sd.esd_moment(two_atom_curve_01, 1) == pytest.approx(2.0, rel=1e-3)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_density_total_mass(self, mp_unit, gamma):
        curve = sd.stieltjes_grid(mp_unit, gamma, points_per_interval=1000)
        total = sd.esd_expectation(curve, lambda x: np.ones_like(x), f_at_zero=0.0)
        assert total == pytest.approx(1 - max(0.0, 1 - 1 / gamma), abs=1e-3)

    def test_bad_order_rejected(self, mp_unit, mp_curve):
        with pytest.raises(ValueError):
            sd.esd_moment(mp_curve, 5)

    def test_exact_forward_moments_match_quadrature(self, two_atom, two_atom_curve_01):
        exact = sd.forward_moments(two_atom, 0.1, 4)
        for k in range(1, 5):
            quad = sd.esd_moment(two_atom_curve_01, k)
            assert quad == pytest.approx(exact[k - 1], rel=2e-3)

    def test_population_with_null_directions(self):
        # half the population variances are zero: the limiting law carries
        # an atom of 1/2 at the origin, and moments still track the bulk
        H0 = sd.AtomicMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        curve = sd.stieltjes_grid(H0, 0.5, points_per_interval=500)
        assert curve.atom_at_zero == pytest.approx(0.5)
        total = sd.esd_expectation(curve, lambda x: np.ones_like(x), f_at_zero=1.0)
        assert total == pytest.approx(1.0, abs=1e-3)
        assert sd.esd_moment(curve, 1) == pytest.approx(0.5, rel=1e-3)


class TestRealAxisOutside:
    def test_residual_outside(self, mp_unit):
        sup = sd.support_intervals(mp_unit, 0.5)
        for x in (3.5, 5.0, 0.05):
            v = sd.solve_real_outside(mp_unit, 0.5, sup, x)
            resid = mp._inverse_map(mp_unit, 0.5, np.array([complex(v)]), complex(x))[0][0]
            assert abs(resid) < 1e-10

    @pytest.mark.parametrize("x", [0.1, 0.0, -1.0])
    def test_below_the_bulk_when_gamma_exceeds_one(self, mp_unit, x):
        # at gamma=2 the gap (-inf, 0.1716) is the image of the v > 0 branch
        curve = sd.stieltjes_grid(mp_unit, 2.0, points_per_interval=200)
        v = sd.solve_real_outside(mp_unit, 2.0, curve.support, x)
        limit = sd.solve_silverstein(mp_unit, 2.0, complex(x, 1e-10)).real
        assert v > 0
        assert v == pytest.approx(limit, rel=1e-9)
        s = sd.weak_derivative_st_at(sd.AtomicMeasure.point_mass(1.5), curve, x)
        assert s.imag == 0.0 and math.isfinite(s.real)

    def test_inside_rejected(self, mp_unit):
        sup = sd.support_intervals(mp_unit, 0.5)
        with pytest.raises(ValueError):
            sd.solve_real_outside(mp_unit, 0.5, sup, 1.0)
