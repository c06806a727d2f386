import math

import numpy as np
import pytest

import specdetect as sd
from oracles import mad, mp_companion_transform, normalize_curve, omh_lss


GAMMA = 0.5


class TestKernelEval:
    def test_mid_bulk_value_against_closed_form(self, mp_curve, mp_kernel):
        # an off-diagonal entry of the assembled matrix, with the cell
        # weights divided out, is the kernel at two grid points
        i, j = (int(np.argmin(np.abs(mp_curve.grid - x))) for x in (1.0, 2.0))
        vx = mp_companion_transform(complex(mp_curve.grid[i]), 1.0, GAMMA)
        vy = mp_companion_transform(complex(mp_curve.grid[j]), 1.0, GAMMA)
        expect = math.log1p(4 * vx.imag * vy.imag / abs(vx - vy) ** 2) / (2 * math.pi**2)
        w = mp_kernel.weights
        got = mp_kernel.entries[i, j] / math.sqrt(w[i] * w[j])
        assert got == pytest.approx(expect, rel=1e-12)  # observed 1.3e-16
        assert got > 0


class TestAssembly:
    def test_exact_symmetry(self, mp_kernel):
        assert np.array_equal(mp_kernel.entries, mp_kernel.entries.T)

    def test_off_diagonal_nonnegative(self, mp_kernel):
        off = mp_kernel.entries - np.diag(np.diag(mp_kernel.entries))
        assert (off >= 0).all()

    def test_ridge_rule(self, mp_kernel):
        assert mp_kernel.ridge == pytest.approx(
            1e-4 * np.trace(mp_kernel.entries) / mp_kernel.size)
        # the diagonal is c1 times the kernel at the left neighbour (the right one in row 0)
        w, K = mp_kernel.weights, mp_kernel.entries
        i = np.arange(1, mp_kernel.size)
        assert np.allclose(K[i, i] / w[i], 1.5 * K[i, i - 1] / np.sqrt(w[i] * w[i - 1]),
                           rtol=1e-14, atol=0.0)
        assert K[0, 0] / w[0] == pytest.approx(1.5 * K[0, 1] / math.sqrt(w[0] * w[1]), rel=1e-14)

    def test_regularized_solve_matches_dense_on_indefinite_kernel(self, two_atom_curve_01):
        # the split two-atom kernel is indefinite, so this also covers a
        # matrix that Cholesky would reject
        from specdetect.kernel import solve_regularized

        K = sd.assemble_diagreg(two_atom_curve_01)
        assert np.linalg.eigvalsh(K.entries)[0] < -100 * K.ridge
        before = K.entries.copy()
        rhs = np.random.default_rng(3).standard_normal((K.size, 2))
        u = solve_regularized(K, rhs)
        assert np.array_equal(K.entries, before)
        dense = np.linalg.solve(before + K.ridge * np.eye(K.size), rhs)
        assert np.max(np.abs(u - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_regularized_solve_matches_the_symmetric_factorization(self, two_atom_curve_01):
        solve = pytest.importorskip("scipy.linalg").solve
        from specdetect.kernel import solve_regularized

        K = sd.assemble_diagreg(two_atom_curve_01)
        before = K.entries.copy()
        rhs = np.random.default_rng(3).standard_normal((K.size, 2))
        u = solve_regularized(K, rhs)
        assert np.array_equal(K.entries, before)
        ref = solve(K.regularized(), rhs, assume_a="sym")
        # observed 6.0e-15
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_ridged_matrix_psd(self, mp_kernel):
        eigs = np.linalg.eigvalsh(mp_kernel.entries + mp_kernel.ridge * np.eye(mp_kernel.size))
        assert eigs[0] >= -1e-8 * np.trace(mp_kernel.entries)

    def test_variance_of_trace_statistic(self, mp_kernel):
        # the trace statistic has asymptotic variance 2*gamma*(second
        # population moment) = 2*gamma for the unit bulk; phi = x so phi' = 1
        sigma2 = mp_kernel.quadratic_form(np.ones(mp_kernel.size))
        assert sigma2 == pytest.approx(2 * GAMMA, rel=1e-2)


class TestSolvers:
    def test_zero_delta_gives_zero(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, mp_unit, GAMMA, mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta)
        assert np.max(np.abs(g.values)) == 0.0
        gc = sd.solve_collocation(mp_curve, delta)
        assert np.max(np.abs(gc.values)) == 0.0

    def test_diagreg_linear_in_delta(self, mp_unit, mp_curve, mp_kernel):
        d1 = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.2), GAMMA, mp_curve)
        d2 = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.5), GAMMA, mp_curve)
        g1 = sd.solve_diagreg(mp_kernel, d1).values
        g2 = sd.solve_diagreg(mp_kernel, d2).values
        import dataclasses
        mix = dataclasses.replace(d1)
        mix.cdf = 0.25 * d1.cdf + 0.75 * d2.cdf
        gm = sd.solve_diagreg(mp_kernel, mix).values
        assert np.max(np.abs(gm - 0.25 * g1 - 0.75 * g2)) < 1e-8 * max(1, np.max(np.abs(gm)))

    @pytest.mark.parametrize("t", [1.2, 1.6])
    def test_diagreg_against_omh(self, mp_unit, mp_curve, mp_kernel, t):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(t), GAMMA, mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta)
        phi = sd.integrate_derivative(mp_curve, g.values)
        mask = np.array([s == "in-support" for s in phi.segments])
        ours = normalize_curve(phi.values[mask])
        ref = normalize_curve(omh_lss(phi.grid[mask], t, GAMMA))
        assert mad(ours, ref) <= 1e-2

    @pytest.mark.parametrize("t", [1.2, 1.6])
    def test_collocation_against_omh(self, mp_unit, mp_curve, t):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(t), GAMMA, mp_curve)
        g = sd.solve_collocation(mp_curve, delta)
        assert g.condition_number is not None
        phi = sd.integrate_derivative(mp_curve, g.values)
        mask = np.array([s == "in-support" for s in phi.segments])
        ours = normalize_curve(phi.values[mask])
        ref = normalize_curve(omh_lss(phi.grid[mask], t, GAMMA))
        assert mad(ours, ref) <= 1e-2

    def test_collocation_solves_the_node_rows(self, mp_unit, mp_curve):
        # the node-row system rebuilt from the kernel formula: each node's
        # singular entry is 1.5 times the largest regular entry of its row,
        # and the dense grid carries trapezoid weights closed at the edges
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        g = sd.solve_collocation(mp_curve, delta)
        xs, v = mp_curve.grid, mp_curve.v
        nodes = np.unique(np.round(np.linspace(0, xs.size - 1, 150)).astype(int))
        lo, hi = mp_curve.support.intervals[0]
        w = np.diff(np.concatenate([[lo], 0.5 * (xs[1:] + xs[:-1]), [hi]]))
        vi, vj = v[nodes, None], v[None, :]
        with np.errstate(divide="ignore"):
            A = np.log1p(4 * vi.imag * vj.imag / np.abs(vi - vj) ** 2) / (2 * math.pi**2)
        diag = nodes[:, None] == np.arange(xs.size)
        A[diag] = 1.5 * np.max(np.where(diag, -np.inf, A), axis=1)
        rhs = -delta.cdf[nodes]
        # observed 1.4e-15; a diagonal of 1.2 * 1.5 gives 1.0e-2
        assert np.max(np.abs(A @ (w * g.values) - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_collocation_hat_basis_equals_the_block_diagonal_build(
            self, monkeypatch, two_atom, two_atom_curve_01):
        block_diag = pytest.importorskip("scipy.linalg").block_diag
        from specdetect import kernel

        curve = two_atom_curve_01
        hats = kernel._hats
        seen = []

        def spy(xs, nodes):
            seen.append((nodes, hats(xs, nodes)))
            return seen[-1][1]

        monkeypatch.setattr(kernel, "_hats", spy)
        G0, G1 = sd.AtomicMeasure.point_mass(1.0), sd.AtomicMeasure.point_mass(1.2)
        delta = sd.delta_diff(two_atom, G0, G1, 0.1, curve)
        sd.solve_collocation(curve, delta)
        (nodes, basis), = seen
        blocks = []
        for j in range(curve.n_intervals):
            xs = curve.grid[curve.interval_slice(j)]
            blocks.append(hats(xs, nodes[(nodes >= xs[0]) & (nodes <= xs[-1])]))
        assert len(blocks) == 2
        assert basis.tobytes() == block_diag(*blocks).tobytes()

    def test_collocation_condition_limit(self, mp_unit, mp_curve):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.2), GAMMA, mp_curve)
        with pytest.raises(RuntimeError, match="condition number"):
            sd.solve_collocation(mp_curve, delta, max_condition=1.0)

    def test_two_solver_agreement(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.2), GAMMA, mp_curve)
        gd = sd.solve_diagreg(mp_kernel, delta)
        gc = sd.solve_collocation(mp_curve, delta)
        pd_ = sd.integrate_derivative(mp_curve, gd.values)
        pc = sd.integrate_derivative(mp_curve, gc.values)
        mask = np.array([s == "in-support" for s in pd_.segments])
        assert mad(normalize_curve(pd_.values[mask]), normalize_curve(pc.values[mask])) <= 2e-2

    def test_efficacy_monotone_as_ridge_relaxes(self, mp_unit, mp_curve):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.2), GAMMA, mp_curve)
        thetas = []
        for scale in (100.0, 10.0, 1.0, 0.1):
            K = sd.assemble_diagreg(mp_curve, ridge_coeff=1e-4 * scale)
            g = sd.solve_diagreg(K, delta).values
            mu = -K.inner(g, delta.cdf)
            sigma = math.sqrt(max(K.quadratic_form(g), 0.0))
            thetas.append(mu / sigma)
        assert all(b >= a - 1e-10 for a, b in zip(thetas, thetas[1:]))


class TestMoments:
    def test_constant_phi_is_degenerate(self, mp_unit, mp_curve, mp_kernel):
        # finite differencing a constant leaves only round-off noise
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        rep = sd.lss_moments(mp_curve, mp_kernel, lambda x: np.full_like(x, 3.0), delta, h=1)
        assert abs(rep.mu) <= 1e-12
        assert rep.sigma <= 1e-12
        assert rep.power == pytest.approx(0.05, abs=1e-2)

    def test_scaling_phi_leaves_efficacy(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        r1 = sd.lss_moments(mp_curve, mp_kernel, lambda x: np.log(x), delta, h=1)
        r2 = sd.lss_moments(mp_curve, mp_kernel, lambda x: 7.0 * np.log(x), delta, h=1)
        assert r2.efficacy == pytest.approx(r1.efficacy, rel=1e-9)
        assert r2.mu == pytest.approx(7.0 * r1.mu, rel=1e-9)

    def test_solved_g_reproduces_inner_product_theta(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta).values
        h = 2
        mu = -h * mp_kernel.inner(g, delta.cdf)
        sigma = math.sqrt(mp_kernel.quadratic_form(g))
        phi = sd.integrate_derivative(mp_curve, g)
        rep = sd.lss_moments(mp_curve, mp_kernel, phi, delta, h=h)
        assert rep.efficacy == pytest.approx(mu / sigma, rel=1e-2)
        from scipy.stats import norm
        assert rep.power == pytest.approx(norm.cdf(norm.ppf(0.05) + rep.efficacy), abs=1e-12)

    def test_sigma_nonnegative_for_random_phi(self, mp_unit, mp_curve, mp_kernel, rng):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        for _ in range(10):
            coeffs = rng.normal(size=4)
            rep = sd.lss_moments(mp_curve, mp_kernel,
                                 lambda x: np.polyval(coeffs, x), delta, h=1)
            assert rep.sigma >= 0.0
            assert 0.05 - 1e-9 <= rep.power <= 1.0

    def test_uniform_optimality_in_h(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, sd.AtomicMeasure.point_mass(1.6), GAMMA, mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta).values
        # the solve does not see h at all; the efficacy scales linearly in it
        reps = [sd.lss_moments(mp_curve, mp_kernel, sd.integrate_derivative(mp_curve, g),
                               delta, h=h) for h in (1, 2, 5)]
        assert reps[1].efficacy == pytest.approx(2 * reps[0].efficacy, rel=1e-9)
        assert reps[2].efficacy == pytest.approx(5 * reps[0].efficacy, rel=1e-9)
