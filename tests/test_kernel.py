import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import specdetect as sd
from data.record_reference_curves import cases
from oracles import mad, mp_companion_transform, normalize_curve, omh_lss, power_mean_shift
from specdetect import kernel
from specdetect.kernel import solve_regularized


def _unfactored(K):
    """A copy of K in an array of its own, which no solve has factored."""
    return dataclasses.replace(K, storage=kernel._Storage(K.entries))


GAMMA = 0.5
# mu reads gamma * h * D m_k, and on the unit bulk and AR(1) rho = 0.7 mu/gamma
# is within 2.1e-5 of it
GAMMA_TIMES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP known defect 'Reported efficacy is gamma times the true one'")
# two-atom-t3.0 moves mass across the gap (1.39, 1.90): mu/gamma reads 1.497
# at k = 1 where h * D m_1 = 2, since derivative_efficacy leaves out the gap term
GAP_TERM = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP known defects 'Reported efficacy is gamma times the true one' and "
           "'Mass moved across a support gap is called subcritical'")


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
        # matrix that Cholesky would reject: the solve factors it with the
        # interval start's diagonal corrected, plus a Woodbury term
        from specdetect.kernel import solve_regularized

        K = sd.assemble_diagreg(two_atom_curve_01)
        assert np.linalg.eigvalsh(K.entries)[0] < -100 * K.ridge
        before = K.entries.copy()
        rhs = np.random.default_rng(3).standard_normal((K.size, 2))
        u = solve_regularized(K, rhs)
        # the symmetric matrix reads the same after a solve
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
        # the symmetric matrix reads the same after a solve
        assert np.array_equal(K.entries, before)
        ref = solve(K.entries + K.ridge * np.eye(K.size), rhs, assume_a="sym")
        # observed 6.0e-15
        assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_regularized_solve_restores_the_diagonal_when_lapack_raises(self, two_atom_curve_01):
        from specdetect.kernel import solve_regularized

        K = sd.assemble_diagreg(two_atom_curve_01)
        before = K.entries.tobytes()
        with pytest.raises(ValueError):
            solve_regularized(K, np.ones(K.size + 1))
        assert K.entries.tobytes() == before
        # the ridge cancels the first diagonal entry of an otherwise empty
        # first row and column, so the ridged matrix is exactly singular
        entries = K.entries.copy()
        entries[0, :] = entries[:, 0] = 0.0
        entries[0, 0] = -K.ridge
        singular = dataclasses.replace(K, storage=kernel._Storage(entries.copy()))
        before = entries.tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            solve_regularized(singular, np.ones(K.size))
        # the symmetric matrix reads the same, and its array keeps no factor
        assert singular.entries.tobytes() == before
        assert singular.storage.array.tobytes() == before
        assert singular.storage.factored is None

    @pytest.mark.parametrize("name", ["two_atom", "ar1", "unit"])
    def test_mirrored_assembly_equals_the_full_evaluation(self, name):
        # the assembly evaluates the upper triangle only; every entry must
        # be the one that evaluating every row of the kernel gives
        from specdetect import kernel

        H, gamma, kw, _ = {case[0]: case[1:] for case in cases()}[name]
        curve = sd.stieltjes_grid(H, gamma, **kw)
        K = sd.assemble_diagreg(curve)
        i = np.arange(curve.grid.size)
        full = kernel._kernel_rows(curve.v, i)
        full[i, i] = 1.5 * full[i, np.where(i == 0, 1, i - 1)]
        sq = np.sqrt(K.weights)
        assert np.array_equal(K.entries, full * np.outer(sq, sq))

    def test_ridged_matrix_psd(self, mp_kernel):
        eigs = np.linalg.eigvalsh(mp_kernel.entries + mp_kernel.ridge * np.eye(mp_kernel.size))
        assert eigs[0] >= -1e-8 * np.trace(mp_kernel.entries)

    def test_variance_of_trace_statistic(self, mp_kernel):
        # the trace statistic has asymptotic variance 2*gamma*(second
        # population moment) = 2*gamma for the unit bulk; phi = x so phi' = 1
        sigma2 = mp_kernel.quadratic_form(np.ones(mp_kernel.size))
        assert sigma2 == pytest.approx(2 * GAMMA, rel=1e-2)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Each np.linalg.cholesky call made while the test runs: (block size, raised)."""
    calls = []
    cholesky = np.linalg.cholesky

    def spy(a):
        try:
            out = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append((a.shape[0], True))
            raise
        calls.append((a.shape[0], False))
        return out

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


@pytest.fixture(scope="module")
def ar1_kernel():
    H, gamma, kw, _ = {case[0]: case[1:] for case in cases()}["ar1"]
    return sd.assemble_diagreg(sd.stieltjes_grid(H, gamma, **kw))


def _split_kernel(atoms, gamma, points):
    H = sd.AtomicMeasure(np.array(atoms), np.full(len(atoms), 1.0 / len(atoms)))
    return sd.assemble_diagreg(sd.stieltjes_grid(H, gamma, points_per_interval=points))


@pytest.fixture(scope="module")
def ar1_dip_kernel():
    """AR(1) rho = 0.95, p = 249 at gamma = 0.5 and 100 points per interval
    (12 intervals, N = 1200).  Inside interval 0, where the density dips,
    row 87's neighbour diagonal 1.5 k(x_87, x_86) is 0.073 against
    k(x_87, x_88) = 0.176, so the start-corrected matrix has a negative
    adjacent minor there (ROADMAP known defect "The diagonal taken across a
    support gap")."""
    from specdetect.measures import ar1_eigenvalues

    H = sd.AtomicMeasure.uniform(ar1_eigenvalues(0.95, 249))
    return sd.assemble_diagreg(sd.stieltjes_grid(H, 0.5, points_per_interval=100))


def _corrected_minors(K):
    """Adjacent 2 x 2 principal minors of K + rI with each interval start's
    diagonal taken from its right neighbour, the matrix that the solve factors."""
    s = K.starts
    d = np.diag(K.entries) + K.ridge
    d[s] = 1.5 * K.entries[s, s + 1] * np.sqrt(K.weights[s] / K.weights[s + 1]) + K.ridge
    return d[:-1] * d[1:] - np.diag(K.entries, 1) ** 2


def _indefinite_kernel(n=200):
    """A symmetric K with every adjacent 2 x 2 minor of K + rI positive, yet
    indefinite: rows 150 and 190 hold a 2 x 2 minor of 1 - 4 < 0."""
    entries = np.eye(n)
    entries[150, 190] = entries[190, 150] = 2.0
    unit = sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), GAMMA, points_per_interval=n)
    return dataclasses.replace(sd.assemble_diagreg(unit), storage=kernel._Storage(entries),
                               weights=np.ones(n), ridge=1e-4)


class TestCholeskySolve:
    @pytest.mark.parametrize("columns", [None, 2], ids=["one-rhs", "two-rhs"])
    @pytest.mark.parametrize("bulk", ["unit", "ar1", "1-3", "0.5-1.5", "1-4-12"])
    def test_matches_the_dense_solve(self, request, monkeypatch, cholesky_calls, bulk, columns):
        # the split supports {1, 3} and {0.5, 1.5} at gamma = 0.1 and
        # {1, 4, 12} at gamma = 0.05 are factored too, with a Woodbury term
        K = _unfactored({"unit": lambda: request.getfixturevalue("mp_kernel"),
                         "ar1": lambda: request.getfixturevalue("ar1_kernel"),
                         "1-3": lambda: _split_kernel([1.0, 3.0], 0.1, 300),
                         "0.5-1.5": lambda: _split_kernel([0.5, 1.5], 0.1, 300),
                         "1-4-12": lambda: _split_kernel([1.0, 4.0, 12.0], 0.05, 300)}[bulk]())
        assert K.starts.size == bulk.count("-")
        lu_sizes = []
        lu = np.linalg.solve

        def spy(a, b):
            lu_sizes.append(a.shape[0])
            return lu(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        before = K.entries.tobytes()
        rhs = np.random.default_rng(5).standard_normal(
            K.size if columns is None else (K.size, columns))
        u = solve_regularized(K, rhs)
        assert K.entries.tobytes() == before
        assert cholesky_calls and not any(raised for _, raised in cholesky_calls)
        # no LU solve of the matrix: only the m x m Woodbury system, 0 x 0 on one interval
        assert lu_sizes == [K.starts.size]
        dense = lu(K.entries + K.ridge * np.eye(K.size), rhs)
        assert u.shape == rhs.shape
        # observed 7e-16 on the unit kernel, 1.8e-15 on the split supports
        assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("route", ["factored", "split-support", "adjacent-minor",
                                       "factorization-fails"])
    def test_entries_come_back_bit_for_bit(self, request, monkeypatch, cholesky_calls,
                                           mp_kernel, two_atom_curve_01, route):
        # the symmetric matrix reads the same after a solve; a factored
        # array keeps the factor, and one whose factorization fails keeps none
        K = _unfactored({"factored": lambda: mp_kernel,
                         "split-support": lambda: sd.assemble_diagreg(two_atom_curve_01),
                         "adjacent-minor": lambda: request.getfixturevalue("ar1_dip_kernel"),
                         "factorization-fails": _indefinite_kernel}[route]())
        before = K.entries.tobytes()
        upper = np.triu(K.storage.array, 1).tobytes()
        d = np.diag(K.entries) + K.ridge
        minors = d[:-1] * d[1:] - np.diag(K.entries, 1) ** 2
        rhs = np.random.default_rng(7).standard_normal((K.size, 2))
        lu_sizes = []
        lu = np.linalg.solve

        def spy(a, b):
            lu_sizes.append(a.shape[0])
            return lu(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        u = solve_regularized(K, rhs)
        monkeypatch.setattr(np.linalg, "solve", lu)
        assert K.entries.tobytes() == before
        assert np.triu(K.storage.array, 1).tobytes() == upper
        kept = route in ("factored", "split-support")
        assert (K.storage.factored is not None) == kept
        assert (K.storage.array.tobytes() == before) != kept
        raised = [i for i, (_, r) in enumerate(cholesky_calls) if r]
        if route == "split-support":
            # the first point past the gap has a nonpositive adjacent minor
            # in K + rI, but not once its diagonal is taken inside its interval
            assert minors[K.starts].max() <= 0.0
            assert _corrected_minors(K).min() > 0.0
            assert cholesky_calls and raised == []
        elif route == "adjacent-minor":
            # a nonpositive minor inside an interval survives the start
            # correction, at row 87; the factorization fails before it, in
            # the first block, where an alternating mode at interval 0's
            # left edge is negative, and LU gets the N x N matrix
            assert K.starts.size == 11 and _corrected_minors(K).min() <= 0.0
            assert cholesky_calls == [(64, True)]
            assert lu_sizes == [K.size]
        elif route == "factorization-fails":
            assert minors.min() > 0.0
            assert np.linalg.eigvalsh(K.entries + K.ridge * np.eye(K.size))[0] < 0.0
            # the factorization gets past the first block before it fails
            assert raised == [len(cholesky_calls) - 1] and raised[0] >= 1
        else:
            assert K.starts.size == 0
            assert cholesky_calls and raised == []
        dense = np.linalg.solve(K.entries + K.ridge * np.eye(K.size), rhs)
        assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("bulk", ["unit", "1-3"])
    def test_a_second_solve_reuses_the_factor_and_writes_nothing(
            self, monkeypatch, mp_curve, two_atom_curve_01, bulk):
        K = sd.assemble_diagreg({"unit": mp_curve, "1-3": two_atom_curve_01}[bulk])
        rng = np.random.default_rng(11)
        first = solve_regularized(K, rng.standard_normal(K.size))
        assert K.storage.factored is not None and np.all(np.isfinite(first))
        factored = K.storage.array.tobytes()
        calls = []
        factor = kernel._factor
        monkeypatch.setattr(kernel, "_factor", lambda A: calls.append(A) or factor(A))
        rhs = rng.standard_normal((K.size, 2))
        u = solve_regularized(K, rhs)
        # no factorization, and no byte of the array written: neither K's
        # upper triangle and diagonal nor the factor kept below them
        assert calls == []
        assert K.storage.array.tobytes() == factored
        dense = np.linalg.solve(K.entries + K.ridge * np.eye(K.size), rhs)
        # observed 1.2e-15 (unit) and 5.2e-16 (1-3)
        assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_a_copy_with_another_ridge_factors_its_own_system(self, two_atom_curve_01):
        K = sd.assemble_diagreg(two_atom_curve_01)
        rhs = np.random.default_rng(13).standard_normal(K.size)
        solve_regularized(K, rhs)
        doubled = dataclasses.replace(K, ridge=2 * K.ridge)
        # the copy shares K's array, and so the factor of the ridge r system
        assert doubled.storage is K.storage
        for ridge, M in ((2 * K.ridge, doubled), (K.ridge, K), (2 * K.ridge, doubled)):
            u = solve_regularized(M, rhs)
            dense = np.linalg.solve(K.entries + ridge * np.eye(K.size), rhs)
            # observed 7.6e-16
            assert np.max(np.abs(u - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP known defect 'The diagonal taken across a support gap': "
                              "the first point past a gap takes 1.5 k(x_i, x_{i-1}) across it")
    def test_ridged_kernel_is_positive_definite_on_a_split_support(self, two_atom_curve_01):
        K = sd.assemble_diagreg(two_atom_curve_01)
        assert np.linalg.eigvalsh(K.entries + K.ridge * np.eye(K.size))[0] > 0.0


class TestSolvers:
    def test_zero_delta_gives_zero(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, mp_unit, mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta)
        assert np.max(np.abs(g.values)) == 0.0
        gc = sd.solve_collocation(delta)
        assert np.max(np.abs(gc.values)) == 0.0

    def test_diagreg_linear_in_delta(self, mp_unit, mp_curve, mp_kernel):
        d1 = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.2), mp_curve)
        d2 = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.5), mp_curve)
        g1 = sd.solve_diagreg(mp_kernel, d1).values
        g2 = sd.solve_diagreg(mp_kernel, d2).values
        mix = dataclasses.replace(d1)
        mix.cdf = 0.25 * d1.cdf + 0.75 * d2.cdf
        gm = sd.solve_diagreg(mp_kernel, mix).values
        assert np.max(np.abs(gm - 0.25 * g1 - 0.75 * g2)) < 1e-8 * max(1, np.max(np.abs(gm)))

    @pytest.mark.parametrize("t", [1.2, 1.6])
    def test_diagreg_against_omh(self, mp_unit, mp_curve, mp_kernel, t):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(t), mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta)
        phi = sd.integrate_derivative(mp_curve, g.values)
        mask = np.array([s == "in-support" for s in phi.segments])
        ours = normalize_curve(phi.values[mask])
        ref = normalize_curve(omh_lss(phi.grid[mask], t, GAMMA))
        assert mad(ours, ref) <= 1e-2

    @pytest.mark.parametrize("t", [1.2, 1.6])
    def test_collocation_against_omh(self, mp_unit, mp_curve, t):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(t), mp_curve)
        g = sd.solve_collocation(delta)
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
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        g = sd.solve_collocation(delta)
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
            self, monkeypatch, two_atom_curve_01):
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
        delta = sd.delta_diff(G0, G1, curve)
        sd.solve_collocation(delta)
        (nodes, basis), = seen
        blocks = []
        for j in range(curve.n_intervals):
            xs = curve.grid[curve.interval_slice(j)]
            blocks.append(hats(xs, nodes[(nodes >= xs[0]) & (nodes <= xs[-1])]))
        assert len(blocks) == 2
        assert basis.tobytes() == block_diag(*blocks).tobytes()

    def test_collocation_condition_limit(self, mp_unit, mp_curve, monkeypatch):
        from specdetect import kernel

        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.2), mp_curve)
        monkeypatch.setattr(kernel, "_MAX_CONDITION", 1.0)
        with pytest.raises(RuntimeError, match="condition number"):
            sd.solve_collocation(delta)

    def test_two_solver_agreement(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.2), mp_curve)
        gd = sd.solve_diagreg(mp_kernel, delta)
        gc = sd.solve_collocation(delta)
        pd_ = sd.integrate_derivative(mp_curve, gd.values)
        pc = sd.integrate_derivative(mp_curve, gc.values)
        mask = np.array([s == "in-support" for s in pd_.segments])
        assert mad(normalize_curve(pd_.values[mask]), normalize_curve(pc.values[mask])) <= 2e-2

    def test_solvers_refuse_a_delta_from_another_curve(self, mp_unit, mp_kernel):
        # a nearby gamma moves the grid by about 2e-7 relative, but the
        # delta belongs to another curve
        other = sd.stieltjes_grid(mp_unit, GAMMA * (1 + 1e-7), points_per_interval=1000)
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.2), other)
        with pytest.raises(ValueError, match="kernel grid"):
            sd.solve_diagreg(mp_kernel, delta)
        # a delta of the unit bulk against the kernel of an AR(1) bulk, both
        # on 200 points, read efficacy 0.3327 where the unit kernel gives 0.2764
        unit = sd.stieltjes_grid(mp_unit, GAMMA, points_per_interval=200)
        ar1 = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.5, 40))
        K = sd.assemble_diagreg(sd.stieltjes_grid(ar1, GAMMA, points_per_interval=200))
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.5), unit)
        rep = sd.lss_moments(sd.assemble_diagreg(unit), lambda x: x**2, delta, h=1)
        assert rep.efficacy == pytest.approx(0.2764, abs=1e-4)
        for solve in (sd.solve_diagreg,
                      lambda K, delta: sd.lss_moments(K, lambda x: x**2, delta, h=1)):
            with pytest.raises(ValueError, match="kernel grid"):
                solve(K, delta)

    def test_efficacy_monotone_as_ridge_relaxes(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.2), mp_curve)
        thetas = []
        for scale in (100.0, 10.0, 1.0, 0.1):
            K = dataclasses.replace(mp_kernel, ridge=mp_kernel.ridge * scale)
            g = sd.solve_diagreg(K, delta).values
            mu = -K.inner(g, delta.cdf)
            sigma = math.sqrt(max(K.quadratic_form(g), 0.0))
            thetas.append(mu / sigma)
        assert all(b >= a - 1e-10 for a, b in zip(thetas, thetas[1:]))


class TestMemory:
    def test_one_n_by_n_array_per_solve(self, mp_unit, mp_curve):
        # numpy reports its array allocations to tracemalloc, here the
        # blocked factorization's temporaries; LAPACK's working copy in an
        # LU solve is allocated with C malloc and is not seen (the peak RSS
        # test below sees it)
        n = mp_curve.grid.size
        assert n == 1000
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            K = sd.assemble_diagreg(mp_curve)
            assemble_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sd.solve_diagreg(K, delta)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        matrix = n * n * 8
        # observed 1.20 and 0.029; a ridged copy of K makes the solve's 1.004
        assert assemble_peak < 1.3 * matrix
        assert solve_peak < 0.05 * matrix

    @staticmethod
    def _solve_rss_rise(H, gamma, points):
        """Matrix size N and the rise of ru_maxrss over one ``solve_diagreg``
        on H, in units of N^2 * 8 bytes.

        LAPACK's working copy in an LU solve is allocated by C malloc,
        which tracemalloc does not see; the process's peak resident size
        does.  A child's ru_maxrss starts at the peak of the process that
        spawned it, so the solve runs in a child of a fresh interpreter,
        not of this one, whose peak would hide it.
        """
        pytest.importorskip("resource")  # POSIX only
        code = textwrap.dedent(f"""
            import resource
            import specdetect as sd
            H = {H}
            curve = sd.stieltjes_grid(H, {gamma}, points_per_interval={points})
            K = sd.assemble_diagreg(curve)
            G0, G1 = sd.AtomicMeasure.point_mass(1.0), sd.AtomicMeasure.point_mass(1.6)
            delta = sd.delta_diff(G0, G1, curve)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            sd.solve_diagreg(K, delta)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(K.size, (after - before) * 1024 / (K.size ** 2 * 8))
        """)
        src = str(Path(sd.__file__).resolve().parents[1])
        launcher = ("import subprocess, sys; "
                    f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)")
        proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        n, rise = proc.stdout.split()
        return int(n), float(rise)

    def test_solve_raises_no_peak_rss_by_a_matrix(self):
        n, rise = self._solve_rss_rise("sd.AtomicMeasure.point_mass(1.0)", 0.5, 2000)
        assert n == 2000
        # observed 0.01-0.02; LAPACK's copy of K makes it 1.2
        assert rise < 0.25

    def test_split_support_solve_raises_no_peak_rss_by_a_matrix(self):
        H = "sd.AtomicMeasure([1.0, 3.0], [0.5, 0.5])"
        n, rise = self._solve_rss_rise(H, 0.1, 1000)
        assert n == 2000
        # observed 0.01-0.02; LAPACK's copy of K makes it 1.2
        assert rise < 0.25


class TestMoments:
    def test_constant_phi_is_degenerate(self, mp_unit, mp_curve, mp_kernel):
        # finite differencing a constant leaves only round-off noise
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        rep = sd.lss_moments(mp_kernel, lambda x: np.full_like(x, 3.0), delta, h=1)
        assert abs(rep.mu) <= 1e-12
        assert rep.sigma <= 1e-12
        assert rep.power == pytest.approx(0.05, abs=1e-2)

    def test_scaling_phi_leaves_efficacy(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        r1 = sd.lss_moments(mp_kernel, lambda x: np.log(x), delta, h=1)
        r2 = sd.lss_moments(mp_kernel, lambda x: 7.0 * np.log(x), delta, h=1)
        assert r2.efficacy == pytest.approx(r1.efficacy, rel=1e-9)
        assert r2.mu == pytest.approx(7.0 * r1.mu, rel=1e-9)

    def test_solved_g_reproduces_inner_product_theta(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta).values
        h = 2
        mu = -h * mp_kernel.inner(g, delta.cdf)
        sigma = math.sqrt(mp_kernel.quadratic_form(g))
        phi = sd.integrate_derivative(mp_curve, g)
        rep = sd.lss_moments(mp_kernel, phi, delta, h=h)
        assert rep.efficacy == pytest.approx(mu / sigma, rel=1e-2)
        norm = pytest.importorskip("scipy.stats").norm
        assert rep.power == pytest.approx(norm.cdf(norm.ppf(0.05) + rep.efficacy), abs=1e-12)

    def test_sigma_nonnegative_for_random_phi(self, mp_unit, mp_curve, mp_kernel, rng):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        for _ in range(10):
            coeffs = rng.normal(size=4)
            rep = sd.lss_moments(mp_kernel, lambda x: np.polyval(coeffs, x), delta, h=1)
            assert rep.sigma >= 0.0
            assert 0.05 - 1e-9 <= rep.power <= 1.0

    def test_uniform_optimality_in_h(self, mp_unit, mp_curve, mp_kernel):
        delta = sd.delta_diff(mp_unit, sd.AtomicMeasure.point_mass(1.6), mp_curve)
        g = sd.solve_diagreg(mp_kernel, delta).values
        # the solve does not see h at all; the efficacy scales linearly in it
        reps = [sd.lss_moments(mp_kernel, sd.integrate_derivative(mp_curve, g), delta, h=h)
                for h in (1, 2, 5)]
        assert reps[1].efficacy == pytest.approx(2 * reps[0].efficacy, rel=1e-9)
        assert reps[2].efficacy == pytest.approx(5 * reps[0].efficacy, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize("bulk, gamma, t1", [
        pytest.param("unit", 0.2, 1.2, id="unit-gamma0.2", marks=GAMMA_TIMES),
        pytest.param("unit", 0.5, 1.2, id="unit-gamma0.5", marks=GAMMA_TIMES),
        pytest.param("unit", 0.8, 1.2, id="unit-gamma0.8", marks=GAMMA_TIMES),
        pytest.param("ar1", 0.5, 4.0, id="ar1-rho0.7", marks=GAMMA_TIMES),
        pytest.param("two-atom", 0.1, 3.0, id="two-atom-t3.0", marks=GAP_TERM),
    ])
    def test_trace_mean_shift_is_exact(self, bulk, gamma, t1, k):
        # phi = x^k: E tr S^k(alt) - E tr S^k(null) -> h * D m_k, the derivative
        # of the limiting law's k-th moment toward G1 - G0 (= h * (t1 - t0) at k = 1)
        H = {"unit": sd.AtomicMeasure.point_mass(1.0),
             "ar1": sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.7, 249)),
             "two-atom": sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))}[bulk]
        G0, G1 = sd.AtomicMeasure.point_mass(1.0), sd.AtomicMeasure.point_mass(t1)
        curve = sd.stieltjes_grid(H, gamma, points_per_interval=1000)
        delta = sd.delta_diff(G0, G1, curve)
        rep = sd.lss_moments(sd.assemble_diagreg(curve), lambda x: x**k, delta, h=1)
        assert rep.mu == pytest.approx(power_mean_shift(H, G0, G1, gamma, k), rel=1e-3)
