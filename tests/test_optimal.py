import dataclasses
import math
import weakref

import numpy as np
import pytest

import specdetect as sd
from oracles import mad, normalize_curve, omh_lss
from specdetect import kernel, mp, optimal
from specdetect.kernel import power_from_efficacy
from specdetect.optimal import surrogate_spike


GAMMA = 0.5
CFG = sd.AlgoConfig()


def in_support_mask(phi):
    return np.array([s == "in-support" for s in phi.segments])


@pytest.fixture(scope="module")
def unit_model_factory(mp_unit):
    def make(t, **kw):
        return sd.SpikedModel(H=mp_unit, G0=mp_unit,
                              G1=sd.AtomicMeasure.point_mass(t), gamma=GAMMA, **kw)
    return make


class TestConfig:
    def test_defaults_follow_parameter_table(self):
        # the run choices are the only fields; the method's constants are fixed
        assert [f.name for f in dataclasses.fields(sd.AlgoConfig)] == [
            "epsilon", "points_per_interval", "solver", "alpha"]
        assert sd.AlgoConfig().epsilon == 5e-6
        assert kernel._C1 == 1.5
        assert kernel._RIDGE_COEFF == 1e-4
        assert kernel._COLLOCATION_NODES == 150
        assert kernel._MAX_CONDITION == 1e13
        assert optimal._N_SD == 3
        assert optimal._S_MINUS_COEFF == 0.99
        assert optimal._S_PLUS_COEFF == 0.75

    def test_threshold_rules(self, mp_unit, mp_curve):
        # a spike escaping above a_pt and below s_plus = 0.75 (1 + sqrt(gamma)) a_pt
        # is replaced by the surrogate s_minus = 0.99 a_pt; from s_plus on it is not
        a_pt = mp_curve.support.upper_pt_threshold
        s_plus = 0.75 * (1 + math.sqrt(GAMMA)) * a_pt
        for spike, expected in ((s_plus * (1 - 1e-9), 0.99 * a_pt), (s_plus, None)):
            G1 = sd.AtomicMeasure.point_mass(spike)
            model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G1, gamma=GAMMA)
            escaped = tuple(r for r in sd.classify_spikes(mp_unit, GAMMA, G1, mp_curve.support)
                            if r.supercritical)
            assert surrogate_spike(model, escaped, mp_curve.support) == expected

    def test_unknown_solver_rejected(self):
        # the bump route never reaches a kernel solve, so the name is checked here
        with pytest.raises(ValueError, match="unknown solver 'typo'"):
            sd.AlgoConfig(solver="typo")
        for solver in ("diagreg", "collocation"):
            assert sd.AlgoConfig(solver=solver).solver == solver

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            sd.AlgoConfig(alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be in"):
            power_from_efficacy(1.0, alpha)


class TestSpikedModel:
    def test_default_sample_size(self, mp_unit):
        m = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(2.0),
                           gamma=0.5, h=1)
        assert m.resolved_n() == round((1 + 1) / 0.5)

    def test_explicit_sample_size_kept(self, mp_unit):
        m = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(2.0),
                           gamma=0.5, h=1, n=700)
        assert m.resolved_n() == 700

    def test_invalid_parameters(self, mp_unit):
        G = sd.AtomicMeasure.point_mass(2.0)
        with pytest.raises(ValueError):
            sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G, gamma=-1.0)
        with pytest.raises(ValueError):
            sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G, gamma=0.5, h=0)


class TestIntegrateDerivative:
    def test_zero_derivative(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.zeros(mp_curve.grid.size))
        assert np.max(np.abs(phi.values)) == 0.0

    def test_unit_derivative_is_identity_shift(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.ones(mp_curve.grid.size))
        mask = in_support_mask(phi)
        xs = phi.grid[mask]
        assert np.allclose(phi.values[mask], xs - xs[0], atol=1e-12)

    def test_continuity_at_segment_joins(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.sin(mp_curve.grid))
        jumps = np.abs(np.diff(phi.values))
        gaps = np.diff(phi.grid)
        # interpolated values are continuous by construction; check the
        # piecewise-linear evaluation agrees at every stored grid point
        assert np.allclose(phi(phi.grid), phi.values, atol=1e-9)
        assert jumps[gaps == 0].size == 0

    def test_constant_extension_outside(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.cos(mp_curve.grid))
        (lo, hi), = mp_curve.support.intervals
        assert np.array_equal(phi.grid, mp_curve.grid)
        assert phi(lo - 5.0) == phi(lo) == phi.values[0]
        assert phi(hi + 5.0) == phi(hi) == phi.values[-1]

    def test_normalized_copy(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.cos(mp_curve.grid))
        norm = phi.normalized()
        assert norm.values[0] == 0.0
        assert np.max(np.abs(norm.values)) == pytest.approx(1.0)


class TestSubcriticalBranch:
    @pytest.mark.parametrize("t", [1.2, 1.6])
    def test_matches_omh(self, unit_model_factory, t):
        phi, rep = sd.optimal_lss(unit_model_factory(t), CFG)
        assert rep.regime == "subcritical-solvable"
        mask = in_support_mask(phi)
        ours = normalize_curve(phi.values[mask])
        ref = normalize_curve(omh_lss(phi.grid[mask], t, GAMMA))
        assert mad(ours, ref) <= 1e-2

    @pytest.mark.parametrize("build", [sd.optimal_lss, sd.optimal_ls3])
    def test_kernel_matrix_is_freed_before_the_statistic_is_made(
            self, monkeypatch, unit_model_factory, mp_curve, build):
        # arrays allocated while the N x N matrix is live can land above it
        # in the heap and keep its pages from the next build
        entries = []
        assemble, integrate = optimal.assemble_diagreg, optimal.integrate_derivative

        def assemble_spy(curve):
            K = assemble(curve)
            entries.append(weakref.ref(K.entries))
            return K

        def integrate_spy(curve, g):
            assert entries and all(ref() is None for ref in entries)
            return integrate(curve, g)

        monkeypatch.setattr(optimal, "assemble_diagreg", assemble_spy)
        monkeypatch.setattr(optimal, "integrate_derivative", integrate_spy)
        _, rep = build(unit_model_factory(1.6), CFG, curve=mp_curve)
        assert rep.regime == "subcritical-solvable" and len(entries) == 1

    def test_collocation_solver(self, unit_model_factory, mp_curve):
        cfg = sd.AlgoConfig(solver="collocation")
        model = unit_model_factory(1.6)
        phi, rep = sd.optimal_lss(model, cfg, curve=mp_curve)
        assert rep.regime == "subcritical-solvable"
        mask = in_support_mask(phi)
        ref = normalize_curve(omh_lss(phi.grid[mask], 1.6, GAMMA))
        assert mad(normalize_curve(phi.values[mask]), ref) <= 1e-2
        # the derivative it integrates is the collocation solve on the same curve
        delta = sd.delta_diff(model.H, model.G0, model.G1, GAMMA, mp_curve)
        direct = sd.solve_collocation(mp_curve, delta)
        assert np.array_equal(phi.derivative, direct.values)

    def test_normalized_phi_independent_of_h(self, unit_model_factory):
        phis = []
        for h in (1, 2, 5):
            phi, _ = sd.optimal_lss(unit_model_factory(1.6, h=h), CFG)
            phis.append(phi)
        assert np.array_equal(phis[0].derivative, phis[1].derivative)
        assert np.array_equal(phis[0].derivative, phis[2].derivative)

    def test_report_power_formula(self, unit_model_factory):
        norm = pytest.importorskip("scipy.stats").norm
        phi, rep = sd.optimal_lss(unit_model_factory(1.6), CFG)
        assert rep.power == pytest.approx(norm.cdf(norm.ppf(rep.alpha) + rep.efficacy))
        assert rep.efficacy == pytest.approx(rep.mu / rep.sigma)

    def test_supercritical_null_rejected(self, mp_unit):
        model = sd.SpikedModel(H=mp_unit, G0=sd.AtomicMeasure.point_mass(3.0),
                               G1=sd.AtomicMeasure.point_mass(1.2), gamma=GAMMA)
        with pytest.raises(ValueError):
            sd.optimal_lss(model, CFG)

    @pytest.mark.parametrize("build", [sd.optimal_lss, sd.optimal_ls3])
    def test_curve_with_dropped_point_refused(self, unit_model_factory, mp_curve, build):
        # the trapezoid weights would bridge the hole with one wide cell
        hole = mp_curve.grid.size // 2
        keep = np.arange(mp_curve.grid.size) != hole
        x = float(mp_curve.grid[hole])
        holed = dataclasses.replace(
            mp_curve, grid=mp_curve.grid[keep], v=mp_curve.v[keep],
            v_prime=mp_curve.v_prime[keep], interval_id=mp_curve.interval_id[keep],
            dropped=[(x, "residual 1.00e-03")])
        with pytest.raises(ValueError, match=rf"1 non-converged points \(x = {x!r}\)"):
            build(unit_model_factory(1.6), CFG, curve=holed)

    def test_power_monotone_in_spike(self, unit_model_factory, mp_curve):
        powers = []
        for t in (1.1, 1.3, 1.5, 1.65):
            _, rep = sd.optimal_lss(unit_model_factory(t), CFG, curve=mp_curve)
            powers.append(rep.power)
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_two_component_bulk_peaks_at_edges(self, two_atom, two_atom_curve_01):
        # each bulk component shows its largest values hard against an edge
        for t in (0.8, 3.6):
            model = sd.SpikedModel(H=two_atom, G0=two_atom,
                                   G1=sd.AtomicMeasure.point_mass(t), gamma=0.1)
            phi, rep = sd.optimal_lss(model, CFG, curve=two_atom_curve_01)
            assert rep.regime == "subcritical-solvable"
            mask = in_support_mask(phi)
            ids = two_atom_curve_01.interval_id
            vals = phi.values[mask]
            for j in (0, 1):
                seg = np.abs(vals[ids == j] - np.mean(vals[ids == j]))
                peak = int(np.argmax(seg))
                assert peak <= 4 or peak >= seg.size - 5

    def test_mixture_alternatives_combine_linearly(self, mp_unit, mp_curve, unit_model_factory):
        Ga = sd.AtomicMeasure.point_mass(1.2)
        Gb = sd.AtomicMeasure.point_mass(1.5)
        mix = sd.AtomicMeasure.mixture([(0.5, Ga), (0.5, Gb)])
        phi_a, _ = sd.optimal_lss(unit_model_factory(1.2), CFG, curve=mp_curve)
        phi_b, _ = sd.optimal_lss(unit_model_factory(1.5), CFG, curve=mp_curve)
        model_m = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=mix, gamma=GAMMA)
        phi_m, _ = sd.optimal_lss(model_m, CFG, curve=mp_curve)
        combined = normalize_curve(0.5 * phi_a.values + 0.5 * phi_b.values)
        assert mad(combined, normalize_curve(phi_m.values)) <= 2e-2


    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP known defect 1 'Reported efficacy is gamma times the "
                              "true one': efficacy reads gamma * tau")
    @pytest.mark.parametrize("gamma, t", [(2.0, 1.3), (2.0, 0.8), (0.5, 0.8)],
                             ids=["gamma2-t1.3", "gamma2-t0.8", "gamma0.5-t0.8"])
    def test_efficacy_is_the_lan_tau(self, mp_unit, gamma, t):
        # below the transition the best LSS attains the efficacy of the
        # likelihood ratio, tau = sqrt(-log(1 - (t - 1)^2/gamma)/2) on the
        # unit bulk (Onatski, Moreira & Hallin 2013), above gamma = 1 and
        # for a spike below 1 too
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(t),
                               gamma=gamma, n=1000)
        _, rep = sd.optimal_lss(model, CFG)
        tau = math.sqrt(-0.5 * math.log(1.0 - (t - 1.0) ** 2 / gamma))
        assert rep.regime == "subcritical-solvable"
        assert abs(rep.efficacy - tau) <= 1e-3 * tau

class TestAbovePtBranch:
    def test_regime_and_bump_shape(self, unit_model_factory):
        model = unit_model_factory(3.0, n=500)
        phi, rep = sd.optimal_lss(model, CFG)
        assert rep.regime == "supercritical-full-power"
        assert rep.power == 1.0
        assert math.isinf(rep.efficacy)
        w = 3.0 * math.sqrt(2 * 9.0 * 0.875) / math.sqrt(500)
        assert phi(3.75) == pytest.approx(1.0, abs=1e-9)
        assert phi(3.75 - w / 2) == pytest.approx(0.75, abs=1e-6)
        assert phi(3.75 - 2 * w) == 0.0
        # extremal spike: constant one away from the bulk
        assert phi(3.75 + w / 2) == 1.0
        assert phi(10.0) == 1.0

    def test_vanishes_on_bulk_outside_bump(self, unit_model_factory, mp_curve):
        phi, _ = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        mask = in_support_mask(phi)
        assert np.max(np.abs(phi.values[mask])) == 0.0

    def test_regime_decision_matches_fig1_pair(self, unit_model_factory):
        _, sub = sd.optimal_lss(unit_model_factory(1.6), CFG)
        _, sup = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        assert sub.regime == "subcritical-solvable"
        assert sup.regime == "supercritical-full-power"

    @pytest.mark.parametrize("t, n, solved", [(1.6, None, True), (1.75, 500, True),
                                              (3.0, 500, False)],
                             ids=["subcritical", "surrogate", "bump"])
    def test_regime_follows_efficacy(self, unit_model_factory, mp_curve, t, n, solved):
        # full power is an infinite efficacy; the regime is read from it
        phi, rep = sd.optimal_lss(unit_model_factory(t, n=n), CFG, curve=mp_curve)
        assert (phi.derivative is not None) == solved
        expected = ("supercritical-full-power" if math.isinf(rep.efficacy)
                    else "subcritical-solvable")
        assert rep.regime == expected
        assert rep.to_dict()["regime"] == expected
        assert (rep.power == 1.0) == math.isinf(rep.efficacy)

    def test_near_pt_substitution(self, unit_model_factory):
        # just above the threshold 1.7071, below s_plus: surrogate spike is
        # solved on the smooth branch but the regime stays supercritical
        phi, rep = sd.optimal_lss(unit_model_factory(1.75, n=500), CFG)
        assert rep.regime == "supercritical-full-power"
        assert rep.power == 1.0
        assert phi.derivative is not None  # solve route, not bumps

    def test_no_substitution_for_large_spike(self, unit_model_factory):
        phi, rep = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        assert phi.derivative is None  # bump route

    def test_downward_spike_gets_bump_not_surrogate(self, unit_model_factory, mp_unit):
        # a spike escaping below the bulk is supercritical but must not
        # trigger the upper-threshold surrogate rule
        phi, rep = sd.optimal_lss(unit_model_factory(0.15, n=500), CFG)
        assert rep.regime == "supercritical-full-power"
        assert phi.derivative is None
        psi = sd.spike_forward_map(mp_unit, GAMMA, 0.15)
        assert phi(psi) == pytest.approx(1.0)
        assert phi(psi / 10) == 1.0  # constant-one extension away from the bulk

    def test_two_escaped_spikes_bump_both_directions(self, mp_unit):
        G = sd.AtomicMeasure(np.array([0.15, 3.0]), np.array([0.5, 0.5]))
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G, gamma=GAMMA, h=2, n=500)
        phi, rep = sd.optimal_lss(model, CFG)
        assert rep.regime == "supercritical-full-power"
        psi_lo = sd.spike_forward_map(mp_unit, GAMMA, 0.15)
        psi_hi = sd.spike_forward_map(mp_unit, GAMMA, 3.0)
        assert phi(psi_lo) == pytest.approx(1.0)
        assert phi(psi_hi) == pytest.approx(1.0)
        assert phi(1.5) == 0.0
        assert phi(psi_lo / 100) == 1.0  # extremal extensions on both sides
        assert phi(10.0) == 1.0

    def test_mid_gap_spike_gets_symmetric_bump(self, two_atom, two_atom_curve_01):
        # spike escaping into the gap between the two bulk components: a
        # full symmetric bump, no constant extension anywhere
        model = sd.SpikedModel(H=two_atom, G0=two_atom,
                               G1=sd.AtomicMeasure.point_mass(1.65), gamma=0.1, n=500)
        phi, rep = sd.optimal_lss(model, CFG, curve=two_atom_curve_01)
        assert rep.regime == "supercritical-full-power"
        psi = sd.spike_forward_map(two_atom, 0.1, 1.65)
        lo_gap = two_atom_curve_01.support.intervals[0][1]
        hi_gap = two_atom_curve_01.support.intervals[1][0]
        assert lo_gap < psi < hi_gap
        w = 3.0 * math.sqrt(2 * 1.65**2 * sd.spike_forward_map_prime(two_atom, 0.1, 1.65)) \
            / math.sqrt(500)
        assert phi(psi) == pytest.approx(1.0)
        assert phi(psi + w / 2) == pytest.approx(phi(psi - w / 2), abs=1e-9)
        assert phi(psi + w / 2) == pytest.approx(0.75, abs=1e-6)
        assert phi(3.5) == 0.0   # second bulk component untouched
        assert phi(10.0) == 0.0  # no extremal spike, no constant-one tail

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_bump_end_nodes_are_exactly_zero(self, two_atom, two_atom_curve_01, ulps):
        # spike 1.5 in the gap of the {1, 3} bulk at gamma = 0.1, n = 30: the
        # bump spans psi -/+ w = 0.6, 2.4, both inside the support, where
        # (x - psi)/w rounds to 1 +- 1 ulp.  phi and the label at both end
        # nodes must follow neither that rounding nor a 1-ulp change of the sd
        model = sd.SpikedModel(H=two_atom, G0=sd.AtomicMeasure.point_mass(1.0),
                               G1=sd.AtomicMeasure.point_mass(1.5), gamma=0.1)
        cfg = sd.AlgoConfig(points_per_interval=600)
        support = two_atom_curve_01.support
        (rec,) = [r for r in sd.classify_spikes(two_atom, 0.1, model.G1, support)
                  if r.supercritical]
        if ulps == 0:
            phi, _ = sd.optimal_lss(model, cfg, curve=two_atom_curve_01)
        else:
            rec = dataclasses.replace(rec, asy_sd=float(np.nextafter(rec.asy_sd, ulps * np.inf)))
            phi = sd.lss_above_pt(model, (rec,), two_atom_curve_01)
        w = 3.0 * rec.asy_sd / math.sqrt(model.resolved_n())
        for end, inward in ((rec.psi - w, 1), (rec.psi + w, -1)):
            i = int(np.searchsorted(phi.grid, end))
            assert phi.grid[i] == end
            assert phi.values[i] == 0.0
            assert support.contains(end) and phi.segments[i] == "in-support"
            assert phi.values[i + inward] > 0.0 and phi.segments[i + inward] == "epanechnikov-bump"

    def test_substitution_thresholds_from_support(self, mp_unit, mp_curve):
        a_pt = mp_curve.support.upper_pt_threshold
        assert a_pt == pytest.approx(1 + math.sqrt(GAMMA), abs=1e-8)
        assert optimal._S_PLUS_COEFF * (1 + math.sqrt(GAMMA)) * a_pt > 1.75
        assert optimal._S_MINUS_COEFF * a_pt < a_pt


@pytest.mark.slow
class TestBenchmarkSweep:
    @pytest.mark.parametrize("gamma,t", [
        (0.2, 1.2), (0.2, 1.4), (0.8, 1.3), (0.8, 1.8), (0.5, 1.05), (0.5, 1.4),
        (2.0, 1.8), (2.0, 2.2),
    ])
    def test_omh_agreement_across_aspect_ratios(self, mp_unit, gamma, t):
        # the closed-form benchmark holds for any subcritical spike and
        # aspect ratio, not just the pinned acceptance instances
        assert t < 1 + math.sqrt(gamma)
        curve = sd.stieltjes_grid(mp_unit, gamma, points_per_interval=500)
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit,
                               G1=sd.AtomicMeasure.point_mass(t), gamma=gamma)
        phi, rep = sd.optimal_lss(model, sd.AlgoConfig(), curve=curve)
        assert rep.regime == "subcritical-solvable"
        mask = in_support_mask(phi)
        ours = normalize_curve(phi.values[mask])
        ref = normalize_curve(omh_lss(phi.grid[mask], t, gamma))
        assert mad(ours, ref) <= 1e-2


class TestScaleInvariantVariant:
    def test_constraint_and_reduced_efficacy(self, unit_model_factory, mp_unit, mp_curve):
        model = unit_model_factory(1.6)
        phi_u, rep_u = sd.optimal_lss(model, CFG, curve=mp_curve)
        phi_s, rep_s = sd.optimal_ls3(model, CFG, curve=mp_curve)
        K = sd.assemble_diagreg(mp_curve)
        d_vec = mp_curve.grid * mp_curve.density
        inner = float(np.sum(K.weights * phi_s.derivative * d_vec))
        scale = float(np.linalg.norm(phi_s.derivative) * np.linalg.norm(d_vec))
        assert abs(inner) <= 1e-8 * max(scale, 1.0)
        assert rep_s.efficacy <= rep_u.efficacy

    def test_reduction_magnitude(self, unit_model_factory, mp_unit, mp_curve):
        # theta_s^2 = theta^2 - h^2 <K+ D, Delta>^2 / <K+ D, D> with the
        # same regularized inverse standing in for K+
        model = unit_model_factory(1.6)
        _, rep_u = sd.optimal_lss(model, CFG, curve=mp_curve)
        _, rep_s = sd.optimal_ls3(model, CFG, curve=mp_curve)
        K = sd.assemble_diagreg(mp_curve)
        delta = sd.delta_diff(model.H, model.G0, model.G1, GAMMA, mp_curve)
        sq = np.sqrt(K.weights)
        A = K.entries + K.ridge * np.eye(K.size)
        d_vec = mp_curve.grid * mp_curve.density
        kinv_delta = np.linalg.solve(A, sq * delta.cdf) / sq
        kinv_d = np.linalg.solve(A, sq * d_vec) / sq
        cross = K.inner(kinv_delta, d_vec)
        dd = K.inner(kinv_d, d_vec)
        predicted = math.sqrt(max(rep_u.efficacy**2 - cross**2 / dd, 0.0))
        assert rep_s.efficacy == pytest.approx(predicted, rel=0.05)

    def test_matches_dense_projected_solve_on_indefinite_kernel(self):
        # unit-mean two-atom bulk: its split-support kernel has negative
        # eigenvalues far below the ridge, where (K + r I) is indefinite
        H = sd.AtomicMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        curve = sd.stieltjes_grid(H, 0.1, points_per_interval=600)
        K = sd.assemble_diagreg(curve)
        assert np.linalg.eigvalsh(K.entries)[0] < -100 * K.ridge
        model = sd.SpikedModel(H=H, G0=H, G1=sd.AtomicMeasure.point_mass(1.8), gamma=0.1)
        phi, rep = sd.optimal_ls3(model, CFG, curve=curve)
        assert rep.regime == "subcritical-solvable"
        # the projected system (P K P + r I) u = -P b, solved densely
        delta = sd.delta_diff(H, H, model.G1, 0.1, curve)
        sq = np.sqrt(K.weights)
        d_vec = sq * curve.grid * curve.density
        P = np.eye(K.size) - np.outer(d_vec, d_vec) / (d_vec @ d_vec)
        u = P @ np.linalg.solve(P @ K.entries @ P + K.ridge * np.eye(K.size),
                                -P @ (sq * delta.cdf))
        g = u / sq
        assert np.max(np.abs(phi.derivative - g)) <= 1e-10 * np.max(np.abs(g))
        mu = -model.h * K.inner(g, delta.cdf)
        assert rep.efficacy == pytest.approx(mu / math.sqrt(K.quadratic_form(g)), rel=1e-10)

    @pytest.mark.parametrize("gamma, t", [(0.5, 1.6), (0.1, 1.5), (0.5, 2.5)])
    def test_built_in_the_models_units(self, two_atom, gamma, t):
        # the constrained solve is scale-equivariant: the statistic of the
        # mean-2 bulk is that of its unit-mean copy read at x / 2
        def build(c):
            H = sd.AtomicMeasure(two_atom.atoms * c, two_atom.weights)
            model = sd.SpikedModel(H=H, G0=H, G1=sd.AtomicMeasure.point_mass(t * c), gamma=gamma)
            return sd.optimal_ls3(model, sd.AlgoConfig(points_per_interval=400))

        phi, rep = build(1.0)
        phi_unit, rep_unit = build(0.5)
        assert rep.regime == rep_unit.regime
        assert rep.efficacy == pytest.approx(rep_unit.efficacy, rel=1e-12)
        xs = np.concatenate([phi.grid, np.linspace(-1.0, 20.0, 2001)])
        scale = np.max(np.abs(phi.values))
        assert np.max(np.abs(phi(xs) - phi_unit(xs / 2))) <= 1e-12 * scale

    def test_passed_curve_is_used(self, two_atom, two_atom_curve_01):
        # a mean-2 bulk is built on the caller's curve, holes and all
        curve = two_atom_curve_01
        hole = curve.grid.size // 2
        keep = np.arange(curve.grid.size) != hole
        holed = dataclasses.replace(
            curve, grid=curve.grid[keep], v=curve.v[keep], v_prime=curve.v_prime[keep],
            interval_id=curve.interval_id[keep], dropped=[(float(curve.grid[hole]), "residual")])
        model = sd.SpikedModel(H=two_atom, G0=two_atom,
                               G1=sd.AtomicMeasure.point_mass(3.6), gamma=0.1)
        phi, _ = sd.optimal_ls3(model, CFG, curve=curve)
        assert np.array_equal(phi.grid, curve.grid)
        with pytest.raises(ValueError, match="1 non-converged points"):
            sd.optimal_ls3(model, CFG, curve=holed)

    def test_supercritical_delegates_to_bumps(self, unit_model_factory):
        phi, rep = sd.optimal_ls3(unit_model_factory(3.0, n=500), CFG)
        assert rep.regime == "supercritical-full-power"
        assert rep.power == 1.0

    def test_supercritical_null_rejected(self, mp_unit, mp_curve):
        model = sd.SpikedModel(H=mp_unit, G0=sd.AtomicMeasure.point_mass(3.0),
                               G1=sd.AtomicMeasure.point_mass(1.2), gamma=GAMMA)
        with pytest.raises(ValueError, match="G0"):
            sd.optimal_ls3(model, CFG, curve=mp_curve)

    def test_collocation_rejected(self, unit_model_factory, mp_curve):
        # the constrained system has no collocation form
        with pytest.raises(ValueError, match="diagreg"):
            sd.optimal_ls3(unit_model_factory(1.6), sd.AlgoConfig(solver="collocation"),
                           curve=mp_curve)

    def test_surrogate_rule_as_in_optimal_lss(self, unit_model_factory, mp_curve):
        # 1.8 lies between the threshold 1.707 and s_plus 2.19: the
        # surrogate is solved under the constraint instead of a bump
        model = unit_model_factory(1.8)
        phi, rep = sd.optimal_ls3(model, CFG, curve=mp_curve)
        _, rep_u = sd.optimal_lss(model, CFG, curve=mp_curve)
        assert rep.regime == rep_u.regime == "supercritical-full-power"
        assert "epanechnikov-bump" not in phi.segments
        K = sd.assemble_diagreg(mp_curve)
        d_vec = mp_curve.grid * mp_curve.density
        inner = float(np.sum(K.weights * phi.derivative * d_vec))
        scale = float(np.linalg.norm(phi.derivative) * np.linalg.norm(d_vec))
        assert abs(inner) <= 1e-8 * max(scale, 1.0)


class TestSurrogateRule:
    """The one rule that optimal_lss and power_experiment share."""

    @pytest.mark.parametrize("spike, expected", [(1.8, 0.99 * (1 + math.sqrt(0.5))),
                                                 (3.0, None), (0.2, None)])
    def test_fires_only_just_above_the_upper_threshold(self, mp_unit, mp_curve, spike, expected):
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(spike),
                               gamma=0.5)
        escaped = tuple(r for r in sd.classify_spikes(mp_unit, 0.5, model.G1, mp_curve.support)
                        if r.supercritical)
        assert escaped
        got = surrogate_spike(model, escaped, mp_curve.support)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, rel=1e-8)


MEMO_POINTS = 200


@pytest.fixture
def grid_calls(monkeypatch):
    """Every stieltjes_grid call that a statistic build makes, as (H, gamma, points)."""
    calls = []
    build = optimal.stieltjes_grid

    def spy(H, gamma, points_per_interval):
        calls.append((H, gamma, points_per_interval))
        return build(H, gamma, points_per_interval=points_per_interval)

    monkeypatch.setattr(optimal, "stieltjes_grid", spy)
    return calls


def unit_build_model(t, H=None, gamma=GAMMA):
    unit = sd.AtomicMeasure.point_mass(1.0)
    return sd.SpikedModel(H=unit if H is None else H, G0=unit,
                          G1=sd.AtomicMeasure.point_mass(t), gamma=gamma, n=500)


class TestCurveMemo:
    """A build given no curve reuses that of one of the last two bulks built so."""

    @pytest.mark.parametrize("build, t", [(sd.optimal_lss, 1.6), (sd.optimal_ls3, 1.6),
                                          (sd.optimal_lss, 2.0)],
                             ids=["optimal_lss", "optimal_ls3", "surrogate"])
    def test_second_build_reuses_the_curve_bit_for_bit(self, grid_calls, build, t):
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        model = unit_build_model(t)
        build(model, cfg)
        assert len(grid_calls) == 1
        phi, rep = build(model, cfg)
        assert len(grid_calls) == 1
        curve = sd.stieltjes_grid(model.H, GAMMA, points_per_interval=MEMO_POINTS)
        phi_given, rep_given = build(model, cfg, curve=curve)
        assert np.array_equal(phi.grid, phi_given.grid)
        assert np.array_equal(phi.values, phi_given.values)
        assert np.array_equal(phi.derivative, phi_given.derivative)
        assert phi.segments == phi_given.segments
        assert rep == rep_given
        if t == 2.0:  # the surrogate rule fired: solved, no bump
            assert rep.regime == "supercritical-full-power" and phi.derivative is not None

    def test_key_is_the_bulk_gamma_and_grid_not_epsilon(self, grid_calls):
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        nudged = sd.AtomicMeasure.point_mass(np.nextafter(1.0, 2.0))
        sd.optimal_lss(unit_build_model(1.6), cfg)
        sd.optimal_lss(unit_build_model(1.6), dataclasses.replace(cfg, epsilon=1e-9))
        assert len(grid_calls) == 1
        for model, c in ((unit_build_model(1.6, H=nudged), cfg),
                         (unit_build_model(1.6, gamma=0.4), cfg),
                         (unit_build_model(1.6),
                          dataclasses.replace(cfg, points_per_interval=208))):
            before = len(grid_calls)
            sd.optimal_lss(model, c)
            assert len(grid_calls) == before + 1
            assert grid_calls[-1] == (model.H, model.gamma, c.points_per_interval)

    def test_three_bulks_in_a_cycle_never_reuse_a_curve(self, grid_calls):
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        bulks = [sd.AtomicMeasure.point_mass(a) for a in (1.0, 1.25, 1.5)]
        for H in bulks * 2:
            sd.optimal_lss(unit_build_model(3.0, H=H), cfg)
        assert [H for H, _, _ in grid_calls] == bulks * 2
        # while two bulks in turn reuse both curves
        for H in bulks[:2] * 2:
            sd.optimal_lss(unit_build_model(3.0, H=H), cfg)
        assert len(grid_calls) == 8

    def test_curve_arrays_are_read_only(self):
        curve = sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), GAMMA,
                                  points_per_interval=MEMO_POINTS)
        edges = [a for sample in curve.edge_samples.values() for a in sample]
        assert len(edges) == 6
        for a in [curve.grid, curve.v, curve.v_prime, curve.interval_id] + edges:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    def test_statistics_share_the_curve_grid(self):
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        model = unit_build_model(1.6)
        phi, _ = sd.optimal_lss(model, cfg)
        curve = optimal._curve(model.H, GAMMA, MEMO_POINTS)
        assert phi.grid is curve.grid
        phi, _ = sd.optimal_lss(model, sd.AlgoConfig(solver="collocation",
                                                     points_per_interval=MEMO_POINTS))
        assert phi.grid is curve.grid
        K = sd.assemble_diagreg(curve)
        delta = sd.delta_diff(model.H, model.G0, model.G1, GAMMA, curve)
        for shared in (K.grid, delta.grid, sd.solve_diagreg(K, delta).grid,
                       sd.equivalent_lss("nagao", model.H, GAMMA, curve).grid):
            assert shared is curve.grid

    def test_holed_curve_from_the_memo_is_refused_every_time(self, monkeypatch, grid_calls):
        H = sd.AtomicMeasure.point_mass(1.0)
        ref = sd.stieltjes_grid(H, GAMMA, points_per_interval=MEMO_POINTS)
        x_hole = float(ref.grid[MEMO_POINTS // 2 + 3])
        real_limit = mp._real_limit

        def failing(H, gamma, x, v0):
            v, resid, slope = real_limit(H, gamma, x, v0)
            resid[x == x_hole] = np.inf
            return v, resid, slope

        monkeypatch.setattr(mp, "_real_limit", failing)
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        for build in (sd.optimal_lss, sd.optimal_ls3, sd.optimal_lss):
            with pytest.raises(ValueError, match=rf"1 non-converged points \(x = {x_hole!r}\)"):
                build(unit_build_model(1.6), cfg)
        assert len(grid_calls) == 1


class TestCurveOfAnotherBulk:
    """Each entry that takes a bulk and a curve refuses a curve of another bulk."""

    @staticmethod
    def entries(H, curve):
        G1 = sd.AtomicMeasure.point_mass(1.6)
        model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(1.0), G1=G1, gamma=GAMMA)
        cfg = sd.AlgoConfig(points_per_interval=MEMO_POINTS)
        return {
            "optimal_lss": lambda: sd.optimal_lss(model, cfg, curve=curve),
            "optimal_ls3": lambda: sd.optimal_ls3(model, cfg, curve=curve),
            "bump": lambda: sd.optimal_lss(dataclasses.replace(
                model, G1=sd.AtomicMeasure.point_mass(3.0), n=500), cfg, curve=curve),
            "delta_diff": lambda: sd.delta_diff(H, model.G0, G1, GAMMA, curve),
            "weak_derivative_cdf": lambda: sd.weak_derivative_cdf(H, G1, GAMMA, curve),
            "equivalent_lss": lambda: sd.equivalent_lss("nagao", H, GAMMA, curve),
        }

    def test_curve_of_another_bulk_is_refused(self):
        two = sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        curve = sd.stieltjes_grid(two, GAMMA, points_per_interval=MEMO_POINTS)
        for name, call in self.entries(sd.AtomicMeasure.point_mass(1.0), curve).items():
            with pytest.raises(ValueError, match=r"bulk H \(atoms \[1\.\].*curve's bulk "
                                                 r"\(atoms \[1\. 3\.\]"):
                call()

    def test_equal_bulk_made_apart_is_accepted(self):
        curve = sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), GAMMA,
                                  points_per_interval=MEMO_POINTS)
        twin = sd.AtomicMeasure(np.array([1.0]), np.array([1.0]))
        assert twin is not curve.H
        for call in self.entries(twin, curve).values():
            call()

    def test_gamma_of_another_curve_is_refused(self):
        curve = sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), 0.4,
                                  points_per_interval=MEMO_POINTS)
        for call in self.entries(sd.AtomicMeasure.point_mass(1.0), curve).values():
            with pytest.raises(ValueError, match="gamma does not match the curve"):
                call()
