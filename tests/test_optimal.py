import dataclasses
import math
import weakref

import numpy as np
import pytest

import specdetect as sd
from oracles import lan_efficacy, mad, normalize_curve, omh_lss
from specdetect import kernel, mp, optimal
from specdetect.kernel import power_from_efficacy
from specdetect.optimal import SEG_BUMP, SEG_SUPPORT


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

    def test_threshold_rules(self, unit_model_factory, mp_curve):
        # one rule decides the statistic: a spike below the threshold a_pt,
        # read from the support, is solved, and one above it escapes and gets
        # the distance from the support, however close to a_pt it lies
        a_pt = mp_curve.support.upper_pt_threshold
        assert a_pt == pytest.approx(1 + math.sqrt(GAMMA), abs=1e-8)
        for spike, solved in ((a_pt * (1 - 1e-6), True), (a_pt * (1 + 1e-6), False)):
            phi, rep = sd.optimal_lss(unit_model_factory(spike), CFG, curve=mp_curve)
            assert (phi.derivative is not None) == solved
            assert math.isinf(rep.efficacy) != solved
            assert (SEG_BUMP in phi.segments) != solved

    def test_unknown_solver_rejected(self):
        # an escaped spike's build never reaches a kernel solve, so the name is checked here
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
        # no sample size is made up: no statistic reads one
        m = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(2.0),
                           gamma=0.5, h=1)
        assert m.n is None

    def test_explicit_sample_size_kept(self, mp_unit):
        m = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.point_mass(2.0),
                           gamma=0.5, h=1, n=700)
        assert m.n == 700
        with pytest.raises(ValueError, match="n must be at least 1"):
            dataclasses.replace(m, n=0)

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
        delta = sd.delta_diff(model.G0, model.G1, mp_curve)
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

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP known defect 1 'Reported efficacy is gamma times the "
                              "true one': efficacy reads gamma * tau")
    @pytest.mark.parametrize("build, gamma, spikes", [
        (sd.optimal_lss, 0.5, (1.3,)),
        (sd.optimal_lss, 2.0, (0.7,)),
        (sd.optimal_lss, 0.5, (1.3, 1.5)),
        (sd.optimal_lss, 2.0, (1.3, 0.7)),
        (sd.optimal_lss, 0.5, (1.3, 0.8, 1.2)),
        (sd.optimal_lss, 2.0, (1.3, 0.7, 1.5)),
        (sd.optimal_ls3, 0.5, (1.3,)),
        (sd.optimal_ls3, 2.0, (0.7,)),
        (sd.optimal_ls3, 0.5, (1.3, 1.5)),
    ], ids=["lss-gamma0.5-h1", "lss-gamma2-h1", "lss-gamma0.5-h2", "lss-gamma2-h2",
            "lss-gamma0.5-h3", "lss-gamma2-h3", "ls3-gamma0.5-h1", "ls3-gamma2-h1",
            "ls3-gamma0.5-h2"])
    def test_efficacy_is_the_lan_tau_of_several_spikes(self, mp_unit, build, gamma, spikes):
        # h spikes, G1 uniform on them: the best LSS attains the likelihood
        # ratio's efficacy, with the scale known (optimal_lss) or not
        # (optimal_ls3).  efficacy / gamma was within 1.1e-3 of tau in every case
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=sd.AtomicMeasure.uniform(spikes),
                               gamma=gamma, h=len(spikes))
        _, rep = build(model, CFG)
        tau = lan_efficacy(np.array(spikes) - 1.0, gamma, scale_known=build is sd.optimal_lss)
        assert rep.regime == "subcritical-solvable"
        assert abs(rep.efficacy - tau) <= 2e-3 * tau

def distance_outside(support, x, psi):
    """The distance from the support at x, in the part of its complement
    that holds psi (capped at 2 psi above the top edge), else zero."""
    lo, hi = support.intervals[0][0], support.intervals[-1][1]
    if psi > hi:
        return np.clip(x - hi, 0.0, 2.0 * psi - hi)
    if psi < lo:
        return np.clip(lo - x, 0.0, lo)
    c = max(u for _, u in support.intervals if u < psi)
    d = min(l for l, _ in support.intervals if l > psi)
    return np.maximum(np.minimum(x - c, d - x), 0.0)


class TestAbovePtBranch:
    def test_regime_and_bump_shape(self, unit_model_factory, mp_curve):
        # spike 3.0 escapes to psi = 3.75 above the top edge b = (1 + sqrt(gamma))^2:
        # phi is x - b from b to 2 psi, and constant beyond
        model = unit_model_factory(3.0, n=500)
        phi, rep = sd.optimal_lss(model, CFG)
        assert rep.regime == "supercritical-full-power"
        assert rep.power == 1.0
        assert math.isinf(rep.efficacy)
        b = mp_curve.support.intervals[-1][1]
        assert b == pytest.approx((1 + math.sqrt(GAMMA)) ** 2, abs=1e-9)
        assert phi(b) == 0.0 and phi(1.5) == 0.0
        assert phi(3.75) == pytest.approx(3.75 - b, abs=1e-12)
        assert phi(7.5) == phi(10.0) == phi.values[-1] == pytest.approx(7.5 - b, abs=1e-12)

    def test_vanishes_on_bulk_outside_bump(self, unit_model_factory, mp_curve):
        phi, _ = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        mask = in_support_mask(phi)
        assert np.max(np.abs(phi.values[mask])) == 0.0

    def test_regime_decision_matches_fig1_pair(self, unit_model_factory):
        _, sub = sd.optimal_lss(unit_model_factory(1.6), CFG)
        _, sup = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        assert sub.regime == "subcritical-solvable"
        assert sup.regime == "supercritical-full-power"

    @pytest.mark.parametrize("t, n, solved", [(1.6, None, True), (1.75, 500, False),
                                              (3.0, 500, False)],
                             ids=["subcritical", "just-above", "bump"])
    def test_regime_follows_efficacy(self, unit_model_factory, mp_curve, t, n, solved):
        # full power is an infinite efficacy; the regime is read from it
        phi, rep = sd.optimal_lss(unit_model_factory(t, n=n), CFG, curve=mp_curve)
        assert (phi.derivative is not None) == solved
        expected = ("supercritical-full-power" if math.isinf(rep.efficacy)
                    else "subcritical-solvable")
        assert rep.regime == expected
        assert rep.to_dict()["regime"] == expected
        assert (rep.power == 1.0) == math.isinf(rep.efficacy)

    def test_no_substitution_for_large_spike(self, unit_model_factory):
        phi, rep = sd.optimal_lss(unit_model_factory(3.0, n=500), CFG)
        assert phi.derivative is None  # bump route

    def test_downward_spike_gets_bump_not_surrogate(self, unit_model_factory, mp_unit,
                                                    mp_curve):
        # a spike escaping below the bulk gets a - x on [0, a], a the lower
        # edge, the same rule as above it; nothing is solved
        phi, rep = sd.optimal_lss(unit_model_factory(0.15, n=500), CFG)
        assert rep.regime == "supercritical-full-power"
        assert phi.derivative is None
        a = mp_curve.support.intervals[0][0]
        psi = sd.spike_forward_map(mp_unit, GAMMA, 0.15)
        assert 0.0 < psi < a
        assert phi(psi) == pytest.approx(a - psi, abs=1e-12)
        assert phi(0.0) == phi(-1.0) == phi.values[0] == a
        assert phi(a) == phi(1.5) == phi(10.0) == 0.0

    def test_two_escaped_spikes_bump_both_directions(self, mp_unit, mp_curve):
        G = sd.AtomicMeasure(np.array([0.15, 3.0]), np.array([0.5, 0.5]))
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G, gamma=GAMMA, h=2, n=500)
        phi, rep = sd.optimal_lss(model, CFG)
        assert rep.regime == "supercritical-full-power"
        (a, b), = mp_curve.support.intervals
        psi_lo = sd.spike_forward_map(mp_unit, GAMMA, 0.15)
        psi_hi = sd.spike_forward_map(mp_unit, GAMMA, 3.0)
        assert phi(psi_lo) == pytest.approx(a - psi_lo, abs=1e-12)
        assert phi(psi_hi) == pytest.approx(psi_hi - b, abs=1e-12)
        assert phi(1.5) == 0.0
        assert phi(psi_lo / 100) == pytest.approx(a - psi_lo / 100, abs=1e-12)
        assert phi(10.0) == pytest.approx(2 * psi_hi - b, abs=1e-12)

    def test_mid_gap_spike_gets_symmetric_bump(self, two_atom, two_atom_curve_01):
        # spike escaping into the gap (c, d) between the two bulk components:
        # the tent min(x - c, d - x), zero on both components and beyond them
        model = sd.SpikedModel(H=two_atom, G0=two_atom,
                               G1=sd.AtomicMeasure.point_mass(1.65), gamma=0.1, n=500)
        phi, rep = sd.optimal_lss(model, CFG, curve=two_atom_curve_01)
        assert rep.regime == "supercritical-full-power"
        psi = sd.spike_forward_map(two_atom, 0.1, 1.65)
        c = two_atom_curve_01.support.intervals[0][1]
        d = two_atom_curve_01.support.intervals[1][0]
        assert c < psi < d
        mid, w = 0.5 * (c + d), 0.25 * (d - c)
        assert phi(mid) == pytest.approx(0.5 * (d - c), abs=1e-12)
        assert phi(mid + w) == pytest.approx(phi(mid - w), abs=1e-12)
        assert phi(mid + w) == pytest.approx(w, abs=1e-12)
        assert phi(psi) == pytest.approx(min(psi - c, d - psi), abs=1e-12)
        assert phi(c) == phi(d) == phi(0.5) == phi(3.5) == phi(10.0) == 0.0

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_bump_end_nodes_are_exactly_zero(self, two_atom, two_atom_curve_01, ulps):
        # spike 1.5 in the gap (c, d) of the {1, 3} bulk at gamma = 0.1: the
        # tent's end nodes are the gap's edges, where phi is exactly zero,
        # and its nodes come from the support alone, so a 1-ulp change of psi
        # or of the sd changes no bit of phi
        model = sd.SpikedModel(H=two_atom, G0=sd.AtomicMeasure.point_mass(1.0),
                               G1=sd.AtomicMeasure.point_mass(1.5), gamma=0.1)
        cfg = sd.AlgoConfig(points_per_interval=600)
        (rec,) = [r for r in sd.classify_spikes(model.G1, two_atom_curve_01)
                  if r.supercritical]
        built, _ = sd.optimal_lss(model, cfg, curve=two_atom_curve_01)
        def nudge(x):
            return float(np.nextafter(x, ulps * np.inf)) if ulps else x

        nudged = dataclasses.replace(rec, psi=nudge(rec.psi), asy_sd=nudge(rec.asy_sd))
        phi = sd.lss_above_pt((nudged,), two_atom_curve_01)
        assert np.array_equal(phi.grid, built.grid)
        assert np.array_equal(phi.values, built.values)
        assert phi.segments == built.segments
        (_, c), (d, _) = two_atom_curve_01.support.intervals
        for end, inward in ((c, 1), (d, -1)):
            i = int(np.searchsorted(phi.grid, end))
            assert phi.grid[i] == end
            assert phi.values[i] == 0.0 and phi.segments[i] == SEG_BUMP
            assert phi.values[i + inward] > 0.0 and phi.segments[i + inward] == SEG_BUMP
            assert phi.values[i - inward] == 0.0 and phi.segments[i - inward] == SEG_SUPPORT

    @pytest.mark.parametrize("case", ["above", "below", "gap", "both"])
    def test_distance_outside_the_support(self, case, mp_unit, two_atom, mp_curve,
                                          two_atom_curve_01):
        # the curve's grid plus 2 nodes above or below the bulk, 3 in a gap;
        # zero on the support, the distance from it beyond, and no sample size
        H, gamma, curve, spikes = {
            "above": (mp_unit, GAMMA, mp_curve, [3.0]),
            "below": (mp_unit, GAMMA, mp_curve, [0.15]),
            "gap": (two_atom, 0.1, two_atom_curve_01, [1.5]),
            "both": (mp_unit, GAMMA, mp_curve, [0.15, 3.0]),
        }[case]
        G1 = sd.AtomicMeasure.uniform(np.array(spikes))
        edges = [e for interval in curve.support.intervals for e in interval]
        psis = [sd.spike_forward_map(H, gamma, s) for s in spikes]
        nodes = {"above": lambda: [edges[-1], 2 * psis[0]],
                 "below": lambda: [0.0, edges[0]],
                 "gap": lambda: [edges[1], 0.5 * (edges[1] + edges[2]), edges[2]],
                 "both": lambda: [0.0, edges[0], edges[-1], 2 * psis[1]]}[case]()
        built = []
        for n in (None, 10, 10**4):
            model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(1.0), G1=G1,
                                   gamma=gamma, h=len(spikes), n=n)
            phi, rep = sd.optimal_lss(model, CFG, curve=curve)
            assert rep.regime == "supercritical-full-power"
            built.append(phi)
        phi = built[0]
        for other in built[1:]:
            assert np.array_equal(other.grid, phi.grid)
            assert np.array_equal(other.values, phi.values)
            assert other.segments == phi.segments
        assert np.array_equal(phi.grid, np.union1d(curve.grid, nodes))
        assert [x for x, s in zip(phi.grid, phi.segments) if s == SEG_BUMP] == nodes
        assert np.all(phi(curve.grid) == 0.0)
        xs = np.concatenate([phi.grid, np.linspace(-1.0, 12.0, 2601)])
        expected = np.max([distance_outside(curve.support, xs, psi) for psi in psis], axis=0)
        assert np.max(np.abs(phi(xs) - expected)) <= 1e-12


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
        delta = sd.delta_diff(model.G0, model.G1, mp_curve)
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
        delta = sd.delta_diff(H, model.G1, curve)
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
        # an escaped spike's statistic is a distance, so it scales with the bulk
        c = 2.0 if math.isinf(rep.efficacy) else 1.0
        xs = np.concatenate([phi.grid, np.linspace(-1.0, 20.0, 2001)])
        scale = np.max(np.abs(phi.values))
        assert np.max(np.abs(phi(xs) - c * phi_unit(xs / 2))) <= 1e-12 * scale

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

    def test_escaped_statistic_as_in_optimal_lss(self, unit_model_factory, mp_curve):
        # 1.8 lies just above the threshold 1.707: both entries build the
        # same distance statistic, which needs no constraint
        model = unit_model_factory(1.8)
        phi, rep = sd.optimal_ls3(model, CFG, curve=mp_curve)
        phi_u, rep_u = sd.optimal_lss(model, CFG, curve=mp_curve)
        assert rep == rep_u and rep.regime == "supercritical-full-power"
        assert phi.derivative is None and SEG_BUMP in phi.segments
        assert np.array_equal(phi.grid, phi_u.grid)
        assert np.array_equal(phi.values, phi_u.values)


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
                             ids=["optimal_lss", "optimal_ls3", "escaped"])
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
        if t == 2.0:  # the spike escapes: the distance statistic, nothing solved
            assert rep.regime == "supercritical-full-power" and phi.derivative is None

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
        delta = sd.delta_diff(model.G0, model.G1, curve)
        for shared in (K.grid, delta.grid, sd.solve_diagreg(K, delta).grid,
                       sd.equivalent_lss("nagao", curve).grid):
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
