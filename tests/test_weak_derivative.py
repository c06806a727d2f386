import dataclasses
import math

import numpy as np
import pytest

import oracles
import specdetect as sd


GAMMA = 0.5


class TestSpikeForwardMap:
    def test_single_atom_formula(self, mp_unit):
        # psi(t) = t*(1 + gamma/(t-1)) for the unit bulk
        for t in (1.2, 2.0, 3.0, 0.5):
            expect = t * (1 + GAMMA / (t - 1))
            assert sd.spike_forward_map(mp_unit, GAMMA, t) == pytest.approx(expect, rel=1e-12)

    def test_value_at_three(self, mp_unit):
        assert sd.spike_forward_map(mp_unit, GAMMA, 3.0) == pytest.approx(3.75, abs=1e-12)

    def test_transition_point_maps_to_edge(self, mp_unit):
        t_pt = 1 + math.sqrt(GAMMA)
        edge = (1 + math.sqrt(GAMMA)) ** 2
        assert sd.spike_forward_map(mp_unit, GAMMA, t_pt) == pytest.approx(edge, rel=1e-12)

    def test_pole_rejected(self, mp_unit):
        with pytest.raises(ValueError):
            sd.spike_forward_map(mp_unit, GAMMA, 1.0)

    def test_prime_matches_numeric(self, mp_unit):
        s, eps = 3.0, 1e-6
        numeric = (sd.spike_forward_map(mp_unit, GAMMA, s + eps)
                   - sd.spike_forward_map(mp_unit, GAMMA, s - eps)) / (2 * eps)
        assert sd.spike_forward_map_prime(mp_unit, GAMMA, s) == pytest.approx(numeric, rel=1e-6)


class TestClassification:
    def test_windows_bracket_the_threshold(self, mp_curve):
        sub = sd.classify_spikes(sd.AtomicMeasure.point_mass(1.6), mp_curve)
        sup_cls = sd.classify_spikes(sd.AtomicMeasure.point_mass(3.0), mp_curve)
        assert not any(r.supercritical for r in sub)
        assert any(r.supercritical for r in sup_cls)

    def test_supercritical_has_sd(self, mp_curve):
        cls = sd.classify_spikes(sd.AtomicMeasure.point_mass(3.0), mp_curve)
        rec = cls[0]
        assert rec.supercritical
        assert rec.psi == pytest.approx(3.75)
        assert rec.asy_sd == pytest.approx(math.sqrt(2 * 9 * 0.875), rel=1e-12)

    def test_downward_spike_supercritical(self, mp_curve):
        cls = sd.classify_spikes(sd.AtomicMeasure.point_mass(0.2), mp_curve)
        assert cls[0].supercritical
        assert cls[0].psi < mp_curve.support.intervals[0][0]

    def test_spike_equal_to_bulk_atom_subcritical(self, mp_curve):
        cls = sd.classify_spikes(sd.AtomicMeasure.point_mass(1.0), mp_curve)
        assert not any(r.supercritical for r in cls)


class TestStieltjesOfDerivative:
    def test_zero_for_equal_measures(self, mp_unit, mp_curve):
        dens = sd.weak_derivative_cdf(mp_unit, mp_curve).density
        assert np.max(np.abs(dens)) == 0.0

    def test_linear_in_second_argument(self, mp_curve):
        P = sd.AtomicMeasure.point_mass(1.2)
        Q = sd.AtomicMeasure.point_mass(1.5)
        M = sd.AtomicMeasure.mixture([(0.3, P), (0.7, Q)])
        sm = sd.weak_derivative_cdf(M, mp_curve).density
        sp = sd.weak_derivative_cdf(P, mp_curve).density
        sq = sd.weak_derivative_cdf(Q, mp_curve).density
        assert np.max(np.abs(sm - 0.3 * sp - 0.7 * sq)) < 1e-12

    def test_edge_singularity_signs_subcritical(self, mp_curve):
        # perturbation toward a larger spike drains the left edge and feeds the right
        G = sd.AtomicMeasure.point_mass(1.6)
        dens = sd.weak_derivative_cdf(G, mp_curve).density
        assert dens[-1] > 0
        assert dens[0] < 0

    def test_real_outside_support(self, mp_curve):
        G = sd.AtomicMeasure.point_mass(1.6)
        for x in (3.2, 5.0, 0.05):
            s = sd.weak_derivative_st_at(G, mp_curve, x)
            assert abs(s.imag) <= 1e-6


class TestCdf:
    def test_supercritical_point_mass_placed_analytically(self, mp_curve):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(3.0), mp_curve)
        assert len(cdf.point_masses) == 1
        loc, w = cdf.point_masses[0]
        assert loc == pytest.approx(3.75, abs=1e-10)
        assert w == pytest.approx(GAMMA * 1.0, abs=1e-12)
        # density inside the bulk is negative throughout: mass is pushed out
        assert (cdf.density < 0).all()

    def test_point_mass_cross_checked_by_residue(self, mp_curve):
        G = sd.AtomicMeasure.point_mass(3.0)
        cdf = sd.weak_derivative_cdf(G, mp_curve)
        loc, w = cdf.point_masses[0]
        eps = 1e-7
        residue = -(1j * eps * sd.weak_derivative_st_at(G, mp_curve, complex(loc, eps))).real
        assert abs(residue - w) <= 2e-2

    def test_cdf_jumps_by_point_mass(self, mp_curve):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(3.0), mp_curve)
        loc, w = cdf.point_masses[0]
        assert cdf.cdf_at(loc + 1e-9) - cdf.cdf_at(loc - 1e-9) == pytest.approx(w, abs=1e-12)

    def test_subcritical_zero_total_mass(self, mp_curve):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(1.6), mp_curve)
        assert cdf.point_masses == []
        assert abs(cdf.total_mass) <= 1e-3

    def test_equal_measures_zero_cdf(self, mp_unit, mp_curve):
        cdf = sd.weak_derivative_cdf(mp_unit, mp_curve)
        assert np.max(np.abs(cdf.cdf)) == 0.0

    def test_linearity_of_cdf(self, mp_curve):
        P = sd.AtomicMeasure.point_mass(1.2)
        Q = sd.AtomicMeasure.point_mass(1.5)
        M = sd.AtomicMeasure.mixture([(0.4, P), (0.6, Q)])
        cm = sd.weak_derivative_cdf(M, mp_curve)
        cp = sd.weak_derivative_cdf(P, mp_curve)
        cq = sd.weak_derivative_cdf(Q, mp_curve)
        assert np.max(np.abs(cm.cdf - 0.4 * cp.cdf - 0.6 * cq.cdf)) <= 1e-6

    def test_cdf_bounded_by_total_variation_proxy(self, mp_curve):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(1.6), mp_curve)
        # |F(x)| is at most the total variation: |density| dx summed, plus each |point mass|
        dx = np.diff(cdf.curve.grid, prepend=cdf.curve.grid[0])
        variation = np.sum(np.abs(cdf.density) * dx) + sum(abs(w) for _, w in cdf.point_masses)
        assert np.max(np.abs(cdf.cdf)) <= variation

    def test_cdf_at_inside_the_grid(self, two_atom_curve_01):
        # the point mass gamma*u = 0.1 of the escaped spike sits at psi(1.5) = 1.5,
        # in the gap between the two grid intervals
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(1.5), two_atom_curve_01)
        (loc, w), = cdf.point_masses
        assert loc == pytest.approx(1.5, abs=1e-12) and w == pytest.approx(0.1, abs=1e-15)
        assert cdf.curve.grid[0] < loc < cdf.curve.grid[-1]
        assert cdf.cdf_at(loc + 1e-9) - cdf.cdf_at(loc - 1e-9) == pytest.approx(w, abs=1e-12)
        assert [cdf.cdf_at(x) for x in cdf.curve.grid] == cdf.cdf.tolist()

    def test_cdf_at_below_the_grid(self, mp_curve):
        # a downward escaped spike puts its mass below the lowest grid point
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(0.2), mp_curve)
        (loc, w), = cdf.point_masses
        assert loc < mp_curve.support.intervals[0][0]
        assert cdf.cdf_at(loc - 1e-9) == 0.0
        assert cdf.cdf_at(loc) == cdf.cdf_at(0.5 * (loc + cdf.curve.grid[0])) == w

    def test_two_component_bulk_subcritical_cases(self, two_atom_curve_01):
        for t in (0.8, 3.6):
            cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(t), two_atom_curve_01)
            assert cdf.point_masses == []
            assert abs(cdf.total_mass) <= 1e-3


class TestDeltaDiff:
    def test_equal_alternatives_give_zero(self, mp_curve):
        G = sd.AtomicMeasure.point_mass(1.5)
        d = sd.delta_diff(G, G, mp_curve)
        assert np.max(np.abs(d.cdf)) == 0.0

    def test_null_equal_to_bulk_reduces_to_single_cdf(self, mp_unit, mp_curve):
        G1 = sd.AtomicMeasure.point_mass(1.6)
        d = sd.delta_diff(mp_unit, G1, mp_curve)
        ref = sd.weak_derivative_cdf(G1, mp_curve)
        assert np.max(np.abs(d.cdf - ref.cdf)) == 0.0

    def test_antisymmetry(self, mp_curve):
        G0 = sd.AtomicMeasure.point_mass(1.2)
        G1 = sd.AtomicMeasure.point_mass(1.6)
        d01 = sd.delta_diff(G0, G1, mp_curve)
        d10 = sd.delta_diff(G1, G0, mp_curve)
        assert np.max(np.abs(d01.cdf + d10.cdf)) < 1e-14

    def test_one_pass_equals_the_difference_of_two_cdfs(self, two_atom_curve_01):
        # G0 in the gap window and G1 above the bulk: both escape, so the
        # merged point masses carry both signs
        G0, G1 = sd.AtomicMeasure.point_mass(1.5), sd.AtomicMeasure.point_mass(5.0)
        d = sd.delta_diff(G0, G1, two_atom_curve_01)
        c0 = sd.weak_derivative_cdf(G0, two_atom_curve_01)
        c1 = sd.weak_derivative_cdf(G1, two_atom_curve_01)
        scale = np.max(np.abs(d.cdf))
        assert np.max(np.abs(d.cdf - (c1.cdf - c0.cdf))) <= 1e-13 * scale
        assert abs(d.right_tail - (c1.right_tail - c0.right_tail)) <= 1e-13 * scale
        (loc0, w0), = c0.point_masses
        (loc1, w1), = c1.point_masses
        assert d.point_masses == [(loc0, -w0), (loc1, w1)]
        assert w0 == w1 == pytest.approx(0.1, abs=1e-15)

    # regimes no statistic build exercises, against G0 = delta_1 at 400
    # points; the total masses read -3.3e-6 to +6.8e-5, and -4.3e-4 for the
    # downward supercritical spike
    @pytest.mark.parametrize("atoms, gamma, t, supercritical", [
        ((1.0,), 0.5, 0.8, False),
        ((1.0,), 2.0, 1.3, False),
        ((1.0,), 2.0, 0.8, False),
        ((1.0, 3.0), 1.5, 2.0, False),
        ((1.0,), 0.5, 0.2, True),  # below the lower threshold
        ((0.01, 1.0), 0.3, 0.5, True),  # into the gap between the atoms
    ])
    def test_zero_total_mass_off_the_built_regimes(self, atoms, gamma, t, supercritical):
        H = sd.AtomicMeasure.uniform(np.array(atoms))
        curve = sd.stieltjes_grid(H, gamma, points_per_interval=400)
        G1 = sd.AtomicMeasure.point_mass(t)
        (record,) = sd.classify_spikes(G1, curve)
        assert record.supercritical == supercritical
        d = sd.delta_diff(sd.AtomicMeasure.point_mass(1.0), G1, curve)
        assert abs(d.total_mass) <= 1e-3

    @pytest.mark.parametrize("atoms, gamma, t, region", [
        ((1.0,), 0.5, 0.2, (-math.inf, 0.0857864)),  # below the lower edge
        ((0.01, 1.0), 0.3, 0.5, (0.0171107, 0.3769282)),  # inside the gap
    ], ids=["below-the-bulk", "into-the-gap"])
    def test_escaped_spike_located_off_the_built_regimes(self, atoms, gamma, t, region):
        # the supercritical probe cases above: the sample spike sits at
        # psi(t) = t (1 + gamma sum w a/(t - a)), outside the support, and
        # carries the point mass gamma
        H = sd.AtomicMeasure.uniform(np.array(atoms))
        curve = sd.stieltjes_grid(H, gamma, points_per_interval=400)
        (record,) = sd.classify_spikes(sd.AtomicMeasure.point_mass(t), curve)
        psi = t * (1.0 + gamma * sum(w * a / (t - a) for a, w in zip(H.atoms, H.weights)))
        assert record.psi == pytest.approx(psi, rel=1e-15)
        lo, hi = region
        assert lo < record.psi < hi and not curve.support.contains(record.psi)
        d = sd.delta_diff(sd.AtomicMeasure.point_mass(1.0), sd.AtomicMeasure.point_mass(t), curve)
        assert d.point_masses == [(record.psi, gamma)]



@pytest.mark.parametrize("inward, edge", [(+1, 0.25), (-1, 1.25)])
def test_two_point_edge_tail_integrates_the_line(inward, edge):
    # with two grid points and no sub-cell samples the clipped piece is the
    # exact integral over [0, u_0] of the line in u = sqrt(|x - edge|)
    # through the two nodes g = 2 u f
    from specdetect.weak_derivative import _edge_region_masses
    xs, fs = np.array([0.5, 1.0]), np.array([1.5, 0.75])
    tail, cells = _edge_region_masses(xs, fs, edge, inward, 48, None)
    order = slice(None, None, inward)  # nearest node first
    u = np.sqrt(np.abs(xs - edge))[order]
    g = 2.0 * u * fs[order]
    g_at_edge = g[0] - u[0] * (g[1] - g[0]) / (u[1] - u[0])
    assert tail == pytest.approx(0.5 * (g_at_edge + g[0]) * u[0], rel=1e-14)
    assert cells.tolist() == pytest.approx([0.5 * (g[0] + g[1]) * (u[1] - u[0])], rel=1e-15)

def _spikes_off_the_atoms(H, support):
    """Five points inside each spike window (an infinite end capped at
    2 t_max), and the midpoints of atom gaps wider than 2e-3: every spike
    is at least 1e-3 from every atom."""
    t = np.sort(H.atoms)
    spikes = [s for lo, hi, _, _ in support.spike_windows
              for s in np.linspace(lo, min(hi, 2.0 * t[-1]), 7)[1:-1]]
    mids = 0.5 * (t[1:] + t[:-1])
    return spikes + mids[np.diff(t) > 2e-3].tolist()


@pytest.mark.parametrize("bulk", ["two_atom", "ar1"])
def test_psi_and_its_derivative_match_the_explicit_sums(bulk, two_atom):
    if bulk == "two_atom":
        H, gamma = two_atom, 0.1
    else:
        H, gamma = sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.7, 249)), 0.5
    spikes = _spikes_off_the_atoms(H, sd.support_intervals(H, gamma))
    assert len(spikes) >= 10
    for s in spikes:
        psi, psi_p = oracles.spike_forward_map(H.atoms, H.weights, gamma, s)
        assert abs(sd.spike_forward_map(H, gamma, s) - psi) <= 1e-12 * abs(psi), s
        assert abs(sd.spike_forward_map_prime(H, gamma, s) - psi_p) <= 1e-12 * abs(psi_p), s


class TestNearPole:
    @pytest.mark.parametrize("offset", [0.0, 5e-13])
    def test_grid_point_on_a_pole_is_excluded(self, mp_unit, mp_curve, offset):
        # v(x_m) = -1/s puts the sample spike of G on grid point m; the
        # offset leaves |1 + s v| = 5e-13, inside the 1e-12 tolerance
        s, m = 1.6, mp_curve.grid.size // 3
        curve = dataclasses.replace(mp_curve, v=mp_curve.v.copy())
        curve.v[m] = -(1.0 + offset) / s
        G = sd.AtomicMeasure.point_mass(s)
        cdf = sd.weak_derivative_cdf(G, curve)
        assert cdf.density[m] == 0.0
        assert np.all(np.isfinite(cdf.cdf))
        assert cdf.gaps == [f"near-pole grid point excluded at x={curve.grid[m]:.8g}"]
        assert sd.delta_diff(mp_unit, G, curve).gaps == cdf.gaps
