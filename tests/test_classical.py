import math
import re

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

    def test_unknown_id_rejected(self, mp_curve):
        with pytest.raises(KeyError):
            sd.equivalent_lss("no-such-test", mp_curve)

    def test_missing_parameter_named(self, mp_curve):
        with pytest.raises(ValueError, match="'t'"):
            sd.equivalent_lss("omh-identity", mp_curve)

    def test_unknown_parameters_named(self, mp_curve):
        with pytest.raises(ValueError, match="^test 'john-sphericity' takes no parameter 'typo'$"):
            sd.equivalent_lss("john-sphericity", mp_curve, typo=1)
        with pytest.raises(ValueError, match="^test 'omh-identity' takes no parameter 'lam', 's'$"):
            sd.equivalent_lss("omh-identity", mp_curve, t=1.6, s=2, lam=0.5)
        with pytest.raises(ValueError, match="^test 'nagao' takes no parameter 't'$"):
            sd.evaluate_statistic("nagao", np.ones(10), n=20, t=1.6)


    @pytest.mark.parametrize("test_id, params, shown", [
        ("omh-identity", {"t": math.inf}, "inf"),
        ("omh-identity", {"t": math.nan}, "nan"),
        ("omh-sphericity", {"t": -math.inf}, "-inf"),
        ("regularized-lrt", {"lam": math.inf}, "inf"),
    ], ids=["omh-identity-inf", "omh-identity-nan", "omh-sphericity-minus-inf",
            "regularized-lrt-inf"])
    def test_non_finite_parameter_named(self, mp_curve, test_id, params, shown):
        # t = inf gave phi = -inf at every grid point, and t = nan the
        # message of a supercritical spike
        (name,) = params
        message = f"^test '{test_id}' parameter '{name}' must be a finite number, not {shown}$"
        with pytest.raises(ValueError, match=message):
            sd.equivalent_lss(test_id, mp_curve, **params)
        with pytest.raises(ValueError, match=message):
            sd.evaluate_statistic(test_id, [1.0, 2.0], 4, **params)


class TestEquivalentLss:
    def test_john_sphericity_under_identity_null(self, mp_curve):
        phi = sd.equivalent_lss("john-sphericity", mp_curve)
        x = mp_curve.grid
        assert np.allclose(phi(x), x**2 - 2 * (1 + GAMMA) * x, atol=1e-12)

    def test_fisher_under_identity_null(self, mp_curve):
        # catalog form is m2*x^4 - 2*m4*x^2; the published identity-null
        # version divides out the common factor (1 + gamma)
        phi = sd.equivalent_lss("fisher-2010", mp_curve)
        x = mp_curve.grid
        expect = (1 + GAMMA) * (x**4 - 2 * (GAMMA**2 + 5 * GAMMA + 1) * x**2)
        assert np.allclose(phi(x), expect, atol=1e-9)

    def test_mauchly_equals_identity_lrt_at_unit_mean(self, mp_curve):
        lrt = sd.equivalent_lss("lrt-identity", mp_curve)
        mau = sd.equivalent_lss("mauchly", mp_curve)
        assert np.max(np.abs(lrt.values - mau.values)) <= 1e-12

    def test_ledoit_wolf_equals_john_sphericity_at_unit_mean(self, mp_curve):
        lw = sd.equivalent_lss("ledoit-wolf", mp_curve)
        js = sd.equivalent_lss("john-sphericity", mp_curve)
        assert np.max(np.abs(lw.values - js.values)) <= 1e-12

    def test_omh_identity_formula(self, mp_curve):
        t = 1.6
        phi = sd.equivalent_lss("omh-identity", mp_curve, t=t)
        z = sd.omh_z(t, GAMMA)
        assert np.allclose(phi(mp_curve.grid), -np.log(z - mp_curve.grid), atol=1e-12)

    def test_omh_guard_past_the_sample_spike(self, mp_curve):
        # the formula is undefined once z(t) - x turns nonpositive
        phi = sd.equivalent_lss("omh-identity", mp_curve, t=1.6)
        with pytest.raises(ValueError):
            sd.evaluate_statistic("omh-identity", np.array([1.0, 3.5]), n=4, t=1.6)
        assert phi(2.0) > 0 or True  # in-range evaluation stays finite

    def test_omh_sphericity_linear_term(self, mp_curve):
        t = 1.6
        phi_s = sd.equivalent_lss("omh-sphericity", mp_curve, t=t)
        phi_i = sd.equivalent_lss("omh-identity", mp_curve, t=t)
        x = mp_curve.grid
        assert np.allclose(phi_s(x) - phi_i(x), -((t - 1) / GAMMA) * x, atol=1e-12)

    def test_regularized_lrt(self, mp_curve):
        phi = sd.equivalent_lss("regularized-lrt", mp_curve, lam=0.5)
        x = mp_curve.grid
        assert np.allclose(phi(x), x - np.log(x + 0.5), atol=1e-12)


# each statistic on the eigenvalues (1, 2, 4) with n = 6, so p = 3 and
# gamma = p/n = 1/2, worked by hand from the test's original form
BY_HAND = {
    "lrt-identity": ({}, 4 - 3 * math.log(2)),  # 7 - log 8 - 3
    "mauchly": ({}, 3 * math.log(7 / 6)),  # 3 log(7/3) - log 8
    "john-identity": ({}, 7.0),
    "john-sphericity": ({}, 6 / 7),  # (3/7 - 1)^2 + (6/7 - 1)^2 + (12/7 - 1)^2
    "nagao": ({}, 10.0),
    "ledoit-wolf": ({}, 10 - 49 / 6),
    "fisher-2010": ({}, 13 / 7),  # 3 * 273 / 21^2
    # z(5) = 45/8, so z - x is 37/8, 29/8 and 13/8
    "omh-identity": ({"t": 5.0}, -math.log(37 * 29 * 13 / 8**3)),
    # minus the slope (t - 1)/gamma = 8 times the trace 7
    "omh-sphericity": ({"t": 5.0}, -math.log(37 * 29 * 13 / 8**3) - 56),
    "regularized-lrt": ({"lam": 1.0}, 7 - math.log(30)),  # 7 - log(2 * 3 * 5)
}


class TestOriginalForms:
    @pytest.mark.parametrize("test_id", sd.catalog_ids())
    def test_value_by_hand_and_equivalent_lss_builds(self, mp_curve, test_id):
        params, expected = BY_HAND[test_id]
        value = sd.evaluate_statistic(test_id, [1.0, 2.0, 4.0], 6, **params)
        assert value == pytest.approx(expected, rel=1e-14, abs=1e-14)
        phi = sd.equivalent_lss(test_id, mp_curve, **params)
        assert phi.values.shape == phi.grid.shape and np.isfinite(phi.values).all()

    def test_omh_z_undefined_at_one(self):
        with pytest.raises(ValueError, match="undefined at t = 1"):
            sd.omh_z(1.0, GAMMA)

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

    def test_domain_refused_with_one_message(self, mp_curve):
        message = "^regularized LRT requires eigenvalues \\+ lam > 0$"
        with pytest.raises(ValueError, match=message):
            sd.equivalent_lss("regularized-lrt", mp_curve, lam=-0.5)
        with pytest.raises(ValueError, match=message):
            sd.evaluate_statistic("regularized-lrt", [0.4, 1.0], 4, lam=-0.5)

    @pytest.mark.parametrize("test_id, eigenvalues, n, message", [
        *(pytest.param(test_id, eigenvalues, n, message, id=f"{test_id}-{case}")
          for test_id in ("mauchly", "ledoit-wolf")
          for eigenvalues, n, message, case in [
              ([], 6, "eigenvalues must be a nonempty 1-d array, not shape (0,)", "empty"),
              ([[1.0, 2.0]], 6, "eigenvalues must be a nonempty 1-d array, not shape (1, 2)",
               "2-d"),
              ([1.0, np.nan], 6, "eigenvalues must be finite", "nan"),
              ([1.0, 2.0], 0, "n must be at least 1, not 0", "n-zero"),
              ([1.0, 2.0], 6.0, "n must be an integer, not 6.0", "n-float"),
          ]),
        # each divided by the sample's sum, and returned nan at a zero sum
        pytest.param("john-sphericity", [0.0, 0.0], 4,
                     "John's sphericity test requires a positive eigenvalue sum",
                     id="john-sphericity-zero-sum"),
        pytest.param("fisher-2010", [0.0, 0.0], 4,
                     "Fisher's 2010 test requires a positive sum of squared eigenvalues",
                     id="fisher-2010-zero-sum"),
    ])
    def test_sample_and_n_checked(self, test_id, eigenvalues, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sd.evaluate_statistic(test_id, eigenvalues, n)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("test_id, expected", [
        ("nagao", 5e200),  # (1e100 - 1)^2 + (2e100 - 1)^2
        ("john-identity", 3e100),
        ("fisher-2010", 1.36),  # 2 * (1 + 16) / (1 + 4)^2
    ])
    def test_huge_finite_sample(self, test_id, expected):
        # the fourth powers overflowed, though neither Nagao's nor John's
        # statistic reads m_4 and Fisher's ratio does not depend on scale
        value = sd.evaluate_statistic(test_id, [1e100, 2e100], 4)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_john_sphericity_scale_invariant(self, rng):
        eigs = rng.uniform(0.5, 2.0, size=12)
        a = sd.evaluate_statistic("john-sphericity", eigs, n=30)
        b = sd.evaluate_statistic("john-sphericity", 3.1 * eigs, n=30)
        assert a == pytest.approx(b, rel=1e-12)


class TestPowerComparison:
    def test_catalog_never_beats_optimal(self, mp_unit, mp_curve, mp_kernel):
        G1 = sd.AtomicMeasure.point_mass(1.6)
        model = sd.SpikedModel(H=mp_unit, G0=mp_unit, G1=G1, gamma=GAMMA)
        _, rep_best = sd.optimal_lss(model, sd.AlgoConfig(), curve=mp_curve)
        delta = sd.delta_diff(mp_unit, G1, mp_curve)
        for test_id in ("lrt-identity", "john-sphericity", "ledoit-wolf", "nagao"):
            phi = sd.equivalent_lss(test_id, mp_curve)
            rep = sd.lss_moments(mp_kernel, phi, delta, h=1)
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
            phi = sd.equivalent_lss(test_id, curve)
            orig, lss = [], []
            master = np.random.SeedSequence(4242)
            for s in master.spawn(reps):
                eigs = sd.sample_eigenvalues(pop, n, np.random.default_rng(s))
                orig.append(sd.evaluate_statistic(test_id, eigs, n=n))
                lss.append(sd.apply_lss(phi, eigs))
            r = np.corrcoef(orig, lss)[0, 1]
            assert r >= 0.95, f"{test_id}: correlation {r:.3f}"
