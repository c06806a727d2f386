import math
import os
import signal
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

import specdetect as sd
from oracles import direct_sample_eigenvalues
from specdetect import measures, simulate
from specdetect.optimal import SEG_BUMP


class TestAr1Eigenvalues:
    def test_identity_at_zero_correlation(self):
        assert np.array_equal(sd.ar1_eigenvalues(0.0, 50), np.ones(50))

    def test_largest_eigenvalue_limit(self):
        eigs = sd.ar1_eigenvalues(0.5, 250)
        assert eigs[0] == pytest.approx(3.0, rel=0.02)  # (1+rho)/(1-rho)

    def test_trace_preserved(self):
        eigs = sd.ar1_eigenvalues(0.7, 120)
        assert np.sum(eigs) == pytest.approx(120.0, rel=1e-8)

    def test_descending_positive(self):
        eigs = sd.ar1_eigenvalues(0.3, 40)
        assert (np.diff(eigs) <= 0).all()
        assert (eigs > 0).all()

    def test_matrix_equals_the_toeplitz_build_bit_for_bit(self, monkeypatch):
        toeplitz = pytest.importorskip("scipy.linalg").toeplitz
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def spy(a):
            seen.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for rho in (0.3, 0.5, 0.7, 0.9):
            for p in (249, 399):
                seen.clear()
                sd.ar1_eigenvalues(rho, p)
                (sigma,) = seen
                assert sigma.tobytes() == toeplitz(rho ** np.arange(p)).tobytes(), (rho, p)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            sd.ar1_eigenvalues(1.2, 10)
        with pytest.raises(ValueError):
            sd.ar1_eigenvalues(-0.5, 10)


class TestSampleEigenvalues:
    def test_zero_population_gives_zero_sample(self):
        eigs = sd.sample_eigenvalues(np.zeros(8), 20, seed=1)
        assert np.allclose(eigs, 0.0)

    def test_deterministic_given_seed(self):
        a = sd.sample_eigenvalues(np.ones(30), 60, seed=7)
        b = sd.sample_eigenvalues(np.ones(30), 60, seed=7)
        assert np.array_equal(a, b)

    def test_mean_eigenvalue_tracks_population(self):
        pop = np.linspace(0.5, 2.0, 50)
        reps = 60
        means = []
        master = np.random.SeedSequence(11)
        for s in master.spawn(reps):
            eigs = sd.sample_eigenvalues(pop, 100, np.random.default_rng(s))
            means.append(np.mean(eigs))
        se = np.std(means, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(means) - np.mean(pop)) <= 3 * se

    @pytest.mark.parametrize("p, n", [(30, 60), (30, 30), (40, 25)])
    def test_replay_bit_identical(self, p, n):
        pop = np.linspace(0.5, 2.0, p)
        a = sd.sample_eigenvalues(pop, n, np.random.SeedSequence(3))
        b = sd.sample_eigenvalues(pop, n, np.random.default_rng(np.random.SeedSequence(3)))
        assert a.shape == (p,)
        assert np.array_equal(a, b)

    def test_bartlett_matches_direct_draws_in_distribution(self):
        # Bartlett (n >= p) against Z diag(sqrt(pop)): the mean and variance
        # of the trace and of the top eigenvalue agree within MC error.  Over
        # 20 master seeds these z-scores had max |z| 2.14; 4 is the bound
        p, n, reps = 40, 80, 3000
        pop = np.linspace(0.5, 3.0, p)

        def draws(sampler, key):
            seeds = np.random.SeedSequence((2024, key)).spawn(reps)
            eigs = np.array([sampler(pop, n, s) for s in seeds])
            return eigs.sum(axis=1), eigs[:, -1]

        def var_se(v):
            c = v - v.mean()
            return math.sqrt((np.mean(c**4) - v.var(ddof=1) ** 2 * (reps - 3) / (reps - 1)) / reps)

        ours = draws(sd.sample_eigenvalues, 1)
        ref = draws(direct_sample_eigenvalues, 2)
        for x, y in zip(ours, ref):
            se_mean = math.sqrt((x.var(ddof=1) + y.var(ddof=1)) / reps)
            assert abs(x.mean() - y.mean()) <= 4 * se_mean
            assert abs(x.var(ddof=1) - y.var(ddof=1)) <= 4 * math.hypot(var_se(x), var_se(y))
        # the trace has the closed-form mean sum(pop) and variance 2 sum(pop^2) / n
        trace_sd = math.sqrt(2 * np.sum(pop**2) / n)
        assert abs(ours[0].mean() - pop.sum()) <= 4 * trace_sd / math.sqrt(reps)

    @pytest.mark.parametrize("pop, message", [
        ([1.0, np.nan], "finite"),
        ([1.0, np.inf], "finite"),
        ([[1.0, 2.0], [3.0, 4.0]], "1-d array, not 2-d"),
    ], ids=["nan", "inf", "2-d"])
    def test_population_validated(self, pop, message):
        with pytest.raises(ValueError, match=message):
            sd.sample_eigenvalues(pop, 20, seed=1)

    def test_square_case(self):
        # n = p: the last Bartlett diagonal entry is a chi-square with 1 degree of freedom
        pop = np.linspace(0.5, 2.0, 20)
        eigs = sd.sample_eigenvalues(pop, 20, seed=4)
        assert eigs.shape == (20,)
        assert np.all(np.isfinite(eigs)) and np.all(eigs > 0)
        assert (np.diff(eigs) >= 0).all()

    def test_wide_case_pads_exact_zeros(self):
        # p > n: the n x n gram of the same z as the p x p route, below p - n zeros
        p, n = 60, 25
        pop = np.linspace(0.5, 2.0, p)
        for seed in range(5):
            eigs = sd.sample_eigenvalues(pop, n, seed=seed)
            ref = direct_sample_eigenvalues(pop, n, seed=seed)
            assert eigs.shape == (p,)
            assert np.count_nonzero(eigs == 0.0) == p - n
            assert np.array_equal(eigs[:p - n], np.zeros(p - n))
            assert np.allclose(eigs[p - n:], ref[p - n:], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 31, 32, 33, 65, 250])
    @pytest.mark.parametrize("ratio", [1, 2])
    def test_triangle_product_matches_the_full_product(self, p, ratio):
        # the draw forms only the lower triangle of M M^T, by column blocks;
        # here the Bartlett factor is rebuilt from the same seed and the full
        # product divided by n afterwards
        n, seed = ratio * p, 17
        pop = np.linspace(0.5, 2.0, p)
        rng = np.random.default_rng(seed)
        lower = np.zeros((p, p))
        lower[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
        lower[np.diag_indices(p)] = np.sqrt(rng.chisquare(n - np.arange(p)))
        m = np.sqrt(pop)[:, None] * lower
        ref = np.linalg.eigvalsh(m @ m.T / n)
        eigs = sd.sample_eigenvalues(pop, n, seed)
        assert np.allclose(eigs, ref, rtol=0.0, atol=1e-12 * ref[-1])

    @pytest.mark.parametrize("p, n", [(2, 1), (33, 32), (65, 31), (250, 125)])
    def test_wide_case_matches_the_direct_draw(self, p, n):
        pop = np.linspace(0.5, 2.0, p)
        eigs = sd.sample_eigenvalues(pop, n, seed=5)
        assert np.allclose(eigs, direct_sample_eigenvalues(pop, n, seed=5), rtol=0.0, atol=1e-12)

    @pytest.mark.slow
    def test_empirical_distribution_close_to_limit(self, mp_unit, mp_curve):
        # Kolmogorov distance between the empirical spectrum at p=250,
        # n=500 and the computed limiting law
        eigs = sd.sample_eigenvalues(np.ones(250), 500, seed=3)
        grid = mp_curve.grid
        dens = mp_curve.density
        cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        emp = np.searchsorted(np.sort(eigs), grid, side="right") / eigs.size
        ks = np.max(np.abs(emp - cdf_grid))
        assert ks <= 0.05


def three_point(rng, shape):
    """+-sqrt(3) with probability 1/6 each, else 0: E z^2 = 1 and E z^4 = 3."""
    u = rng.random(shape)
    return math.sqrt(3.0) * ((u < 1 / 6).astype(float) - (u > 5 / 6))


def rademacher(rng, shape):
    """+-1 with probability 1/2 each: E z^4 = 1."""
    return rng.choice([-1.0, 1.0], size=shape)


def student_t7(rng, shape):
    """Student t with 7 degrees of freedom scaled to unit variance: E z^4 = 5."""
    return rng.standard_t(7, size=shape) / math.sqrt(7 / 5)


@pytest.mark.slow
class TestFourthMoment:
    """The reported sd assumes real entries with E z^4 = 3 (Bai & Silverstein 2004).

    Null samples X = Z diag(sqrt(pop)) of the unit bulk at p = 250,
    n = 500, with iid entries of Z from three laws of unit variance, and
    the solved statistic for the spike 1.6, whose report gives
    sigma = 0.399.  Over seven sets of 400 draws the MC sd of
    sum phi(lambda_i) read 0.948-1.035 sigma for the three-point law,
    0.547-0.613 sigma for Rademacher and 1.270-1.396 sigma for t_7.  Each
    law gets 400 draws here, from the same seed.  The sd of a sample sd
    over 400 near-normal draws is about 3.5%, so the band for E z^4 = 3 is
    12%, some three and a half of those sds.
    """

    P, N, REPS = 250, 500, 400

    @pytest.fixture(scope="class")
    def null_sd(self):
        unit = sd.AtomicMeasure.point_mass(1.0)
        model = sd.SpikedModel(H=unit, G0=unit, G1=sd.AtomicMeasure.point_mass(1.6),
                               gamma=self.P / self.N)
        phi, rep = sd.optimal_lss(model)
        pop = np.ones(self.P)

        def ratio(law):
            rng = np.random.default_rng(4242)
            sums = []
            for _ in range(self.REPS):
                x = law(rng, (self.N, self.P)) * np.sqrt(pop)
                sums.append(float(np.sum(phi(np.linalg.eigvalsh(x.T @ x / self.N)))))
            return float(np.std(sums, ddof=1)) / rep.sigma

        assert rep.sigma == pytest.approx(0.399, abs=5e-4)
        return ratio

    def test_sd_holds_for_a_non_gaussian_law_with_e_z4_3(self, null_sd):
        assert abs(null_sd(three_point) - 1.0) <= 0.12

    def test_sd_is_low_for_rademacher(self, null_sd):
        # E z^4 = 1: the fourth-cumulant term is negative
        assert 0.48 <= null_sd(rademacher) <= 0.68

    def test_sd_is_high_for_t7(self, null_sd):
        # E z^4 = 5: the fourth-cumulant term is positive
        assert 1.15 <= null_sd(student_t7) <= 1.50


class TestApplyLss:
    def test_constant_function(self, mp_curve):
        phi = sd.integrate_derivative(mp_curve, np.zeros(mp_curve.grid.size))
        phi.values[:] = 2.0
        assert sd.apply_lss(phi, np.array([0.1, 1.0, 9.9])) == pytest.approx(6.0)

    def test_identity_function_gives_trace(self, mp_curve):
        grid = np.linspace(-1.0, 10.0, 1200)
        phi = sd.LssFunction(grid=grid, values=grid, segments=["in-support"] * grid.size)
        eigs = np.array([0.2, 1.4, 2.9])
        assert sd.apply_lss(phi, eigs) == pytest.approx(np.sum(eigs), abs=1e-9)


_UNIT = sd.AtomicMeasure.point_mass(1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: sd.sample_eigenvalues(np.ones(3), 20.5, 1),
     "sample size must be an integer, not 20.5"),
    (lambda: sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=40.5, n_reps=100,
                          alpha=0.05, seed=1, spike_grid=(2.0,)),
     "n must be an integer, not 40.5"),
    (lambda: sd.SpikedModel(H=_UNIT, G0=_UNIT, G1=sd.AtomicMeasure.point_mass(1.6), gamma=0.5,
                            n=10.5), "n must be an integer, not 10.5"),
    (lambda: sd.AlgoConfig(points_per_interval=100.5),
     "points_per_interval must be an integer, not 100.5"),
], ids=["sample-eigenvalues", "sim-config", "spiked-model", "algo-config"])
def test_integer_setting_must_be_an_integer(make, message):
    # a fractional sample size drew chi-square degrees of freedom n - i
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=50, alpha=0.05, seed=1, spike_grid=(2.0,))
        with pytest.raises(ValueError):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=100, alpha=1.5, seed=1, spike_grid=(2.0,))

    def test_dimension_accounting(self):
        cfg = sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                           n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,))
        assert cfg.p == 50
        assert cfg.gamma == 0.5

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver 'typo'"):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,), solver="typo")

    def test_dimension_is_bulk_size_plus_h(self, monkeypatch):
        calls = []
        bulk = measures.ar1_eigenvalues

        def counted_bulk(*args):
            calls.append(args)
            return bulk(*args)

        monkeypatch.setattr(measures, "ar1_eigenvalues", counted_bulk)
        ar1 = sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                           n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,), h=2)
        atoms = sd.SimConfig(population={"atoms": [1.0, 3.0], "weights": [10 / 22, 12 / 22],
                                         "p": 22},
                             n=46, n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,), h=2)
        plain = sd.SimConfig(population={"atoms": [1.0, 2.0, 3.0], "weights": [0.25, 0.5, 0.25],
                                         "p": 4},
                             n=10, n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,))
        cases = ((ar1, 51), (atoms, 24), (plain, 5))
        # construction reads the bulk once; p and gamma are read from "p"
        assert calls == [(0.5, 49)]
        dims = [(cfg.p, cfg.gamma) for cfg, _ in cases]
        assert calls == [(0.5, 49)]
        for (cfg, p), (cfg_p, cfg_gamma) in zip(cases, dims):
            assert cfg_p == cfg.bulk_eigenvalues().size + cfg.h == p
            assert cfg_gamma == p / cfg.n
        assert calls == [(0.5, 49)] * 2
        # an unknown kind is rejected when the config is made, before any read
        with pytest.raises(ValueError, match="^unknown bulk kind 'wishart'$"):
            sd.SimConfig(population={"kind": "wishart", "p": 49}, n=100, n_reps=100,
                         alpha=0.05, seed=1, spike_grid=(2.0,))

    @pytest.mark.parametrize("population, error, message", [
        ({"kind": "ar1", "p": 49}, KeyError, "bulk 'ar1' is missing required key 'rho'"),
        ({"kind": "ar1", "rho": 0.5, "p": 49, "typo": 3}, ValueError,
         "bulk 'ar1' has no key 'typo'"),
        ({"atoms": [1.0], "weights": [1.0], "p": 49, "rho": 0.5}, ValueError,
         "measure has no key 'rho'"),
        ({}, KeyError, "measure is missing required key 'atoms'"),
    ], ids=["ar1-missing", "ar1-extra", "atoms-extra", "no-kind"])
    def test_population_keys_checked(self, population, error, message):
        # the config reads its population through the one bulk reader
        for read in (lambda: sd.SimConfig(population=population, n=100, n_reps=100, alpha=0.05,
                                          seed=1, spike_grid=(2.0,)),
                     lambda: sd.AtomicMeasure.from_dict(population)):
            with pytest.raises(error) as exc:
                read()
            assert exc.value.args == (message,)

    def test_atoms_population(self):
        cfg = sd.SimConfig(population={"atoms": [1.0, 3.0], "weights": [0.5, 0.5], "p": 20},
                           n=42, n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,))
        assert cfg.bulk_eigenvalues().tolist() == [1.0] * 10 + [3.0] * 10


@pytest.fixture(scope="module")
def small_config():
    return sd.SimConfig(
        population={"kind": "ar1", "rho": 0.7, "p": 99},
        n=200, n_reps=120, alpha=0.05, seed=90125,
        spike_grid=(2.0, 4.0), points_per_interval=300,
    )


@pytest.fixture(scope="module")
def small_curve(small_config):
    return sd.power_experiment(small_config)


@pytest.mark.slow
class TestPowerExperiment:
    def test_reproducible_bit_identical(self, small_config, small_curve):
        again = sd.power_experiment(small_config)
        assert np.array_equal(again.power_lss, small_curve.power_lss)
        assert np.array_equal(again.power_top, small_curve.power_top)
        assert np.array_equal(again.critical_lss, small_curve.critical_lss)
        assert again.realized_level_lss == small_curve.realized_level_lss

    def test_powers_are_probabilities(self, small_curve):
        for arr in (small_curve.power_lss, small_curve.power_top):
            assert ((0.0 <= arr) & (arr <= 1.0)).all()

    def test_level_control_on_held_out_half(self, small_curve, small_config):
        se = math.sqrt(0.05 * 0.95 / small_config.n_reps)
        assert abs(small_curve.realized_level_top - 0.05) <= 3 * se
        assert abs(small_curve.realized_level_lss - 0.05) <= 3 * se

    def test_spread_bulk_gives_lss_advantage_below_pt(self, small_curve):
        # both spikes sit below the transition for the rho = 0.7 bulk
        assert not small_curve.supercritical.any()
        assert small_curve.power_lss[-1] > small_curve.power_top[-1]

    def test_power_monotone_in_spike(self, small_curve, small_config):
        se = 2 * math.sqrt(0.25 / small_config.n_reps)
        diffs = np.diff(small_curve.power_lss)
        assert (diffs >= -se).all()

    def test_identity_bulk_weak_below_strong_top_above(self):
        # white-noise bulk: little to aggregate below the transition, while
        # the top eigenvalue rules once the spike separates
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 99},
            n=200, n_reps=120, alpha=0.05, seed=5150,
            spike_grid=(1.3, 2.8), points_per_interval=300,
        )
        curve = sd.power_experiment(cfg)
        assert curve.pt_threshold == pytest.approx(1 + math.sqrt(0.5), abs=1e-6)
        assert not curve.supercritical[0] and curve.supercritical[1]
        assert curve.power_lss[0] <= 0.3  # weak finite-sample power below
        assert curve.power_top[1] >= 0.5  # clear separation above

    def test_downward_spike_gets_the_bump_optimal_lss_builds(self):
        # spike 0.2 escapes below the unit bulk (psi = 0.075 < 0.0858): the
        # sweep builds the same statistic as optimal_lss, the distance
        # below the lower edge, which detects the spike most of the time
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 249},
            n=500, n_reps=100, alpha=0.05, seed=31, spike_grid=(0.2,),
        )
        H = sd.AtomicMeasure.uniform(cfg.bulk_eigenvalues())
        model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(1.0),
                               G1=sd.AtomicMeasure.point_mass(0.2), gamma=cfg.gamma, n=cfg.n)
        phi, report = sd.optimal_lss(model)
        assert report.regime == "supercritical-full-power"
        assert SEG_BUMP in phi.segments and phi(0.075) > 0.0
        curve = sd.power_experiment(cfg)
        assert curve.supercritical[0]
        assert curve.power_lss[0] >= 0.5

    def test_downward_escape_power_at_300_replicates(self):
        # the distance below the unit bulk's lower edge 0.0858 (psi = 0.075)
        # does not reach the promised full power at n = 500, where the
        # smallest eigenvalue fluctuates by about 0.005: 0.917, 0.913, 0.937
        # and 0.903 at seeds 7, 11, 31 and 59, while the top eigenvalue
        # reads 0.02-0.05
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 249},
            n=500, n_reps=300, alpha=0.05, seed=31, spike_grid=(0.2,),
        )
        curve = sd.power_experiment(cfg)
        assert curve.supercritical[0]
        assert curve.power_lss[0] >= 0.90
        assert curve.power_top[0] <= 0.15

    def test_held_out_level_is_the_mean_over_every_spike(self):
        # 1.5 is solved and 3.0 escapes the unit bulk; the distance above the
        # top edge is no constant under the null, so its level counts as
        # much as the solved statistic's (0.02 and 0.05 at this seed)
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 199},
            n=400, n_reps=100, alpha=0.05, seed=3, spike_grid=(1.5, 3.0),
            points_per_interval=300,
        )
        curve = sd.power_experiment(cfg)
        assert curve.supercritical.tolist() == [False, True]
        assert curve.level_lss_per_spike[1] > 0.0
        assert curve.level_lss_per_spike[0] != curve.level_lss_per_spike[1]
        assert curve.realized_level_lss == np.mean(curve.level_lss_per_spike)

    def test_escaped_spikes_match_the_extreme_eigenvalue(self):
        # above the unit bulk (p = 250, n = 500) the distance from the null
        # support is as powerful as the top eigenvalue, to MC error (0.703 and
        # 0.940 for the top eigenvalue at 2.0 and 2.2); below it, at 0.2, the
        # top eigenvalue has no power, and the downward test pins the power
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 249},
            n=500, n_reps=300, alpha=0.05, seed=31, spike_grid=(0.2, 2.0, 2.2),
        )
        curve = sd.power_experiment(cfg)
        assert curve.supercritical.all()
        slack = 2 * np.hypot(curve.se_lss, curve.se_top)
        assert np.all(curve.power_lss >= curve.power_top - slack), curve.power_lss

    def test_split_support_sweep(self):
        # the two-interval bulk's kernel matrix is indefinite (smallest
        # eigenvalue -8.1e-4 against a ridge of 6.3e-7), which a Cholesky
        # factor rejects; 1.8 escapes into the gap, 2.5 stays inside
        cfg = sd.SimConfig(
            population={"atoms": [1.0, 3.0], "weights": [125 / 249, 124 / 249], "p": 249},
            n=1250, n_reps=100, alpha=0.05, seed=7, spike_grid=(1.8, 2.5),
            points_per_interval=300,
        )
        curve = sd.power_experiment(cfg)
        assert curve.supercritical.tolist() == [True, False]
        for arr in (curve.power_lss, curve.power_top):
            assert ((0.0 <= arr) & (arr <= 1.0)).all()
        assert curve.power_lss[1] > curve.power_top[1]

    def test_matches_per_replicate_loop(self, small_config, small_curve):
        # the sweep evaluates statistics and rejection rules on whole replicate
        # arrays; the loop it replaced, one apply_lss per replicate, is the
        # reference, and the arithmetic is the same, so the curves are equal
        cfg, curve = small_config, small_curve
        reps, alpha = cfg.n_reps, cfg.alpha
        bulk = np.sort(cfg.bulk_eigenvalues())
        H = sd.AtomicMeasure.uniform(bulk)
        shared = sd.stieltjes_grid(H, cfg.gamma, points_per_interval=cfg.points_per_interval)
        master = np.random.SeedSequence(cfg.seed)

        def draws(spike, count):
            pop = np.append(bulk, spike)
            return [sd.sample_eigenvalues(pop, cfg.n, np.random.default_rng(s))
                    for s in master.spawn(count)]

        def rule(null):
            crit = np.sort(null)[math.ceil((1 - alpha) * (reps + 1)) - 1]
            return (lambda t: t > crit), crit

        null = draws(cfg.null_spike, 2 * reps)
        reject_top, crit_top = rule(np.array([e[-1] for e in null[:reps]]))
        assert crit_top == curve.critical_top
        for i, spike in enumerate(cfg.spike_grid):
            model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(cfg.null_spike),
                                   G1=sd.AtomicMeasure.point_mass(spike), gamma=cfg.gamma,
                                   n=cfg.n)
            phi, _ = sd.optimal_lss(model, sd.AlgoConfig(points_per_interval=300), curve=shared)
            t_null = np.array([sd.apply_lss(phi, e) for e in null])
            reject, crit = rule(t_null[:reps])
            assert crit == curve.critical_lss[i]
            assert np.mean([reject(t) for t in t_null[reps:]]) == curve.level_lss_per_spike[i]
            alt = draws(spike, reps)
            assert np.mean([reject(sd.apply_lss(phi, e)) for e in alt]) == curve.power_lss[i]
            assert np.mean([reject_top(e[-1]) for e in alt]) == curve.power_top[i]

    def test_one_draw_per_replicate_and_one_bulk(self, small_config, monkeypatch):
        counts = {"draws": 0, "bulks": 0}
        draw, bulk = simulate.sample_eigenvalues, measures.ar1_eigenvalues

        def counted_draw(*args, **kwargs):
            counts["draws"] += 1
            return draw(*args, **kwargs)

        def counted_bulk(*args, **kwargs):
            counts["bulks"] += 1
            return bulk(*args, **kwargs)

        monkeypatch.setattr(simulate, "sample_eigenvalues", counted_draw)
        monkeypatch.setattr(measures, "ar1_eigenvalues", counted_bulk)
        # a forked worker's calls are not counted here; the worker-count
        # tests below check that the forked path draws the same rows
        monkeypatch.setattr(simulate, "_draw_workers", lambda: 1)
        sd.power_experiment(small_config)
        reps = small_config.n_reps
        assert counts == {"draws": (2 + len(small_config.spike_grid)) * reps, "bulks": 1}

    def test_supercritical_null_fails_before_sampling(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulate, "sample_eigenvalues", no_draws)
        cfg = sd.SimConfig(
            population={"atoms": [1.0], "weights": [1.0], "p": 99},
            n=200, n_reps=100, alpha=0.05, seed=1, spike_grid=(1.3,), null_spike=3.0,
            points_per_interval=300,
        )
        with pytest.raises(ValueError, match="G0"):
            sd.power_experiment(cfg)


class TestDrawWorkers:
    """The sweep's draws split across forked processes change no bit."""

    POP = np.linspace(0.5, 2.0, 30)

    def seeds(self, count):
        return np.random.SeedSequence(3).spawn(count)

    @pytest.mark.slow
    def test_curve_is_bit_identical_at_one_and_two_workers(self, small_config, monkeypatch):
        curves = []
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_draw_workers", lambda: workers)
            curves.append(sd.power_experiment(small_config))
        serial, forked = curves
        assert (serial.draw_workers, forked.draw_workers) == (1, 2)
        for f in fields(serial):
            if f.name != "draw_workers":
                a, b = (np.asarray(getattr(c, f.name)) for c in curves)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name

    # n = 60 >= p draws the Bartlett factor, n = 20 < p the gram
    @pytest.mark.parametrize("workers, n", [
        *(pytest.param(w, 60, id=str(w)) for w in (2, 3, 7, 9)),
        *(pytest.param(w, 20, id=f"wide-{w}") for w in (1, 2, 7)),
    ])
    def test_rows_the_workers_do_not_divide_equal_the_serial_rows(self, workers, n):
        seeds = self.seeds(7)
        serial = np.array([sd.sample_eigenvalues(self.POP, n, np.random.default_rng(s))
                           for s in seeds])
        rows = simulate._draw(self.POP, n, seeds, workers)
        assert rows.shape == (7, 30)
        assert rows.tobytes() == serial.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds on Linux")
    def test_every_pipe_is_closed(self):
        before = sorted(os.listdir("/proc/self/fd"))
        simulate._draw(self.POP, 60, self.seeds(7), 3)
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("count", [0, 1])
    def test_no_fork_for_fewer_than_two_rows(self, count, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert simulate._draw(self.POP, 60, self.seeds(count), 2).shape == (count, 30)

    def test_failed_worker_raises_and_leaves_no_child(self, monkeypatch):
        # at w = 2 worker 1 draws rows 1, 3 and 5; it fails at row 3 alone
        seeds, draw = self.seeds(6), simulate.sample_eigenvalues

        def fails_at_row_3(pop, n, seed, work):
            if seed.spawn_key == seeds[3].spawn_key:
                raise ValueError("worker draw failed")
            return draw(pop, n, seed, work)

        monkeypatch.setattr(simulate, "sample_eigenvalues", fails_at_row_3)
        with pytest.raises(RuntimeError, match=r"^draw failed: worker 1 \(pid \d+\) exited "
                                                r"with code 1$"):
            simulate._draw(self.POP, 60, seeds, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds on Linux")
    def test_failed_parent_kills_its_children(self, monkeypatch):
        # the children stall; this process fails while it waits for their rows
        parent = os.getpid()

        def stalls_in_a_child(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise AssertionError("this process drew a row")

        def interrupt(signum, frame):
            raise ValueError("parent interrupted")

        monkeypatch.setattr(simulate, "sample_eigenvalues", stalls_in_a_child)
        before = sorted(os.listdir("/proc/self/fd"))
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(ValueError, match="parent interrupted"):
                simulate._draw(self.POP, 60, self.seeds(4), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_sweep_forks_its_workers_once(self, small_config, monkeypatch):
        # one pool draws every replicate: 2 children for the whole sweep,
        # not 2 - 1 for each of its 1 + len(spike_grid) replicate sets
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(simulate, "_draw_workers", lambda: 2)
        curve = sd.power_experiment(small_config)
        assert curve.draw_workers == 2
        assert forks == [os.getpid()] * 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds on Linux")
    def test_failed_build_kills_and_reaps_every_child(self, small_config, monkeypatch):
        # the second statistic is built after the pool has started, while the
        # children draw (here: stall)
        parent, build = os.getpid(), simulate.optimal_lss
        builds = []

        def stalls_in_a_child(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise AssertionError("this process drew a row")

        def second_build_fails(*args, **kwargs):
            builds.append(len(builds))
            if len(builds) == 2:
                raise ValueError("second build failed")
            return build(*args, **kwargs)

        monkeypatch.setattr(simulate, "sample_eigenvalues", stalls_in_a_child)
        monkeypatch.setattr(simulate, "optimal_lss", second_build_fails)
        monkeypatch.setattr(simulate, "_draw_workers", lambda: 2)
        before = sorted(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with pytest.raises(ValueError, match="second build failed"):
            sd.power_experiment(small_config)
        assert time.monotonic() - start < 30
        assert builds == [0, 1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_child_dying_mid_sweep_raises_before_its_rows_are_read(self, small_config,
                                                                   monkeypatch):
        # row 3 reps + 5 is the 6th of the second spike's rows, drawn by
        # worker 1 of 2; no statistic may see that spike's partly read rows
        reps, p = small_config.n_reps, small_config.p
        dies = (3 * reps + 5,)
        draw, apply = simulate.sample_eigenvalues, simulate.apply_lss
        applied = []

        def dies_at_its_row(pop, n, seed, work):
            if seed.spawn_key == dies:
                os._exit(3)
            return draw(pop, n, seed, work)

        def recorded_apply(phi, eigenvalues):
            applied.append(eigenvalues.shape)
            return apply(phi, eigenvalues)

        monkeypatch.setattr(simulate, "sample_eigenvalues", dies_at_its_row)
        monkeypatch.setattr(simulate, "apply_lss", recorded_apply)
        monkeypatch.setattr(simulate, "_draw_workers", lambda: 2)
        with pytest.raises(RuntimeError, match=r"^draw failed: worker 1 \(pid \d+\) exited "
                                                r"with code 3$"):
            sd.power_experiment(small_config)
        # the first spike's null and alternative rows, then the second's null rows
        assert applied == [(2 * reps, p), (reps, p), (2 * reps, p)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),  # unpinned BLAS takes every CPU: serial
        ({"OPENBLAS_NUM_THREADS": "1"}, 8),
        ({"OMP_NUM_THREADS": "2"}, 4),
        ({"MKL_NUM_THREADS": "3"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2),  # the largest pin
        ({"OPENBLAS_NUM_THREADS": "16"}, 1),
        ({"OPENBLAS_NUM_THREADS": "auto"}, 1),  # not an integer: not a pin
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": ""}, 1),
        ({"OPENBLAS_NUM_THREADS": "2.5", "MKL_NUM_THREADS": "1"}, 8),
    ])
    def test_worker_count_rule(self, env, workers, monkeypatch):
        for name in simulate._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert simulate._draw_workers() == workers

    def test_worker_count_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert simulate._draw_workers() == 6

    def test_serial_without_fork_or_beside_another_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert simulate._draw_workers() == 8
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert simulate._draw_workers() == 1
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert simulate._draw_workers() == 1
