import math

import numpy as np
import pytest

import specdetect as sd


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


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=50, alpha=0.05, seed=1, spike_grid=(2.0,))
        with pytest.raises(ValueError):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=100, alpha=1.5, seed=1, spike_grid=(2.0,))
        with pytest.raises(ValueError):
            sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                         n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,),
                         noise="rademacher")

    def test_dimension_accounting(self):
        cfg = sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                           n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,))
        assert cfg.p == 50
        assert cfg.gamma == 0.5

    def test_atoms_population(self):
        cfg = sd.SimConfig(
            population={"kind": "atoms", "eigenvalues": [1.0, 3.0], "multiplicities": [10, 10]},
            n=42, n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0,))
        assert cfg.bulk_eigenvalues().size == 20

    def test_round_trip(self):
        cfg = sd.SimConfig(population={"kind": "ar1", "rho": 0.5, "p": 49}, n=100,
                           n_reps=100, alpha=0.05, seed=1, spike_grid=(2.0, 3.0))
        back = sd.SimConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_missing_field_named(self):
        with pytest.raises(KeyError, match="spike_grid"):
            sd.SimConfig.from_dict({"population": {}, "n": 10, "n_reps": 100,
                                    "alpha": 0.05, "seed": 1})


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
            population={"kind": "atoms", "eigenvalues": [1.0], "multiplicities": [99]},
            n=200, n_reps=120, alpha=0.05, seed=5150,
            spike_grid=(1.3, 2.8), points_per_interval=300,
        )
        curve = sd.power_experiment(cfg)
        assert curve.pt_threshold == pytest.approx(1 + math.sqrt(0.5), abs=1e-6)
        assert not curve.supercritical[0] and curve.supercritical[1]
        assert curve.power_lss[0] <= 0.3  # weak finite-sample power below
        assert curve.power_top[1] >= 0.5  # clear separation above

    def test_two_sided_flag(self, small_config):
        cfg = sd.SimConfig.from_dict({**small_config.to_dict(), "two_sided": True,
                                      "spike_grid": [2.0]})
        curve = sd.power_experiment(cfg)
        se = math.sqrt(0.05 * 0.95 / cfg.n_reps)
        assert abs(curve.realized_level_top - 0.05) <= 3 * se
        assert 0.0 <= curve.power_lss[0] <= 1.0

    def test_downward_spike_gets_the_bump_optimal_lss_builds(self):
        # spike 0.2 escapes below the unit bulk (psi = 0.075 < 0.0858): the
        # surrogate rule is for spikes past the upper edge only, so the
        # sweep must build the same bump as optimal_lss.  The upward
        # surrogate has no power here (0.0); the bump, whose half-width
        # reaches into the bulk edge, detects the spike most of the time
        cfg = sd.SimConfig(
            population={"kind": "atoms", "eigenvalues": [1.0], "multiplicities": [249]},
            n=500, n_reps=100, alpha=0.05, seed=31, spike_grid=(0.2,),
        )
        H = sd.AtomicMeasure.uniform(cfg.bulk_eigenvalues())
        model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(1.0),
                               G1=sd.AtomicMeasure.point_mass(0.2), gamma=cfg.gamma, n=cfg.n)
        phi, report = sd.optimal_lss(model)
        assert report.regime == "supercritical-full-power"
        assert "epanechnikov-bump" in phi.segments
        curve = sd.power_experiment(cfg)
        assert curve.supercritical[0]
        assert curve.power_lss[0] >= 0.5
