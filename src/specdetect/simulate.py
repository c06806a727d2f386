"""Monte-Carlo harness: spiked-covariance data, empirical calibration, power curves.

Data are drawn in the population eigenbasis (the eigenvalue distribution
of the sample covariance is rotation invariant), null critical values are
empirical quantiles from a calibration half of the null replicates, and
power is the rejection fraction on alternative replicates.  Each
alternative spike's statistic is built by ``optimal_lss`` on the one
bulk curve that the sweep shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# cho_factor and cho_solve are unused here; perfbench/spans.py looks both
# names up on this module, so they stay until its span list drops them
from scipy.linalg import cho_factor, cho_solve, toeplitz  # noqa: F401

from .kernel import REGIME_SUPERCRITICAL
from .measures import AtomicMeasure
from .mp import stieltjes_grid
from .optimal import AlgoConfig, LssFunction, SpikedModel, optimal_lss

__all__ = [
    "SimConfig",
    "PowerCurve",
    "ar1_eigenvalues",
    "sample_eigenvalues",
    "apply_lss",
    "power_experiment",
]


def ar1_eigenvalues(rho: float, p: int) -> np.ndarray:
    """Descending eigenvalues of the p x p first-order autoregressive matrix
    with entries rho^|i-j|; rho = 0 degenerates to the identity."""
    if p < 2:
        raise ValueError("dimension must be at least 2")
    if rho == 0.0:
        return np.ones(p)
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    sigma = toeplitz(rho ** np.arange(p))
    return np.sort(np.linalg.eigvalsh(sigma))[::-1]


def sample_eigenvalues(pop_eigs, n: int, seed) -> np.ndarray:
    """Ascending eigenvalues of the sample covariance of n Gaussian draws.

    ``seed`` may be an int, a SeedSequence or a Generator; results are
    deterministic given the seed.  The data matrix is formed in the
    population eigenbasis as Z * diag(sqrt(pop_eigs)).
    """
    pop = np.asarray(pop_eigs, dtype=float)
    if np.any(pop < 0):
        raise ValueError("population eigenvalues must be nonnegative")
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = pop.size
    z = rng.standard_normal((n, p))
    x = z * np.sqrt(pop)[None, :]
    gram = (x.T @ x) / n
    return np.linalg.eigvalsh(gram)


def apply_lss(phi: LssFunction, eigenvalues) -> float:
    """Statistic sum_i phi(lambda_i) with phi's interpolation/extension rules."""
    return float(np.sum(phi(np.asarray(eigenvalues, dtype=float))))


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo power experiment.

    ``population`` describes the noise bulk: either
    {"kind": "ar1", "rho": .., "p": ..} or {"kind": "atoms",
    "eigenvalues": [..], "multiplicities": [..]}.  The full dimension is
    the bulk size plus h spike slots holding ``null_spike`` under the
    null and the swept value under the alternative.
    """

    population: dict
    n: int
    n_reps: int
    alpha: float
    seed: int
    spike_grid: tuple[float, ...]
    h: int = 1
    null_spike: float = 1.0
    noise: str = "gaussian"
    solver: str = "diagreg"
    points_per_interval: int = 1000
    two_sided: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.n_reps < 100:
            raise ValueError("need at least 100 replicates")
        if self.noise != "gaussian":
            raise ValueError("only gaussian noise is shipped")

    def bulk_eigenvalues(self) -> np.ndarray:
        kind = self.population.get("kind")
        if kind == "ar1":
            return ar1_eigenvalues(self.population["rho"], self.population["p"])
        if kind == "atoms":
            eigs = np.asarray(self.population["eigenvalues"], dtype=float)
            mult = np.asarray(self.population.get("multiplicities", np.ones(eigs.size, dtype=int)))
            return np.repeat(eigs, mult)
        raise ValueError(f"unknown population kind '{kind}'")

    @property
    def p(self) -> int:
        return self.bulk_eigenvalues().size + self.h

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def to_dict(self) -> dict:
        return {
            "population": self.population,
            "n": self.n,
            "n_reps": self.n_reps,
            "alpha": self.alpha,
            "seed": self.seed,
            "spike_grid": list(self.spike_grid),
            "h": self.h,
            "null_spike": self.null_spike,
            "noise": self.noise,
            "solver": self.solver,
            "points_per_interval": self.points_per_interval,
            "two_sided": self.two_sided,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimConfig":
        required = ["population", "n", "n_reps", "alpha", "seed", "spike_grid"]
        for key in required:
            if key not in payload:
                raise KeyError(f"simulation config is missing required field '{key}'")
        kwargs = {k: payload[k] for k in required}
        kwargs["spike_grid"] = tuple(float(s) for s in kwargs["spike_grid"])
        for opt in ("h", "null_spike", "noise", "solver", "points_per_interval", "two_sided"):
            if opt in payload:
                kwargs[opt] = payload[opt]
        return cls(**kwargs)


@dataclass
class PowerCurve:
    """Estimated power of the spectral-statistic and top-eigenvalue tests."""

    spikes: np.ndarray
    power_lss: np.ndarray
    power_top: np.ndarray
    se_lss: np.ndarray
    se_top: np.ndarray
    realized_level_lss: float
    realized_level_top: float
    critical_lss: np.ndarray
    critical_top: float
    pt_threshold: float
    seed: int
    alpha: float
    supercritical: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    level_lss_per_spike: np.ndarray = field(default_factory=lambda: np.array([]))

    def to_rows(self):
        for i in range(self.spikes.size):
            yield (self.spikes[i], self.power_lss[i], self.se_lss[i],
                   self.power_top[i], self.se_top[i])

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "alpha": self.alpha,
            "realized_level_lss": self.realized_level_lss,
            "realized_level_top": self.realized_level_top,
            "critical_lss": self.critical_lss.tolist(),
            "critical_top": self.critical_top,
            "pt_threshold": self.pt_threshold,
            "supercritical": self.supercritical.astype(int).tolist(),
            "level_lss_per_spike": self.level_lss_per_spike.tolist(),
        }


def _upper_critical(null_stats: np.ndarray, alpha: float) -> float:
    """Conservative one-sided critical value from the order statistics."""
    m = null_stats.size
    k = min(m, math.ceil((1.0 - alpha) * (m + 1)))
    return float(np.sort(null_stats)[k - 1])


def _make_rejector(null_stats: np.ndarray, alpha: float, two_sided: bool):
    """Rejection rule calibrated on the null sample; one-sided upper by
    default, equal-tailed two-sided behind the flag."""
    if not two_sided:
        crit = _upper_critical(null_stats, alpha)
        return (lambda s: s > crit), (crit,)
    hi = _upper_critical(null_stats, alpha / 2.0)
    lo = -_upper_critical(-null_stats, alpha / 2.0)
    return (lambda s: (s > hi) or (s < lo)), (lo, hi)


def power_experiment(config: SimConfig, algo: AlgoConfig | None = None) -> PowerCurve:
    """Run the full sweep: calibrate under the null, estimate power per spike.

    Null replicates are generated once and split into disjoint calibration
    and evaluation halves; the level reported is the rejection rate on the
    held-out half.  Replicate seeds derive deterministically from the
    master seed, so identical configs reproduce bit-identical curves.
    """
    bulk = np.sort(config.bulk_eigenvalues())
    h = config.h
    algo = algo or AlgoConfig(points_per_interval=config.points_per_interval,
                              solver=config.solver)
    H = AtomicMeasure.uniform(bulk)
    gamma = config.gamma
    curve = stieltjes_grid(H, gamma, points_per_interval=algo.points_per_interval,
                           epsilon=algo.epsilon)
    G0 = AtomicMeasure.point_mass(config.null_spike)
    spikes = np.asarray(config.spike_grid, dtype=float)
    # every statistic is built before any replicate is drawn, so a
    # supercritical null spike fails before the sampling starts
    built = [optimal_lss(SpikedModel(H=H, G0=G0, G1=AtomicMeasure.point_mass(float(s)),
                                     gamma=gamma, h=h, n=config.n), algo, curve=curve)
             for s in spikes]

    # replicate data: null (2x for calibration + held-out level) and per-spike alternatives
    master = np.random.SeedSequence(config.seed)
    n_null = 2 * config.n_reps
    null_seeds = master.spawn(n_null)
    null_pop = np.concatenate([bulk, np.full(h, config.null_spike)])
    null_eigs = [sample_eigenvalues(null_pop, config.n, np.random.default_rng(s))
                 for s in null_seeds]

    lam1_null = np.array([e[-1] for e in null_eigs])
    reject_top, top_info = _make_rejector(lam1_null[:config.n_reps], config.alpha,
                                          config.two_sided)
    crit_top = top_info[-1]
    level_top = float(np.mean([reject_top(v) for v in lam1_null[config.n_reps:]]))

    power_lss = np.empty_like(spikes)
    power_top = np.empty_like(spikes)
    se_lss = np.empty_like(spikes)
    se_top = np.empty_like(spikes)
    crit_lss = np.empty_like(spikes)
    supercrit = np.array([report.regime == REGIME_SUPERCRITICAL for _, report in built],
                         dtype=bool)
    level_lss_accum = []

    for i, (s, (phi, _)) in enumerate(zip(spikes, built)):
        t_null = np.array([apply_lss(phi, e) for e in null_eigs])
        reject_lss, lss_info = _make_rejector(t_null[:config.n_reps], config.alpha,
                                              config.two_sided)
        crit_lss[i] = lss_info[-1]
        level_lss_accum.append(float(np.mean([reject_lss(v)
                                              for v in t_null[config.n_reps:]])))

        alt_pop = np.concatenate([bulk, np.full(h, float(s))])
        alt_seeds = master.spawn(config.n_reps)
        rej_lss = 0
        rej_top = 0
        for sd in alt_seeds:
            eigs = sample_eigenvalues(alt_pop, config.n, np.random.default_rng(sd))
            if reject_lss(apply_lss(phi, eigs)):
                rej_lss += 1
            if reject_top(eigs[-1]):
                rej_top += 1
        p_hat = rej_lss / config.n_reps
        q_hat = rej_top / config.n_reps
        power_lss[i] = p_hat
        power_top[i] = q_hat
        se_lss[i] = math.sqrt(p_hat * (1 - p_hat) / config.n_reps)
        se_top[i] = math.sqrt(q_hat * (1 - q_hat) / config.n_reps)

    levels = np.asarray(level_lss_accum)
    # bump statistics are degenerate (identically zero) under the null, so
    # the level is meaningful only where the solve route was used
    sub = ~supercrit
    level_lss = float(np.mean(levels[sub])) if sub.any() else float(np.mean(levels))
    return PowerCurve(
        spikes=spikes,
        power_lss=power_lss,
        power_top=power_top,
        se_lss=se_lss,
        se_top=se_top,
        realized_level_lss=level_lss,
        realized_level_top=level_top,
        critical_lss=crit_lss,
        critical_top=crit_top,
        pt_threshold=curve.support.upper_pt_threshold,
        seed=config.seed,
        alpha=config.alpha,
        supercritical=supercrit,
        level_lss_per_spike=levels,
    )
