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
import numbers
from dataclasses import dataclass

import numpy as np

from .io import reject_unknown
from .kernel import REGIME_SUPERCRITICAL
from .measures import AtomicMeasure
from .mp import stieltjes_grid
from .optimal import (AlgoConfig, LssFunction, SpikedModel, check_at_least, check_solver,
                      optimal_lss)

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
    i = np.arange(p)
    sigma = rho ** np.abs(i[:, None] - i)
    return np.sort(np.linalg.eigvalsh(sigma))[::-1]


# Nothing in the package calls these two.  perfbench/spans.py looks both
# names up on this module, so they stay, importing scipy only when called;
# the benchmark change that drops their spans deletes them (ROADMAP).
def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor
    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve
    return cho_solve(*args, **kwargs)


def sample_eigenvalues(pop_eigs, n: int, seed) -> np.ndarray:
    """Ascending eigenvalues of the sample covariance of n Gaussian draws.

    ``seed`` may be an int, a SeedSequence or a Generator; results are
    deterministic given the seed.  For n >= p the eigenvalues are those of
    M M^T / n with M = diag(sqrt(pop_eigs)) L, where L is the Bartlett
    (1933) factor of a W_p(n, I) matrix: lower triangular, sqrt(chi2_{n-i})
    on the diagonal and N(0, 1) below it.  For p > n they are those of
    the n x n gram X X^T / n of X = Z diag(sqrt(pop_eigs)), preceded by
    p - n exact zeros.
    """
    pop = np.asarray(pop_eigs, dtype=float)
    if np.any(pop < 0):
        raise ValueError("population eigenvalues must be nonnegative")
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = pop.size
    root = np.sqrt(pop)
    if n >= p:
        m = np.zeros((p, p))
        m[np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
        np.fill_diagonal(m, np.sqrt(rng.chisquare(n - np.arange(p))))
        m *= root[:, None]
        return np.linalg.eigvalsh(m @ m.T / n)
    x = rng.standard_normal((n, p)) * root
    return np.concatenate([np.zeros(p - n), np.linalg.eigvalsh(x @ x.T / n)])


def apply_lss(phi: LssFunction, eigenvalues) -> float | np.ndarray:
    """Statistic sum_i phi(lambda_i) with phi's interpolation/extension rules.

    One value for a 1-d array of eigenvalues, one per row of an (r, p) array.
    """
    return np.sum(phi(np.asarray(eigenvalues, dtype=float)), axis=-1)


# each population kind with its required keys and its optional ones
_POPULATION_KEYS = {"ar1": (("rho", "p"), ()), "atoms": (("eigenvalues",), ("multiplicities",))}
# what each population value must be: a name for messages, the type of the
# value (or of each item of a list), whether it is a list, and the range of
# the value (or of each item) with its name
_POPULATION_VALUES = {
    "rho": ("a number", numbers.Real, False, "in [0, 1)", lambda x: 0 <= x < 1),
    "p": ("an integer", numbers.Integral, False, "at least 2", lambda x: x >= 2),
    "eigenvalues": ("a list of numbers", numbers.Real, True, "finite and nonnegative",
                    lambda x: 0 <= x < math.inf),
    "multiplicities": ("a list of integers", numbers.Integral, True, "nonnegative",
                       lambda x: x >= 0),
}


def _check_population(population: dict) -> None:
    """Reject a population that is not a dict, is of unknown kind, misses a key
    or has an extra one, holds a value of the wrong type or out of range, or
    has multiplicities that do not fit its eigenvalues or an empty bulk."""
    if not isinstance(population, dict):
        raise ValueError(f"population must be an object, not {type(population).__name__}")
    kind = population.get("kind")
    if kind not in _POPULATION_KEYS:
        raise ValueError(f"unknown population kind '{kind}'")
    required, optional = _POPULATION_KEYS[kind]
    for name in required:
        if name not in population:
            raise ValueError(f"population '{kind}' is missing required key '{name}'")
    reject_unknown(population, ("kind", *required, *optional), f"population '{kind}' has no key")
    for name in (*required, *optional):
        what, cls, listed, within, fits = _POPULATION_VALUES[name]
        value = population.get(name, [])
        items = value if isinstance(value, list) else [value]
        if listed != isinstance(value, list) or not all(isinstance(v, cls) for v in items):
            shown = repr(value) if listed else type(value).__name__
            raise ValueError(f"population '{kind}' key '{name}' must be {what}, not {shown}")
        if not all(fits(v) for v in items):
            raise ValueError(f"population '{kind}' key '{name}' must be {within}, not {value!r}")
    if kind == "atoms":
        eigs = population["eigenvalues"]
        mult = population.get("multiplicities", [1] * len(eigs))
        if not eigs:
            raise ValueError(f"population 'atoms' key 'eigenvalues' must be nonempty, not {eigs!r}")
        if len(mult) != len(eigs):
            raise ValueError(f"population 'atoms' key 'multiplicities' must have one entry per "
                             f"eigenvalue ({len(eigs)}), not {mult!r}")
        if not any(mult):
            raise ValueError(f"population 'atoms' key 'multiplicities' must not all be zero, "
                             f"not {mult!r}")


def _population_eigenvalues(population: dict) -> np.ndarray:
    """Bulk eigenvalues of a ``population`` description (see :class:`SimConfig`)."""
    _check_population(population)
    if population["kind"] == "ar1":
        return ar1_eigenvalues(population["rho"], population["p"])
    eigs = np.asarray(population["eigenvalues"], dtype=float)
    return np.repeat(eigs, np.asarray(population.get("multiplicities", 1)))


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo power experiment.

    ``population`` describes the noise bulk: {"kind": "ar1", "rho": ..,
    "p": ..} or {"kind": "atoms", "eigenvalues": [..]} with optional
    "multiplicities": [..], one per eigenvalue; any other key, and an empty
    bulk, is rejected.  The full dimension is the bulk size plus h spike
    slots holding ``null_spike`` under the null and the swept value under
    the alternative.
    """

    population: dict
    n: int
    n_reps: int
    alpha: float
    seed: int
    spike_grid: tuple[float, ...]
    h: int = 1
    null_spike: float = 1.0
    solver: str = "diagreg"
    points_per_interval: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        check_at_least(n=self.n, h=self.h, seed=self.seed, n_reps=self.n_reps,
                       points_per_interval=self.points_per_interval)
        if not self.spike_grid:
            raise ValueError("spike_grid must not be empty")
        if min(self.spike_grid) <= 0.0:
            raise ValueError(f"spike_grid must hold positive spikes, not {list(self.spike_grid)!r}")
        if self.null_spike <= 0.0:
            raise ValueError(f"null_spike must be positive, not {self.null_spike!r}")
        check_solver(self.solver)
        _check_population(self.population)

    def bulk_eigenvalues(self) -> np.ndarray:
        return _population_eigenvalues(self.population)

    @property
    def p(self) -> int:
        """Full dimension: the bulk size plus the h spike slots."""
        return self.bulk_eigenvalues().size + self.h

    @property
    def gamma(self) -> float:
        return self.p / self.n


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
    supercritical: np.ndarray
    level_lss_per_spike: np.ndarray

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


def _draw(pop: np.ndarray, n: int, seeds) -> np.ndarray:
    """One replicate per seed: the (r, p) array of ascending sample eigenvalues."""
    return np.array([sample_eigenvalues(pop, n, np.random.default_rng(s)) for s in seeds])


def power_experiment(config: SimConfig) -> PowerCurve:
    """Run the full sweep: calibrate under the null, estimate power per spike.

    Null replicates are generated once and split into disjoint calibration
    and evaluation halves; the level reported is the rejection rate on the
    held-out half.  Replicate seeds derive deterministically from the
    master seed, so identical configs reproduce bit-identical curves.
    """
    bulk = np.sort(config.bulk_eigenvalues())
    h = config.h
    reps = config.n_reps
    algo = AlgoConfig(points_per_interval=config.points_per_interval, solver=config.solver)
    H = AtomicMeasure.uniform(bulk)
    # SimConfig.gamma would build the bulk a second time
    gamma = (bulk.size + h) / config.n
    curve = stieltjes_grid(H, gamma, points_per_interval=algo.points_per_interval)
    G0 = AtomicMeasure.point_mass(config.null_spike)
    spikes = np.asarray(config.spike_grid, dtype=float)
    # every statistic is built before any replicate is drawn, so a
    # supercritical null spike fails before the sampling starts
    built = [optimal_lss(SpikedModel(H=H, G0=G0, G1=AtomicMeasure.point_mass(float(s)),
                                     gamma=gamma, h=h, n=config.n), algo, curve=curve)
             for s in spikes]
    supercrit = np.array([report.regime == REGIME_SUPERCRITICAL for _, report in built],
                         dtype=bool)

    # null replicates: the first half calibrates, the second gives the held-out level
    master = np.random.SeedSequence(config.seed)
    null_eigs = _draw(np.concatenate([bulk, np.full(h, config.null_spike)]), config.n,
                      master.spawn(2 * reps))
    lam1_null = null_eigs[:, -1]
    crit_top = _upper_critical(lam1_null[:reps], config.alpha)
    level_top = float(np.mean(lam1_null[reps:] > crit_top))

    power_lss = np.empty_like(spikes)
    power_top = np.empty_like(spikes)
    crit_lss = np.empty_like(spikes)
    levels = np.empty_like(spikes)
    for i, (s, (phi, _)) in enumerate(zip(spikes, built)):
        t_null = apply_lss(phi, null_eigs)
        crit_lss[i] = _upper_critical(t_null[:reps], config.alpha)
        levels[i] = np.mean(t_null[reps:] > crit_lss[i])
        alt_eigs = _draw(np.concatenate([bulk, np.full(h, s)]), config.n, master.spawn(reps))
        power_lss[i] = np.mean(apply_lss(phi, alt_eigs) > crit_lss[i])
        power_top[i] = np.mean(alt_eigs[:, -1] > crit_top)

    # bump statistics are degenerate (identically zero) under the null, so
    # the level is meaningful only where the solve route was used; the
    # surrogate of a spike just above the threshold is solved too
    solved = np.array([phi.derivative is not None for phi, _ in built], dtype=bool)
    level_lss = float(np.mean(levels[solved] if solved.any() else levels))
    return PowerCurve(
        spikes=spikes,
        power_lss=power_lss,
        power_top=power_top,
        se_lss=np.sqrt(power_lss * (1 - power_lss) / reps),
        se_top=np.sqrt(power_top * (1 - power_top) / reps),
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
