"""Monte-Carlo harness: spiked-covariance data, empirical calibration, power curves.

Data are drawn in the population eigenbasis (the eigenvalue distribution
of the sample covariance is rotation invariant), null critical values are
empirical quantiles from a calibration half of the null replicates, and
power is the rejection fraction on alternative replicates.  Each
alternative spike's statistic is built by ``optimal_lss`` on the one
bulk curve that the sweep shares: the solved statistic below the
transition, the distance from the null support for a spike that escapes.
"""
from __future__ import annotations

import math
import numbers
import os
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .kernel import REGIME_SUPERCRITICAL
from .measures import AtomicMeasure
from .mp import stieltjes_grid
from .optimal import (AlgoConfig, LssFunction, SpikedModel, check_at_least, check_solver,
                      optimal_lss)

__all__ = [
    "SimConfig",
    "PowerCurve",
    "sample_eigenvalues",
    "apply_lss",
    "power_experiment",
]


# Nothing in the package calls these two.  perfbench/spans.py looks both
# names up on this module, so they stay, importing scipy only when called;
# the benchmark change that drops their spans deletes them (ROADMAP).
def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor
    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve
    return cho_solve(*args, **kwargs)


# columns per block of the triangular product in ``sample_eigenvalues``: at
# p = 250 one BLAS thread formed the lower triangle in 0.22, 0.23, 0.27 and
# 0.31 ms at blocks of 32, 64, 96 and 128, against 0.37 ms for the full product
_TRIANGLE_BLOCK = 32


def _checked_population(pop_eigs, n: int) -> np.ndarray:
    """The population eigenvalues as a float array; a population that is not
    a finite, nonnegative 1-d array, or a sample size that is not a positive
    integer, raises ``ValueError``."""
    pop = np.asarray(pop_eigs, dtype=float)
    if pop.ndim != 1:
        raise ValueError(f"population eigenvalues must be a 1-d array, not {pop.ndim}-d")
    if not np.all(np.isfinite(pop)):
        raise ValueError("population eigenvalues must be finite")
    if np.any(pop < 0):
        raise ValueError("population eigenvalues must be nonnegative")
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"sample size must be an integer, not {n!r}")
    if n < 1:
        raise ValueError("sample size must be positive")
    return pop


class _DrawWorkspace:
    """The buffers that ``sample_eigenvalues`` refills on every draw for one
    population and sample size, so a draw allocates no p x p array of its
    own.  Built by each drawing process, once per population."""

    def __init__(self, pop_eigs, n: int) -> None:
        pop = _checked_population(pop_eigs, n)
        p = pop.size
        self.n, self.p = n, p
        # the row scale takes the 1/n of the sample covariance
        self.root = np.sqrt(pop / n)
        if n >= p:
            # the Bartlett factor: a draw writes its strict lower triangle
            # through the mask and its diagonal, so the upper one stays zero
            self.m = np.zeros((p, p))
            self.mask = np.tri(p, k=-1, dtype=bool)
            self.dof = n - np.arange(p)
            self.prod = np.empty((p, p))
            # the normals are drawn into the product's buffer, unused until the product
            self.z = self.prod.reshape(-1)[:p * (p - 1) // 2]
        else:
            self.m = np.empty((n, p))
            self.prod = np.empty((n, n))


def sample_eigenvalues(pop_eigs, n: int, seed, work: _DrawWorkspace | None = None) -> np.ndarray:
    """Ascending eigenvalues of the sample covariance of n Gaussian draws.

    ``seed`` may be an int, a SeedSequence or a Generator; results are
    deterministic given the seed.  For n >= p the eigenvalues are those of
    M M^T with M = diag(sqrt(pop_eigs / n)) L, where L is the Bartlett
    (1933) factor of a W_p(n, I) matrix: lower triangular, sqrt(chi2_{n-i})
    on the diagonal and N(0, 1) below it.  M is lower triangular, so only
    the lower triangle of M M^T, the part ``eigvalsh`` reads, is formed, in
    blocks of _TRIANGLE_BLOCK columns: at p = 250 and one BLAS thread,
    0.22 ms against 0.38 ms for the full product and 0.05 ms more to divide
    it by n.  For p > n they are those of the n x n gram X X^T of
    X = Z diag(sqrt(pop_eigs / n)), preceded by p - n exact zeros.
    ``work``, built for the same pop_eigs and n, holds the buffers a draw
    refills; without it each call builds its own.

    Versions that formed the full product and divided it by n drew the same
    random numbers, so their eigenvalues differ from these in the last bits
    only (at most 3e-14 relative at p = 250); a replay at one version is
    bit-identical.
    """
    if work is None:
        work = _DrawWorkspace(pop_eigs, n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m, prod = work.m, work.prod
    if work.n >= work.p:
        m[work.mask] = rng.standard_normal(out=work.z)
        np.fill_diagonal(m, np.sqrt(rng.chisquare(work.dof)))
        m *= work.root[:, None]
        # rows j0 on of columns [j0, j1) need only M's first j1 columns
        for j0 in range(0, work.p, _TRIANGLE_BLOCK):
            j1 = j0 + _TRIANGLE_BLOCK
            np.matmul(m[j0:, :j1], m[j0:j1, :j1].T, out=prod[j0:, j0:j1])
    else:
        rng.standard_normal(out=m)
        m *= work.root
        np.matmul(m, m.T, out=prod)
    eigs = np.linalg.eigvalsh(prod)
    return eigs if work.n >= work.p else np.concatenate([np.zeros(work.p - work.n), eigs])


def apply_lss(phi: LssFunction, eigenvalues) -> float | np.ndarray:
    """Statistic sum_i phi(lambda_i) with phi's interpolation/extension rules.

    One value for a 1-d array of eigenvalues, one per row of an (r, p) array.
    """
    return np.sum(phi(np.asarray(eigenvalues, dtype=float)), axis=-1)


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo power experiment.

    ``population`` describes the noise bulk in either form that
    ``AtomicMeasure.from_dict`` reads, naming its dimension "p": {"atoms":
    [..], "weights": [..], "p": ..} or {"kind": "ar1", "rho": .., "p": ..}.
    The full dimension is p plus h spike slots holding ``null_spike`` under
    the null and the swept value under the alternative.
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
        self.bulk_eigenvalues()  # refuses a malformed bulk, or one with no "p"

    def bulk_eigenvalues(self) -> np.ndarray:
        """The population's p ascending eigenvalues."""
        return AtomicMeasure.eigenvalues_from_dict(self.population)

    @property
    def p(self) -> int:
        """Full dimension: the bulk's "p" plus the h spike slots."""
        return self.population["p"] + self.h

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
    draw_workers: int

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
            "draw_workers": self.draw_workers,
        }


def _upper_critical(null_stats: np.ndarray, alpha: float) -> float:
    """Conservative one-sided critical value from the order statistics."""
    m = null_stats.size
    k = min(m, math.ceil((1.0 - alpha) * (m + 1)))
    return float(np.sort(null_stats)[k - 1])


# the variables through which the environment pins a BLAS library's thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _draw_workers() -> int:
    """Processes that draw a sweep's replicates: the usable CPUs over the
    largest positive integer among the set ``_BLAS_THREAD_VARS``.  With two
    or more, a :class:`_DrawPool` forks that many children, which draw every
    replicate while this process builds statistics and reads their rows.

    One when no BLAS thread count is pinned: BLAS then takes every CPU, and
    forked draws beside it oversubscribe them (on 2 cores, two forked
    ``eigvalsh`` loops took 4.6 times as long as one alone).  One too where
    ``os.fork`` is missing or another Python thread runs, since a forked
    child holds only the calling thread.  One means that this process
    draws every row itself and forks nothing.
    """
    pins = []
    for name in _BLAS_THREAD_VARS:
        with suppress(ValueError):
            pins.append(int(os.environ.get(name, "")))
    pins = [t for t in pins if t > 0]
    if not pins or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // max(pins))


class _DrawPool:
    """Every replicate of a sweep, drawn from the moment the pool starts and
    read in order.

    ``groups`` lists (population, seeds): one row per seed, numbered through
    the groups in order.  With w = min(rows, ``workers``) >= 2, w children
    are forked at once.  Child k draws rows k, k + w, k + 2w, ... from their
    own seeds, in one workspace per population, and writes each row down
    its pipe as soon as it is drawn.  So no row depends on w, and this
    process draws nothing: it is free for other work until it calls
    ``read``.  With w = 1 nothing is forked and ``read`` draws each row
    here.  A child whose rows end early raises ``RuntimeError`` from
    ``read`` before the row is used.  Leaving the ``with`` block reaps every
    child and closes every pipe; on an exception it kills the children
    first, and otherwise a child that failed raises ``RuntimeError``.
    """

    def __init__(self, groups, n: int, workers: int) -> None:
        self.pops = [_checked_population(pop, n) for pop, _ in groups]
        self.rows = [(g, seed) for g, (_, seeds) in enumerate(groups) for seed in seeds]
        self.n = n
        self.w = max(1, min(len(self.rows), workers))
        self.done = 0  # rows read so far
        self.group, self.work = None, None  # the workspace of the rows this process draws
        self.pids, self.readers, self.codes = [], [], {}
        if self.w > 1:
            try:
                for k in range(self.w):
                    self._fork(k)
            except BaseException:
                self.close(failed=True)
                raise

    def __enter__(self) -> _DrawPool:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        self.close(failed=kind is not None)

    def _draw(self, i: int) -> np.ndarray:
        """Row i, in a workspace rebuilt when the population changes."""
        g, seed = self.rows[i]
        if g != self.group:
            self.group, self.work = g, _DrawWorkspace(self.pops[g], self.n)
        return sample_eigenvalues(self.pops[g], self.n, seed, self.work)

    def _fork(self, k: int) -> None:
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:  # a child leaves by _exit only, never returning to the caller
            code = 1
            try:
                # no read end left open here, so a write fails once this process is gone
                os.close(rfd)
                for reader in self.readers:
                    reader.close()
                with open(wfd, "wb") as pipe:
                    for i in range(k, len(self.rows), self.w):
                        pipe.write(self._draw(i))
                        pipe.flush()
                code = 0
            except BaseException:
                import traceback
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(wfd)
        self.pids.append(pid)
        self.readers.append(open(rfd, "rb"))

    def _reap(self, k: int) -> str:
        """Wait for child k once; what it exited with."""
        if k not in self.codes:
            self.codes[k] = os.waitstatus_to_exitcode(os.waitpid(self.pids[k], 0)[1])
        return f"worker {k} (pid {self.pids[k]}) exited with code {self.codes[k]}"

    def read(self, out: np.ndarray) -> np.ndarray:
        """Fill the rows of ``out`` with the next len(out) rows; returns ``out``."""
        for row in out:
            if self.w == 1:
                row[:] = self._draw(self.done)
            elif self.readers[self.done % self.w].readinto(row) != row.nbytes:
                raise RuntimeError(f"draw failed: {self._reap(self.done % self.w)}")
            self.done += 1
        return out

    def close(self, failed: bool) -> None:
        """Kill the children first if ``failed``; reap every child and close every pipe."""
        try:
            if failed:
                import signal
                for k, pid in enumerate(self.pids):
                    if k not in self.codes:
                        os.kill(pid, signal.SIGKILL)
        finally:
            for reader in self.readers:
                reader.close()
            ended = [self._reap(k) for k in range(len(self.pids))]
        errors = [end for k, end in enumerate(ended) if self.codes[k]]
        if errors and not failed:
            raise RuntimeError(f"draw failed: {'; '.join(errors)}")


def _draw(pop: np.ndarray, n: int, seeds, workers: int) -> np.ndarray:
    """One replicate per seed: the (r, p) array of ascending sample
    eigenvalues, drawn by a :class:`_DrawPool` of ``workers`` processes and
    read straight into the result."""
    with _DrawPool([(pop, seeds)], n, workers) as pool:
        return pool.read(np.empty((len(seeds), pop.size)))


def power_experiment(config: SimConfig) -> PowerCurve:
    """Run the full sweep: calibrate under the null, estimate power per spike.

    Null replicates are generated once and split into disjoint calibration
    and evaluation halves; the level reported is the rejection rate on the
    held-out half, averaged over the spikes' statistics: an escaped spike's
    distance statistic is calibrated like a solved one.  Replicate seeds
    derive deterministically from the master seed, so identical configs
    reproduce bit-identical curves, at any worker count.

    The first statistic is built before any replicate is drawn, so that
    its check of the null spike fails first.  Then one :class:`_DrawPool`
    of ``_draw_workers()`` processes draws every replicate of the sweep,
    2 reps null rows and then reps rows per spike, while this process
    builds the other statistics.  It reads the null rows into one array and
    each spike's rows into one reused array, so it holds at most the null
    rows and one spike's rows at a time.  The draws differ from versions
    that formed the full Bartlett product in the last bits only: at seeds
    11, 59 and 101 of the criterion-8 sweep every power and level was
    equal, and the critical values moved by at most 3.4e-13 relative.
    """
    bulk = config.bulk_eigenvalues()
    h, n, reps = config.h, config.n, config.n_reps
    algo = AlgoConfig(points_per_interval=config.points_per_interval, solver=config.solver)
    # H is built from the eigenvalues, not read from the population: the
    # curve then stays bit for bit, as uniform(np.ones(39)) sums 39 weights
    # of 1/39 to 1.0000000000000004 where {"weights": [1.0], "p": 39} holds 1.0
    H = AtomicMeasure.uniform(bulk)
    gamma = config.gamma
    curve = stieltjes_grid(H, gamma, points_per_interval=algo.points_per_interval)
    G0 = AtomicMeasure.point_mass(config.null_spike)
    spikes = np.asarray(config.spike_grid, dtype=float)

    def build(s: float):
        model = SpikedModel(H=H, G0=G0, G1=AtomicMeasure.point_mass(float(s)), gamma=gamma, h=h)
        return optimal_lss(model, algo, curve=curve)

    # the first build rejects a supercritical null spike before any draw
    built = [build(spikes[0])]
    # the seeds in the order the sweep spawns them: 2 reps null, then reps per spike
    master = np.random.SeedSequence(config.seed)
    groups = [(np.concatenate([bulk, np.full(h, s)]), master.spawn(count))
              for s, count in [(config.null_spike, 2 * reps), *((s, reps) for s in spikes)]]
    workers = min(reps, _draw_workers())
    power_lss = np.empty_like(spikes)
    power_top = np.empty_like(spikes)
    crit_lss = np.empty_like(spikes)
    levels = np.empty_like(spikes)
    with _DrawPool(groups, n, workers) as pool:
        built += [build(s) for s in spikes[1:]]
        # null replicates: the first half calibrates, the second gives the held-out level
        null_eigs = pool.read(np.empty((2 * reps, bulk.size + h)))
        lam1_null = null_eigs[:, -1]
        crit_top = _upper_critical(lam1_null[:reps], config.alpha)
        level_top = float(np.mean(lam1_null[reps:] > crit_top))
        alt_eigs = np.empty((reps, bulk.size + h))
        for i, (phi, _) in enumerate(built):
            t_null = apply_lss(phi, null_eigs)
            crit_lss[i] = _upper_critical(t_null[:reps], config.alpha)
            levels[i] = np.mean(t_null[reps:] > crit_lss[i])
            pool.read(alt_eigs)
            power_lss[i] = np.mean(apply_lss(phi, alt_eigs) > crit_lss[i])
            power_top[i] = np.mean(alt_eigs[:, -1] > crit_top)

    supercrit = np.array([report.regime == REGIME_SUPERCRITICAL for _, report in built],
                         dtype=bool)
    return PowerCurve(
        spikes=spikes,
        power_lss=power_lss,
        power_top=power_top,
        se_lss=np.sqrt(power_lss * (1 - power_lss) / reps),
        se_top=np.sqrt(power_top * (1 - power_top) / reps),
        realized_level_lss=float(np.mean(levels)),
        realized_level_top=level_top,
        critical_lss=crit_lss,
        critical_top=crit_top,
        pt_threshold=curve.support.upper_pt_threshold,
        seed=config.seed,
        alpha=config.alpha,
        supercritical=supercrit,
        level_lss_per_spike=levels,
        draw_workers=workers,
    )
