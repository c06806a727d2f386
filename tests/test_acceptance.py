"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete.  Tolerances are pinned here and never
loosened at runtime.
"""
import math
import time

import numpy as np
import pytest

import specdetect as sd
from oracles import mad, normalize_curve, omh_lss
from specdetect import mp, optimal

GAMMA = 0.5
_LINES: list[str] = []


def record(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n===== acceptance summary =====")
    for line in _LINES:
        print(line)


@pytest.fixture(scope="module")
def unit_bulk():
    return sd.AtomicMeasure.point_mass(1.0)


@pytest.fixture(scope="module")
def unit_curve(unit_bulk):
    return sd.stieltjes_grid(unit_bulk, GAMMA, points_per_interval=1000)


def _solve_normalized(unit_bulk, unit_curve, t, solver="diagreg"):
    model = sd.SpikedModel(H=unit_bulk, G0=unit_bulk,
                           G1=sd.AtomicMeasure.point_mass(t), gamma=GAMMA)
    cfg = sd.AlgoConfig(solver=solver)
    phi, rep = sd.optimal_lss(model, cfg, curve=unit_curve)
    mask = np.array([s == "in-support" for s in phi.segments])
    xs = phi.grid[mask]
    return xs, normalize_curve(phi.values[mask]), rep


@pytest.mark.acceptance
def test_criterion_1_omh_agreement(unit_bulk):
    worst = 0.0
    slowest = 0.0
    for t in (1.2, 1.6):
        # time the whole instance, spectrum computation included
        start = time.perf_counter()
        fresh = sd.stieltjes_grid(unit_bulk, GAMMA, points_per_interval=1000)
        xs, ours, _ = _solve_normalized(unit_bulk, fresh, t)
        elapsed = time.perf_counter() - start
        err = mad(ours, normalize_curve(omh_lss(xs, t, GAMMA)))
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    record("criterion 1 (OMH oracle, t=1.2/1.6)", worst <= 1e-2 and slowest <= 60.0,
           f"max MAD {worst:.2e} (<= 1e-2), slowest instance {slowest:.1f}s (<= 60s)")


@pytest.mark.acceptance
def test_criterion_2_near_transition(unit_bulk, unit_curve):
    xs, ours, _ = _solve_normalized(unit_bulk, unit_curve, 1.65)
    err = mad(ours, normalize_curve(omh_lss(xs, 1.65, GAMMA)))
    record("criterion 2 (near-transition t=1.65)", err <= 5e-2 and err < 1e-1,
           f"MAD {err:.2e} (<= 5e-2, must beat 1e-1)")


@pytest.mark.acceptance
def test_criterion_3_point_mass(unit_bulk):
    start = time.perf_counter()
    curve = sd.stieltjes_grid(unit_bulk, GAMMA, points_per_interval=1000)
    cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(3.0), curve)
    elapsed = time.perf_counter() - start
    cell = max(hi - lo for lo, hi in curve.support.intervals) / 1000
    ok = (len(cdf.point_masses) == 1 and elapsed <= 10.0)
    if ok:
        loc, w = cdf.point_masses[0]
        jump = cdf.cdf_at(loc + 1e-12) - cdf.cdf_at(loc - 1e-12)
        ok = abs(loc - 3.75) <= cell and abs(jump - 0.50) <= 0.02
        detail = f"jump {jump:.4f} at {loc:.4f} (0.50 +/- 0.02 at 3.75 +/- {cell:.4f}), {elapsed:.1f}s"
    else:
        detail = f"{len(cdf.point_masses)} masses, {elapsed:.1f}s"
    record("criterion 3 (point-mass law)", ok, detail)


@pytest.mark.acceptance
def test_criterion_4_zero_total_mass(unit_curve):
    cases = []
    for t in (1.2, 1.6):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(t), unit_curve)
        cases.append(abs(cdf.total_mass))
    two = sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    curve2 = sd.stieltjes_grid(two, 0.1, points_per_interval=1000)
    for t in (0.8, 3.6):
        cdf = sd.weak_derivative_cdf(sd.AtomicMeasure.point_mass(t), curve2)
        cases.append(abs(cdf.total_mass))
    worst = max(cases)
    record("criterion 4 (zero total mass, subcritical)", worst <= 1e-3,
           f"max |total mass| {worst:.2e} (<= 1e-3)")


@pytest.mark.acceptance
def test_criterion_5_linearity(unit_curve):
    P = sd.AtomicMeasure.point_mass(1.2)
    Q = sd.AtomicMeasure.point_mass(1.5)
    M = sd.AtomicMeasure.mixture([(0.4, P), (0.6, Q)])
    cm = sd.weak_derivative_cdf(M, unit_curve)
    cp = sd.weak_derivative_cdf(P, unit_curve)
    cq = sd.weak_derivative_cdf(Q, unit_curve)
    sup_err = float(np.max(np.abs(cm.cdf - 0.4 * cp.cdf - 0.6 * cq.cdf)))
    record("criterion 5 (linearity of the derivative)", sup_err <= 1e-6,
           f"sup error {sup_err:.2e} (<= 1e-6)")


@pytest.mark.acceptance
def test_criterion_6_moment_identities(unit_bulk):
    worst = 0.0
    for gamma in (0.1, 0.5, 2.0):
        curve = sd.stieltjes_grid(unit_bulk, gamma, points_per_interval=1000)
        m2 = sd.esd_moment(curve, 2)
        m4 = sd.esd_moment(curve, 4)
        e2 = 1 + gamma
        e4 = (1 + gamma) * (1 + 5 * gamma + gamma**2)
        worst = max(worst, abs(m2 - e2) / e2, abs(m4 - e4) / e4)
    record("criterion 6 (moment identities m2, m4)", worst <= 1e-3,
           f"max relative error {worst:.2e} (<= 1e-3) over gamma in {{0.1, 0.5, 2}}")


@pytest.mark.acceptance
def test_criterion_7_catalog_algebra(unit_curve):
    lrt = sd.equivalent_lss("lrt-identity", unit_curve)
    mau = sd.equivalent_lss("mauchly", unit_curve)
    lw = sd.equivalent_lss("ledoit-wolf", unit_curve)
    js = sd.equivalent_lss("john-sphericity", unit_curve)
    d1 = float(np.max(np.abs(lrt.values - mau.values)))
    d2 = float(np.max(np.abs(lw.values - js.values)))
    record("criterion 7 (catalog algebra at unit mean)", max(d1, d2) <= 1e-12,
           f"sphericity-LRT vs identity-LRT {d1:.2e}, Ledoit-Wolf vs John {d2:.2e} (<= 1e-12)")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_8_mc_level_and_ordering():
    start = time.perf_counter()
    cfg = sd.SimConfig(
        population={"kind": "ar1", "rho": 0.7, "p": 249},
        n=500, n_reps=300, alpha=0.05, seed=20240817,
        spike_grid=(2.0, 3.0, 4.0, 5.0), points_per_interval=1000,
    )
    curve = sd.power_experiment(cfg)
    level_ok = abs(curve.realized_level_lss - 0.05) <= 0.04
    below = curve.spikes < curve.pt_threshold
    margin = float(np.max((curve.power_lss - curve.power_top)[below])) if below.any() else -1.0
    ordering_ok = margin >= 0.10

    cfg_top = sd.SimConfig(
        population={"kind": "ar1", "rho": 0.5, "p": 399},
        n=800, n_reps=300, alpha=0.05, seed=987654,
        spike_grid=(5.0,), points_per_interval=1000,
    )
    top_curve = sd.power_experiment(cfg_top)
    top_ok = top_curve.power_top[0] >= 0.95
    elapsed = time.perf_counter() - start
    record(
        "criterion 8 (MC level and power ordering)",
        level_ok and ordering_ok and top_ok and elapsed <= 900.0,
        f"level {curve.realized_level_lss:.3f} (0.05 +/- 0.04), "
        f"max LSS-top margin below PT {margin:.2f} (>= 0.10), "
        f"top power at spike 5 {top_curve.power_top[0]:.3f} (>= 0.95), {elapsed:.0f}s (<= 900s)",
    )


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_9_standardized_mean():
    bulk = sd.ar1_eigenvalues(0.5, 249)
    H = sd.AtomicMeasure.uniform(bulk)
    model = sd.SpikedModel(H=H, G0=sd.AtomicMeasure.point_mass(1.0),
                           G1=sd.AtomicMeasure.point_mass(3.5), gamma=0.5, h=1, n=500)
    phi, _ = sd.optimal_lss(model, sd.AlgoConfig(points_per_interval=1000))
    null_pop = np.sort(np.concatenate([bulk, [1.0]]))
    alt_pop = np.sort(np.concatenate([bulk, [3.5]]))
    master = np.random.SeedSequence(7777)
    t_null = np.array([
        sd.apply_lss(phi, sd.sample_eigenvalues(null_pop, 500, np.random.default_rng(s)))
        for s in master.spawn(200)
    ])
    t_alt = np.array([
        sd.apply_lss(phi, sd.sample_eigenvalues(alt_pop, 500, np.random.default_rng(s)))
        for s in master.spawn(200)
    ])
    standardized = (t_alt.mean() - t_null.mean()) / t_null.std(ddof=1)
    record("criterion 9 (standardized mean shift)", 1.5 <= standardized <= 2.5,
           f"standardized alternative mean {standardized:.2f} (in [1.5, 2.5])")


@pytest.mark.acceptance
def test_criterion_10_property_suite(unit_bulk, unit_curve):
    # Silverstein residuals on every converged grid point
    resid = max(
        abs(mp._inverse_map(unit_bulk, GAMMA, np.array([v]), complex(x))[0][0])
        for x, v in zip(unit_curve.grid, unit_curve.v)
    )
    resid_ok = resid <= 1e-8 and not unit_curve.dropped

    K = sd.assemble_diagreg(unit_curve)
    sym_ok = np.array_equal(K.entries, K.entries.T)
    eigs = np.linalg.eigvalsh(K.entries + K.ridge * np.eye(K.size))
    psd_ok = eigs[0] >= -1e-8 * np.trace(K.entries)

    cross = 0.0
    for t in (1.2, 1.6):
        delta = sd.delta_diff(unit_bulk, sd.AtomicMeasure.point_mass(t), unit_curve)
        gd = sd.solve_diagreg(K, delta).values
        gc = sd.solve_collocation(delta).values
        pd_ = sd.integrate_derivative(unit_curve, gd)
        pc = sd.integrate_derivative(unit_curve, gc)
        mask = np.array([s == "in-support" for s in pd_.segments])
        cross = max(cross, mad(normalize_curve(pd_.values[mask]),
                               normalize_curve(pc.values[mask])))
    cross_ok = cross <= 2e-2

    model = sd.SpikedModel(H=unit_bulk, G0=unit_bulk,
                           G1=sd.AtomicMeasure.point_mass(1.6), gamma=GAMMA)
    cfg = sd.AlgoConfig()
    phi_s, rep_s = sd.optimal_ls3(model, cfg, curve=unit_curve)
    _, rep_u = sd.optimal_lss(model, cfg, curve=unit_curve)
    # the derivative of phi_s, from the solve itself
    g_s = optimal._projected_solve(K, sd.delta_diff(unit_bulk, model.G1, unit_curve), cfg)
    d_vec = unit_curve.grid * unit_curve.density
    inner = float(np.sum(K.weights * g_s * d_vec))
    scale = float(np.linalg.norm(g_s) * np.linalg.norm(d_vec))
    ls3_ok = (np.array_equal(phi_s.values, sd.integrate_derivative(unit_curve, g_s).values)
              and abs(inner) <= 1e-8 * max(scale, 1.0) and rep_s.efficacy <= rep_u.efficacy)

    ok = resid_ok and sym_ok and psd_ok and cross_ok and ls3_ok
    record(
        "criterion 10 (property suite)",
        ok,
        f"residuals {resid:.1e} (<= 1e-8), symmetry {sym_ok}, min eig {eigs[0]:.2e}, "
        f"cross-solver MAD {cross:.2e} (<= 2e-2), scale-invariant constraint ok "
        f"{ls3_ok} (theta_s {rep_s.efficacy:.3f} <= theta {rep_u.efficacy:.3f})",
    )
