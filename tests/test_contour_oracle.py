"""The Bai-Silverstein contour integral as an absolute check of the CLT moments.

``oracles.contour_cov`` is written from the closed form with numpy alone.
It fixes the variance of a polynomial statistic on any bulk, which the
kernel quadratic form approximates on the grid.
"""
import numpy as np
import pytest

import specdetect as sd
from oracles import contour_cov, unit_bulk_power_variance

BULKS = {
    "unit": (sd.AtomicMeasure.point_mass(1.0), 0.5),
    "two-atom": (sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5])), 0.1),
    "ar1": (sd.AtomicMeasure.uniform(sd.ar1_eigenvalues(0.7, 249)), 0.5),
}
# bulks above gamma = 1, where the sample spectrum has an atom at zero
WIDE = {
    "unit-1.5": (sd.AtomicMeasure.point_mass(1.0), 1.5),
    "unit-2": (sd.AtomicMeasure.point_mass(1.0), 2.0),
    "two-atom-1.5": (sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5])), 1.5),
}
# Var sum lambda_i^2 and Var sum lambda_i^3, as ROADMAP direction 1 records them
PINS = {
    "unit": (10.0, 89.0625),
    "two-atom": (38.44, 1021.0728),
    "ar1": (288.20972053447, 22390.018388987),
}


def power(k):
    return lambda z: z**k


@pytest.mark.parametrize("name", [*BULKS, *WIDE])
def test_trace_variance_closed_form(name):
    # Var tr S = 2 gamma * (second population moment)
    H, gamma = {**BULKS, **WIDE}[name]
    exact = 2 * gamma * float(np.sum(H.weights * H.atoms**2))
    assert contour_cov(H, gamma, power(1), power(1)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", BULKS)
def test_polynomial_variances_match_the_pins(name):
    H, gamma = BULKS[name]
    for k, pin in zip((2, 3), PINS[name]):
        assert contour_cov(H, gamma, power(k), power(k)) == pytest.approx(pin, rel=1e-10)


# Var sum lambda_i^k on the unit bulk, worked by hand from the closed form
UNIT_POWER_VARIANCES = {(1, 0.5): 1.0, (1, 1.5): 3.0, (1, 2.0): 4.0,
                        (2, 0.5): 10.0, (2, 1.5): 84.0, (2, 2.0): 160.0,
                        (3, 0.5): 89.0625, (3, 1.5): 2148.1875, (3, 2.0): 5700.0}


@pytest.mark.parametrize("k, gamma", UNIT_POWER_VARIANCES,
                         ids=[f"k{k}-gamma{gamma}" for k, gamma in UNIT_POWER_VARIANCES])
def test_unit_bulk_power_variance_closed_form(k, gamma):
    # above gamma = 1 as well, where the sample spectrum has an atom at zero
    exact = unit_bulk_power_variance(gamma, k)
    assert exact == pytest.approx(UNIT_POWER_VARIANCES[k, gamma], rel=1e-15)
    H = sd.AtomicMeasure.point_mass(1.0)
    assert contour_cov(H, gamma, power(k), power(k)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", BULKS)
def test_kernel_variance_against_the_oracle(name):
    # the kernel quadratic form at 1000 points reads 1.1e-3 to 1.7e-3 high
    # on these nine values; the oracle is the gate for a better kernel
    H, gamma = BULKS[name]
    curve = sd.stieltjes_grid(H, gamma, points_per_interval=1000)
    K = sd.assemble_diagreg(curve)
    delta = sd.delta_diff(H, H, curve)
    for k in (1, 2, 3):
        sigma2 = sd.lss_moments(curve, K, power(k), delta, h=1).sigma ** 2
        exact = contour_cov(H, gamma, power(k), power(k))
        assert abs(sigma2 / exact - 1) <= 3e-3, (k, sigma2, exact)
