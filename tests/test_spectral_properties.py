"""Property tests of the array spectral core on random small bulks."""
import numpy as np
import pytest

import specdetect as sd

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def bulks(draw):
    """One or two well-separated atoms, each of weight at least 0.2, and gamma."""
    atoms = [draw(st.floats(0.5, 4.0))]
    weights = [1.0]
    if draw(st.booleans()):
        atoms.append(atoms[0] + draw(st.floats(0.1, 3.0)))
        w = draw(st.floats(0.2, 0.8))
        weights = [w, 1.0 - w]
    gamma = draw(st.floats(0.05, 1.0))
    return sd.AtomicMeasure(np.array(atoms), np.array(weights)), gamma


def curve_of(H, gamma):
    return sd.stieltjes_grid(H, gamma, points_per_interval=200)


@PROPERTY
@given(bulks())
def test_density_lives_inside_the_support(bulk):
    H, gamma = bulk
    curve = curve_of(H, gamma)
    assert curve.dropped == []
    assert all(curve.support.contains(x) for x in curve.grid)
    assert (curve.density > 0).all()
    for j, (lo, hi) in enumerate(curve.support.intervals):
        xs = curve.grid[curve.interval_id == j]
        assert lo < xs.min() and xs.max() < hi


@PROPERTY
@given(bulks())
def test_first_two_moments_match_forward_moments(bulk):
    H, gamma = bulk
    curve = curve_of(H, gamma)
    exact = sd.forward_moments(H, gamma, 2)
    for k in (1, 2):
        assert sd.esd_moment(curve, H, k) == pytest.approx(exact[k - 1], rel=2e-3)


@PROPERTY
@given(bulks())
def test_derivative_cdf_has_zero_total_mass(bulk):
    H, gamma = bulk
    curve = curve_of(H, gamma)
    # a spike on a bulk atom is always subcritical
    G = sd.AtomicMeasure.point_mass(float(H.atoms[-1]))
    cdf = sd.weak_derivative_cdf(H, G, gamma, curve)
    assert cdf.point_masses == []
    assert cdf.gaps == []
    assert abs(cdf.total_mass) <= 1e-2
