"""Property tests of the array spectral core on random small bulks."""
import numpy as np
import pytest

import specdetect as sd
from test_spectral_core import assert_certified_segments_edge_free

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
        assert sd.esd_moment(curve, k) == pytest.approx(exact[k - 1], rel=2e-3)


@PROPERTY
@given(bulks())
def test_derivative_cdf_has_zero_total_mass(bulk):
    H, gamma = bulk
    curve = curve_of(H, gamma)
    # a spike on a bulk atom is always subcritical
    G = sd.AtomicMeasure.point_mass(float(H.atoms[-1]))
    cdf = sd.weak_derivative_cdf(G, curve)
    assert cdf.point_masses == []
    assert cdf.gaps == []
    assert abs(cdf.total_mass) <= 1e-2


@st.composite
def edge_bulks(draw):
    """Bulks that stress the support search: a pair of atoms as close as
    1e-8 relative, a null direction, and gamma from 1e-8 up to 4."""
    t = draw(st.floats(0.5, 4.0))
    atoms = [t]
    if draw(st.booleans()):
        atoms.append(t * (1.0 + 10.0 ** -draw(st.integers(1, 8))))
    if draw(st.booleans()):
        atoms.append(t + draw(st.floats(0.1, 3.0)))
    if draw(st.booleans()):
        atoms.append(0.0)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms),
                                     max_size=len(atoms))))
    gamma = 10.0 ** draw(st.floats(-8.0, 0.6))
    return sd.AtomicMeasure(np.array(atoms), weights / weights.sum()), gamma


def one_minus_g(H, gamma, v):
    """v^2 x'(v) = 1 - gamma * sum w (tv/(1+tv))^2, summed directly."""
    return 1.0 - gamma * float(np.sum(H.weights * (H.atoms * v / (1.0 + H.atoms * v)) ** 2))


@PROPERTY
@given(edge_bulks())
def test_edges_are_zeros_of_x_prime_and_gaps_rise(bulk):
    # at an edge found to the last float, |1 - g| grows as gamma shrinks:
    # up to 4e-10 at gamma = 1e-12, and at most 1.1e-11 over 1500 draws of
    # these bulks, whose gamma stays at 1e-8 or more
    H, gamma = bulk
    sup = sd.support_intervals(H, gamma)
    edges = np.array(sup.edge_v)
    for v in edges[np.isfinite(edges)]:
        assert abs(one_minus_g(H, gamma, v)) <= 1e-10
    for (_, v_a), (v_b, _) in zip(sup.edge_v[:-1], sup.edge_v[1:]):
        assert one_minus_g(H, gamma, 0.5 * (v_a + v_b)) > 0


@st.composite
def many_atom_bulks(draw):
    """2 to 60 distinct atoms in [0.2, 5] with weights at least 0.1 of the
    largest, and gamma from 1e-2 to 3: close poles, as an AR(1) bulk has."""
    atoms = draw(st.lists(st.floats(0.2, 5.0), min_size=2, max_size=60, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms),
                                     max_size=len(atoms))))
    gamma = 10.0 ** draw(st.floats(-2.0, 0.5))
    return sd.AtomicMeasure(np.array(atoms), weights / weights.sum()), gamma


@PROPERTY
@given(many_atom_bulks())
def test_pole_segments_left_unbisected_have_no_edge(bulk):
    assert_certified_segments_edge_free(*bulk)
