import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import specdetect as sd
from specdetect import optimal


@pytest.fixture(autouse=True)
def fresh_curve_memo():
    """Empty the statistic builds' curve memo around every test, so that no
    test reuses a curve another test built, under a patch or without one."""
    optimal._curve.cache_clear()
    yield
    optimal._curve.cache_clear()


@pytest.fixture(scope="session")
def mp_unit():
    """Single-atom population at 1."""
    return sd.AtomicMeasure.point_mass(1.0)


@pytest.fixture(scope="session")
def mp_curve(mp_unit):
    """Dense curve for the unit single-atom bulk at gamma = 1/2."""
    return sd.stieltjes_grid(mp_unit, 0.5, points_per_interval=1000)


@pytest.fixture(scope="session")
def mp_kernel(mp_curve):
    return sd.assemble_diagreg(mp_curve)


@pytest.fixture(scope="session")
def two_atom():
    """Equal mixture of atoms at 1 and 3."""
    return sd.AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))


@pytest.fixture(scope="session")
def two_atom_curve_01(two_atom):
    return sd.stieltjes_grid(two_atom, 0.1, points_per_interval=600)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
