import dataclasses
import json

import numpy as np
import pytest

import specdetect as sd
from specdetect import AtomicMeasure


def test_atoms_sorted_and_weights_normalized():
    m = AtomicMeasure(np.array([3.0, 1.0]), np.array([0.25, 0.75]))
    assert m.atoms.tolist() == [1.0, 3.0]
    assert m.weights.tolist() == [0.75, 0.25]


def test_duplicate_atoms_merge_by_summing():
    m = AtomicMeasure(np.array([1.0, 1.0, 2.0]), np.array([0.25, 0.25, 0.5]))
    assert m.atoms.tolist() == [1.0, 2.0]
    assert m.weights.tolist() == [0.5, 0.5]


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1.0]), np.array([0.9]))


def test_negative_atom_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([-1.0]), np.array([1.0]))


def test_every_construction_is_validated():
    m = AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(m, atoms=np.array([3.0, -1.0]))
    assert dataclasses.replace(m, atoms=np.array([3.0, 2.0])).atoms.tolist() == [2.0, 3.0]
    # the constructor takes atoms and weights only
    with pytest.raises(TypeError):
        AtomicMeasure(np.array([-1.0]), np.array([1.0]), True)


def test_equality_and_hash_by_value():
    a = AtomicMeasure(np.array([3.0, 1.0]), np.array([0.5, 0.5]))
    b = AtomicMeasure.uniform([1.0, 3.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != AtomicMeasure.uniform([1.0, 4.0])
    assert a != AtomicMeasure(np.array([1.0, 3.0]), np.array([0.25, 0.75]))
    assert a != AtomicMeasure.point_mass(1.0) and a != "not a measure"
    zero, neg_zero = AtomicMeasure.point_mass(0.0), AtomicMeasure.point_mass(-0.0)
    assert zero == neg_zero and hash(zero) == hash(neg_zero)
    # a frozen dataclass holding measures compares and hashes through them
    model = sd.SpikedModel(H=a, G0=AtomicMeasure.point_mass(1.0),
                           G1=AtomicMeasure.point_mass(2.0), gamma=0.1)
    twin = dataclasses.replace(model, H=b)
    assert model == twin and hash(model) == hash(twin)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


def test_mixture_concatenates_and_scales():
    a = AtomicMeasure.point_mass(1.0)
    b = AtomicMeasure.point_mass(3.0)
    m = AtomicMeasure.mixture([(0.25, a), (0.75, b)])
    assert m.atoms.tolist() == [1.0, 3.0]
    assert m.weights.tolist() == [0.25, 0.75]


def test_moments():
    m = AtomicMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    assert m.moment(1) == 2.0
    assert m.moment(2) == 5.0


def test_json_round_trip():
    m = AtomicMeasure(np.array([0.5, 2.0]), np.array([0.3, 0.7]))
    back = AtomicMeasure.from_json(m.to_json())
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.weights, m.weights)


def test_from_dict_names_missing_field():
    with pytest.raises(KeyError, match="weights"):
        AtomicMeasure.from_dict({"atoms": [1.0]})


def test_uniform_constructor():
    m = AtomicMeasure.uniform([2.0, 1.0, 3.0])
    assert m.atoms.tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(m.weights, 1 / 3)
