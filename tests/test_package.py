"""The package namespace."""
import types

import specdetect as sd


def test_exports_are_names_not_modules():
    assert len(set(sd.__all__)) == len(sd.__all__)
    for name in sd.__all__:
        assert not isinstance(getattr(sd, name), types.ModuleType), name
