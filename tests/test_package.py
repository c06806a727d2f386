"""The package namespace."""
import importlib
import pkgutil
import types

import specdetect as sd


def test_exports_are_names_not_modules():
    assert len(set(sd.__all__)) == len(sd.__all__)
    for name in sd.__all__:
        assert not isinstance(getattr(sd, name), types.ModuleType), name


def test_every_submodule_export_is_a_package_export():
    # io holds file helpers for the CLI, not part of the numerical API
    for info in pkgutil.iter_modules(sd.__path__):
        module = importlib.import_module(f"specdetect.{info.name}")
        if info.name == "io" or not hasattr(module, "__all__"):
            continue
        assert set(module.__all__) <= set(sd.__all__), (info.name,
                                                        set(module.__all__) - set(sd.__all__))
