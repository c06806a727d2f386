"""The package namespace."""
import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

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


def test_names_the_benchmark_wraps_resolve(monkeypatch):
    # perfbench/spans.py swaps wrappers into the package by (module, attribute);
    # a name deleted here would break only a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.SPANS + spans.COUNTED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    # internal calls reach the counted solve through this binding
    from specdetect import mp, weak_derivative
    assert weak_derivative.solve_silverstein is mp.solve_silverstein
