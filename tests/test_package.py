"""The package namespace."""
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import specdetect as sd


def test_exports_are_names_not_modules():
    assert len(set(sd.__all__)) == len(sd.__all__)
    for name in sd.__all__:
        assert not isinstance(getattr(sd, name), types.ModuleType), name


def test_every_submodule_export_is_a_package_export():
    # io holds file helpers for the CLI, not part of the numerical API; the
    # package exports every other module's __all__ and nothing else
    exported = set()
    for info in pkgutil.iter_modules(sd.__path__):
        module = importlib.import_module(f"specdetect.{info.name}")
        if info.name == "io" or not hasattr(module, "__all__"):
            continue
        exported |= set(module.__all__)
    assert exported == set(sd.__all__), exported ^ set(sd.__all__)


@pytest.mark.parametrize("owner, name", [
    ("mp", "silverstein_residual"),
    ("weak_derivative", "weak_derivative_st"),
    ("weak_derivative", "point_mass_residue"),
    ("classical", "linearize"),
    ("classical", "TestCatalogEntry"),
    ("weak_derivative", "SpikeClassification"),
    # support membership has one test, SupportSet.contains
    ("mp.SupportSet", "distance"),
    # the CLI fills SimConfig, and the sweep has one, one-sided, rejection rule
    ("simulate.SimConfig", "from_dict"),
    ("simulate.SimConfig", "to_dict"),
    ("simulate.SimConfig", "two_sided"),
    ("simulate", "_make_rejector"),
    # a returned statistic holds phi at its own grid; evaluation extends it
    ("mp.SupportSet", "enclosing_interval"),
    ("optimal", "SEG_BETWEEN"),
    # a normalized copy is written out as grid, values and segments alone
    ("optimal.LssFunction", "normalization"),
    # an escaped spike's statistic is the distance from the null support,
    # with no width, no surrogate and no sample size
    ("optimal", "surrogate_spike"),
    ("optimal", "epanechnikov"),
    ("optimal", "_N_SD"),
    ("optimal", "_S_PLUS_COEFF"),
    ("optimal", "_S_MINUS_COEFF"),
    ("optimal", "SEG_OUTSIDE"),
    ("optimal.SpikedModel", "resolved_n"),
    # a population is a bulk, read by AtomicMeasure.from_dict
    ("simulate", "_POPULATION_KEYS"),
    ("simulate", "_POPULATION_VALUES"),
    ("simulate", "_check_population"),
    ("simulate", "_population_eigenvalues"),
])
def test_removed_names_stay_removed(owner, name):
    # README lists what replaces each of these
    module, *path = owner.split(".")
    obj = importlib.import_module(f"specdetect.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert not hasattr(sd, name)
    assert not hasattr(obj, name)
    # a dataclass field without a default is no class attribute
    assert name not in getattr(obj, "__dataclass_fields__", {})


def test_catalog_functions_take_a_test_id_only(mp_curve):
    from specdetect import classical
    with pytest.raises(KeyError, match="unknown test id"):
        sd.equivalent_lss(classical._CATALOG["nagao"], mp_curve)
    with pytest.raises(KeyError, match="unknown test id"):
        sd.evaluate_statistic(classical._CATALOG["nagao"], [1.0, 2.0], 5)


@pytest.mark.parametrize("name", ["delta_diff", "weak_derivative_cdf", "weak_derivative_st_at",
                                  "classify_spikes", "equivalent_lss"])
def test_curve_entries_read_the_bulk_from_the_curve(name):
    # a curve records its bulk H and gamma, so no entry that takes one takes them beside it
    params = inspect.signature(getattr(sd, name)).parameters
    assert "curve" in params
    assert not {"H", "gamma", "support"} & set(params)


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


def test_runtime_loads_no_scipy():
    # scipy is a test dependency only: with it blocked, the package, the CLI,
    # the AR(1) bulk and both solvers run, and no scipy module gets loaded
    code = textwrap.dedent("""
        import sys, types
        sys.modules["scipy"] = None
        import specdetect as sd
        import specdetect.cli
        sd.ar1_eigenvalues(0.7, 249)
        H = sd.AtomicMeasure.point_mass(1.0)
        model = sd.SpikedModel(H=H, G0=H, G1=sd.AtomicMeasure.point_mass(1.6), gamma=0.5)
        for solver in ("diagreg", "collocation"):
            sd.optimal_lss(model, sd.AlgoConfig(solver=solver, points_per_interval=200))
        loaded = [name for name, module in sys.modules.items()
                  if name.startswith("scipy") and isinstance(module, types.ModuleType)]
        assert not loaded, loaded
    """)
    src = str(Path(sd.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_process_pool():
    # the draws fork with os alone; a pool module would add to every import
    code = ("import sys, specdetect, specdetect.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')]; assert not loaded, loaded")
    src = str(Path(sd.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
