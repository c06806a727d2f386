"""Tests of the benchmark's own span machinery: ``python3 -m pytest perfbench``."""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import specdetect as sd  # noqa: E402
import spans  # noqa: E402


def bindings() -> dict:
    """Identity of every name bound in every loaded ``specdetect`` module."""
    return {(m.__name__, attr): id(val)
            for m in spans.package_modules() for attr, val in vars(m).items()}


def test_install_and_remove_leave_every_binding_identical():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings()
        # re-exports and imports into sibling modules are all replaced
        for module, attr in [("specdetect", "optimal_lss"), ("specdetect.optimal", "optimal_lss"),
                             ("specdetect.simulate", "optimal_lss"),
                             ("specdetect.simulate", "cho_solve"),
                             ("specdetect.mp", "solve_silverstein"),
                             ("specdetect.weak_derivative", "solve_silverstein")]:
            assert during[(module, attr)] != before[(module, attr)], (module, attr)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert bindings() == before


def test_internal_calls_reach_the_wrappers():
    tracer = spans.Tracer()
    tracer.install()
    try:
        sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), 0.5, points_per_interval=16)
    finally:
        tracer.remove()
    names = [s[0] for s in tracer.spans]
    assert names == ["mp.stieltjes_grid", "mp.support_intervals"]
    assert tracer.spans[1][3] == 0  # support_intervals ran inside stieltjes_grid
    # one complex-plane solve and one real-axis limit per grid point
    assert tracer.counts["mp.pointwise_solves"] == 32


def test_self_time_is_span_minus_children():
    trace = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 9.5, 0],
        ["other-root", 11.0, 12.0, -1],
    ]
    assert spans.self_times(trace) == [10.0 - 3.0 - 4.5, 3.0 - 1.0, 1.0, 4.5, 1.0]
