"""The number ledger: the outputs of every design build, recorded bit for bit.

The ledger runs the twelve design builds of ``perfbench/workloads.py``
(the nine few-atom builds and the three AR(1) builds).  Per build it
keeps the regime; mu, sigma, efficacy and power as ``float.hex``; the
size and SHA-256 of phi's grid and of its values; and phi at the fixed
grid ``X``.  A change that should move no number shows it with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/ledger.py --check

which prints "bit-identical" or, per build and field, the largest
relative deviation from ``tests/data/ledger.json`` (exit status 1).
``--record`` rewrites that file.  Run as a script, the ledger pins
OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set: at two threads
the blocked solve and the AR(1) eigenvalues round differently, and four
of the builds move by a few units in the last place (below 3e-15
relative).  ``perfbench/workloads.py`` is loaded read-only by
its path, so nothing under ``perfbench/`` is imported as a package.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "ledger.json"
# phi is compared here too, so a changed hash still says by how much phi moved
X = np.linspace(0.0, 10.0, 81)
SCALARS = ("mu", "sigma", "efficacy", "power")


def _workloads():
    """``perfbench/workloads.py`` of the checkout, imported by its path."""
    spec = importlib.util.spec_from_file_location("ledger_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bytes(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=float)
    return {"size": int(a.size), "sha256": hashlib.sha256(a.tobytes()).hexdigest()}


def current() -> dict[str, dict]:
    """Every design build's entry, keyed by the build's label."""
    workloads = _workloads()
    out = {}
    for build in workloads.design_small_builds() + workloads.design_ar1_builds():
        phi, rep = build.run()
        out[build.label] = {
            "regime": rep.regime,
            **{name: float.hex(float(getattr(rep, name))) for name in SCALARS},
            "grid": _bytes(phi.grid),
            "values": _bytes(phi.values),
            "phi_at_x": [float.hex(float(v)) for v in phi(X)],
        }
    return out


def recorded() -> dict[str, dict]:
    with open(LEDGER) as fh:
        return json.load(fh)["builds"]


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (infinities and nans
    included), inf when only one of them is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def deviations(old: dict[str, dict], new: dict[str, dict]) -> dict[tuple[str, str], float]:
    """The largest relative deviation of each (build, field) that is not
    bit-identical.  phi at X is measured against its largest magnitude; a
    build, a regime or a size that differs reads inf."""
    out = {}
    for label in sorted(set(old) | set(new)):
        if label not in old or label not in new:
            out[label, "build"] = math.inf
            continue
        a, b = old[label], new[label]
        devs = {name: _relative(float.fromhex(a[name]), float.fromhex(b[name]))
                for name in SCALARS}
        devs["regime"] = 0.0 if a["regime"] == b["regime"] else math.inf
        for name in ("grid", "values"):
            devs[f"{name}.size"] = 0.0 if a[name]["size"] == b[name]["size"] else math.inf
        pa, pb = (np.array([float.fromhex(v) for v in e["phi_at_x"]]) for e in (a, b))
        if not np.array_equal(pa, pb):
            scale = np.max(np.abs(pa))
            devs["phi_at_x"] = float(np.max(np.abs(pa - pb)) / scale) if scale else math.inf
        out.update({(label, name): d for name, d in devs.items() if d != 0.0})
    return out


def changed_bytes(old: dict[str, dict], new: dict[str, dict]) -> list[tuple[str, str]]:
    """(build, "grid" or "values") wherever the bytes of phi differ."""
    return [(label, name) for label in sorted(set(old) & set(new))
            for name in ("grid", "values") if old[label][name] != new[label][name]]


def report(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """["bit-identical"], or one line per differing (build, field)."""
    lines = [f"{label:28s} {name:12s} {d:.1e}"
             for (label, name), d in deviations(old, new).items()]
    lines += [f"{label:28s} {name:12s} sha256 differs" for label, name in changed_bytes(old, new)]
    return lines or ["bit-identical"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the recorded ledger")
    mode.add_argument("--record", action="store_true", help="rewrite the recorded ledger")
    args = ap.parse_args(argv)
    new = current()
    if args.record:
        LEDGER.write_text(json.dumps({"builds": new}, indent=1) + "\n")
        print(f"recorded {len(new)} builds in {LEDGER.relative_to(ROOT)}")
        return 0
    lines = report(recorded(), new)
    print("\n".join(lines))
    return 0 if lines == ["bit-identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
