"""Batch command-line front end.

Every subcommand reads one JSON config, writes CSV/JSON outputs into the
chosen directory, and finishes with a run manifest that echoes the config
so the run can be replayed bit-identically.  Partial outputs are removed
on failure.  Log verbosity is controlled by the SPECDETECT_LOG
environment variable (DEBUG/INFO/WARNING/ERROR).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .classical import catalog_ids, equivalent_lss, evaluate_statistic
from .io import read_json, write_csv, write_json
from .measures import AtomicMeasure
from .mp import StieltjesCurve, stieltjes_grid
from .optimal import SOLVERS, AlgoConfig, SpikedModel, optimal_lss, optimal_ls3
from .simulate import SimConfig, _draw, _population_eigenvalues, power_experiment
from .weak_derivative import weak_derivative_cdf

log = logging.getLogger("specdetect")

USAGE_ERROR = 2


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


def _setup_logging() -> None:
    level = os.environ.get("SPECDETECT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str) -> dict:
    try:
        return read_json(Path(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _require(config: dict, *fields: str) -> None:
    for name in fields:
        if name not in config:
            raise ConfigError(f"config is missing required field '{name}'")


def _measure(config: dict, name: str) -> AtomicMeasure:
    _require(config, name)
    payload = config[name]
    for key in ("atoms", "weights"):
        if key not in payload:
            raise ConfigError(f"config field '{name}' is missing '{key}'")
    try:
        return AtomicMeasure.from_dict(payload)
    except ValueError as exc:
        raise ConfigError(f"invalid measure '{name}': {exc}")


def _algo_config(config: dict, solver_override: str | None) -> AlgoConfig:
    kwargs = dict(config.get("config", {}))
    if solver_override:
        kwargs["solver"] = solver_override
    try:
        return AlgoConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid algorithm config: {exc}")


class OutputTracker:
    """Collects written paths so failed runs can clean up after themselves."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            if p.exists():
                p.unlink()


def _curve_outputs(curve, out: OutputTracker) -> None:
    write_csv(out.path("stieltjes_curve.csv"),
              ["x", "re_v", "im_v", "re_vp", "im_vp", "in_support"],
              curve.to_rows())
    write_json(out.path("support.json"), curve.support.to_dict())


def _curve(config: dict) -> tuple[AtomicMeasure, float, StieltjesCurve]:
    """H, gamma and the curve of H; a top-level "points_per_interval" overrides "config"."""
    _require(config, "gamma")
    H = _measure(config, "H")
    gamma = float(config["gamma"])
    algo = _algo_config(config, None)
    ppi = int(config.get("points_per_interval", algo.points_per_interval))
    return H, gamma, stieltjes_grid(H, gamma, points_per_interval=ppi)


def cmd_spectrum(config: dict, out: OutputTracker, args) -> None:
    _curve_outputs(_curve(config)[2], out)


def cmd_weak_derivative(config: dict, out: OutputTracker, args) -> None:
    G = _measure(config, "G")
    H, gamma, curve = _curve(config)
    cdf = weak_derivative_cdf(H, G, gamma, curve)
    write_csv(out.path("weak_derivative.csv"), ["x", "density", "cdf"], cdf.to_rows())
    write_json(out.path("point_masses.json"), {
        "point_masses": [{"location": loc, "weight": w} for loc, w in cdf.point_masses],
        "total_mass": cdf.total_mass,
    })


def _spiked_model(config: dict) -> SpikedModel:
    _require(config, "gamma")
    H = _measure(config, "H")
    G0 = _measure(config, "G0")
    G1 = _measure(config, "G1")
    n = config.get("n")
    return SpikedModel(H=H, G0=G0, G1=G1, gamma=float(config["gamma"]),
                       h=int(config.get("h", 1)), n=None if n is None else int(n))


def cmd_optimal_lss(config: dict, out: OutputTracker, args) -> None:
    model = _spiked_model(config)
    algo = _algo_config(config, args.solver)
    scale_invariant = bool(config.get("scale_invariant", False))
    builder = optimal_ls3 if scale_invariant else optimal_lss
    phi, report = builder(model, algo)
    write_csv(out.path("lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    norm = phi.normalized()
    write_csv(out.path("lss_normalized.csv"), ["x", "phi", "segment"], norm.to_rows())
    write_json(out.path("efficacy.json"), report.to_dict())


def cmd_power(config: dict, out: OutputTracker, args) -> None:
    try:
        sim = SimConfig.from_dict(config)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc))
    if args.solver:
        sim = SimConfig.from_dict({**sim.to_dict(), "solver": args.solver})
    curve = power_experiment(sim)
    write_csv(out.path("power_curve.csv"),
              ["spike", "power_lss", "se_lss", "power_top", "se_top"],
              curve.to_rows())
    write_json(out.path("power_metadata.json"), curve.metadata())


def cmd_classical(config: dict, out: OutputTracker, args) -> None:
    if args.list:
        for test_id in catalog_ids():
            print(test_id)
        return
    _require(config, "test_id")
    H, gamma, curve = _curve(config)
    params = config.get("parameters", {})
    try:
        phi = equivalent_lss(config["test_id"], H, gamma, curve, **params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc))
    write_csv(out.path("classical_lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    if "eigenvalues" in config:
        _require(config, "n")
        value = evaluate_statistic(config["test_id"], config["eigenvalues"],
                                   int(config["n"]), **params)
        write_json(out.path("statistic.json"), {"test_id": config["test_id"], "value": value})


def cmd_simulate(config: dict, out: OutputTracker, args) -> None:
    _require(config, "n", "seed")
    if "population" in config:
        pop = _population_eigenvalues(config["population"])
    elif "eigenvalues" in config:
        pop = np.asarray(config["eigenvalues"], dtype=float)
    else:
        raise ConfigError("config is missing required field 'population' (or 'eigenvalues')")
    master = np.random.SeedSequence(int(config["seed"]))
    draws = _draw(np.sort(pop), int(config["n"]), master.spawn(int(config.get("n_reps", 1))))
    rows = [(rep, i, val) for rep, eigs in enumerate(draws) for i, val in enumerate(eigs)]
    write_csv(out.path("sample_eigenvalues.csv"), ["replicate", "index", "eigenvalue"], rows)


_CURVE_FIELDS = ("H", "gamma", "points_per_interval", "config")

# each subcommand with the top-level config fields it reads; any other
# field is rejected, so a misspelled one cannot run with the default
_COMMANDS = {
    "spectrum": (cmd_spectrum, _CURVE_FIELDS),
    "weak-derivative": (cmd_weak_derivative, _CURVE_FIELDS + ("G",)),
    "optimal-lss": (cmd_optimal_lss,
                    ("H", "G0", "G1", "gamma", "h", "n", "scale_invariant", "config")),
    "power": (cmd_power, tuple(f.name for f in fields(SimConfig)) + ("noise",)),
    "classical-lss": (cmd_classical,
                      _CURVE_FIELDS + ("test_id", "parameters", "eigenvalues", "n")),
    "simulate": (cmd_simulate, ("n", "seed", "population", "eigenvalues", "n_reps")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdetect",
        description="Optimal linear spectral statistics for weak principal components",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed override")
        p.add_argument("--solver", choices=SOLVERS, default=None)
        if name == "classical-lss":
            p.add_argument("--list", action="store_true", help="list catalog test ids")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    listing_only = args.command == "classical-lss" and getattr(args, "list", False)
    if args.config is None and not listing_only:
        parser.error(f"{args.command} requires --config")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracker = OutputTracker(out_dir)
    started = time.time()
    try:
        config = _load_config(args.config) if args.config else {}
        if args.seed is not None and "seed" in config:
            config = {**config, "seed": args.seed}
        command, known = _COMMANDS[args.command]
        unknown = sorted(set(config) - set(known))
        if unknown:
            raise ConfigError(f"{args.command} reads no config field "
                              + ", ".join(f"'{name}'" for name in unknown))
        command(config, tracker, args)
    except ConfigError as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failure: remove partial outputs
        tracker.cleanup()
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not listing_only:
        manifest = {
            "subcommand": args.command,
            "config_path": str(args.config) if args.config else None,
            "out_dir": str(out_dir),
            "seed": args.seed,
            "tool_version": __version__,
            "duration_s": time.time() - started,
            "config": config,
        }
        write_json(out_dir / "manifest.json", manifest)
        log.debug("%s finished in %.3f s, outputs in %s",
                  args.command, manifest["duration_s"], out_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
