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
from contextlib import suppress
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .classical import catalog_ids, equivalent_lss, evaluate_statistic
from .io import read_json, reject_unknown, write_csv, write_json
from .measures import AtomicMeasure
from .mp import StieltjesCurve, stieltjes_grid
from .optimal import AlgoConfig, SpikedModel, check_at_least, optimal_lss, optimal_ls3
from .simulate import (SimConfig, _draw, _draw_workers, _population_eigenvalues,
                       power_experiment)
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
        config = read_json(Path(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config must be an object, not {type(config).__name__}")
    return config


def _require(config: dict, *fields: str) -> None:
    for name in fields:
        if name not in config:
            raise ConfigError(f"config is missing required field '{name}'")


def _number(config: dict, name: str, kind: type, default=None):
    """config[name] (or ``default`` when absent) converted by ``kind``, float or int.

    A string ``kind`` converts is accepted, as "0.5" for a float; an integer
    field takes a number only when it is integer-valued, as 10.0.  Any other
    value is a config error naming the field.
    """
    value = config.get(name, default)
    with suppress(TypeError, ValueError, OverflowError):
        number = kind(value)
        if kind is float or isinstance(value, str) or number == value:
            return number
    what = "a number" if kind is float else "an integer"
    raise ConfigError(f"config field '{name}' must be {what}, not {value!r}")


def _numbers(config: dict, name: str) -> tuple[float, ...]:
    """config[name], a list of numbers, as a tuple of floats."""
    value = config[name]
    if isinstance(value, list):
        with suppress(TypeError, ValueError):
            return tuple(float(v) for v in value)
    raise ConfigError(f"config field '{name}' must be a list of numbers, not {value!r}")


def _record(cls, payload, where: str | None = None):
    """The dataclass ``cls`` filled from the JSON object ``payload`` by the
    rules for top-level fields; ``where`` prefixes a nested object's errors."""
    try:
        if not isinstance(payload, dict):
            raise ConfigError(f"config must be an object, not {type(payload).__name__}")
        reject_unknown(payload, [f.name for f in fields(cls)], "config has no field", ConfigError)
        _require(payload, *(f.name for f in fields(cls) if f.default is MISSING))
        kinds = get_type_hints(cls)
        values = {}
        for name, value in payload.items():
            kind = kinds[name]
            values[name] = (_number(payload, name, kind) if kind in (int, float) else
                            _numbers(payload, name) if kind == tuple[float, ...] else value)
        return cls(**values)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def _measure(config: dict, name: str) -> AtomicMeasure:
    _require(config, name)
    try:
        return AtomicMeasure.from_dict(config[name])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid measure '{name}': {exc.args[0]}")


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


def _curve(config: dict) -> tuple[AtomicMeasure, float, StieltjesCurve]:
    """H, gamma and the curve of H on "points_per_interval" points per interval."""
    _require(config, "gamma")
    H = _measure(config, "H")
    gamma = _number(config, "gamma", float)
    ppi = _number(config, "points_per_interval", int, AlgoConfig.points_per_interval)
    try:  # stieltjes_grid raises ValueError for bad input only
        return H, gamma, stieltjes_grid(H, gamma, points_per_interval=ppi)
    except ValueError as exc:
        raise ConfigError(exc.args[0])


def cmd_spectrum(config: dict, out: OutputTracker, args) -> None:
    curve = _curve(config)[2]
    write_csv(out.path("stieltjes_curve.csv"),
              ["x", "re_v", "im_v", "re_vp", "im_vp", "in_support"], curve.to_rows())
    write_json(out.path("support.json"), curve.support.to_dict())


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
    try:
        return SpikedModel(H=H, G0=G0, G1=G1, gamma=_number(config, "gamma", float),
                           h=_number(config, "h", int, 1),
                           n=None if config.get("n") is None else _number(config, "n", int))
    except ValueError as exc:
        raise ConfigError(exc.args[0])


def cmd_optimal_lss(config: dict, out: OutputTracker, args) -> None:
    model = _spiked_model(config)
    algo = _record(AlgoConfig, config.get("config", {}), "invalid algorithm config")
    scale_invariant = config.get("scale_invariant", False)
    if not isinstance(scale_invariant, bool):
        raise ConfigError("config field 'scale_invariant' must be true or false, "
                          f"not {scale_invariant!r}")
    builder = optimal_ls3 if scale_invariant else optimal_lss
    phi, report = builder(model, algo)
    write_csv(out.path("lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    norm = phi.normalized()
    write_csv(out.path("lss_normalized.csv"), ["x", "phi", "segment"], norm.to_rows())
    write_json(out.path("efficacy.json"), report.to_dict())


def cmd_power(config: dict, out: OutputTracker, args) -> None:
    curve = power_experiment(_record(SimConfig, config))
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
    test_id = config["test_id"]
    if not isinstance(test_id, str):
        raise ConfigError(f"config field 'test_id' must be a string, not {type(test_id).__name__}")
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config field 'parameters' must be an object, not {type(params).__name__}")
    params = {name: _number(params, name, float) for name in params}
    H, gamma, curve = _curve(config)
    try:  # a test that refuses its parameters or eigenvalues writes no output
        phi = equivalent_lss(test_id, H, gamma, curve, **params)
        if "eigenvalues" in config:
            _require(config, "n")
            value = evaluate_statistic(test_id, _numbers(config, "eigenvalues"),
                                       _number(config, "n", int), **params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0])
    write_csv(out.path("classical_lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    if "eigenvalues" in config:
        write_json(out.path("statistic.json"), {"test_id": test_id, "value": value})


def cmd_simulate(config: dict, out: OutputTracker, args) -> None:
    """Draw "n_reps" replicates (default 1, at least 1) of the population's
    sample eigenvalues.  A `power` config's "n_reps" has the higher least
    value LEAST["n_reps"], which its calibration half needs; a plain draw
    has no calibration."""
    _require(config, "population", "n", "seed")
    n, seed = _number(config, "n", int), _number(config, "seed", int)
    n_reps = _number(config, "n_reps", int, 1)
    try:
        pop = _population_eigenvalues(config["population"])
        check_at_least(n=n, seed=seed)
    except ValueError as exc:
        raise ConfigError(exc.args[0])
    if n_reps < 1:
        raise ConfigError(f"n_reps must be at least 1, not {n_reps!r}")
    draws = _draw(np.sort(pop), n, np.random.SeedSequence(seed).spawn(n_reps), _draw_workers())
    rows = [(rep, i, val) for rep, eigs in enumerate(draws) for i, val in enumerate(eigs)]
    write_csv(out.path("sample_eigenvalues.csv"), ["replicate", "index", "eigenvalue"], rows)


_CURVE_FIELDS = ("H", "gamma", "points_per_interval")

# each subcommand with the top-level config fields it reads; any other
# field is rejected, so a misspelled one cannot run with the default
_COMMANDS = {
    "spectrum": (cmd_spectrum, _CURVE_FIELDS),
    "weak-derivative": (cmd_weak_derivative, _CURVE_FIELDS + ("G",)),
    "optimal-lss": (cmd_optimal_lss,
                    ("H", "G0", "G1", "gamma", "h", "n", "scale_invariant", "config")),
    "power": (cmd_power, tuple(f.name for f in fields(SimConfig))),
    "classical-lss": (cmd_classical,
                      _CURVE_FIELDS + ("test_id", "parameters", "eigenvalues", "n")),
    "simulate": (cmd_simulate, ("population", "n", "seed", "n_reps")),
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
        command, known = _COMMANDS[args.command]
        reject_unknown(config, known, f"{args.command} reads no config field", ConfigError)
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
