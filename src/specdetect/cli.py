"""Batch command-line front end.

Every subcommand reads one JSON config, writes CSV/JSON outputs into the
chosen directory, and finishes with a run manifest that echoes the config
so the run can be replayed bit-identically.  Partial outputs are removed
on failure.  Log verbosity is controlled by the SPECDETECT_LOG
environment variable (DEBUG/INFO/WARNING/ERROR).

A subcommand's config fields are its keyword parameters (``power``'s are
SimConfig's fields): the annotated type of each picks the one rule that
reads it, and a field without a default is required.  Any other field is
rejected, so a misspelled one cannot run with the default.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager, suppress
from inspect import Parameter, signature
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .classical import catalog_ids, equivalent_lss, evaluate_statistic
from .io import read_json, reject_unknown, write_csv, write_json
from .measures import AtomicMeasure
from .mp import stieltjes_grid
from .optimal import AlgoConfig, SpikedModel, check_at_least, optimal_lss, optimal_ls3
from .simulate import SimConfig, _draw, _draw_workers, power_experiment
from .weak_derivative import weak_derivative_cdf

log = logging.getLogger("specdetect")

USAGE_ERROR = 2


class ConfigError(Exception):
    """Malformed or incomplete configuration."""


def _setup_logging() -> None:
    level = os.environ.get("SPECDETECT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str) -> object:
    try:
        return read_json(Path(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


@contextmanager
def _refused(where: str = ""):
    """A ValueError, KeyError or ConfigError inside, the refusal of an input,
    raised again as a ConfigError whose message ``where`` prefixes."""
    try:
        yield
    except (ConfigError, KeyError, ValueError) as exc:
        raise ConfigError(f"{where}{exc.args[0]}") from None


def _number(name: str, value, kind: type):
    """``value`` converted by ``kind``, float or int.

    A string ``kind`` converts is accepted, as "0.5" for a float; an integer
    field takes a number only when it is integer-valued, as 10.0.  Any other
    value, true and false included, is a config error naming the field.
    """
    with suppress(TypeError, ValueError, OverflowError):
        number = kind(value)
        if not isinstance(value, bool) and (kind is float or isinstance(value, str)
                                            or number == value):
            return number
    what = "a number" if kind is float else "an integer"
    raise ConfigError(f"config field '{name}' must be {what}, not {value!r}")


def _read(kind, name: str, value):
    """The config field ``name`` read from its JSON ``value`` by the rule for its type."""
    if isinstance(kind, UnionType):  # X | None: null, or an X
        if value is None:
            return None
        kind = get_args(kind)[0]
    if kind in (int, float):
        return _number(name, value, kind)
    if kind == tuple[float, ...]:  # each entry read as a number
        with suppress(ConfigError):
            if isinstance(value, list):
                return tuple(_number(name, v, float) for v in value)
        raise ConfigError(f"config field '{name}' must be a list of numbers, not {value!r}")
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"config field '{name}' must be true or false, not {value!r}")
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"config field '{name}' must be a string, not {type(value).__name__}")
    if kind in (AtomicMeasure, dict, dict[str, float]) and not isinstance(value, dict):
        raise ConfigError(f"config field '{name}' must be an object, not {type(value).__name__}")
    if kind is AtomicMeasure:
        with _refused(f"invalid bulk '{name}': "):
            return AtomicMeasure.from_dict(value)
    if kind == dict[str, float]:
        return {key: _number(key, v, float) for key, v in value.items()}
    if kind is AlgoConfig:
        with _refused("invalid algorithm config: "):
            return AlgoConfig(**_record(AlgoConfig, value, "config has no field"))
    return value  # a bool, a str, or a dict


def _record(target, payload, unknown: str) -> dict:
    """The keyword arguments of ``target`` read from the JSON object ``payload``.

    Each parameter that can be passed by keyword is a field, read by the rule
    for its annotated type; one without a default is required.  A key that
    names no field is refused, listed after ``unknown``.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"config must be an object, not {type(payload).__name__}")
    fields = {p.name: p for p in signature(target).parameters.values()
              if p.kind in (Parameter.POSITIONAL_OR_KEYWORD, Parameter.KEYWORD_ONLY)}
    reject_unknown(payload, fields, unknown, ConfigError)
    for name, field in fields.items():
        if field.default is Parameter.empty and name not in payload:
            raise ConfigError(f"config is missing required field '{name}'")
    kinds = get_type_hints(target)
    return {name: _read(kinds[name], name, payload[name]) for name in fields if name in payload}


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


def cmd_spectrum(out: OutputTracker, /, *, H: AtomicMeasure, gamma: float,
                 points_per_interval: int = AlgoConfig.points_per_interval) -> None:
    with _refused():  # stieltjes_grid raises ValueError for bad input only
        curve = stieltjes_grid(H, gamma, points_per_interval=points_per_interval)
    write_csv(out.path("stieltjes_curve.csv"),
              ["x", "re_v", "im_v", "re_vp", "im_vp", "in_support"], curve.to_rows())
    write_json(out.path("support.json"), curve.support.to_dict())


def cmd_weak_derivative(out: OutputTracker, /, *, H: AtomicMeasure, G: AtomicMeasure,
                        gamma: float,
                        points_per_interval: int = AlgoConfig.points_per_interval) -> None:
    with _refused():
        curve = stieltjes_grid(H, gamma, points_per_interval=points_per_interval)
    cdf = weak_derivative_cdf(G, curve)
    write_csv(out.path("weak_derivative.csv"), ["x", "density", "cdf"], cdf.to_rows())
    write_json(out.path("point_masses.json"), {
        "point_masses": [{"location": loc, "weight": w} for loc, w in cdf.point_masses],
        "total_mass": cdf.total_mass,
    })


def cmd_optimal_lss(out: OutputTracker, /, *, H: AtomicMeasure, G0: AtomicMeasure,
                    G1: AtomicMeasure, gamma: float, h: int = SpikedModel.h,
                    n: int | None = SpikedModel.n, scale_invariant: bool = False,
                    config: AlgoConfig = AlgoConfig()) -> None:
    with _refused():
        model = SpikedModel(H=H, G0=G0, G1=G1, gamma=gamma, h=h, n=n)
    phi, report = (optimal_ls3 if scale_invariant else optimal_lss)(model, config)
    write_csv(out.path("lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    norm = phi.normalized()
    write_csv(out.path("lss_normalized.csv"), ["x", "phi", "segment"], norm.to_rows())
    write_json(out.path("efficacy.json"), report.to_dict())


def cmd_power(out: OutputTracker, /, **fields) -> None:
    """Reads SimConfig's fields."""
    with _refused():
        config = SimConfig(**fields)
    curve = power_experiment(config)
    write_csv(out.path("power_curve.csv"),
              ["spike", "power_lss", "se_lss", "power_top", "se_top"],
              curve.to_rows())
    write_json(out.path("power_metadata.json"), curve.metadata())


def cmd_classical(out: OutputTracker, /, *, test_id: str, H: AtomicMeasure, gamma: float,
                  points_per_interval: int = AlgoConfig.points_per_interval,
                  parameters: dict[str, float] = {}, eigenvalues: tuple[float, ...] | None = None,
                  n: int | None = None) -> None:
    """The test's equivalent LSS on the curve; with "eigenvalues", which need
    the sample size "n", also its original statistic on that sample."""
    if eigenvalues is not None and n is None:
        raise ConfigError("config is missing required field 'n'")
    with _refused():  # a test that refuses its parameters or eigenvalues writes no output
        curve = stieltjes_grid(H, gamma, points_per_interval=points_per_interval)
        phi = equivalent_lss(test_id, curve, **parameters)
        if eigenvalues is not None:
            value = evaluate_statistic(test_id, eigenvalues, n, **parameters)
    write_csv(out.path("classical_lss.csv"), ["x", "phi", "segment"], phi.to_rows())
    if eigenvalues is not None:
        write_json(out.path("statistic.json"), {"test_id": test_id, "value": value})


def cmd_simulate(out: OutputTracker, /, *, population: dict, n: int, seed: int,
                 n_reps: int = 1) -> None:
    """Draw "n_reps" replicates (default 1, at least 1) of the sample
    eigenvalues of the population, a bulk that names its "p".  A `power`
    config's "n_reps" has the higher least value LEAST["n_reps"], which its
    calibration half needs; a plain draw has no calibration."""
    with _refused():
        pop = AtomicMeasure.eigenvalues_from_dict(population)
        check_at_least(n=n, seed=seed)
    if n_reps < 1:
        raise ConfigError(f"n_reps must be at least 1, not {n_reps!r}")
    draws = _draw(pop, n, np.random.SeedSequence(seed).spawn(n_reps), _draw_workers())
    rows = [(rep, i, val) for rep, eigs in enumerate(draws) for i, val in enumerate(eigs)]
    write_csv(out.path("sample_eigenvalues.csv"), ["replicate", "index", "eigenvalue"], rows)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "weak-derivative": cmd_weak_derivative,
    "optimal-lss": cmd_optimal_lss,
    "power": cmd_power,
    "classical-lss": cmd_classical,
    "simulate": cmd_simulate,
}
# power's config fields are SimConfig's; every other subcommand declares its own
_FIELDS = {"power": SimConfig}


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
    if getattr(args, "list", False):
        print("\n".join(catalog_ids()))
        return 0
    if args.config is None:
        parser.error(f"{args.command} requires --config")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracker = OutputTracker(out_dir)
    started = time.time()
    command = _COMMANDS[args.command]
    declared = _FIELDS.get(args.command, command)
    try:
        config = _load_config(args.config)
        command(tracker, **_record(declared, config, f"{args.command} reads no config field"))
    except ConfigError as exc:
        tracker.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failure: remove partial outputs
        tracker.cleanup()
        log.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "subcommand": args.command,
        "config_path": str(args.config),
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
