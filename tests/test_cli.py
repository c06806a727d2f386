import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specdetect as sd
from specdetect import ar1_eigenvalues, mp, simulate
from specdetect.cli import main
from specdetect.io import read_json


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args):
    return main(args)


@pytest.fixture
def unit_spectrum_config(tmp_path):
    return write_config(tmp_path / "spectrum.json", {
        "H": {"atoms": [1.0], "weights": [1.0]},
        "gamma": 0.5,
        "points_per_interval": 200,
    })


class TestSpectrum:
    def test_unit_bulk_support(self, tmp_path, unit_spectrum_config):
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", unit_spectrum_config, "--out", str(out)]) == 0
        support = read_json(out / "support.json")
        (lo, hi), = support["intervals"]
        assert lo == pytest.approx((1 - math.sqrt(0.5)) ** 2, abs=1e-8)
        assert hi == pytest.approx((1 + math.sqrt(0.5)) ** 2, abs=1e-8)
        header = (out / "stieltjes_curve.csv").read_text().splitlines()[0]
        assert header == "x,re_v,im_v,re_vp,im_vp,in_support"
        assert (out / "manifest.json").exists()

    def test_two_component_support(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "H": {"atoms": [1.0, 3.0], "weights": [0.5, 0.5]},
            "gamma": 0.1,
            "points_per_interval": 120,
        })
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_json(out / "support.json")["intervals"]) == 2

    def test_missing_weights_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {"H": {"atoms": [1.0]}, "gamma": 0.5})
        out = tmp_path / "out"
        assert run_cli(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert "weights" in capsys.readouterr().err
        assert not (out / "support.json").exists()
        assert not (out / "manifest.json").exists()


class TestWeakDerivative:
    def test_supercritical_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "wd.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G": {"atoms": [3.0], "weights": [1.0]},
            "gamma": 0.5,
            "points_per_interval": 200,
        })
        out = tmp_path / "out"
        assert run_cli(["weak-derivative", "--config", cfg, "--out", str(out)]) == 0
        masses = read_json(out / "point_masses.json")["point_masses"]
        assert len(masses) == 1
        assert masses[0]["location"] == pytest.approx(3.75)
        assert masses[0]["weight"] == pytest.approx(0.5)

    def test_curve_with_dropped_points_fails_without_output(self, tmp_path, capsys,
                                                            monkeypatch):
        # 4 grid points of AR(1) rho = 0.99 fail every real-axis Newton run,
        # so the curve drops them; the cdf would bridge them
        H = sd.AtomicMeasure.uniform(ar1_eigenvalues(0.99, 249))
        holes = sd.stieltjes_grid(H, 0.5).grid[[544, 576, 608, 672]]
        real_limit = mp._real_limit

        def failing(H, gamma, x, v0):
            v, resid, slope = real_limit(H, gamma, x, v0)
            resid[np.isin(x, holes)] = np.inf
            return v, resid, slope

        monkeypatch.setattr(mp, "_real_limit", failing)
        cfg = write_config(tmp_path / "wd.json", {
            "H": H.to_dict(),
            "G": {"atoms": [1.5], "weights": [1.0]},
            "gamma": 0.5,
        })
        out = tmp_path / "out"
        assert run_cli(["weak-derivative", "--config", cfg, "--out", str(out)]) == 1
        assert "4 non-converged points" in capsys.readouterr().err
        assert not (out / "weak_derivative.csv").exists()
        assert not (out / "manifest.json").exists()


class TestOptimalLss:
    def test_subcritical_run_and_config_solver(self, tmp_path):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {"points_per_interval": 300, "solver": "diagreg"},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 0
        rep = read_json(out / "efficacy.json")
        assert rep["regime"] == "subcritical-solvable"
        rows = (out / "lss_normalized.csv").read_text().splitlines()
        assert rows[0] == "x,phi,segment"
        vals = [abs(float(r.split(",")[1])) for r in rows[1:]]
        assert max(vals) == pytest.approx(1.0, abs=1e-12)
        # the exported normalized statistic reproduces the closed-form
        # likelihood-ratio benchmark on the in-support rows
        xs, phis = [], []
        for r in rows[1:]:
            x, phi, seg = r.split(",")
            if seg == "in-support":
                xs.append(float(x))
                phis.append(float(phi))
        xs = np.array(xs)
        phis = np.array(phis)
        z = 1.6 * (1 + 0.5 / 0.6)
        ref = -np.log(z - xs)
        ref = ref - ref[0]
        ref = ref / np.max(np.abs(ref))
        ours = phis - phis[0]
        ours = ours / np.max(np.abs(ours))
        assert float(np.mean(np.abs(ours - ref))) <= 1e-2

    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {"alpha": 1.0},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_solver_in_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {"solver": "typo"},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown solver 'typo'" in capsys.readouterr().err
        assert not (out / "lss.csv").exists()

    def test_removed_c0_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {"c0": 1e-2},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 2
        assert "invalid algorithm config" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("field", ["c1", "ridge_coeff", "n_sd", "s_plus_coeff",
                                       "s_minus_coeff", "collocation_nodes"])
    def test_fixed_constant_field_exits_2(self, tmp_path, capsys, field):
        # the method's constants are fixed, so "config" cannot set them
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {field: 2.0},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid algorithm config" in err and f"'{field}'" in err
        assert not (out / "manifest.json").exists()

    def test_scale_invariant_collocation_fails_without_output(self, tmp_path):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "scale_invariant": True,
            "config": {"points_per_interval": 300, "solver": "collocation"},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) != 0
        assert not (out / "lss.csv").exists()


class TestClassical:
    def test_list_prints_all_ten(self, capsys):
        assert run_cli(["classical-lss", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 10
        assert "ledoit-wolf" in out and "omh-sphericity" in out

    def test_build_entry(self, tmp_path):
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "john-sphericity",
            "H": {"atoms": [1.0], "weights": [1.0]},
            "gamma": 0.5,
            "points_per_interval": 120,
        })
        out = tmp_path / "out"
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "classical_lss.csv").exists()

    def test_unknown_id_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "not-a-test",
            "H": {"atoms": [1.0], "weights": [1.0]},
            "gamma": 0.5,
        })
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        known = ", ".join(f"'{test_id}'" for test_id in sd.catalog_ids())
        assert capsys.readouterr().err == (
            f"error: unknown test id 'not-a-test'; known: [{known}]\n")

    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "john-sphericity",
            "H": {"atoms": [1.0], "weights": [1.0]},
            "gamma": 0.5,
            "points_per_interval": 120,
            "parameters": {"typo": 1},
        })
        out = tmp_path / "out"
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: test 'john-sphericity' takes no parameter 'typo'\n")
        assert not (out / "classical_lss.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_statistic_is_evaluate_statistic(self, tmp_path):
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "omh-identity", "H": UNIT, "gamma": 0.5, "points_per_interval": 120,
            "parameters": {"t": 5.0}, "eigenvalues": [1.0, 2.0, 4.0], "n": 6,
        })
        out = tmp_path / "out"
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out / "statistic.json") == {
            "test_id": "omh-identity",
            "value": sd.evaluate_statistic("omh-identity", [1.0, 2.0, 4.0], 6, t=5.0)}

    def test_statistic_refused_exits_2_without_output(self, tmp_path, capsys):
        # the identity LRT takes the log of every eigenvalue
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "lrt-identity", "H": UNIT, "gamma": 0.5, "points_per_interval": 120,
            "eigenvalues": [0.0, 1.0], "n": 6,
        })
        out = tmp_path / "out"
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: identity LRT requires strictly positive eigenvalues\n")
        assert not (out / "classical_lss.csv").exists()
        assert not (out / "statistic.json").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("test_id, extra, message", [
        ("mauchly", {"eigenvalues": [], "n": 6},
         "eigenvalues must be a nonempty 1-d array, not shape (0,)"),
        ("mauchly", {"eigenvalues": [1.0, "nan"], "n": 6}, "eigenvalues must be finite"),
        ("nagao", {"eigenvalues": [1.0, 2.0], "n": 0}, "n must be at least 1, not 0"),
        ("ledoit-wolf", {"eigenvalues": [1.0, 2.0], "n": 0}, "n must be at least 1, not 0"),
        ("omh-identity", {"parameters": {"t": 5.0}, "eigenvalues": [1.0, 2.0], "n": 0},
         "n must be at least 1, not 0"),
        # phi at the curve's grid was nan below x = 0.5
        ("regularized-lrt", {"parameters": {"lam": -0.5}},
         "regularized LRT requires eigenvalues + lam > 0"),
        # each divided by the sample's sum and wrote a value of nan
        ("john-sphericity", {"eigenvalues": [0.0, 0.0], "n": 4},
         "John's sphericity test requires a positive eigenvalue sum"),
        ("fisher-2010", {"eigenvalues": [0.0, 0.0], "n": 4},
         "Fisher's 2010 test requires a positive sum of squared eigenvalues"),
    ], ids=["mauchly-empty", "mauchly-nan", "nagao-n-zero", "ledoit-wolf-n-zero",
            "omh-identity-n-zero", "regularized-lrt-negative-lam", "john-sphericity-zero-sum",
            "fisher-2010-zero-sum"])
    def test_refused_sample_or_domain_exits_2(self, tmp_path, capsys, test_id, extra, message):
        # each of these wrote nan, -inf or no row at all, or failed at run time
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": test_id, "H": UNIT, "gamma": 0.5, "points_per_interval": 100, **extra})
        out = tmp_path / "out"
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "classical_lss.csv").exists()
        assert not (out / "manifest.json").exists()


CURVE_COMMANDS = pytest.mark.parametrize("command, extra", [
    ("spectrum", {}),
    ("weak-derivative", {"G": {"atoms": [1.6], "weights": [1.0]}}),
    ("classical-lss", {"test_id": "john-sphericity"}),
])


@pytest.fixture
def grid_calls(monkeypatch):
    """The keyword arguments of every stieltjes_grid call the CLI makes."""
    import specdetect.cli as cli
    calls = []
    stieltjes_grid = cli.stieltjes_grid

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return stieltjes_grid(*args, **kwargs)

    monkeypatch.setattr(cli, "stieltjes_grid", spy)
    return calls


@CURVE_COMMANDS
def test_top_level_epsilon_reaches_the_curve(tmp_path, capsys, grid_calls, command, extra):
    payload = {"H": {"atoms": [1.0], "weights": [1.0]}, "gamma": 0.5,
               "points_per_interval": 100, **extra}
    # the top-level epsilon is read by no subcommand, so it is rejected
    cfg = write_config(tmp_path / "eps.json", {**payload, "epsilon": 2e-5})
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "eps")]) == 2
    assert "'epsilon'" in capsys.readouterr().err
    assert grid_calls == [] and not (tmp_path / "eps" / "manifest.json").exists()
    # the top-level points_per_interval is the curve's only setting
    cfg = write_config(tmp_path / "c.json", payload)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert grid_calls == [{"points_per_interval": 100}]


@CURVE_COMMANDS
def test_curve_command_rejects_an_algorithm_config(tmp_path, capsys, grid_calls, command,
                                                   extra):
    cfg = write_config(tmp_path / "c.json", {
        "H": {"atoms": [1.0], "weights": [1.0]}, "gamma": 0.5,
        "config": {"points_per_interval": 100}, **extra})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert "'config'" in capsys.readouterr().err
    assert grid_calls == [] and not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["spectrum", "weak-derivative", "optimal-lss", "power",
                                     "classical-lss", "simulate"])
@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--solver", "diagreg")])
def test_removed_flags_exit_2(tmp_path, command, flag, value):
    # the seed and the solver are set in the config alone
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"),
                 flag, value])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, payload, typo", [
    ("spectrum", {"H": {"atoms": [1.0], "weights": [1.0]}, "gamma": 0.5},
     "points_per_intervall"),
    ("optimal-lss", {"H": {"atoms": [1.0], "weights": [1.0]},
                     "G0": {"atoms": [1.0], "weights": [1.0]},
                     "G1": {"atoms": [1.6], "weights": [1.0]}, "gamma": 0.5,
                     "config": {"points_per_interval": 100}}, "scale_invariants"),
    ("power", {"population": {"kind": "ar1", "rho": 0.5, "p": 19}, "n": 40, "n_reps": 100,
               "alpha": 0.05, "seed": 1, "spike_grid": [3.0], "points_per_interval": 100},
     "two_side"),
    ("simulate", {"population": {"kind": "atoms", "eigenvalues": [1.0] * 5}, "n": 10,
                  "seed": 5}, "n_rep"),
    # simulate reads its bulk from "population" alone
    ("simulate", {"population": {"kind": "atoms", "eigenvalues": [1.0] * 5}, "n": 10,
                  "seed": 5}, "eigenvalues"),
    # the sweep's tests are one-sided, so there is no two-sided switch
    ("power", {"population": {"kind": "ar1", "rho": 0.5, "p": 19}, "n": 40, "n_reps": 100,
               "alpha": 0.05, "seed": 1, "spike_grid": [3.0], "points_per_interval": 100},
     "two_sided"),
])
def test_unknown_top_level_field_exits_2(tmp_path, capsys, command, payload, typo):
    cfg = write_config(tmp_path / "c.json", {**payload, typo: 1})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'{typo}'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_power_missing_field_message(tmp_path, capsys):
    cfg = write_config(tmp_path / "pw.json", {
        "population": {"kind": "ar1", "rho": 0.7, "p": 59},
        "n": 120, "n_reps": 100, "alpha": 0.05, "seed": 1,
    })
    out = tmp_path / "out"
    assert run_cli(["power", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config is missing required field 'spike_grid'\n")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("population, message", [
    ({"kind": "ar1", "p": 6}, "population 'ar1' is missing required key 'rho'"),
    ({"kind": "ar1", "rho": 0.5, "p": 6, "typo": 3}, "population 'ar1' has no key 'typo'"),
    ({"kind": "atoms", "multiplicities": [6]},
     "population 'atoms' is missing required key 'eigenvalues'"),
    ({"kind": "atoms", "eigenvalues": [1.0] * 6, "rho": 0.5, "p": 6},
     "population 'atoms' has no key 'p', 'rho'"),
    ({"kind": "ar1", "rho": "0.5", "p": 6}, "population 'ar1' key 'rho' must be a number, not str"),
    ({"kind": "atoms", "eigenvalues": "abc"},
     "population 'atoms' key 'eigenvalues' must be a list of numbers, not 'abc'"),
    ({"kind": "atoms", "eigenvalues": [1.0, 2.0], "multiplicities": [3, 2.5]},
     "population 'atoms' key 'multiplicities' must be a list of integers, not [3, 2.5]"),
    # a value of the right type but out of range is refused by both commands alike
    ({"kind": "ar1", "rho": 1.5, "p": 6}, "population 'ar1' key 'rho' must be in [0, 1), not 1.5"),
    ({"kind": "ar1", "rho": 0.5, "p": 1}, "population 'ar1' key 'p' must be at least 2, not 1"),
    ({"kind": "atoms", "eigenvalues": [-1.0, 2.0]},
     "population 'atoms' key 'eigenvalues' must be finite and nonnegative, not [-1.0, 2.0]"),
    ({"kind": "atoms", "eigenvalues": [1.0, 2.0], "multiplicities": [3, -1]},
     "population 'atoms' key 'multiplicities' must be nonnegative, not [3, -1]"),
    # multiplicities that do not fit the eigenvalues, and an empty bulk
    ({"kind": "atoms", "eigenvalues": [1.0, 2.0], "multiplicities": [3, 2, 1]},
     "population 'atoms' key 'multiplicities' must have one entry per eigenvalue (2), "
     "not [3, 2, 1]"),
    ({"kind": "atoms", "eigenvalues": [1.0, 2.0], "multiplicities": [3]},
     "population 'atoms' key 'multiplicities' must have one entry per eigenvalue (2), not [3]"),
    ({"kind": "atoms", "eigenvalues": []},
     "population 'atoms' key 'eigenvalues' must be nonempty, not []"),
    ({"kind": "atoms", "eigenvalues": [1.0, 2.0], "multiplicities": [0, 0]},
     "population 'atoms' key 'multiplicities' must not all be zero, not [0, 0]"),
], ids=["ar1-missing", "ar1-extra", "atoms-missing", "atoms-extra", "ar1-rho-string",
        "atoms-eigenvalues-string", "atoms-multiplicities-fraction", "ar1-rho-out-of-range",
        "ar1-p-below-2", "atoms-eigenvalue-negative", "atoms-multiplicity-negative",
        "atoms-multiplicities-too-long", "atoms-multiplicities-one-entry",
        "atoms-eigenvalues-empty", "atoms-multiplicities-all-zero"])
@pytest.mark.parametrize("command, payload", [
    ("simulate", {"n": 12, "seed": 3}),
    ("power", {"n": 12, "n_reps": 100, "alpha": 0.05, "seed": 3, "spike_grid": [3.0]}),
], ids=["simulate", "power"])
def test_malformed_population_exits_2(tmp_path, capsys, command, payload, population, message):
    cfg = write_config(tmp_path / "c.json", {**payload, "population": population})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


SIMULATE = {"n": 12, "seed": 3}
POWER = {"n": 12, "n_reps": 100, "alpha": 0.05, "seed": 3, "spike_grid": [3.0]}
UNIT = {"atoms": [1.0], "weights": [1.0]}
SPECTRUM = {"H": UNIT, "gamma": 0.5, "points_per_interval": 120}
OPTIMAL = {"H": UNIT, "G0": UNIT, "G1": {"atoms": [1.6], "weights": [1.0]}, "gamma": 0.5,
           "config": {"points_per_interval": 120}}
ATOMS = {"kind": "atoms", "eigenvalues": [1.0, 2.0]}


@pytest.mark.parametrize("command, payload, message", [
    ("simulate", {**SIMULATE, "population": [1.0, 2.0]}, "population must be an object, not list"),
    ("power", {**POWER, "population": [1.0, 2.0]}, "population must be an object, not list"),
    ("simulate", {**SIMULATE, "population": {"kind": "ar1", "rho": 0.5, "p": "6"}},
     "population 'ar1' key 'p' must be an integer, not str"),
    ("power", {**POWER, "population": {"kind": "ar1", "rho": 0.5, "p": "6"}},
     "population 'ar1' key 'p' must be an integer, not str"),
    ("classical-lss", {"test_id": "omh-identity", "H": {"atoms": [1.0], "weights": [1.0]},
                       "gamma": 0.5, "points_per_interval": 120, "parameters": [1.6]},
     "config field 'parameters' must be an object, not list"),
    ("spectrum", {**SPECTRUM, "gamma": "abc"}, "config field 'gamma' must be a number, not 'abc'"),
    ("spectrum", {**SPECTRUM, "gamma": [0.5]}, "config field 'gamma' must be a number, not [0.5]"),
    ("spectrum", {**SPECTRUM, "points_per_interval": "x"},
     "config field 'points_per_interval' must be an integer, not 'x'"),
    ("optimal-lss", {**OPTIMAL, "n": "many"}, "config field 'n' must be an integer, not 'many'"),
    ("optimal-lss", {**OPTIMAL, "h": "one"}, "config field 'h' must be an integer, not 'one'"),
    ("classical-lss", {**SPECTRUM, "test_id": ["nagao"]},
     "config field 'test_id' must be a string, not list"),
    ("simulate", {**SIMULATE, "population": ATOMS, "seed": "x"},
     "config field 'seed' must be an integer, not 'x'"),
    ("simulate", {**SIMULATE, "population": ATOMS, "n_reps": [2]},
     "config field 'n_reps' must be an integer, not [2]"),
    ("power", {**POWER, "population": ATOMS, "n": "many"},
     "config field 'n' must be an integer, not 'many'"),
    ("power", {**POWER, "population": ATOMS, "n_reps": "many"},
     "config field 'n_reps' must be an integer, not 'many'"),
    ("power", {**POWER, "population": ATOMS, "seed": "x"},
     "config field 'seed' must be an integer, not 'x'"),
    ("power", {**POWER, "population": ATOMS, "null_spike": "x"},
     "config field 'null_spike' must be a number, not 'x'"),
    ("power", {**POWER, "population": ATOMS, "points_per_interval": "x"},
     "config field 'points_per_interval' must be an integer, not 'x'"),
    ("power", {**POWER, "population": ATOMS, "spike_grid": 5},
     "config field 'spike_grid' must be a list of numbers, not 5"),
    ("optimal-lss", {**OPTIMAL, "config": {"points_per_interval": "x"}},
     "invalid algorithm config: config field 'points_per_interval' must be an integer, not 'x'"),
    ("optimal-lss", {**OPTIMAL, "config": {"epsilon": "x"}},
     "invalid algorithm config: config field 'epsilon' must be a number, not 'x'"),
    ("optimal-lss", {**OPTIMAL, "config": [120]},
     "invalid algorithm config: config must be an object, not list"),
    ("optimal-lss", {**OPTIMAL, "scale_invariant": "no"},
     "config field 'scale_invariant' must be true or false, not 'no'"),
    ("classical-lss", {**SPECTRUM, "test_id": "omh-identity", "parameters": {"t": "x"}},
     "config field 't' must be a number, not 'x'"),
    ("classical-lss", {**SPECTRUM, "test_id": "nagao", "eigenvalues": "abc", "n": 6},
     "config field 'eigenvalues' must be a list of numbers, not 'abc'"),
    # an integer field takes an integer-valued number only, never a truncated one
    ("simulate", {**SIMULATE, "population": ATOMS, "n": 10.7},
     "config field 'n' must be an integer, not 10.7"),
    ("simulate", {**SIMULATE, "population": ATOMS, "seed": 1.9},
     "config field 'seed' must be an integer, not 1.9"),
    ("power", {**POWER, "population": ATOMS, "n_reps": 100.5},
     "config field 'n_reps' must be an integer, not 100.5"),
    ("optimal-lss", {**OPTIMAL, "h": 1.5}, "config field 'h' must be an integer, not 1.5"),
    ("spectrum", {**SPECTRUM, "points_per_interval": 120.5},
     "config field 'points_per_interval' must be an integer, not 120.5"),
], ids=["simulate-population-list", "power-population-list", "simulate-p-string",
        "power-p-string", "classical-parameters-list", "spectrum-gamma-string",
        "spectrum-gamma-list", "spectrum-points-string", "optimal-n-string", "optimal-h-string",
        "classical-test-id-list", "simulate-seed-string", "simulate-n-reps-list",
        "power-n-string", "power-n-reps-string", "power-seed-string", "power-null-spike-string",
        "power-points-string", "power-spike-grid-number", "optimal-config-points-string",
        "optimal-config-epsilon-string", "optimal-config-list", "optimal-scale-invariant-string",
        "classical-parameter-string", "classical-eigenvalues-string", "simulate-n-fraction",
        "simulate-seed-fraction", "power-n-reps-fraction", "optimal-h-fraction",
        "spectrum-points-fraction"])
def test_wrong_typed_field_exits_2(tmp_path, capsys, command, payload, message):
    # a value of the wrong type is a config error, not a runtime failure
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


WEAK = {**SPECTRUM, "G": {"atoms": [1.6], "weights": [1.0]}}
CLASSICAL = {**SPECTRUM, "test_id": "john-sphericity"}
POWER_ATOMS = {**POWER, "population": ATOMS}
SIMULATE_ATOMS = {**SIMULATE, "population": ATOMS}
AT_LEAST_16 = "points_per_interval must be at least 16, not 5"


@pytest.mark.parametrize("command, payload, message", [
    ("power", {**POWER_ATOMS, "n": 0}, "n must be at least 1, not 0"),
    # ran before with a "Mean of empty slice" RuntimeWarning and a level of nan
    ("power", {**POWER_ATOMS, "spike_grid": []}, "spike_grid must not be empty"),
    ("power", {**POWER_ATOMS, "h": 0}, "h must be at least 1, not 0"),
    ("power", {**POWER_ATOMS, "seed": -3}, "seed must be at least 0, not -3"),
    ("power", {**POWER_ATOMS, "spike_grid": [-2.0]},
     "spike_grid must hold positive spikes, not [-2.0]"),
    ("power", {**POWER_ATOMS, "null_spike": -1}, "null_spike must be positive, not -1.0"),
    ("power", {**POWER_ATOMS, "points_per_interval": 5}, AT_LEAST_16),
    ("optimal-lss", {**OPTIMAL, "h": 0}, "h must be at least 1, not 0"),
    ("optimal-lss", {**OPTIMAL, "gamma": -0.5}, "gamma must be positive"),
    ("optimal-lss", {**OPTIMAL, "n": 0}, "n must be at least 1, not 0"),
    ("optimal-lss", {**OPTIMAL, "config": {"points_per_interval": 5}},
     f"invalid algorithm config: {AT_LEAST_16}"),
    ("spectrum", {**SPECTRUM, "gamma": -0.5}, "gamma must be positive"),
    ("spectrum", {**SPECTRUM, "points_per_interval": 5}, AT_LEAST_16),
    ("weak-derivative", {**WEAK, "gamma": -0.5}, "gamma must be positive"),
    ("weak-derivative", {**WEAK, "points_per_interval": 5}, AT_LEAST_16),
    ("classical-lss", {**CLASSICAL, "gamma": -0.5}, "gamma must be positive"),
    ("classical-lss", {**CLASSICAL, "points_per_interval": 5}, AT_LEAST_16),
    ("simulate", {**SIMULATE_ATOMS, "n": 0}, "n must be at least 1, not 0"),
    ("simulate", {**SIMULATE_ATOMS, "seed": -1}, "seed must be at least 0, not -1"),
    # "n_reps": 0 wrote a header-only CSV, and -1 failed in numpy's seed spawn
    ("simulate", {**SIMULATE_ATOMS, "n_reps": 0}, "n_reps must be at least 1, not 0"),
    ("simulate", {**SIMULATE_ATOMS, "n_reps": -1}, "n_reps must be at least 1, not -1"),
], ids=["power-n", "power-empty-spike-grid", "power-h", "power-seed", "power-negative-spike",
        "power-null-spike", "power-points", "optimal-h", "optimal-gamma", "optimal-n",
        "optimal-config-points", "spectrum-gamma", "spectrum-points", "weak-derivative-gamma",
        "weak-derivative-points", "classical-gamma", "classical-points", "simulate-n",
        "simulate-seed", "simulate-no-reps", "simulate-negative-reps"])
def test_value_out_of_range_exits_2(tmp_path, capsys, command, payload, message):
    # a value outside its range is a config error named by its field, not a
    # runtime failure or a run that writes nan
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, payload, message", [
    # a measure that is no object failed with a TypeError and exit code 1
    ("spectrum", {**SPECTRUM, "H": 5}, "config field 'H' must be an object, not int"),
    ("optimal-lss", {**OPTIMAL, "G1": [1.6]}, "config field 'G1' must be an object, not list"),
    # true is no number; it ran as 1
    ("spectrum", {**SPECTRUM, "points_per_interval": True},
     "config field 'points_per_interval' must be an integer, not True"),
    ("power", {**POWER_ATOMS, "alpha": True}, "config field 'alpha' must be a number, not True"),
    ("power", {**POWER_ATOMS, "spike_grid": [True]},
     "config field 'spike_grid' must be a list of numbers, not [True]"),
    ("power", {**POWER_ATOMS, "solver": 5}, "config field 'solver' must be a string, not int"),
    ("optimal-lss", {**OPTIMAL, "config": {"solver": 5}},
     "invalid algorithm config: config field 'solver' must be a string, not int"),
    # "n" is read as an integer with or without "eigenvalues", and needed with them
    ("classical-lss", {**CLASSICAL, "n": "many"},
     "config field 'n' must be an integer, not 'many'"),
    ("classical-lss", {**CLASSICAL, "eigenvalues": [1.0, 2.0]},
     "config is missing required field 'n'"),
], ids=["measure-number", "measure-list", "integer-true", "number-true", "list-entry-true",
        "solver-number", "config-solver-number", "classical-n-string", "classical-n-missing"])
def test_each_type_is_read_by_one_rule(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "manifest.json").exists()


def test_null_is_the_default_of_an_optional_field(tmp_path):
    outs = []
    for name, payload in (("absent", OPTIMAL), ("null", {**OPTIMAL, "n": None})):
        outs.append(tmp_path / name)
        cfg = write_config(tmp_path / f"{name}.json", payload)
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(outs[-1])]) == 0
    a, b = ((out / "efficacy.json").read_bytes() for out in outs)
    assert a == b


def test_list_reads_no_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["classical-lss", "--list", "--config", str(tmp_path / "none.json"),
                    "--out", str(out)]) == 0
    assert capsys.readouterr().out.split() == sd.catalog_ids()
    assert not out.exists()


def test_numeric_strings_stay_accepted(tmp_path):
    # a value that converts to the field's type runs as it did before
    cfg = write_config(tmp_path / "c.json", {**SPECTRUM, "gamma": "0.5",
                                             "points_per_interval": "120"})
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    (lo, hi), = read_json(out / "support.json")["intervals"]
    assert hi == pytest.approx((1 + math.sqrt(0.5)) ** 2, abs=1e-8)


@pytest.mark.parametrize("value", [120.0, "120"])
def test_integer_valued_numbers_stay_accepted(tmp_path, value):
    outs = []
    for name, points in (("int", 120), ("other", value)):
        outs.append(tmp_path / name)
        cfg = write_config(tmp_path / f"{name}.json", {**SPECTRUM, "points_per_interval": points})
        assert run_cli(["spectrum", "--config", cfg, "--out", str(outs[-1])]) == 0
    a, b = ((out / "stieltjes_curve.csv").read_bytes() for out in outs)
    assert a == b


def test_config_holding_a_list_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", [SPECTRUM])
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config must be an object, not list\n"
    assert not (out / "manifest.json").exists()


def test_statistics_are_written_at_the_curve_grid(tmp_path):
    # lss.csv and classical_lss.csv hold phi at the curve's grid points and
    # nothing else; support.json holds the support intervals only
    def run(command, payload, output):
        out = tmp_path / command
        cfg = write_config(tmp_path / f"{command}.json", payload)
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0
        rows = (out / output).read_text().splitlines()[1:]
        return out, np.array([float(r.split(",")[0]) for r in rows])

    grid = sd.stieltjes_grid(sd.AtomicMeasure.point_mass(1.0), 0.5, points_per_interval=120).grid
    out, xs = run("spectrum", SPECTRUM, "stieltjes_curve.csv")
    assert np.array_equal(xs, grid)
    assert list(read_json(out / "support.json")) == ["intervals"]
    _, xs = run("optimal-lss", OPTIMAL, "lss.csv")
    assert np.array_equal(xs, grid)
    _, xs = run("classical-lss", {**SPECTRUM, "test_id": "nagao"}, "classical_lss.csv")
    assert np.array_equal(xs, grid)


@pytest.mark.parametrize("command, payload, as_strings, output", [
    ("power", {"population": {"kind": "atoms", "eigenvalues": [1.0], "multiplicities": [19]},
               "n": 40, "n_reps": 100, "alpha": 0.05, "seed": 3, "h": 2, "spike_grid": [1.3],
               "points_per_interval": 100},
     {"alpha": "0.05", "h": "2"}, "power_curve.csv"),
    ("optimal-lss", {**OPTIMAL, "config": {"points_per_interval": 300}},
     {"config": {"points_per_interval": "300"}}, "efficacy.json"),
    ("classical-lss", {**SPECTRUM, "test_id": "omh-identity", "parameters": {"t": 1.6}},
     {"parameters": {"t": "1.6"}}, "classical_lss.csv"),
], ids=["power", "optimal-lss", "classical-lss"])
def test_numeric_strings_convert_in_every_object(tmp_path, command, payload, as_strings,
                                                 output):
    # power's fields, the "config" object and "parameters" read numbers as the
    # top level does: a string that converts gives the run of the number
    outs = []
    for name, cfg in (("numbers", payload), ("strings", {**payload, **as_strings})):
        outs.append(tmp_path / name)
        assert run_cli([command, "--config", write_config(tmp_path / f"{name}.json", cfg),
                        "--out", str(outs[-1])]) == 0
    a, b = ((out / output).read_bytes() for out in outs)
    assert a == b


def test_scale_invariant_true_builds_the_scale_invariant_statistic(tmp_path):
    efficacies = {}
    for flag in (False, True):
        out = tmp_path / str(flag)
        cfg = write_config(tmp_path / f"{flag}.json", {**OPTIMAL, "scale_invariant": flag})
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out)]) == 0
        efficacies[flag] = read_json(out / "efficacy.json")["efficacy"]
    model = sd.SpikedModel(H=sd.AtomicMeasure.point_mass(1.0),
                           G0=sd.AtomicMeasure.point_mass(1.0),
                           G1=sd.AtomicMeasure.point_mass(1.6), gamma=0.5)
    config = sd.AlgoConfig(points_per_interval=120)
    assert efficacies[False] == sd.optimal_lss(model, config)[1].efficacy
    assert efficacies[True] == sd.optimal_ls3(model, config)[1].efficacy
    assert efficacies[True] != efficacies[False]


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "none.json"
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    assert not (out / "manifest.json").exists()


def test_invalid_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"gamma": 0.5,')
    out = tmp_path / "out"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")
    assert not (out / "manifest.json").exists()


def test_no_config_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectrum", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "spectrum requires --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_writes_eigenvalues(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {
            "population": {"kind": "atoms", "eigenvalues": [1.0] * 30},
            "n": 60,
            "seed": 5,
            "n_reps": 2,
        })
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sample_eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "replicate,index,eigenvalue"
        assert len(rows) == 1 + 2 * 30

    def test_population_draws_as_its_eigenvalues(self, tmp_path):
        # a population with fewer replicates than a power sweep needs
        ar1 = {"kind": "ar1", "rho": 0.5, "p": 6}
        atoms = {"kind": "atoms", "eigenvalues": ar1_eigenvalues(0.5, 6).tolist()}
        outs = []
        for name, pop in (("ar1", ar1), ("atoms", atoms)):
            cfg = write_config(tmp_path / f"{name}.json",
                               {"population": pop, "n": 10, "seed": 3, "n_reps": 3})
            outs.append(tmp_path / name)
            assert run_cli(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        a, b = ((out / "sample_eigenvalues.csv").read_text() for out in outs)
        assert a == b and len(a.splitlines()) == 1 + 3 * 6

    def test_config_seed_changes_output(self, tmp_path):
        outputs = []
        for name, seed in (("a", 5), ("b", 99), ("c", 5)):
            cfg = write_config(tmp_path / f"{name}.json", {
                "population": {"kind": "atoms", "eigenvalues": [1.0] * 10}, "n": 20,
                "seed": seed,
            })
            assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "sample_eigenvalues.csv").read_text())
        a, b, c = outputs
        assert a != b
        assert a == c


@pytest.mark.slow
class TestPowerCommand:
    def test_power_curve_csv(self, tmp_path):
        cfg = write_config(tmp_path / "pw.json", {
            "population": {"kind": "ar1", "rho": 0.7, "p": 59},
            "n": 120, "n_reps": 100, "alpha": 0.05, "seed": 31337,
            "spike_grid": [2.0, 4.0],
            "points_per_interval": 200,
        })
        out = tmp_path / "out"
        assert run_cli(["power", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "power_curve.csv").read_text().splitlines()
        assert rows[0] == "spike,power_lss,se_lss,power_top,se_top"
        assert len(rows) == 3
        meta = read_json(out / "power_metadata.json")
        assert meta["seed"] == 31337
        assert "pt_threshold" in meta
        assert meta["draw_workers"] == simulate._draw_workers()


    def test_unknown_solver_in_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "pw.json", {
            "population": {"kind": "ar1", "rho": 0.7, "p": 59},
            "n": 120, "n_reps": 100, "alpha": 0.05, "seed": 31337,
            "spike_grid": [2.0], "points_per_interval": 200, "solver": "typo",
        })
        out = tmp_path / "out"
        assert run_cli(["power", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown solver 'typo'" in capsys.readouterr().err
        assert not (out / "power_curve.csv").exists()


class TestManifestReplay:
    def test_rerun_is_bit_identical(self, tmp_path, unit_spectrum_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["spectrum", "--config", unit_spectrum_config, "--out", str(out1)]) == 0
        manifest = read_json(out1 / "manifest.json")
        # replay using the config echoed in the manifest
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(manifest["config"]))
        assert run_cli([manifest["subcommand"], "--config", str(replay_cfg),
                        "--out", str(out2)]) == 0
        a = (out1 / "stieltjes_curve.csv").read_bytes()
        b = (out2 / "stieltjes_curve.csv").read_bytes()
        assert a == b
        assert (out1 / "support.json").read_bytes() == (out2 / "support.json").read_bytes()

    def test_manifest_records_the_config_that_ran(self, tmp_path):
        payload = {"population": {"kind": "ar1", "rho": 0.5, "p": 10}, "n": 20, "seed": 7}
        cfg = write_config(tmp_path / "sim.json", payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        manifest = read_json(out1 / "manifest.json")
        assert manifest["config"] == payload and "seed" not in manifest
        replay_cfg = write_config(tmp_path / "replay.json", manifest["config"])
        assert run_cli(["simulate", "--config", replay_cfg, "--out", str(out2)]) == 0
        a = (out1 / "sample_eigenvalues.csv").read_bytes()
        assert a == (out2 / "sample_eigenvalues.csv").read_bytes()


class TestEntryPoint:
    def test_console_script_is_cli_main(self):
        # the installed `specdetect` command runs cli.main
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["specdetect"]
        module, attr = target.split(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "specdetect.cli", "classical-lss", "--list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.split()) == 10

    def test_env_var_controls_logging(self, tmp_path, unit_spectrum_config):
        def run(level):
            return subprocess.run(
                [sys.executable, "-m", "specdetect.cli", "spectrum",
                 "--config", unit_spectrum_config, "--out", str(tmp_path / level)],
                capture_output=True, text=True,
                env={**os.environ, "SPECDETECT_LOG": level},
            )

        debug = run("DEBUG")
        assert debug.returncode == 0
        assert any(line.startswith("DEBUG specdetect")
                   for line in debug.stderr.splitlines())
        warning = run("WARNING")
        assert warning.returncode == 0
        assert not any(line.startswith("DEBUG")
                       for line in warning.stderr.splitlines())
