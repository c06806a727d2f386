import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from specdetect import ar1_eigenvalues
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


class TestOptimalLss:
    def test_subcritical_run_and_solver_flag(self, tmp_path):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "config": {"points_per_interval": 300},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out),
                        "--solver", "diagreg"]) == 0
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

    def test_scale_invariant_collocation_fails_without_output(self, tmp_path):
        cfg = write_config(tmp_path / "lss.json", {
            "H": {"atoms": [1.0], "weights": [1.0]},
            "G0": {"atoms": [1.0], "weights": [1.0]},
            "G1": {"atoms": [1.6], "weights": [1.0]},
            "gamma": 0.5,
            "scale_invariant": True,
            "config": {"points_per_interval": 300},
        })
        out = tmp_path / "out"
        assert run_cli(["optimal-lss", "--config", cfg, "--out", str(out),
                        "--solver", "collocation"]) != 0
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

    def test_unknown_id_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cl.json", {
            "test_id": "not-a-test",
            "H": {"atoms": [1.0], "weights": [1.0]},
            "gamma": 0.5,
        })
        assert run_cli(["classical-lss", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, extra", [
    ("spectrum", {}),
    ("weak-derivative", {"G": {"atoms": [1.6], "weights": [1.0]}}),
    ("classical-lss", {"test_id": "john-sphericity"}),
])
def test_top_level_epsilon_reaches_the_curve(tmp_path, monkeypatch, capsys, command, extra):
    import specdetect.cli as cli
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return stieltjes_grid(*args, **kwargs)

    stieltjes_grid = cli.stieltjes_grid
    monkeypatch.setattr(cli, "stieltjes_grid", spy)
    payload = {"H": {"atoms": [1.0], "weights": [1.0]}, "gamma": 0.5,
               "points_per_interval": 100, "config": {"points_per_interval": 300}, **extra}
    # the top-level epsilon is read by no subcommand, so it is rejected
    cfg = write_config(tmp_path / "eps.json", {**payload, "epsilon": 2e-5})
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "eps")]) == 2
    assert "'epsilon'" in capsys.readouterr().err
    assert seen == [] and not (tmp_path / "eps" / "manifest.json").exists()
    # the top-level points_per_interval overrides the one in "config"
    cfg = write_config(tmp_path / "c.json", payload)
    assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert seen == [{"points_per_interval": 100}]


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
    ("simulate", {"eigenvalues": [1.0] * 5, "n": 10, "seed": 5}, "n_rep"),
])
def test_unknown_top_level_field_exits_2(tmp_path, capsys, command, payload, typo):
    cfg = write_config(tmp_path / "c.json", {**payload, typo: 1})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"'{typo}'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


class TestSimulate:
    def test_writes_eigenvalues(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {
            "eigenvalues": [1.0] * 30,
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
        pop = {"kind": "ar1", "rho": 0.5, "p": 6}
        eigs = ar1_eigenvalues(0.5, 6).tolist()
        outs = []
        for name, bulk in (("pop", {"population": pop}), ("eigs", {"eigenvalues": eigs})):
            cfg = write_config(tmp_path / f"{name}.json", {**bulk, "n": 10, "seed": 3, "n_reps": 3})
            outs.append(tmp_path / name)
            assert run_cli(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        a, b = ((out / "sample_eigenvalues.csv").read_text() for out in outs)
        assert a == b and len(a.splitlines()) == 1 + 3 * 6

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {
            "eigenvalues": [1.0] * 10, "n": 20, "seed": 5,
        })
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_cli(["simulate", "--config", cfg, "--out", str(out1)])
        run_cli(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        run_cli(["simulate", "--config", cfg, "--out", str(out3)])
        a = (out1 / "sample_eigenvalues.csv").read_text()
        b = (out2 / "sample_eigenvalues.csv").read_text()
        c = (out3 / "sample_eigenvalues.csv").read_text()
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
        cfg = write_config(tmp_path / "sim.json", {"eigenvalues": [1.0] * 10, "n": 20, "seed": 1})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
        manifest = read_json(out1 / "manifest.json")
        assert manifest["config"]["seed"] == 7
        # the recorded config replays the run without the override
        replay_cfg = write_config(tmp_path / "replay.json", manifest["config"])
        assert run_cli(["simulate", "--config", replay_cfg, "--out", str(out2)]) == 0
        a = (out1 / "sample_eigenvalues.csv").read_bytes()
        assert a == (out2 / "sample_eigenvalues.csv").read_bytes()


class TestEntryPoint:
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
