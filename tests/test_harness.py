import json
import math
import time

import numpy as np
import pytest

import dpmirror.harness as harness_mod
from dpmirror import cli
from dpmirror.errors import ConfigurationError
from dpmirror.harness import (CELL_COLUMNS, build_spec, parse_kv_file,
                              run_and_write, run_tau_sim)
from dpmirror.optimizer import private_sgd_batch
from dpmirror.sampler import simulate_tau


def always_overruns(config, seeds, features, labels):
    """The harness's batch engine with every run reported as an overrun."""
    batch = private_sgd_batch(config, seeds, features, labels)
    batch.overrun[:] = True
    batch.output[:] = np.nan
    return batch


def base_overrides(tmp_path, **extra):
    values = {
        "name": "t", "n_values": "16", "epsilon_values": "max",
        "repeats": "1", "seed": "5", "baseline_steps": "10000",
        "eval_samples": "200", "output_dir": str(tmp_path),
    }
    values.update(extra)
    return values


class TestConfig:
    def test_parse_kv_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "name = demo\n"
            "n_values = 16,64   # trailing comment\n"
            "\n"
            "seed=9\n"
        )
        kv = parse_kv_file(path)
        assert kv == {"name": "demo", "n_values": "16,64", "seed": "9"}

    def test_parse_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigurationError):
            parse_kv_file(path)

    def test_build_spec_defaults(self, tmp_path):
        spec = build_spec(base_overrides(tmp_path))
        assert spec.oracle.kind == "hinge"
        assert spec.feasible_set.diameter() == pytest.approx(1.0)
        assert spec.population.generator == "linear_margin"
        np.testing.assert_allclose(spec.population.w_true, [1.0, 0.0])

    def test_missing_field_named(self, tmp_path):
        overrides = base_overrides(tmp_path)
        del overrides["n_values"]
        with pytest.raises(ConfigurationError) as err:
            build_spec(overrides)
        assert "n_values" in str(err.value)

    def test_bad_loss_named(self, tmp_path):
        with pytest.raises(ConfigurationError) as err:
            build_spec(base_overrides(tmp_path, loss="log"))
        assert "loss" in str(err.value)

    def test_epsilon_regime_checked_per_n(self, tmp_path):
        with pytest.raises(ConfigurationError) as err:
            build_spec(base_overrides(tmp_path, epsilon_values="0.2"))
        assert "epsilon" in str(err.value)

    def test_small_n_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            build_spec(base_overrides(tmp_path, n_values="8"))

    def test_box_set(self, tmp_path):
        spec = build_spec(base_overrides(
            tmp_path, set="box", lower="-0.5,-0.5", upper="0.5,0.5"))
        assert spec.feasible_set.kind == "box"


class TestRunCommand:
    def test_smoke_run_writes_files(self, tmp_path):
        started = time.time()
        spec = build_spec(base_overrides(tmp_path))
        result = run_and_write(spec)
        assert time.time() - started < 1.0
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.n == 16
        assert cell.epsilon == pytest.approx(1.0 / (2.0 * math.sqrt(16)))
        assert len(result.cells[0].__dict__) >= len(CELL_COLUMNS)
        outdir = tmp_path / "t"
        assert (outdir / "cells.csv").exists()
        assert (outdir / "summary.json").exists()
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["config"]["seed"] == 5
        assert summary["cells"][0]["n"] == 16

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = build_spec(base_overrides(tmp_path))
        run_and_write(spec)
        first = (tmp_path / "t" / "cells.csv").read_bytes()
        first_json = (tmp_path / "t" / "summary.json").read_bytes()
        run_and_write(spec)
        assert (tmp_path / "t" / "cells.csv").read_bytes() == first
        assert (tmp_path / "t" / "summary.json").read_bytes() == first_json

    def test_csv_layout(self, tmp_path):
        spec = build_spec(base_overrides(tmp_path))
        run_and_write(spec)
        lines = (tmp_path / "t" / "cells.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == ",".join(CELL_COLUMNS)
        assert any(line.startswith("# ") for line in lines)   # config echo

    def test_sigma_override_zero(self, tmp_path):
        spec = build_spec(base_overrides(tmp_path, sigma_override="0.0"))
        result = run_and_write(spec)
        assert result.cells[0].sigma == 0.0
        assert math.isnan(result.cells[0].report_epsilon)

    def test_noiseless_risk_curve_scaling(self, tmp_path):
        # sigma = 0 across n in {64, ..., 4096}: excess risk should fall like
        # C / sqrt(n). The fitted exponent lands in -0.5 +/- 0.1; the fitted
        # constant C comes out well below the worst-case scale D*L (observed
        # about 0.4*D*L on this population).
        spec = build_spec({
            "name": "curve", "noise_rate": "0.1", "dimension": "2",
            "n_values": "64,256,1024,4096", "epsilon_values": "max",
            "repeats": "48", "seed": "2024", "sigma_override": "0.0",
            "eval_samples": "4000", "baseline_steps": "200000",
            "output_dir": str(tmp_path),
        })
        result = run_and_write(spec)
        ns = np.array([c.n for c in result.cells], dtype=float)
        excess = np.array([c.mean_excess_risk for c in result.cells])
        assert np.all(excess > 0)
        slope, log_c = np.polyfit(np.log(ns), np.log(excess), 1)
        assert -0.6 <= slope <= -0.4
        fitted_c = math.exp(log_c)
        assert 0.15 <= fitted_c <= 1.5   # D*L == 1 here

    def test_tau_sim_files(self, tmp_path):
        stats = run_tau_sim([16, 32], 1000, seed=3, output_dir=str(tmp_path),
                            name="tau")
        direct = simulate_tau(16, 1000, seed=3)
        assert stats[0].mean_tau == direct.mean_tau
        tau_csv = (tmp_path / "tau" / "tau.csv").read_text().splitlines()
        assert tau_csv[1] == "n,trial,tau"
        assert len(tau_csv) == 2 + 2000
        summary = json.loads((tmp_path / "tau" / "tau_summary.json").read_text())
        assert [r["n"] for r in summary["results"]] == [16, 32]

    def test_tau_sim_trial_floor(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_tau_sim([16], 10, seed=3, output_dir=str(tmp_path))

    def test_overrunning_cells_marked_degraded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness_mod, "private_sgd_batch", always_overruns)
        spec = build_spec(base_overrides(tmp_path, repeats="4"))
        result = run_and_write(spec)
        cell = result.cells[0]
        assert cell.overrun_runs == 4
        assert cell.degraded
        assert result.degraded
        assert math.isnan(cell.mean_excess_risk)
        assert not cell.bound_satisfied
        # files still written, with nan cells round-tripping through the CSV
        text = (tmp_path / "t" / "cells.csv").read_text()
        assert "nan" in text


class TestCli:
    def test_calibrate_direct(self, capsys):
        rc = cli.main(["calibrate", "--n", "10000", "--eps", "0.005",
                       "--delta", "1e-6", "--L", "1", "--D", "1", "--d", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == pytest.approx(59.471, abs=1e-3)
        assert payload["eta"] == pytest.approx(5.289e-5, rel=1e-3)
        assert payload["report"]["stage"] == "end_to_end"

    def test_calibrate_from_target(self, capsys):
        rc = cli.main(["calibrate", "--eps-bar", "0.1", "--delta-bar", "3e-6",
                       "--n", "400"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["internal"]["epsilon"] == pytest.approx(0.0033630, abs=1e-7)

    def test_calibrate_regime_violation_exit_3(self, capsys):
        rc = cli.main(["calibrate", "--n", "10000", "--eps", "0.5",
                       "--delta", "1e-6", "--L", "1", "--D", "1", "--d", "10"])
        assert rc == 3
        assert "1/(2*sqrt(n))" in capsys.readouterr().err

    def test_calibrate_misuse_exit_2(self, capsys):
        rc = cli.main(["calibrate", "--eps", "0.005"])
        assert rc == 2

    def test_run_bad_config_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "0", "--seed", "1",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "repeats" in capsys.readouterr().err

    def test_run_smoke_exit_0(self, tmp_path, capsys):
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "1", "--seed", "5",
                       "--eval-samples", "200", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), "--name", "smoke"])
        assert rc == 0
        assert (tmp_path / "smoke" / "cells.csv").exists()

    def test_run_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "name = fromfile\nn_values = 16\nepsilon_values = max\n"
            "repeats = 1\nseed = 5\neval_samples = 200\n"
            f"baseline_steps = 10000\noutput_dir = {tmp_path}\n")
        rc = cli.main(["run", "--config", str(cfg), "--name", "overridden"])
        assert rc == 0
        assert (tmp_path / "overridden" / "cells.csv").exists()

    def test_audit_exit_codes(self, tmp_path, capsys):
        common = ["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6",
                  "--trials", "200000", "--grid", "100", "--seed", "7",
                  "--output-dir", str(tmp_path)]
        rc = cli.main(common + ["--name", "ok"])   # calibrated sigma
        assert rc == 0
        assert (tmp_path / "ok" / "audit.csv").exists()
        rc = cli.main(common + ["--name", "bad", "--sigma", "1.29"])
        assert rc == 4

    def test_run_exit_5_when_degraded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness_mod, "private_sgd_batch", always_overruns)
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "2", "--seed", "5", "--eval-samples", "200",
                       "--baseline-steps", "10000", "--output-dir", str(tmp_path)])
        assert rc == 5

    def test_audit_outputs_are_deterministic(self, tmp_path):
        args = ["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6",
                "--trials", "200000", "--grid", "100", "--seed", "11",
                "--output-dir", str(tmp_path), "--name", "det"]
        cli.main(args)
        first = (tmp_path / "det" / "audit.csv").read_bytes()
        cli.main(args)
        assert (tmp_path / "det" / "audit.csv").read_bytes() == first

    def test_tau_sim_cli(self, tmp_path, capsys):
        rc = cli.main(["tau-sim", "--n", "16", "--trials", "1000", "--seed", "3",
                       "--output-dir", str(tmp_path), "--name", "ts"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["n"] == 16

    def test_entropy_seed_recorded(self, tmp_path, capsys):
        rc = cli.main(["tau-sim", "--n", "16", "--trials", "1000",
                       "--output-dir", str(tmp_path), "--name", "es"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "drawn from entropy" in captured.err
        assert json.loads(captured.out)["seed"] > 0

    def test_output_dir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DPMIRROR_OUTPUT_DIR", str(tmp_path))
        rc = cli.main(["tau-sim", "--n", "16", "--trials", "1000", "--seed", "1",
                       "--name", "envdir"])
        assert rc == 0
        assert (tmp_path / "envdir" / "tau.csv").exists()
