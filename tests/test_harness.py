import collections
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (CyclingStreams, fresh_rows, plain_subgradient, project_ball, quadrature_risk,
                     read_cells_csv, run_repeat_streams, stepwise_run)

import dpmirror.harness as harness_mod
import dpmirror.optimizer as optimizer_mod
import dpmirror.privacy as privacy_mod
from dpmirror import cli, sampler
from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet
from dpmirror.harness import (CELL_COLUMNS, build_spec, parse_kv_file, plan_cells,
                              run_and_write, run_tau_sim)
from dpmirror.losses import (RISK_QUADRATURE_BOUND, LossOracle, PopulationSpec, draw_dataset,
                             population_risk)
from dpmirror.optimizer import RunConfig, estimate_regret, private_sgd_batch, run_steps
from dpmirror.privacy import risk_bound
from dpmirror.sampler import simulate_tau


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

    def test_key_given_twice_names_both_lines(self, tmp_path):
        # The later line does not silently win: `run` exits 2 and runs nothing.
        path = tmp_path / "twice.cfg"
        path.write_text("n_values = 16\nrepeats = 5\n# note\nrepeats = 7\n")
        with pytest.raises(ConfigurationError,
                           match=r"twice\.cfg:4: config field repeats already given on line 2"):
            parse_kv_file(path)
        assert cli.main(["run", "--config", str(path), "--seed", "1",
                         "--output-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "experiment").exists()

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
        # Checked where the cells are planned, also under sigma_override.
        for extra in ({}, {"sigma_override": "0.5"}):
            spec = build_spec(base_overrides(tmp_path, epsilon_values="0.1,0.2", **extra))
            with pytest.raises(ConfigurationError) as err:
                plan_cells(spec)
            assert "epsilon=0.2 exceeds 1/(2*sqrt(n)) for n=16" in str(err.value)

    def test_small_n_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            build_spec(base_overrides(tmp_path, n_values="8"))

    def test_negative_seed_rejected_where_parsed(self, tmp_path):
        # np.random.SeedSequence takes only non-negative seeds; the key is
        # checked when it is parsed, not left to fail inside a run.
        with pytest.raises(ConfigurationError,
                           match="config field seed must be an int >= 0, got -1"):
            build_spec(base_overrides(tmp_path, seed="-1"))

    def test_box_set(self, tmp_path):
        spec = build_spec(base_overrides(
            tmp_path, set="box", lower="-0.5,-0.5", upper="0.5,0.5"))
        assert spec.feasible_set.kind == "box"

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_config_exit_2(self, kind, tmp_path, capsys):
        # Each once ended in a traceback and exit 1: FileNotFoundError,
        # IsADirectoryError and UnicodeDecodeError.
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x80")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--n-values", "16",
                         "--epsilon-values", "max", "--seed", "1",
                         "--output-dir", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: cannot read config file")
        assert "Traceback" not in err and not out.exists()


class TestRunCommand:
    def test_smoke_run_writes_files(self, tmp_path):
        started = time.time()
        spec = build_spec(base_overrides(tmp_path))
        result = run_and_write(spec)
        assert time.time() - started < 1.0
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.plan.config.n == 16
        assert cell.plan.epsilon == pytest.approx(1.0 / (2.0 * math.sqrt(16)))
        assert len(cell.columns()) == len(CELL_COLUMNS)
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
        assert result.cells[0].plan.config.sigma == 0.0
        assert math.isnan(result.cells[0].plan.report_epsilon)

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
        ns = np.array([c.plan.config.n for c in result.cells], dtype=float)
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

    def test_tau_sim_bad_n_writes_nothing(self, tmp_path):
        # The bad n comes last, after a good one.
        with pytest.raises(ConfigurationError):
            run_tau_sim([16, 0], 1000, seed=3, output_dir=str(tmp_path), name="tau")
        assert not (tmp_path / "tau").exists()

    def test_tau_sim_checks_every_n_first(self, tmp_path, capsys, monkeypatch):
        # n = 0 comes after a large n: refused before any n is simulated.
        calls = []
        monkeypatch.setattr(harness_mod, "simulate_tau", lambda *args: calls.append(args))
        rc = cli.main(["tau-sim", "--n", "4096,0", "--trials", "100000", "--seed", "1",
                       "--output-dir", str(tmp_path), "--name", "tau"])
        assert rc == 2
        assert "tau-sim: n must be an int in [1, 9007199254740992], got 0" \
            in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "tau").exists()

    def test_tau_sim_repeated_n_runs_nothing(self, tmp_path, capsys, monkeypatch):
        # A repeated n would simulate the same trials twice and write each
        # tau.csv row and summary twice: refused with the other n checks.
        calls = []
        monkeypatch.setattr(harness_mod, "simulate_tau", lambda *args: calls.append(args))
        rc = cli.main(["tau-sim", "--n", "64,16,32,16", "--trials", "1000", "--seed", "1",
                       "--output-dir", str(tmp_path), "--name", "tau"])
        assert rc == 2
        assert "tau-sim: n = 16 is given more than once" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "tau").exists()

    def test_tau_sim_trial_floor(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_tau_sim([16], 10, seed=3, output_dir=str(tmp_path))

    def test_traced_call_sites(self, tmp_path, monkeypatch):
        # The benchmark's tracer times the reference minimizer by wrapping
        # harness.baseline_minimizer and the datasets by wrapping
        # harness.draw_dataset; both names must stay the call sites. Each
        # run's risk is exact, so a run draws one dataset per repeat and no
        # evaluation data: optimizer.draw_arrays and estimate_risk are never
        # called.
        calls = {"baseline": 0, "datasets": []}
        baseline, dataset = harness_mod.baseline_minimizer, harness_mod.draw_dataset

        def counting_baseline(*args, **kwargs):
            calls["baseline"] += 1
            return baseline(*args, **kwargs)

        def counting_dataset(spec, n, rng):
            calls["datasets"].append(n)
            return dataset(spec, n, rng)

        def not_called(*args, **kwargs):
            raise AssertionError("a run drew evaluation data")

        monkeypatch.setattr(harness_mod, "baseline_minimizer", counting_baseline)
        monkeypatch.setattr(harness_mod, "draw_dataset", counting_dataset)
        monkeypatch.setattr(optimizer_mod, "draw_arrays", not_called)
        monkeypatch.setattr(optimizer_mod, "estimate_risk", not_called)
        monkeypatch.setattr(harness_mod, "estimate_risk", not_called)
        harness_mod.run_experiment(build_spec(base_overrides(
            tmp_path, repeats="3", n_values="16,32")))
        assert calls["baseline"] == 1
        assert calls["datasets"] == [16] * 3 + [32] * 3

    @pytest.mark.parametrize("extra", [
        {"loss": "hinge"},
        {"loss": "squared", "generator": "uniform_ball", "set": "box",
         "lower": "-0.5,-0.4", "upper": "0.5,0.3"},
    ], ids=["hinge-ball", "squared-box"])
    def test_excess_is_exact_risk_of_outputs(self, extra, tmp_path, monkeypatch):
        # Each cell's mean_excess_risk, recomputed from the run's RunBatch
        # outputs by scipy's adaptive quadrature (an oracle that shares no
        # code with population_risk), agrees within the stated quadrature
        # bound RISK_QUADRATURE_BOUND * (1 + B*|w|)^2 of the farthest output.
        # stderr is the standard error of the runs' exact excesses plus
        # baseline_error plus that bound.
        pytest.importorskip("scipy")
        batches = []

        def keep_batch(*args):
            batches.append(run_steps(*args))
            return batches[-1]

        monkeypatch.setattr(harness_mod, "run_steps", keep_batch)
        spec = build_spec(base_overrides(tmp_path, dimension="2", n_values="16,64",
                                         repeats="3", **extra))
        result = harness_mod.run_experiment(spec)
        for cell, batch in zip(result.cells, batches, strict=True):
            excesses = np.array([quadrature_risk(spec.population, extra["loss"], w)[0]
                                 for w in batch.output]) - result.baseline_risk
            scale = 1.0 + spec.population.feature_bound * np.linalg.norm(
                batch.output, axis=1).max()
            bound = RISK_QUADRATURE_BOUND * scale ** 2
            assert abs(cell.mean_excess_risk - excesses.mean()) <= bound
            exact = np.array([population_risk(spec.population, spec.oracle, w)[0]
                              for w in batch.output]) - result.baseline_risk
            assert cell.stderr == pytest.approx(
                exact.std(ddof=1) / math.sqrt(3) + result.baseline_error + bound,
                rel=1e-12)

    def test_summary_is_strict_json(self, tmp_path):
        # The report columns under sigma_override are NaN in cells.csv;
        # summary.json writes them as null, which a parser that refuses NaN
        # and Infinity accepts.
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        spec = build_spec(base_overrides(tmp_path, sigma_override="0.2"))
        run_and_write(spec)
        cell = json.loads((tmp_path / "t" / "summary.json").read_text(),
                          parse_constant=refuse)["cells"][0]
        assert cell["report_epsilon"] is None and cell["report_delta_total"] is None
        assert cell["mean_excess_risk"] is not None
        assert ",nan,nan," in (tmp_path / "t" / "cells.csv").read_text()


class TestReplayRun:
    """`run` replayed from what it prints. Each repeat is rebuilt from the
    documented entropy with numpy's own seeding, run one step at a time by
    oracles.stepwise_run at the sigma and eta that cells.csv prints, and
    scored by scipy's quadrature. So a run whose engine used another sigma
    or eta than the printed one fails here, not only in a digest."""

    def test_cells_replay_from_printed_sigma_and_eta(self, tmp_path, capsys):
        pytest.importorskip("scipy")
        seed, repeats, radius = 4, 3, 0.5
        assert cli.main(["run", "--n-values", "32,64", "--epsilon-values", "max,0.05",
                         "--dimension", "2", "--repeats", str(repeats), "--seed", str(seed),
                         "--baseline-steps", "10000", "--output-dir", str(tmp_path),
                         "--name", "replay"]) == 0
        # The run's defaults: hinge loss, features in the unit disk labelled
        # by the first axis with 10% flips, the ball of radius 0.5 at 0.
        population = PopulationSpec("linear_margin", 2, 1.0, w_true=np.array([1.0, 0.0]),
                                    noise_rate=0.1)
        baseline_risk, cells = read_cells_csv(tmp_path / "replay" / "cells.csv")
        assert len(cells) == 4
        for index, cell in enumerate(cells):
            n_idx, e_idx = divmod(index, 2)
            n, sigma, eta = int(cell["n"]), float(cell["sigma"]), float(cell["eta"])
            assert n == (32, 64)[n_idx] and sigma > 0 and cell["overrun_runs"] == "0"
            taus, outputs = [], []
            for r in range(repeats):
                data, run_seed = run_repeat_streams(seed, n_idx, e_idx, r)
                features, labels = draw_dataset(population, n, data)
                tau, _, _, _, output = stepwise_run(
                    n, eta, sigma, np.zeros(2), run_seed, features, labels,
                    lambda x: project_ball(radius, x),
                    lambda w, x, y: plain_subgradient("hinge", w, x, y))
                taus.append(tau)
                outputs.append(output)
            assert float(cell["mean_tau"]) == float(np.mean(taus))
            risks = [quadrature_risk(population, "hinge", w)[0] for w in outputs]
            scale = 1.0 + population.feature_bound * max(np.linalg.norm(outputs, axis=1))
            assert abs(float(cell["mean_excess_risk"]) - (np.mean(risks) - baseline_risk)) \
                <= RISK_QUADRATURE_BOUND * scale ** 2


class TestFreshRows:
    """A `run` cell holds only the rows its runs read: each repeat's dataset
    is drawn and checked whole, and its fresh rows are kept in step order."""

    BOX10 = {"loss": "squared", "generator": "uniform_ball", "dimension": "10",
             "set": "box", "lower": ",".join(["-0.5"] * 10),
             "upper": ",".join(["0.5"] * 10)}

    @pytest.mark.parametrize("extra, seed", [
        ({"dimension": "2"}, 4),
        (BOX10, 7),
    ], ids=["hinge-ball-d2", "squared-box-d10"])
    def test_equals_engine_on_full_datasets(self, extra, seed, tmp_path, monkeypatch):
        # The harness's batch and regrets equal private_sgd_batch's on the
        # full datasets, rebuilt by numpy's own seeding, byte for byte.
        batches, regrets = [], []

        def keep_batch(*args):
            batches.append(run_steps(*args))
            return batches[-1]

        def keep_regrets(*args):
            regrets.append((args[2], estimate_regret(*args)))
            return regrets[-1][1]

        monkeypatch.setattr(harness_mod, "run_steps", keep_batch)
        monkeypatch.setattr(harness_mod, "estimate_regret", keep_regrets)
        spec = build_spec(base_overrides(tmp_path, repeats="4", seed=str(seed), **extra))
        harness_mod.run_experiment(spec)
        (batch,), ((comparator, got_regrets),) = batches, regrets
        streams = [run_repeat_streams(seed, 0, 0, r) for r in range(4)]
        datasets = [draw_dataset(spec.population, 16, data) for data, _ in streams]
        features = np.stack([f for f, _ in datasets])
        labels = np.stack([y for _, y in datasets])
        config = plan_cells(spec)[0, 0].config
        full = private_sgd_batch(config, [run_seed for _, run_seed in streams],
                                 features, labels)
        for field in ("tau", "output", "fresh_indices", "fresh_margins"):
            got, want = getattr(batch, field), getattr(full, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), field
        want_regrets = estimate_regret(full, fresh_rows(full, features, labels),
                                       comparator, config)
        assert got_regrets.tobytes() == want_regrets.tobytes()

    @pytest.mark.parametrize("fault, message", [
        ("over-bound-row", "certified L"),
        ("non-finite-label", "must be finite"),
    ])
    def test_unread_bad_row_refused(self, fault, message, tmp_path, capsys, monkeypatch):
        # The bad row sits in the second repeat's dataset at an index that
        # repeat never reads, found from the documented index stream: child
        # 0 of SeedSequence(run seed).spawn(2), read until n//2 + 1 distinct
        # indices. The run still exits 2 before any private step.
        n, seed = 64, 1
        _, run_seed = run_repeat_streams(seed, 0, 0, 1)
        index_rng = np.random.default_rng(np.random.SeedSequence(run_seed).spawn(2)[0])
        read = set()
        while len(read) < n // 2 + 1:
            read.add(int(index_rng.integers(0, n)))
        unread = min(set(range(n)) - read)
        drawn, subgradients = [], []
        real_draw, real_subgradient = harness_mod.draw_dataset, LossOracle.subgradient

        def bad_dataset(population, size, rng):
            features, labels = real_draw(population, size, rng)
            if drawn:
                if fault == "over-bound-row":
                    features[unread] = [2.0, 0.0]
                else:
                    labels[unread] = math.nan
            drawn.append(size)
            return features, labels

        def counted_subgradient(*args):
            subgradients.append(1)
            return real_subgradient(*args)

        monkeypatch.setattr(harness_mod, "draw_dataset", bad_dataset)
        monkeypatch.setattr(LossOracle, "subgradient", counted_subgradient)
        rc = cli.main(["run", "--n-values", str(n), "--epsilon-values", "max",
                       "--repeats", "2", "--seed", str(seed), "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert drawn == [n, n] and subgradients == []
        assert not (tmp_path / "experiment").exists()

    def test_cell_peak_holds_no_full_dataset(self, tmp_path):
        # One `run` cell: hinge, d = 2, the 0.5-ball, R = 20. Per R*n it holds
        # its fresh rows (12 B), the fresh margins (4 B), the fresh indices
        # (4 B) and the fresh mask (about 0.7 B), and estimate_regret adds one
        # block of rows' two score arrays (2.4 B here): a traced peak of
        # 23.2 B. Holding the fresh iterates (8 B) instead of the margins
        # made it 27.2 B, and scoring all rows at once added two (R, m)
        # arrays (8 B) more; holding the full datasets adds 24 B. A small
        # run first loads what a first run caches.
        n, rows = 20_000, 20

        def cell(size):
            return build_spec(base_overrides(tmp_path, n_values=str(size),
                                             repeats=str(rows), dimension="2"))

        harness_mod.run_experiment(cell(16))
        tracemalloc.start()
        try:
            harness_mod.run_experiment(cell(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * rows * n


class TestSeedingPerCall:
    """Every stream is a row of SeedSequence words in sampler, and a stream
    is started as one PCG64 seeded from its row's SeedWords: no SeedSequence
    or default_rng is built, and no PCG64 is seeded from an int or from
    entropy. An index stream is read as the bare PCG64's raw words; only a
    noise or data stream is wrapped in a Generator."""

    @staticmethod
    def constructions(monkeypatch, call):
        counts = collections.Counter()
        with monkeypatch.context() as patch:
            for name in ("SeedSequence", "default_rng", "PCG64", "Generator"):
                def counting(*args, _name=name, _build=getattr(np.random, name), **kwargs):
                    counts[_name] += 1
                    if _name == "PCG64":
                        assert not kwargs and [type(a) for a in args] == [sampler._seed_words()]
                    return _build(*args, **kwargs)
                patch.setattr(np.random, name, counting)
            call()
        return counts

    # At n = 16 no first-block draw is rejected (16 divides 2**32), and at
    # these seeds no run's tau falls past its first block, so no stream is
    # started a second time.
    def test_engine_call(self, monkeypatch):
        # One PCG64 per index stream, and one Generator of a PCG64 per noise stream.
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        config = RunConfig(n=16, eta=0.1, sigma=0.5, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(2))
        rng = np.random.default_rng(3)
        features = rng.uniform(-0.5, 0.5, size=(200, 16, 2))
        labels = rng.choice([-1.0, 1.0], size=(200, 16))
        for rows in (1, 200):
            counts = self.constructions(monkeypatch, lambda: private_sgd_batch(
                config, list(range(rows)), features[:rows], labels[:rows]))
            assert counts == collections.Counter(PCG64=2 * rows, Generator=rows)

    def test_run_cell(self, monkeypatch, tmp_path):
        # One more of each per repeat's data stream.
        for repeats in (1, 200):
            spec = build_spec(base_overrides(tmp_path, repeats=str(repeats)))
            counts = self.constructions(monkeypatch, lambda: harness_mod.run_experiment(spec))
            assert counts == collections.Counter(PCG64=3 * repeats, Generator=2 * repeats)


class TestCli:
    def test_import_leaves_numpy_random_unimported(self):
        # numpy.random costs about 10 ms to import; it is imported when a
        # command first starts a stream, so import dpmirror and its CLI
        # module leave it out.
        code = ("import sys\n"
                "import dpmirror, dpmirror.cli\n"
                "print('numpy.random' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"

    def test_run_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs a run about 17 ms and 1 MB to import, and np.unique
        # imports it on its first call; a run must not. A fresh interpreter
        # runs a tiny grid with src on the import path.
        code = ("import sys\n"
                "from dpmirror import cli\n"
                "assert cli.main(['run', '--n-values', '16', '--epsilon-values', 'max',"
                " '--repeats', '2', '--seed', '1', '--baseline-steps', '10000',"
                f" '--output-dir', {str(tmp_path)!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"

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

    @pytest.mark.parametrize("flags, ending", [
        (["--n", "400", "--eps", "0.005", "--eps-bar", "0.1", "--delta", "1e-6"], ", not both"),
        (["--n", "400", "--L", "1", "--D", "1", "--d", "2"], ""),
    ], ids=["both-modes", "neither-mode"])
    def test_calibrate_needs_exactly_one_mode_exit_2(self, capsys, flags, ending):
        rc = cli.main(["calibrate", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("provide either --eps (with --delta/--delta-prime) or "
                                     f"--eps-bar/--delta-bar{ending}\n") and captured.out == ""

    def test_calibrate_from_target_without_n_exit_2(self, capsys):
        rc = cli.main(["calibrate", "--eps-bar", "0.1", "--delta-bar", "3e-6"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--eps-bar, --delta-bar and --n are all required" in captured.err
        assert captured.out == ""

    def test_calibrate_direct_without_delta_exit_2(self, capsys):
        rc = cli.main(["calibrate", "--n", "10000", "--eps", "0.005",
                       "--L", "1", "--D", "1", "--d", "10"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--n and --delta are required with --eps" in captured.err and captured.out == ""

    def test_calibrate_nan_exit_2(self, capsys):
        rc = cli.main(["calibrate", "--n", "10000", "--eps", "nan",
                       "--delta", "1e-6", "--L", "1", "--D", "1", "--d", "10"])
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    def test_calibrate_nan_delta_bar_exit_2(self, capsys):
        # A configuration error, not a regime violation: NaN is no delta.
        rc = cli.main(["calibrate", "--eps-bar", "0.1", "--delta-bar", "nan",
                       "--n", "400"])
        assert rc == 2
        assert "delta_bar must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--delta", "0.5", "--delta-prime", "0.3"],
         "--delta, --delta-prime not read with --eps-bar/--delta-bar"),
        (["--delta-prime", "0.3"], "--delta-prime not read with --eps-bar/--delta-bar"),
        (["--L", "1"], "missing --D, --d: --L, --D and --d go together"),
        (["--L", "1", "--d", "2"], "missing --D: --L, --D and --d go together"),
    ], ids=["delta-and-delta-prime", "delta-prime", "L-alone", "L-and-d"])
    def test_calibrate_unread_flag_exit_2(self, capsys, extra, message):
        # A flag the target mode does not read, or part of the --L/--D/--d
        # triple, is named and refused rather than silently dropped.
        rc = cli.main(["calibrate", "--eps-bar", "0.3", "--delta-bar", "1e-6",
                       "--n", "1600", *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_run_subnormal_delta_prime_exit_2(self, tmp_path, capsys):
        # 1/delta' overflows, so the reported epsilon would be inf: refused,
        # as below 2^-200, before any file is written.
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "2", "--seed", "1", "--baseline-steps", "10000",
                       "--delta-prime", "1e-320", "--output-dir", str(tmp_path),
                       "--name", "tiny"])
        assert rc == 2
        assert "delta_prime must have magnitude in [2^-200, 2^200], got 1e-320" \
            in capsys.readouterr().err
        assert not (tmp_path / "tiny" / "summary.json").exists()

    @pytest.mark.parametrize("eps, delta, message", [
        ("1e-320", "1e-6", "epsilon must have magnitude in [2^-200, 2^200], got 1e-320"),
        ("0.001", "1e-320", "delta must have magnitude in [2^-200, 2^200], got 1e-320"),
    ], ids=["eps", "delta"])
    def test_calibrate_subnormal_exit_2(self, capsys, eps, delta, message):
        # Printing "sigma": Infinity and "eta": 0.0 would be neither a
        # guarantee nor strict JSON.
        rc = cli.main(["calibrate", "--n", "1600", "--eps", eps, "--delta", delta,
                       "--L", "1", "--D", "1", "--d", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_audit_subnormal_delta_names_delta(self, tmp_path, capsys):
        rc = cli.main(["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-320",
                       "--trials", "1000000", "--seed", "1", "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "delta must have magnitude in [2^-200, 2^200], got 1e-320" in err
        assert "sigma" not in err

    def test_calibrate_direct_names_missing_flags(self, capsys):
        rc = cli.main(["calibrate", "--n", "10000", "--eps", "0.005", "--delta", "1e-6",
                       "--D", "1"])
        assert rc == 2
        assert "missing --L, --d: --L, --D and --d go together, and are required with --eps" \
            in capsys.readouterr().err

    def test_calibrate_from_target_with_plan(self, capsys):
        rc = cli.main(["calibrate", "--eps-bar", "0.1", "--delta-bar", "3e-6", "--n", "400",
                       "--L", "1", "--D", "1", "--d", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["internal"]["epsilon"] == pytest.approx(0.0033630, abs=1e-7)
        assert payload["report"]["stage"] == "end_to_end" and payload["sigma"] > 0

    def test_calibrate_delta_total_of_one_or_more_exit_2(self, capsys):
        # Once printed delta_total 2.536 with exit 0: a guarantee that rules
        # nothing out.
        rc = cli.main(["calibrate", "--n", "16", "--eps", "0.125", "--delta", "0.9",
                       "--delta-prime", "0.9", "--L", "1", "--D", "1", "--d", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "give delta_total=2.5357" in captured.err and captured.out == ""

    # Each command's seed is checked before any work or file, with the bound
    # named: by run's seed key, by run_tau_sim (as simulate_tau names it) and
    # by audit_single_step.
    @pytest.mark.parametrize("argv, message", [
        (["run", "--n-values", "16", "--epsilon-values", "max", "--repeats", "1",
          "--baseline-steps", "10000"], "config field seed must be an int >= 0, got -1"),
        (["tau-sim", "--n", "16", "--trials", "1000"],
         "simulate_tau: seed must be an int >= 0, got -1"),
        (["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6", "--trials", "1000"],
         "audit_single_step: seed must be an int >= 0, got -1"),
    ], ids=["run", "tau-sim", "audit"])
    def test_negative_seed_exit_2(self, argv, message, tmp_path, capsys):
        rc = cli.main([*argv, "--seed", "-1", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_config_seed_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_values = 16\nepsilon_values = max\nrepeats = 1\n"
                       f"seed = -1\noutput_dir = {tmp_path}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "config field seed must be an int >= 0, got -1" in capsys.readouterr().err

    # Each command's output name is checked where it enters, before any work:
    # tau-sim once wrote to an absolute --name, and audit and run beside the
    # output dir under ../x.
    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "/abs"],
                             ids=["empty", "dot", "dotdot", "parent", "nested", "absolute"])
    @pytest.mark.parametrize("argv, where, label", [
        (["run", "--n-values", "16", "--epsilon-values", "max", "--repeats", "1",
          "--seed", "1"], (harness_mod, "baseline_minimizer"), "config field name"),
        (["tau-sim", "--n", "16", "--trials", "1000", "--seed", "1"],
         (harness_mod, "simulate_tau"), "tau-sim: name"),
        (["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6", "--trials", "1000",
          "--seed", "1"], (cli, "audit_single_step"), "--name"),
    ], ids=["run", "tau-sim", "audit"])
    def test_name_outside_output_dir_exit_2(self, argv, where, label, name, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(*where, None)
        if name == "/abs":
            name = str(tmp_path / "abs")
        out = tmp_path / "out"
        rc = cli.main([*argv, "--output-dir", str(out), "--name", name])
        assert rc == cli.EXIT_CONFIG
        assert (f"{label} must name one directory inside the output directory, got {name!r}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config-line"])
    def test_non_integer_seed_exit_2(self, from_file, tmp_path, capsys):
        # run's --seed is text, parsed by its key as a config file's line is.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_values = 16\nepsilon_values = max\noutput_dir = {tmp_path}\n"
                       + ("seed = abc\n" if from_file else ""))
        argv = ["run", "--config", str(cfg)] + ([] if from_file else ["--seed", "abc"])
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "bad value for config field seed: invalid literal for int()" in err
        assert "'abc'" in err and "drawn from entropy" not in err
        assert not (tmp_path / "experiment").exists()

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--n", str(10**400), "--eps", "1e-300", "--delta", "1e-6",
          "--L", "1", "--D", "1", "--d", "2"], "end_to_end: n must be an int in [16, "),
        (["run", "--n-values", str(2**70)], "config field n_values must be an int in [16, "),
        (["run", "--n-values", "16", "--dimension", str(2**70)],
         "config field dimension must be an int in [1, "),
        (["run", "--n-values", "16", "--loss", "squared", "--generator", "uniform_ball",
          "--set", "box", "--dimension", "2", "--lower=-1e308,-1e308", "--upper=1e308,1e308"],
         "box: lower/upper entries must be 0 or have magnitude in [2^-200, 2^200]"),
    ], ids=["calibrate-n-10**400", "run-n-2**70", "run-dimension-2**70", "run-box-1e308"])
    def test_count_or_set_past_float_range_exit_2(self, argv, message, tmp_path, capsys,
                                                  monkeypatch):
        # Each once ended in OverflowError, numpy's ValueError after the
        # reference minimizer had run, or a RuntimeWarning and a refusal
        # that blamed L. Now each exits 2 before any work, naming the count
        # or the set.
        monkeypatch.setattr(harness_mod, "baseline_minimizer", None)
        if argv[0] == "run":
            argv = [*argv, "--epsilon-values", "max", "--seed", "1",
                    "--output-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    # The feature bounds and w_true past float range once ended in a
    # ZeroDivisionError, an OverflowError or a RuntimeWarning inside the
    # reference minimizer or population_risk; tests/test_fuzz.py found them.
    @pytest.mark.parametrize("flags, message", [
        (["--dimension", "0"], "config field dimension must be an int in [1, "),
        (["--w-true", "nan,0"], "w_true must be finite"),
        (["--feature-bound", "inf"], "feature_bound must be finite and positive"),
        (["--feature-bound", "1e-310"], "feature_bound must have magnitude in [2^-200, 2^200]"),
        (["--feature-bound", "1e-160"], "feature_bound must have magnitude in [2^-200, 2^200]"),
        (["--feature-bound", "1e200"], "feature_bound must have magnitude in [2^-200, 2^200]"),
        (["--w-true", "5e-324,0"], "w_true entries must be 0 or have magnitude in"),
        (["--w-true", "1e308,0"], "w_true entries must be 0 or have magnitude in"),
    ], ids=["dimension-0", "w-true-nan", "feature-bound-inf", "feature-bound-1e-310",
            "feature-bound-1e-160", "feature-bound-1e200", "w-true-subnormal", "w-true-1e308"])
    def test_run_bad_population_exit_2(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(harness_mod, "baseline_minimizer", None)
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "1", "--seed", "1", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--w-true", "1,,0"], "w_true"),
        (["--set", "box", "--lower=-0.5,,-0.5", "--upper=0.5,0.5,"], "lower"),
        (["--set", "box", "--lower=-0.5,-0.5", "--upper=0.5,0.5,"], "upper"),
    ], ids=["w-true-inner", "lower-inner", "upper-trailing"])
    def test_run_empty_list_field_exit_2(self, tmp_path, capsys, flags, key):
        # An empty field of a float list is an error, as in n_values and
        # epsilon_values, not a dropped coordinate.
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "1", "--seed", "1", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), *flags])
        assert rc == 2
        assert f"bad value for config field {key}: could not convert string to float: ''" \
            in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    def test_run_curvature_without_finite_step_exit_2(self, tmp_path, capsys):
        # B = 1.52e-154 has a normal square, but the hinge's curvature
        # B^2/6 = 3.85e-309 made the reference minimizer's step inf: a
        # RuntimeWarning, then a refusal that blamed a non-finite point. Such
        # a B is below 2^-200 (errors.py, "curvature").
        rc = cli.main(["run", "--loss", "hinge", "--generator", "uniform_ball",
                       "--dimension", "1", "--feature-bound", "1.52e-154",
                       "--n-values", "16", "--epsilon-values", "max", "--repeats", "1",
                       "--seed", "1", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "feature_bound must have magnitude in [2^-200, 2^200], got 1.52e-154" in err
        assert not (tmp_path / "experiment").exists()

    def test_audit_nan_sigma_exit_2(self, tmp_path, capsys):
        rc = cli.main(["audit", "--sigma", "nan", "--L", "1", "--eps-tilde", "0.5",
                       "--delta", "1e-6", "--seed", "1", "--output-dir", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "sigma" in captured.err and captured.out == ""

    def test_run_override_table(self, tmp_path, capsys, monkeypatch):
        # Every run key reaches build_spec unchanged, both from its --flag
        # and from a config file line. The seed is resolved to an integer
        # first, so it is left out here.
        seen = []

        def capture(overrides):
            seen.append(dict(overrides))
            raise ConfigurationError("captured")

        monkeypatch.setattr(cli, "build_spec", capture)
        for key in [k for k in harness_mod.RUN_KEYS if k != "seed"]:
            value = f"v-{key}"
            assert cli.main(["run", "--seed", "1",
                             "--" + key.replace("_", "-"), value]) == 2
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            assert cli.main(["run", "--seed", "1", "--config", str(cfg)]) == 2
            from_flag, from_file = seen[-2:]
            assert from_flag == from_file == {key: value, "seed": "1"}

    def test_run_unknown_config_key_exit_2(self, tmp_path, capsys):
        # A mistyped key is an error, not a silently ignored line.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_values = 16\nepsilon_values = max\nrepeat = 3\n"
                       f"seed = 1\nbaseline_steps = 10000\noutput_dir = {tmp_path}\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "unknown config field(s): repeat" in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("entries, message", [
        ([("set", "box"), ("lower", "-1,-1"), ("upper", "1,1"), ("radius", "0.3")],
         "radius is not read with set = box"),
        ([("lower", "-1,-1")], "lower is not read with set = l2_ball"),
        ([("upper", "1,1")], "upper is not read with set = l2_ball"),
        ([("generator", "uniform_ball"), ("noise_rate", "0.2")],
         "noise_rate is not read with generator = uniform_ball"),
        ([("generator", "uniform_ball"), ("w_true", "1,0")],
         "w_true is not read with generator = uniform_ball"),
    ], ids=["radius-box", "lower-ball", "upper-ball", "noise-rate-uniform",
            "w-true-uniform"])
    def test_run_key_the_run_never_reads_exit_2(self, tmp_path, capsys, source,
                                                entries, message):
        # A key that the chosen set or generator ignores is an error, not a
        # silently dropped line, whether it comes as a flag or from a file.
        common = [("n_values", "16"), ("epsilon_values", "max"), ("repeats", "1"),
                  ("seed", "1"), ("baseline_steps", "10000"), ("dimension", "2"),
                  ("output_dir", str(tmp_path))]
        if source == "flag":
            argv = ["run"] + [f"--{k.replace('_', '-')}={v}" for k, v in common + entries]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in common + entries))
            argv = ["run", "--config", str(cfg)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    def test_run_bad_config_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "0", "--seed", "1",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--radius", "nan"], "radius must be finite"),
        (["--radius", "inf"], "radius must be finite"),
        (["--set", "box", "--dimension", "2", "--lower", "nan,-1", "--upper", "1,1"],
         "lower/upper must be finite"),
        (["--set", "box", "--dimension", "2", "--lower=-1,-1,-1", "--upper=1,1,1"],
         "lower/upper must have shape (2,)"),
    ], ids=["radius-nan", "radius-inf", "box-lower-nan", "box-wrong-dimension"])
    def test_run_non_finite_set_exit_2(self, tmp_path, capsys, flags, message):
        # Rejected where the set is built, before any projection or accounting.
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "1", "--seed", "1", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--sigma-override", "0.5", "--delta", "5"],
         "config field delta must lie in (0, 1), got 5.0"),
        (["--delta-prime", "0"], "config field delta_prime must lie in (0, 1), got 0.0"),
        (["--sigma-override", "0.5", "--epsilon-values", "-0.01"],
         "config field epsilon_values must be finite and positive, got -0.01"),
        (["--epsilon-values", "max,nan"],
         "config field epsilon_values must be finite and positive, got nan"),
        (["--eval-samples", "0"],
         "config field eval_samples must be an int in [1, 9007199254740992], got 0"),
        (["--baseline-steps", "5000"],
         "config field baseline_steps must be an int in [10000, 9007199254740992], got 5000"),
        (["--sigma-override", "-1"],
         "config field sigma_override must be finite and >= 0, got -1.0"),
        # These three were once accepted: 2**32 + 1 repeats ran the reference
        # minimizer and then failed in numpy (repeat 2**32 + r would share
        # repeat r's seed word), 2**70 eval samples exited 0, and a subnormal
        # delta passed wherever sigma_override kept the accountant out.
        (["--repeats", str(2**32 + 1)],
         "config field repeats must be an int in [1, 4294967296], got 4294967297"),
        (["--eval-samples", str(2**70)],
         "config field eval_samples must be an int in [1, 9007199254740992], got "
         "1180591620717411303424"),
        (["--sigma-override", "0.5", "--delta", "1e-310"],
         "config field delta must have magnitude in [2^-200, 2^200], got 1e-310"),
    ], ids=["delta-5", "delta-prime-0", "epsilon-negative", "epsilon-nan",
            "eval-samples-0", "baseline-steps-5000", "sigma-override-negative",
            "repeats-2**32+1", "eval-samples-2**70", "delta-subnormal-under-override"])
    def test_run_key_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, flags,
                                         message):
        # Rejected where the key is parsed, named in the message, before the
        # reference minimizer runs or any file is written.
        def not_reached(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(harness_mod, "baseline_minimizer", not_reached)
        rc = cli.main(["run", "--n-values", "16", "--epsilon-values", "max",
                       "--repeats", "1", "--seed", "1", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "experiment").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--epsilon-values", "max,1e-320"],
         "config field epsilon_values must have magnitude in [2^-200, 2^200], got 1e-320"),
        (["--epsilon-values", "1e-320"],
         "config field epsilon_values must have magnitude in [2^-200, 2^200], got 1e-320"),
        (["--epsilon-values", "max", "--sigma-override", "1e308", "--dimension", "10"],
         "config field sigma_override must have magnitude in [2^-200, 2^200], got 1e+308"),
        # sigma_override is in range, but the eta derived from it, about
        # 2^-207, is not: the RunConfig that takes it refuses it by name.
        (["--epsilon-values", "max", "--sigma-override", str(2.0**200), "--dimension", "10"],
         "RunConfig: eta must have magnitude in [2^-200, 2^200], got "),
        # Once written to cells.csv as report_delta_total 1.736, with exit 0.
        (["--n-values", "16", "--epsilon-values", "max", "--delta", "0.5",
          "--delta-prime", "0.5"],
         "give delta_total=1.7357"),
    ], ids=["max-then-subnormal", "subnormal", "sigma-override-eta-0",
            "sigma-override-eta-out-of-range", "delta-total-above-1"])
    def test_run_refused_cell_exits_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    flags, message):
        # Every cell is planned, and its RunConfig validated, before the
        # reference minimizer or any cell runs: a cell the accountant or its
        # RunConfig refuses (an epsilon, a sigma or an eta out of range)
        # stops the command with no work done, even when it comes after a
        # good cell.
        calls = collections.Counter()

        def counted(name):
            work = getattr(harness_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return work(*args, **kwargs)
            return wrapper

        for name in ("baseline_minimizer", "draw_fresh_steps", "draw_dataset", "run_steps"):
            monkeypatch.setattr(harness_mod, name, counted(name))
        rc = cli.main(["run", "--n-values", "1600", "--repeats", "200", "--seed", "1",
                       "--output-dir", str(tmp_path), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == {}
        assert not (tmp_path / "experiment").exists()

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

    def test_audit_outputs_are_deterministic(self, tmp_path):
        args = ["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6",
                "--trials", "200000", "--grid", "100", "--seed", "11",
                "--output-dir", str(tmp_path), "--name", "det"]
        cli.main(args)
        first = (tmp_path / "det" / "audit.csv").read_bytes()
        cli.main(args)
        assert (tmp_path / "det" / "audit.csv").read_bytes() == first

    def test_audit_summary_is_strict_json(self, tmp_path, capsys, monkeypatch):
        # Two thirds of the draws at -3.5 put S's outputs in the lumped lower
        # tail and S''s one cell above its upper edge, -3, so the tail is the
        # worst cell by construction (violation 2/3 - delta; the next worst,
        # S''s cell of the other third, has 1/3 - delta). Its lower edge is
        # -inf; audit_summary.json writes it as null, which a parser that
        # refuses NaN and Infinity accepts, and so does stdout.
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(privacy_mod, "seeded_streams",
                            CyclingStreams([-3.5, -3.5, -2.5]))
        rc = cli.main(["audit", "--sigma", "1", "--L", "1", "--eps-tilde", "0.5",
                       "--delta", "1e-6", "--trials", "100000", "--grid", "50", "--seed", "2",
                       "--output-dir", str(tmp_path), "--name", "tail"])
        assert rc == 4
        summary = json.loads((tmp_path / "tail" / "audit_summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["worst_lo"] is None and summary["worst_hi"] == -3.0
        assert json.loads(capsys.readouterr().out, parse_constant=refuse) == summary
        # The summary names what was audited.
        assert {key: summary[key] for key in (
            "sigma", "sensitivity", "eps_tilde", "delta", "trials", "grid_cells", "seed")} == {
            "sigma": 1.0, "sensitivity": 1.0, "eps_tilde": 0.5, "delta": 1e-6,
            "trials": 100_000, "grid_cells": 50, "seed": 2}

    def test_tau_sim_cli(self, tmp_path, capsys):
        rc = cli.main(["tau-sim", "--n", "16", "--trials", "1000", "--seed", "3",
                       "--output-dir", str(tmp_path), "--name", "ts"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["n"] == 16

    def test_tau_sim_bad_n_exit_2(self, tmp_path, capsys):
        rc = cli.main(["tau-sim", "--n", "16,abc", "--trials", "1000", "--seed", "1",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "'16,abc'" in capsys.readouterr().err

    def test_tau_sim_trials_past_indexed_streams_exit_2(self, tmp_path, capsys):
        # A trial's index enters its seed entropy as one uint32 word, so
        # more than 2**32 trials are refused by tau-sim's own range before
        # its directory is made; simulate_tau's check once refused them
        # after it, in simulate_tau's words.
        rc = cli.main(["tau-sim", "--n", "16", "--trials", "5000000000", "--seed", "1",
                       "--output-dir", str(tmp_path), "--name", "tau"])
        assert rc == 2
        assert "tau-sim: trials must be an int in [1000, 4294967296], got 5000000000" \
            in capsys.readouterr().err
        assert not (tmp_path / "tau").exists()

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

    # Each command's flags but --output-dir, and the file it writes.
    OUTPUT_DIR_CASES = {
        "run": (["run", "--n-values", "16", "--epsilon-values", "max", "--repeats", "2",
                 "--seed", "1", "--baseline-steps", "10000"], "cells.csv"),
        "tau-sim": (["tau-sim", "--n", "16", "--trials", "1000", "--seed", "1"], "tau.csv"),
        "audit": (["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6",
                   "--trials", "200000", "--grid", "100", "--seed", "7"], "audit.csv"),
    }

    def run_without_output_dir(self, command, given, capsys):
        flags, written = self.OUTPUT_DIR_CASES[command]
        rc = cli.main([*flags, "--name", "x", *given])
        assert rc == 0
        return written, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("given", [[], ["--output-dir", ""]], ids=["absent", "empty"])
    @pytest.mark.parametrize("command", list(OUTPUT_DIR_CASES))
    def test_output_dir_from_env(self, tmp_path, capsys, monkeypatch, command, given):
        # One rule for every command: an absent or empty --output-dir means
        # $DPMIRROR_OUTPUT_DIR, or runs if that is unset.
        monkeypatch.setenv("DPMIRROR_OUTPUT_DIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        written, printed = self.run_without_output_dir(command, given, capsys)
        assert (tmp_path / "env" / "x" / written).exists()
        assert sorted(os.listdir(tmp_path)) == ["env"]
        if command == "run":
            assert printed["output_dir"] == str(tmp_path / "env" / "x")

    @pytest.mark.parametrize("command", list(OUTPUT_DIR_CASES))
    def test_empty_output_dir_means_runs(self, tmp_path, capsys, monkeypatch, command):
        # With the variable unset, an empty --output-dir is runs/ for every
        # command: run writes no ./<name>/ and echoes runs/<name>.
        monkeypatch.delenv("DPMIRROR_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        written, printed = self.run_without_output_dir(command, ["--output-dir", ""], capsys)
        assert (tmp_path / "runs" / "x" / written).exists()
        assert sorted(os.listdir(tmp_path)) == ["runs"]
        if command == "run":
            assert printed["output_dir"] == os.path.join("runs", "x")

    @pytest.mark.parametrize("command", list(OUTPUT_DIR_CASES))
    def test_output_dir_through_a_file_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # An --output-dir naming a regular file once ended each command in
        # NotADirectoryError and exit 1, after its work. tau-sim makes its
        # directory before it simulates; run and audit still work first, so
        # that a refused input leaves nothing behind.
        if command == "tau-sim":
            monkeypatch.setattr(harness_mod, "simulate_tau", None)
        blocker = tmp_path / "file"
        blocker.write_text("")
        flags, _ = self.OUTPUT_DIR_CASES[command]
        rc = cli.main([*flags, "--name", "x", "--output-dir", str(blocker)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: {blocker / 'x'}: cannot make output directory" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["file"]


def digest_run_outputs(outdir):
    """sha256 of cells.csv and summary.json with the output directory taken out."""
    csv = (outdir / "cells.csv").read_text().splitlines(keepends=True)
    csv = "".join(line for line in csv if not line.startswith("# output_dir="))
    summary = json.loads((outdir / "summary.json").read_text())
    del summary["config"]["output_dir"]
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return [hashlib.sha256(t.encode()).hexdigest() for t in (csv, text)]


class TestOneBound:
    """bound_value and calibrate's risk_bound are one expression, privacy.risk_bound."""

    def run_cell(self, tmp_path, *extra):
        assert cli.main(["run", "--n-values", "100", "--epsilon-values", "max",
                         "--repeats", "2", "--seed", "1", "--baseline-steps", "10000",
                         "--output-dir", str(tmp_path), "--name", "one", *extra]) == 0
        return json.loads((tmp_path / "one" / "summary.json").read_text())

    def test_calibrated_bound_is_calibrates_risk_bound(self, tmp_path, capsys):
        summary = self.run_cell(tmp_path)
        config, cell = summary["config"], summary["cells"][0]
        capsys.readouterr()
        assert cli.main(["calibrate", "--n", "100", "--eps", repr(cell["epsilon"]),
                         "--delta", repr(config["delta"]),
                         "--delta-prime", repr(config["delta_prime"]),
                         "--L", repr(config["lipschitz_L"]),
                         "--D", repr(config["diameter"]),
                         "--d", str(config["dimension"])]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert (cell["sigma"], cell["eta"]) == (printed["sigma"], printed["eta"])
        assert cell["bound_value"].hex() == printed["risk_bound"].hex()

    def test_sigma_override_bound_is_risk_bound(self, tmp_path, capsys):
        summary = self.run_cell(tmp_path, "--sigma-override", "0.3")
        config, cell = summary["config"], summary["cells"][0]
        expected = risk_bound(100, 0.3, config["lipschitz_L"], config["diameter"],
                              config["dimension"])
        assert cell["bound_value"].hex() == expected.hex()


class TestGoldenOutputs:
    """Seeded `run` and `calibrate` outputs, pinned byte for byte."""

    RUNS = {
        "hinge-ball": ["--dimension", "3", "--n-values", "16,64", "--repeats", "4"],
        "squared-box-sigma-override": [
            "--loss", "squared", "--generator", "uniform_ball", "--set", "box",
            "--dimension", "2", "--lower=-0.5,-0.4", "--upper=0.5,0.3",
            "--n-values", "32", "--repeats", "3", "--sigma-override", "0.2"],
    }
    # (cells.csv, summary.json) digests. Re-pinned when the reference
    # minimizer became certified accelerated full-batch gradient: only the
    # baseline_risk/baseline_error line and the mean_regret,
    # mean_excess_risk and stderr columns moved. The box run's were
    # re-pinned again when box runs began to echo their lower and upper
    # corners: only those two echo entries were added. Both re-pinned when
    # the reference minimizer moved to the exact population risk: only the
    # baseline_risk/baseline_error line and the mean_regret,
    # mean_excess_risk and stderr columns moved. The box run's summary.json
    # was re-pinned when summary.json became strict JSON: only its
    # report_epsilon and report_delta_total moved, from NaN to null. Both
    # re-pinned when each run's excess became its exact population risk
    # minus baseline_risk: only the mean_excess_risk and stderr columns
    # moved, and the eval_samples echo line (the key is no longer read)
    # went; no bound_satisfied flipped. Both re-pinned when the reductions
    # on run's path (population_risk, the set's norms and Frank-Wolfe gap)
    # left BLAS, whose last bits depended on the OpenBLAS kernel: only the
    # mean_excess_risk and stderr columns moved, and the box run's
    # baseline_risk; the digests are now the same under the SkylakeX,
    # Haswell, Sandybridge and Nehalem kernels. Both re-pinned when
    # bound_value became privacy.risk_bound, 2.5*D*(2L + sigma*sqrt(d))/sqrt(n):
    # only the bound_value column moved, up by 2.5*L*D/sqrt(n); no
    # bound_satisfied flipped. hinge-ball re-pinned when losses stopped
    # using numpy's dispatched power and arcsin (d = 3 draws radii by
    # float_power): the new digests are what the old code gave without
    # numpy's AVX-512 loops, and they now hold with and without them.
    # Both summary.json digests re-pinned when runs lost their step cap:
    # each is the old file's digest with its "degraded": false entry taken
    # out; cells.csv did not move.
    RUN_DIGESTS = {
        "hinge-ball": [
            "09bee04d915429e8bfb41b713af4e716e7aa2cd3f85dcbf64370b6e33bfa72fd",
            "16cb295af25c6548629b5006ee9a01c3b1d59f597fcd4f594970af48ecf9333b"],
        "squared-box-sigma-override": [
            "52b55d8f05efea54a03e96c73b8be373115102f75900d32ee36c6b2ffdbb1838",
            "52ef09003961b49b93815e10a7fc78e1105297c739f77c413aabe83bdb0ecdd4"],
    }
    CALIBRATE = {
        "eps": ["--n", "10000", "--eps", "0.005", "--delta", "1e-6",
                "--L", "1", "--D", "1", "--d", "10"],
        "eps-bar": ["--eps-bar", "0.1", "--delta-bar", "3e-6", "--n", "400"],
    }
    # "eps" re-pinned when risk_bound became privacy.risk_bound at the
    # calibrated sigma: only risk_bound moved, in its last digits.
    CALIBRATE_DIGESTS = {
        "eps": "7b341b6e5417eb6a4a3d938d37a36ee2047878a215e78b82a34cfd5ecef81913",
        "eps-bar": "f992ac6f5dd37c9423a41fe154552fab8a4548d44ed154a830be981e274fbb99",
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_run(self, name, tmp_path, capsys):
        rc = cli.main(["run", "--epsilon-values", "max", "--seed", "11",
                       "--eval-samples", "500", "--baseline-steps", "10000",
                       "--output-dir", str(tmp_path), "--name", name, *self.RUNS[name]])
        assert rc == 0
        assert digest_run_outputs(tmp_path / name) == self.RUN_DIGESTS[name]

    @pytest.mark.parametrize("name", list(CALIBRATE))
    def test_calibrate(self, name, capsys):
        assert cli.main(["calibrate", *self.CALIBRATE[name]]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.CALIBRATE_DIGESTS[name]
