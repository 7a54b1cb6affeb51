"""Configuration parsing, the experiment harness, serialization, and the CLI."""

import argparse
import dataclasses
import inspect
import itertools
import json
import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kfrflow
from kfrflow import _blas, cli, config, diagnostics, harness, kernels
from kfrflow.cli import main
from kfrflow.config import SAMPLERS, RunConfig, parse_config, parse_grid, parse_sampler
from kfrflow.errors import NumericalStabilityError
from kfrflow.harness import (
    _make_stepper,
    bench_step,
    run_experiment,
    sweep,
    write_record_csv,
)
from kfrflow.integrators import make_rng
from kfrflow.particles import Ensemble
from kfrflow.targets import TargetModel, make_gaussian, target_by_name

from helpers import negated_kernel, timeless_rows


class TestSamplerParsing:
    def test_known_samplers(self):
        assert parse_sampler("kfrflow-i") == ("kfrflow-i", None)
        assert parse_sampler("rwm-serial") == ("rwm-serial", None)
        assert parse_sampler("kfrflow-i-newton:3") == ("kfrflow-i-newton", 3)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            parse_sampler("hamiltonian")
        with pytest.raises(ValueError):
            parse_sampler("kfrflow-i-newton:0")

    @pytest.mark.parametrize(
        "name, count", [("kfrflow-i-newton:x", "x"), ("kfrflow-i-newton:", "")]
    )
    def test_bad_newton_count_names_sampler_and_count(self, name, count):
        with pytest.raises(ValueError, match=re.escape(f"{name!r}")) as info:
            parse_sampler(name)
        assert f"got {count!r}" in str(info.value)


class TestRunConfig:
    def test_minimal_config(self):
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=300, N=100, seed=7)
        assert cfg.dt == pytest.approx(0.01)
        assert cfg.trials == 30  # default
        assert cfg.T == 1.0

    def test_unit_time_rejects_custom_T(self):
        with pytest.raises(ValueError, match="unit time"):
            RunConfig(target="donut", sampler="kfrflow-i", J=10, N=10, T=5.0)

    def test_infinite_time_accepts_T(self):
        cfg = RunConfig(target="donut", sampler="ula", J=10, N=10, T=5.0)
        assert cfg.dt == pytest.approx(0.5)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_non_positive_T_rejected(self, T):
        with pytest.raises(ValueError, match=f"^T must be > 0, got {T}$"):
            RunConfig(target="donut", sampler="ula", J=10, N=10, T=T)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RunConfig(target="donut", sampler="kfrflow-i", J=0, N=10)
        with pytest.raises(ValueError):
            RunConfig(target="nope", sampler="kfrflow-i", J=10, N=10)
        with pytest.raises(ValueError):
            RunConfig(target="donut", sampler="kfrflow-i", J=10, N=10, trials=0)
        with pytest.raises(ValueError):
            RunConfig(target="donut", sampler="kfrflow-i", J=10, N=10, ksd_estimator="x")

    @pytest.mark.parametrize("key", ["J", "N", "seed", "trials", "observe_every"])
    def test_non_integral_integer_keys_rejected(self, key):
        run = {"target": "donut", "sampler": "kfrflow-i", "J": 5, "N": 2}
        for value in (1.5, 2.0, "3"):
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                RunConfig(**{**run, key: value})
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            parse_config(None, {**run, key: 0.5})
        # stored as a plain int, so the sidecar's JSON takes it
        cfg = RunConfig(**{**run, key: np.int64(3)})
        assert type(getattr(cfg, key)) is int and getattr(cfg, key) == 3


class TestIniParsing:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\n"
            "target = donut\n"
            "sampler = kfrflow-i\n"
            "J = 300\n"
            "N = 100\n"
            "seed = 7\n"
            "lambda = 0.001\n"
            "bandwidth = median\n"
        )
        cfg = parse_config(str(path))
        assert cfg.J == 300 and cfg.lam == 0.001 and cfg.bandwidth is None
        cfg2 = parse_config(str(path), {"J": 50, "epsilon": 0.5})
        assert cfg2.J == 50 and cfg2.eps == 0.5

    def test_unknown_key_with_path(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\ntarget = donut\nsampler = ula\nJ = 5\nN = 5\nfoo = 1\n")
        with pytest.raises(ValueError, match="run.foo"):
            parse_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(FileNotFoundError, match=f"^config file not found: {path}$"):
            parse_config(str(path))

    def test_unknown_override_key(self):
        run = {"target": "donut", "sampler": "ula", "J": 5, "N": 5}
        with pytest.raises(ValueError, match="^foo: unknown key$"):
            parse_config(None, {**run, "foo": 1})

    def test_unknown_sweep_key_in_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\ntarget = donut\nsampler = ula\nJ = 5\nN = 5\n[sweep]\nQ = 1\n")
        with pytest.raises(ValueError, match="^sweep.Q: unknown key$"):
            parse_grid(str(path))

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config(None, {"target": "donut"})

    def test_non_finite_lambda_or_epsilon_rejected(self):
        run = {"target": "donut", "sampler": "kfrflow-i", "J": 30, "N": 10}
        for key in ("lambda", "epsilon"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    parse_config(None, {**run, key: value})

    def test_grid_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[run]\ntarget = butterfly\nsampler = kfrflow-i\nJ = 25\nN = 8\n"
            "[sweep]\nJ = 25,100\nlambda = 0.0,0.1\n"
        )
        grid = parse_grid(str(path))
        assert grid == {"J": [25, 100], "lambda": [0.0, 0.1]}

    def test_readme_example_parses_and_lists_every_run_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "readme.ini"
        path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        cfg = parse_config(str(path))
        assert (cfg.target, cfg.sampler, cfg.bandwidth) == ("donut", "kfrflow-i", None)
        assert parse_grid(str(path)) == {"lambda": [0.0, 0.001, 0.1], "N": [8, 64]}
        # every run key, in the order RunConfig declares them
        assert config._read_ini(str(path)).options("run") == list(config._RUN_KEYS)

    def test_empty_grid_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\ntarget = donut\nsampler = ula\nJ = 5\nN = 5\n[sweep]\nJ = ,\n")
        with pytest.raises(ValueError, match="empty"):
            parse_grid(str(path))


class TestParseErrorsNameTheirKey:
    RUN = ["--target", "donut", "--sampler", "kfrflow-i", "--J", "5", "--N", "2"]

    @pytest.mark.parametrize("argv, where", [
        (["run", "--config", "{ini}"], "run.J: invalid literal for int()"),
        (["run", *RUN, "--bandwidth", "wide"], "bandwidth: could not convert"),
        (["sweep", *RUN, "--grid-lambda", "0.1,x"], "sweep.lambda: could not convert"),
    ])
    def test_ini_flag_and_grid_values(self, tmp_path, argv, where):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\ntarget = donut\nsampler = kfrflow-i\nJ = 5.5\nN = 2\n")
        argv = [a.format(ini=ini) for a in argv] + ["--out", str(tmp_path / "out")]
        with pytest.raises(ValueError, match="^" + re.escape(where)):
            main(argv)
        assert not (tmp_path / "out").exists()


class TestCliIniParity:
    BASE = {"target": "donut", "sampler": "ula", "J": "5", "N": "2"}
    # one value per run key, in declaration order, none of them its default
    VALUES = {
        "target": "butterfly", "sampler": "svgd", "J": "7", "N": "3", "T": "2.5",
        "lambda": "0.001", "epsilon": "0.2", "seed": "9", "trials": "4",
        "observe_every": "2", "bandwidth": "0.7", "h_floor": "1e-05", "ksd_estimator": "u",
    }

    @staticmethod
    def _ini(tmp_path, run, name="cfg.ini"):
        path = tmp_path / name
        path.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items()))
        return str(path)

    @staticmethod
    def _flag_overrides(argv):
        parser = argparse.ArgumentParser()
        cli._add_run_flags(parser)
        return cli._overrides(parser.parse_args(argv))

    def test_every_run_key_as_flag_equals_ini(self, tmp_path):
        assert len(self.VALUES) == len(dataclasses.fields(RunConfig))
        base = self._ini(tmp_path, self.BASE, "base.ini")
        for key, value in self.VALUES.items():
            from_ini = parse_config(self._ini(tmp_path, {**self.BASE, key: value}))
            from_flag = parse_config(base, self._flag_overrides([f"--{key}", value]))
            assert from_flag == from_ini != parse_config(base), key

    def test_bandwidth_median_flag_overrides_file(self, tmp_path):
        path = self._ini(tmp_path, {**self.BASE, "bandwidth": "0.5"})
        assert parse_config(path).bandwidth == 0.5
        assert parse_config(path, self._flag_overrides(["--bandwidth", "median"])).bandwidth is None

    def test_sweep_selection_header_in_sweep_order(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--target", "gaussian:0;0,1", "--sampler", "kfrflow-i", "--J", "6",
            "--N", "2", "--trials", "1",
            "--grid-J", "6", "--grid-N", "2", "--grid-lambda", "1e-6", "--grid-epsilon", "0",
            "--grid-T", "1.0", "--out", str(out),
        ])
        assert code == 0
        header = (out / "selection.csv").read_text().splitlines()[0]
        assert header == "J,N,lambda,epsilon,T,final_ksd,unstable_trials"


class TestRunExperiment:
    def test_identity_flow_keeps_ksd(self):
        # gaussian s=1 has zero velocity: final diagnostics equal initial ones
        cfg = RunConfig(
            target="gaussian:0;0,1", sampler="kfrflow-euler", J=20, N=4,
            lam=1e-6, seed=3, trials=3, observe_every=4,
        )
        record = run_experiment(cfg)
        assert record.all_stable
        for trial in range(3):
            rows = [r for r in record.rows if r["trial"] == trial]
            assert rows[0]["ksd_target"] == rows[-1]["ksd_target"]

    def test_row_count_and_finiteness(self):
        cfg = RunConfig(
            target="donut", sampler="kfrflow-i", J=40, N=10, lam=1e-6,
            seed=5, trials=2, observe_every=5,
        )
        record = run_experiment(cfg)
        # observations at steps 0, 5, 10 per trial
        assert len(record.rows) == 2 * 3
        for row in record.rows:
            assert np.isfinite(row["ksd_target"])
            assert np.isfinite(row["ksd_tempered"])
        assert record.summary[-1]["step"] == 10

    def test_deterministic_csv(self, tmp_path):
        cfg = RunConfig(
            target="donut", sampler="kfrd", J=15, N=5, lam=1e-6, eps=0.3,
            seed=11, trials=2, observe_every=5,
        )
        paths = []
        for tag in ("a", "b"):
            record = run_experiment(cfg)
            p = tmp_path / f"{tag}.csv"
            write_record_csv(record, str(p))
            paths.append(p)

        def strip_timing(path):
            lines = path.read_text().splitlines()
            cols = lines[0].split(",")
            keep = [i for i, c in enumerate(cols) if c != "step_time_ns"]
            return "\n".join(
                ",".join(line.split(",")[i] for i in keep) for line in lines
            )

        # identical bytes apart from the wall-clock timing column, which is
        # measurement metadata outside the determinism contract
        assert strip_timing(paths[0]) == strip_timing(paths[1])

    def test_csv_does_not_depend_on_openblas_threads(self, tmp_path):
        # on one BLAS thread and on two (where the machine has them), this
        # run differed in 116 cells before the harness pinned one thread
        src = str(Path(kfrflow.__file__).resolve().parents[1])
        args = ["--target", "donut", "--sampler", "kfrflow-i", "--J", "300",
                "--N", "10", "--lambda", "1e-6", "--seed", "3"]
        rows = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))
            ))
            out = tmp_path / threads
            subprocess.run([sys.executable, "-m", "kfrflow", "run", *args, "--out", str(out)],
                           env=env, capture_output=True, check=True)
            (path,) = out.glob("*.csv")
            with open(path) as fh:
                rows.append(timeless_rows(csv.DictReader(fh)))
        assert rows[0] == rows[1]

    def test_unstable_trial_flagged_and_excluded(self):
        # an extreme far-away narrow target blows the unregularized flow up
        cfg = RunConfig(
            target="gaussian:50,0.02", sampler="kfrflow-euler", J=8, N=6,
            lam=0.0, seed=2, trials=2, observe_every=1,
        )
        record = run_experiment(cfg)
        assert record.unstable_trials  # at least one trial went non-finite
        for trial in record.unstable_trials:
            rows = [r for r in record.rows if r["trial"] == trial]
            assert all(r["stable"] == 0 for r in rows)
        stable_trials = [t for t in range(2) if t not in record.unstable_trials]
        for row in record.summary:
            assert np.isfinite(row["ksd_target"]) or not stable_trials

    def test_unstable_trial_raises_no_floating_point_warnings(self):
        # the config of the test above overflows inside KSD; the non-finite
        # result flags the trial without numpy overflow/invalid warnings
        cfg = RunConfig(
            target="gaussian:50,0.02", sampler="kfrflow-euler", J=8, N=6,
            lam=0.0, seed=2, trials=2, observe_every=1,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run_experiment(cfg)
        assert record.unstable_trials
        fp = [w for w in caught
              if issubclass(w.category, RuntimeWarning) and "encountered" in str(w.message)]
        assert fp == []

    def test_negative_v_statistic_flags_only_its_trial(self, monkeypatch):
        # seed 2 draws trial 1's reference as two particles 2 apart, and
        # trial 0's as two 1 apart; the KSD's kernel is negated at distance
        # 2 only, which makes trial 1's V-statistic exactly minus its true,
        # positive value.  A zero log ratio leaves the particles in place.
        def sample_reference(rng, n):
            gap = 2.0 if rng.random() < 0.5 else 1.0
            return np.array([[0.0], [gap]])

        target = TargetModel(
            name="two-points", dim=1,
            log_ratio=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
            sample_reference=sample_reference,
            score_reference=lambda x: -x,
            score_target=lambda x: -x,
        )
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=2, N=1, seed=2, trials=2)
        monkeypatch.setattr(RunConfig, "build_target", lambda self: target)
        at_two = negated_kernel(lambda d2: (d2 == 4.0).any())
        monkeypatch.setattr(diagnostics, "_q_from_sq", at_two)
        record = run_experiment(cfg)
        assert record.unstable_trials == [1]
        assert [(r["trial"], r["stable"]) for r in record.rows] == [(0, 1), (0, 1)]

    @pytest.mark.parametrize("sampler", ["kfrflow-i", "kfrflow-euler"])
    def test_short_log_ratio_raises_instead_of_flagging(self, monkeypatch, sampler):
        # a log ratio with J-1 values is a fault of the target, not a
        # numerical blow-up: it must not be filed as "unstable at step 0"
        donut = target_by_name("donut")
        short = dataclasses.replace(donut, log_ratio=lambda x: donut.log_ratio(x)[1:])
        cfg = RunConfig(target="donut", sampler=sampler, J=6, N=4, lam=1e-3, seed=3, trials=2)
        monkeypatch.setattr(RunConfig, "build_target", lambda self: short)
        with pytest.raises(
            ValueError, match=re.escape("shape (5,) for 6 particles; expected shape (6,)")
        ) as info:
            run_experiment(cfg)
        assert not isinstance(info.value, NumericalStabilityError)
        assert "step 0" not in str(info.value)

    def test_rwm_score_shape_error_raises(self, monkeypatch):
        # the target's score returns J-1 rows for the final ensemble only
        donut = target_by_name("donut")
        calls = []

        def score_target(x):
            calls.append(x.shape)
            s = donut.score_target(x)
            return s if len(calls) == 1 else s[:-1]

        target = dataclasses.replace(donut, score_target=score_target)
        cfg = RunConfig(target="donut", sampler="rwm-parallel", J=6, N=5, seed=3, trials=1)
        monkeypatch.setattr(RunConfig, "build_target", lambda self: target)
        with pytest.raises(
            ValueError, match=re.escape("score shape (5, 2) does not match samples (6, 2)")
        ):
            run_experiment(cfg)
        assert calls == [(6, 2), (6, 2)]

    def test_rwm_single_value_log_ratio_raises(self, monkeypatch):
        # one value per call is right for a tuning row, wrong for the batch
        # of J chains, where it would broadcast to every chain
        donut = target_by_name("donut")
        target = dataclasses.replace(donut, log_ratio=lambda x: donut.log_ratio(x)[:1])
        cfg = RunConfig(target="donut", sampler="rwm-parallel", J=6, N=5, seed=3, trials=1)
        monkeypatch.setattr(RunConfig, "build_target", lambda self: target)
        with pytest.raises(
            ValueError,
            match=re.escape(
                "log_ratio returned shape (1,) for 6 particles; expected shape (6,)"
            ),
        ):
            run_experiment(cfg)

    def test_rwm_sampler_records_endpoints(self):
        cfg = RunConfig(
            target="butterfly", sampler="rwm-parallel", J=30, N=20,
            seed=9, trials=2,
        )
        record = run_experiment(cfg)
        assert record.all_stable
        rows = [r for r in record.rows if r["trial"] == 0]
        assert [r["step"] for r in rows] == [0, 20]

    def test_worker_pool_matches_sequential(self, monkeypatch):
        # each trial's buffer pool is its own, so threads change no bit
        cfgs = [
            RunConfig(
                target="donut", sampler="kfrd", J=15, N=5, lam=1e-6, eps=0.3,
                seed=11, trials=3, observe_every=5,
            ),
        ] + [
            RunConfig(
                target="donut", sampler=sampler, J=150, N=6, lam=1e-6,
                seed=12, trials=4, observe_every=1,
            )
            for sampler in ("kfrflow-i", "kfrflow-ab4", "svgd")
        ] + [
            RunConfig(target="donut", sampler="rwm-parallel", J=150, N=20, seed=13, trials=4),
        ]
        for cfg in cfgs:
            monkeypatch.delenv("KFRFLOW_WORKERS", raising=False)
            sequential = run_experiment(cfg)
            monkeypatch.setenv("KFRFLOW_WORKERS", "2")
            pooled = run_experiment(cfg)
            assert sequential.rows, cfg.sampler
            assert timeless_rows(sequential.rows) == timeless_rows(pooled.rows), cfg.sampler

    def test_trials_share_no_buffer(self, monkeypatch):
        pools = []

        class RecordedPool(kernels._BufferPool):
            def __init__(self):
                super().__init__()
                pools.append(self)

        monkeypatch.setattr(harness, "_BufferPool", RecordedPool)
        monkeypatch.setenv("KFRFLOW_WORKERS", "2")
        cfg = RunConfig(
            target="donut", sampler="kfrflow-i", J=40, N=4, seed=14, trials=3,
            observe_every=1,
        )
        run_experiment(cfg)
        assert len(pools) == 3
        buffers = [list(p._flat.items()) for p in pools]
        assert all(buffers)
        for i, first in enumerate(buffers):
            for second in buffers[i + 1 :]:
                for (na, a), (nb, b) in itertools.product(first, second):
                    assert not np.shares_memory(a, b), (na, nb)

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", ""])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("KFRFLOW_WORKERS", value)
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=10, N=2, trials=1)
        with pytest.raises(ValueError, match="KFRFLOW_WORKERS must be an integer >= 1"):
            run_experiment(cfg)

    def test_ula_and_svgd_run(self):
        for sampler in ("ula", "svgd"):
            cfg = RunConfig(
                target="butterfly", sampler=sampler, J=25, N=8, T=4.0,
                seed=13, trials=2, observe_every=8,
            )
            record = run_experiment(cfg)
            assert record.all_stable
            assert np.isfinite(record.final_mean_ksd())


class TestSweep:
    def test_single_cell_matches_run_experiment(self):
        cfg = RunConfig(
            target="gaussian:1;0,0.5", sampler="kfrflow-i", J=25, N=8,
            lam=1e-6, seed=21, trials=2, observe_every=8,
        )
        record = run_experiment(cfg)
        result = sweep(cfg, {})
        assert len(result.records) == 1
        assert result.records[0][1].final_mean_ksd() == record.final_mean_ksd()
        assert result.selection[0]["final_ksd"] == record.final_mean_ksd()

    def test_selection_picks_lower_ksd(self):
        cfg = RunConfig(
            target="gaussian:1;0,0.5", sampler="kfrflow-i", J=25, N=8,
            lam=0.0, seed=22, trials=2, observe_every=8,
        )
        result = sweep(cfg, {"lambda": [1e-6, 10.0]})
        cells = {cell["lambda"]: rec.final_mean_ksd() for (cell, rec) in
                 (( {"lambda": c.get("lambda")}, r) for c, r in result.records)}
        best = result.selection[0]
        assert best["final_ksd"] == min(cells.values())

    def test_invalid_last_cell_runs_no_cell(self, monkeypatch):
        import kfrflow.harness

        calls = []
        monkeypatch.setattr(kfrflow.harness, "run_experiment", lambda cfg: calls.append(cfg))
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=5, N=2, trials=1)
        # a unit-time sampler rejects T != 1: only the last cell is invalid
        with pytest.raises(ValueError, match="unit time"):
            sweep(cfg, {"T": [1.0, 2.0]})
        assert len(calls) == 0

    def test_unknown_grid_key_rejected(self):
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=5, N=2, trials=1)
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep(cfg, {"Q": [1]})

    def test_empty_grid_values_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: calls.append(cfg))
        cfg = RunConfig(target="donut", sampler="kfrflow-i", J=5, N=2, trials=1)
        with pytest.raises(ValueError, match="^sweep.J: empty grid$"):
            sweep(cfg, {"lambda": [0.1], "J": []})
        assert calls == []

    def test_reduced_grid_completes_quickly(self):
        import time

        cfg = RunConfig(
            target="butterfly", sampler="kfrflow-i", J=25, N=8, lam=1e-6,
            seed=1, trials=30, observe_every=64,
        )
        tic = time.time()
        result = sweep(cfg, {"J": [25, 100], "N": [8, 64]})
        assert time.time() - tic < 600
        assert len(result.records) == 4
        assert result.all_stable
        assert {(e["J"], e["N"]) for e in result.selection} == {
            (25, 8), (25, 64), (100, 8), (100, 64)
        }


class TestUlaTrials:
    """ULA trials draw each step's noise from the trial's generator."""

    # per_block: steps of noise that the reference draws in one call (None:
    # one call per step); the stepper reads the stream in order either way
    @pytest.mark.parametrize("per_block", [None, 3])
    @pytest.mark.parametrize("d", [1, 2, 20])
    def test_ula_stepper_equals_per_step_draws(self, d, per_block):
        J, N = 7, 10
        target = make_gaussian(np.zeros(d), 1.0)
        cfg = RunConfig(target="donut", sampler="ula", J=J, N=N, T=1.0, trials=1)
        step = _make_stepper("ula", None, cfg, target, make_rng(40))
        twin = make_rng(40)
        x = make_rng(41).standard_normal((J, d))
        ens, block = Ensemble(x, 0.0), []
        for _ in range(N):
            if not block:
                block = list(twin.standard_normal((per_block or 1, J, d)))
            ens = step(ens)
            x = x + cfg.dt * target.score_target(x) + np.sqrt(2.0 * cfg.dt) * block.pop(0)
            assert np.array_equal(ens.positions, x)

    def test_worker_pool_matches_sequential(self, monkeypatch):
        cfg = RunConfig(
            target="donut", sampler="ula", J=150, N=6, T=1.0, seed=15, trials=4,
            observe_every=1,
        )
        monkeypatch.delenv("KFRFLOW_WORKERS", raising=False)
        sequential = run_experiment(cfg)
        monkeypatch.setenv("KFRFLOW_WORKERS", "2")
        threaded = run_experiment(cfg)
        assert sequential.rows
        assert timeless_rows(sequential.rows) == timeless_rows(threaded.rows)


class TestBench:
    def test_reports_positive_median(self):
        cfg = RunConfig(
            target="donut", sampler="kfrflow-euler", J=20, N=10, lam=1e-6,
            seed=1, trials=1,
        )
        result = bench_step(cfg, reps=30)
        assert result.median_ns > 0
        assert len(result.times_ns) >= 30

    def test_bench_medians_stable(self):
        cfg = RunConfig(
            target="donut", sampler="kfrflow-euler", J=30, N=10, lam=1e-6,
            seed=1, trials=1,
        )
        a = bench_step(cfg, reps=30).median_ns
        b = bench_step(cfg, reps=30).median_ns
        assert abs(a - b) / max(a, b) < 0.5

    def test_rwm_not_supported(self):
        cfg = RunConfig(target="donut", sampler="rwm-serial", J=5, N=5, trials=1)
        with pytest.raises(ValueError, match="rwm"):
            bench_step(cfg)

    @pytest.mark.skipif(
        _blas._GET_THREADS is None, reason="numpy exports no OpenBLAS thread count"
    )
    def test_times_on_one_blas_thread_and_restores_the_count(self, monkeypatch):
        cfg = RunConfig(target="donut", sampler="kfrflow-euler", J=10, N=10, trials=1)
        seen = []
        step = _make_stepper

        def counting(*args):
            inner = step(*args)

            def stepper(ens):
                seen.append(_blas._GET_THREADS())
                return inner(ens)

            return stepper

        def raising(*args):
            def stepper(ens):
                seen.append(_blas._GET_THREADS())
                raise RuntimeError("stepper failed")

            return stepper

        saved = _blas._GET_THREADS()
        try:
            # two threads where the machine allows them, so that a restore shows
            _blas._SET_THREADS(2)
            before = _blas._GET_THREADS()
            monkeypatch.setattr(harness, "_make_stepper", counting)
            bench_step(cfg, reps=30)
            assert _blas._GET_THREADS() == before
            monkeypatch.setattr(harness, "_make_stepper", raising)
            with pytest.raises(RuntimeError, match="stepper failed"):
                bench_step(cfg)
            assert _blas._GET_THREADS() == before
        finally:
            _blas._SET_THREADS(saved)
        assert len(seen) == 3 + 30 + 1 and set(seen) == {1}

    def test_ula_cheaper_than_kfrflow_at_large_J(self):
        kfr = RunConfig(
            target="donut", sampler="kfrflow-euler", J=400, N=100, lam=1e-3, trials=1
        )
        ula = RunConfig(target="donut", sampler="ula", J=400, N=100, T=2.0, trials=1)
        assert bench_step(ula).median_ns < bench_step(kfr).median_ns


STEPPER_SAMPLERS = sorted(s for s in SAMPLERS if not s.startswith("rwm-")) + [
    "kfrflow-i-newton:3"
]


class TestStepperShape:
    @pytest.mark.parametrize("sampler", STEPPER_SAMPLERS)
    def test_one_argument_stepper_advances_by_dt(self, sampler):
        base, iters = parse_sampler(sampler)
        cfg = RunConfig(
            target="donut", sampler=sampler, J=12, N=10, lam=1e-3, eps=0.1, seed=4, trials=1
        )
        target = cfg.build_target()
        rng = make_rng(cfg.seed)
        step = _make_stepper(base, iters, cfg, target, rng)
        assert len(inspect.signature(step).parameters) == 1
        ens = Ensemble(target.sample_reference(rng, cfg.J), 0.5)
        out = step(ens)
        assert isinstance(out, Ensemble)
        assert out.t == ens.t + cfg.dt
        assert out.positions.shape == ens.positions.shape
        # every call steps the same ensemble and stateful steppers keep their
        # state, so on kfrflow-ab4 the timed calls after the 3 warm-up calls
        # are Adams-Bashforth updates (each used to be an Euler step at k = 0)
        assert bench_step(cfg, reps=30).median_ns > 0


class TestCli:
    def test_run_subcommand_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main([
            "run", "--target", "gaussian:0;0,1", "--sampler", "kfrflow-euler",
            "--J", "15", "--N", "3", "--lambda", "1e-6", "--seed", "4",
            "--trials", "2", "--observe_every", "3", "--out", str(out),
        ])
        assert code == 0
        files = sorted(os.listdir(out))
        assert any(f.endswith(".csv") for f in files)
        sidecars = [f for f in files if f.endswith(".json")]
        payload = json.loads((out / sidecars[0]).read_text())
        assert payload["config"]["J"] == 15
        assert payload["unstable_trials"] == []

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[run]\ntarget = gaussian:0;0,1\nsampler = kfrflow-euler\n"
            "J = 10\nN = 2\nlambda = 1e-6\ntrials = 1\nobserve_every = 2\n"
        )
        out = tmp_path / "res"
        code = main(["run", "--config", str(ini), "--J", "12", "--out", str(out)])
        assert code == 0
        sidecar = next(f for f in os.listdir(out) if f.endswith(".json"))
        assert json.loads((out / sidecar).read_text())["config"]["J"] == 12

    def test_ksd_subcommand_with_and_without_header(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        samples = rng.standard_normal((50, 2))
        bare = tmp_path / "bare.csv"
        np.savetxt(bare, samples, delimiter=",")
        headed = tmp_path / "headed.csv"
        headed.write_text("x1,x2\n" + bare.read_text())
        vals = []
        for path in (bare, headed):
            assert main(["ksd", "--samples", str(path), "--target", "donut"]) == 0
            vals.append(float(capsys.readouterr().out.strip()))
        assert vals[0] == vals[1]

    def test_run_subcommand_exits_1_and_names_unstable_trials(
            self, tmp_path, capsys, monkeypatch):
        # seed 2 draws trial 1's reference 1000 out, where the log ratio is
        # nan, so its first step fails; trial 0 stays near 0 and is stable
        def sample_reference(rng, n):
            far = rng.random() < 0.5
            return rng.standard_normal((n, 1)) + (1000.0 if far else 0.0)

        target = TargetModel(
            name="nan-far-out", dim=1,
            log_ratio=lambda x: np.where(np.abs(x[:, 0]) > 100.0, np.nan, 0.0),
            sample_reference=sample_reference,
            score_reference=lambda x: -x,
            score_target=lambda x: -x,
        )
        monkeypatch.setattr(RunConfig, "build_target", lambda self: target)
        code = main([
            "run", "--target", "donut", "--sampler", "kfrflow-euler",
            "--J", "8", "--N", "6", "--lambda", "1e-3", "--seed", "2", "--trials", "2",
            "--observe_every", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        sidecar = next(tmp_path.glob("*.json"))
        unstable = json.loads(sidecar.read_text())["unstable_trials"]
        assert unstable
        assert unstable == [1]
        assert capsys.readouterr().err == f"unstable trials: {unstable}\n"

    # each once ran and printed "unstable trials: [0]" with a final KSD of nan
    @pytest.mark.parametrize("flags, message", [
        (["--sampler", "kfrflow-i", "--h_floor", "inf"], "h_floor must be > 0 and finite, got inf"),
        (["--sampler", "kfrflow-i", "--bandwidth", "inf"], "bandwidth must be > 0 and finite"),
        (["--sampler", "svgd", "--T", "inf"], "T must be finite, got inf"),
    ], ids=["h_floor", "bandwidth", "T"])
    def test_run_subcommand_rejects_non_finite_settings(self, tmp_path, flags, message):
        with pytest.raises(ValueError, match=message):
            main(["run", "--target", "donut", *flags, "--J", "10", "--N", "2",
                  "--trials", "1", "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())

    def test_run_subcommand_rejects_a_zero_dimensional_target(self, tmp_path):
        with pytest.raises(ValueError, match="at least one coordinate"):
            main(["run", "--target", "gaussian:,1", "--sampler", "kfrflow-i",
                  "--J", "5", "--N", "2", "--trials", "1", "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())

    def test_ksd_subcommand_rejects_samples_of_the_wrong_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.zeros((4, 3)), delimiter=",")
        with pytest.raises(SystemExit, match="^samples have d=3 but target 'donut' has d=2$"):
            main(["ksd", "--samples", str(path), "--target", "donut"])

    def test_bench_subcommand(self, capsys):
        code = main([
            "bench", "--target", "donut", "--sampler", "ula", "--J", "10",
            "--N", "5", "--T", "2.0", "--trials", "1", "--reps", "30",
        ])
        assert code == 0
        assert "median step time" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--target", "gaussian:0;0,1", "--sampler", "kfrflow-i",
            "--J", "10", "--N", "2", "--trials", "1", "--observe_every", "2",
            "--grid-lambda", "1e-6,0.1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "selection.csv").exists()
        assert "best (J=10, N=2)" in capsys.readouterr().out
