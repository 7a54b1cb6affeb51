"""The kfrflow names that the benchmark under ``perfbench/`` binds.

The benchmark runs the committed library through these names, so renaming or
removing one breaks it; these tests make such a change fail here first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import kfrflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TOP_LEVEL = (
    "KernelSpec", "build_workspace", "kernel_matrix", "median_bandwidth",
    "parse_config", "run_experiment", "write_record_csv", "write_sidecar",
)

# module attributes that perfbench/tracing.py reads and rebinds outside
# LAYER_CALLS, and the one child.py imports from a submodule
OTHER_ATTRIBUTES = (
    ("kfrflow.harness", "ksd"),
    ("kfrflow.harness", "run_unit_time"),
    ("kfrflow.config", "target_by_name"),
    ("kfrflow.particles", "spd_solve"),
    ("kfrflow.baselines", "ACCEPTANCE_WINDOW"),
)


def _layer_calls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_CALLS


def test_layer_calls_resolve():
    calls = _layer_calls()
    assert calls
    for mod_name, attr, _ in calls:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_top_level_names(name):
    assert hasattr(kfrflow, name)


@pytest.mark.parametrize("mod_name, attr", OTHER_ATTRIBUTES)
def test_module_attributes(mod_name, attr):
    assert hasattr(importlib.import_module(mod_name), attr)


def test_every_kfrflow_import_in_perfbench_resolves():
    seen = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kfrflow"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    seen += 1
    assert seen > 0


def test_record_and_trace_fields_read_by_the_runner():
    cfg = kfrflow.parse_config(overrides={
        "target": "donut", "sampler": "kfrflow-i", "J": 20, "N": 20, "trials": 1,
    })
    record = kfrflow.run_experiment(cfg)
    assert np.isfinite(record.final_mean_ksd())
    assert record.rows and record.summary and record.dim == 2
    assert record.config.target == "donut"
    ens = kfrflow.Ensemble(np.zeros((2, 1)), 0.0)
    trace = kfrflow.run_unit_time(ens, lambda e: e, 2)
    assert trace.final.t == 1.0


def test_workspace_fields_read_by_the_kernel_probe():
    x = np.random.default_rng(0).standard_normal((6, 2))
    ws = kfrflow.build_workspace(x, kfrflow.KernelSpec())
    assert ws.Kmat.shape == (6, 6)
    assert ws.M.shape == (6, 6)
    kfrflow.particles.spd_solve(ws.M, 1e-3, ws.Kmat.mean(axis=0))
