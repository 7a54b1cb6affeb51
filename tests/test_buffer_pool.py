"""The per-trial buffer pool: same bits as fresh arrays, results outside it,
and warm steps that allocate no J x J array."""

import tracemalloc

import numpy as np
import pytest

from kfrflow import harness
from kfrflow.config import RunConfig
from kfrflow.diagnostics import KsdConfig
from kfrflow.flows import (
    FlowConfig,
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
    sample_ot_newton,
)
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, _BufferPool
from kfrflow.particles import Ensemble
from kfrflow.targets import target_by_name

from helpers import timeless_rows

SAMPLERS = ("kfrflow-i", "kfrflow-i-newton:3", "kfrflow-euler", "kfrflow-ab4", "kfrd")


# at dt = 1/6 one funnel:20 AB4 trial blows up; its rows up to the failure
# are compared too, and the target's overflow on the way is expected
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("target", ["donut", "funnel:20"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_pool_rows_match_fresh_arrays(monkeypatch, target, sampler):
    cfg = RunConfig(
        target=target, sampler=sampler, J=40, N=6, lam=1e-3, eps=0.1, seed=31,
        trials=2, observe_every=1,
    )
    pooled = harness.run_experiment(cfg)
    monkeypatch.setattr(harness, "_BufferPool", lambda: None)
    fresh = harness.run_experiment(cfg)
    assert pooled.rows and pooled.unstable_trials == fresh.unstable_trials
    assert timeless_rows(pooled.rows) == timeless_rows(fresh.rows)


@pytest.mark.parametrize("target", ["donut", "funnel:20"])
def test_results_do_not_live_in_the_pool(target):
    tgt = target_by_name(target)
    spec = KernelSpec()
    ens = Ensemble(tgt.sample_reference(make_rng(32), 40), 0.0)
    pool = _BufferPool()
    results = [
        kfrflow_i_step(ens, tgt, spec, 0.1, 1e-3, pool=pool).positions,
        sample_ot_newton(ens, tgt, spec, 0.1, 1e-3, iters=3, pool=pool).positions,
        kfrflow_velocity(ens, tgt, spec, 1e-3, pool=pool),
        kfrd_drift(ens, tgt, spec, FlowConfig(lam=1e-3, eps=0.1), 0.0, pool=pool)[0],
    ]
    for name in ("kfrflow-i", "kfrflow-euler", "kfrflow-ab4", "kfrd"):
        cfg = RunConfig(target=target, sampler=name, J=40, N=6, lam=1e-3, eps=0.1)
        step = harness._make_stepper(name, None, cfg, tgt, spec, make_rng(33), pool)
        e = ens
        for _ in range(5):  # past AB4's four Euler steps
            e = step(e)
            results.append(e.positions)
    assert {"D", "q", "s", "G"} <= set(pool._flat)
    for out in results:
        for buf in pool._flat.values():
            assert not np.shares_memory(out, buf)


@pytest.mark.parametrize("target", ["donut", "funnel:20"])
@pytest.mark.parametrize("rule", ["kfrflow-i", "velocity"])
def test_warm_step_allocates_less_than_one_jxj_array(target, rule):
    J = 200
    tgt = target_by_name(target)
    spec = KernelSpec()
    pool = _BufferPool()
    ens = Ensemble(tgt.sample_reference(make_rng(34), J), 0.0)
    ksd_cfg = KsdConfig()

    def step_and_observe():
        if rule == "kfrflow-i":
            out = kfrflow_i_step(ens, tgt, spec, 0.01, 1e-3, pool=pool).positions
        else:
            out = ens.positions + 0.01 * kfrflow_velocity(ens, tgt, spec, 1e-3, pool=pool)
        harness._row(tgt.dim, 0, 1, 0.01, out, 0, ksd_cfg, tgt, True, pool)

    step_and_observe()  # the first step fills the pool
    tracemalloc.start()
    try:
        step_and_observe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < J * J * 8, peak
