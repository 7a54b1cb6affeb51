"""The per-trial buffer pool: same bits as fresh arrays, results outside it,
and warm steps that allocate no J x J array."""

import re
import tracemalloc

import numpy as np
import pytest

from kfrflow import harness, kernels
from kfrflow.config import RunConfig
from kfrflow.diagnostics import KsdConfig
from kfrflow.flows import (
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
    sample_ot_newton,
)
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, _BufferPool
from kfrflow.particles import Ensemble
from kfrflow.targets import target_by_name

from helpers import POOLED_STEPS, pooled_step_peak, timeless_rows

SAMPLERS = ("kfrflow-i", "kfrflow-i-newton:3", "kfrflow-euler", "kfrflow-ab4", "kfrd", "svgd")


# at dt = 1/6 one funnel:20 AB4 trial blows up; its rows up to the failure
# are compared too
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
        kfrd_drift(ens, tgt, spec, 1e-3, 0.1, 0.0, pool=pool)[0],
    ]
    for name in ("kfrflow-i", "kfrflow-euler", "kfrflow-ab4", "kfrd", "svgd"):
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
@pytest.mark.parametrize("rule", sorted(POOLED_STEPS))
def test_warm_step_allocates_less_than_one_jxj_array(target, rule):
    J = 200
    tgt = target_by_name(target)
    spec = KernelSpec()
    pool = _BufferPool()
    ens = Ensemble(tgt.sample_reference(make_rng(34), J), 0.0)
    ksd_cfg = KsdConfig()

    def step_and_observe():
        out = POOLED_STEPS[rule](ens, tgt, spec, pool)
        harness._row(0, 1, 0.01, out, 0, ksd_cfg, tgt, True, pool)
        return out

    step_and_observe()  # the first step fills the pool
    tracemalloc.start()
    try:
        out = step_and_observe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < J * J * 8, peak
    assert np.array_equal(out, POOLED_STEPS[rule](ens, tgt, spec, None))


# the pool's four J x J buffers, and room for the (J, d) arrays of the step
# and of the KSD, which are 3% of J x J each at J = 600, d = 20
@pytest.mark.parametrize(
    "target, J", [("gaussian:0,1", 1000), ("donut", 1000), ("funnel:20", 600)]
)
@pytest.mark.parametrize("rule", sorted(POOLED_STEPS))
def test_cold_step_and_observation_peak_at_four_jxj_arrays(target, J, rule):
    peak = pooled_step_peak(target, rule, J)
    assert peak <= 4.3, peak


# below d = 3: "D" and "q", the J(J+1)/2 elements of "G", and one strip of
# "s" of at most 2^17 elements (0.13 J x J at J = 1000)
@pytest.mark.parametrize("target", ["gaussian:0,1", "donut"])
@pytest.mark.parametrize("rule", sorted(POOLED_STEPS))
def test_cold_step_and_observation_peak_at_two_and_a_half_jxj_arrays_below_d3(target, rule):
    peak = pooled_step_peak(target, rule, 1000)
    assert peak <= 2.8, peak


# the Newton Jacobian's D of the centres is written over the spent M in
# "D" (12.05 J x J when it was a fresh array, 11.05 in "D")
def test_cold_newton_step_and_observation_peak_from_d3():
    peak = pooled_step_peak("funnel:20", "newton:3", 1000)
    assert peak <= 11.3, peak


@pytest.mark.parametrize("sampler", ["rwm-parallel", "rwm-serial", "ula", "svgd", "kfrflow-i"])
def test_every_trial_creates_one_pool(monkeypatch, sampler):
    pools = []

    class CountedPool(_BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

    monkeypatch.setattr(harness, "_BufferPool", CountedPool)
    cfg = RunConfig(target="donut", sampler=sampler, J=20, N=4, T=1.0, seed=36, trials=2)
    harness.run_experiment(cfg)
    assert len(pools) == 2
    assert all(pool._flat for pool in pools)  # the observations used it


def documented_buffers():
    """The buffer names that the bullet list of the kernels docstring gives."""
    bullets = [line for line in kernels.__doc__.splitlines() if line.startswith("* ")]
    return set(re.findall(r'``"(\w+)"``', "\n".join(bullets)))


@pytest.mark.parametrize("target", ["donut", "funnel:20"])
def test_pool_holds_the_documented_buffers(target):
    tgt = target_by_name(target)
    pool = _BufferPool()
    ens = Ensemble(tgt.sample_reference(make_rng(35), 40), 0.0)
    out = POOLED_STEPS["kfrflow-i"](ens, tgt, KernelSpec(), pool)
    harness._row(0, 1, 0.01, out, 0, KsdConfig(), tgt, True, pool)
    assert set(pool._flat) == documented_buffers()
