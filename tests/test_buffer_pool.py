"""The per-trial buffer pool: same bits as fresh arrays, results outside it,
and warm steps that allocate no J x J array."""

import re
import tracemalloc

import numpy as np
import pytest

from kfrflow import diagnostics, harness, kernels
from kfrflow.config import RunConfig
from kfrflow.diagnostics import KsdConfig, stein_discrepancies
from kfrflow.flows import (
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
    sample_ot_newton,
)
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, _BufferPool, build_workspace
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
        kfrd_drift(ens, tgt, spec, 1e-3, 0.1, pool=pool)[0],
    ]
    for name in ("kfrflow-i", "kfrflow-euler", "kfrflow-ab4", "kfrd", "svgd"):
        cfg = RunConfig(target=target, sampler=name, J=40, N=6, lam=1e-3, eps=0.1)
        step = harness._make_stepper(name, None, cfg, tgt, make_rng(33), pool)
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


@pytest.fixture
def passes(monkeypatch):
    """Every pass over the pairs of a trial: ("whole", J) for a pair pass of
    one array against itself, ("strip", rows) for one of the KSD's row
    strips, and ("product", J) for the product form of D."""
    calls = []
    real, real_product = kernels._pair_sq, kernels._pair_sq_product

    def counted(xa, xb, pool=None):
        calls.append(("whole" if xa is xb else "strip", xa.shape[0]))
        return real(xa, xb, pool)

    def counted_product(x, pool=None):
        calls.append(("product", x.shape[0]))
        return real_product(x, pool)

    for module in (kernels, diagnostics):
        monkeypatch.setattr(module, "_pair_sq", counted)
    monkeypatch.setattr(kernels, "_pair_sq_product", counted_product)
    return calls


def count_passes(calls):
    """(whole passes, rows of KSD strips, product passes)."""
    kinds = {kind: [n for k, n in calls if k == kind] for kind in ("whole", "strip", "product")}
    return len(kinds["whole"]), sum(kinds["strip"]), len(kinds["product"])


# the KSD of an observation makes the whole pair pass in "D" and the next
# step takes it: N + 1 whole passes for N steps and N + 1 observations, and
# strips only at t = 0, before any step has sized "D".  A ULA pool holds no
# J x J "D", and from d = 3 on a step reads the product form of D, so there
# every observation keeps its strips.
@pytest.mark.parametrize("target, sampler, expected", [
    ("donut", "kfrflow-i", (11, 300, 0)),
    ("donut", "svgd", (11, 300, 0)),
    ("donut", "ula", (0, 11 * 300, 0)),
    ("funnel:5", "kfrflow-i", (0, 11 * 300, 10)),
])
def test_observed_step_makes_one_pair_pass(passes, target, sampler, expected):
    cfg = RunConfig(target=target, sampler=sampler, J=300, N=10, lam=1e-3, seed=37,
                    trials=1, observe_every=1)
    record = harness.run_experiment(cfg)
    assert record.all_stable and len(record.rows) == 11
    assert count_passes(passes) == expected


def test_handed_on_distances_are_taken_once(passes):
    # bench_step's pattern: two steps of one ensemble, the first writing M
    # over the D that the observation handed on; the second measures again
    tgt = target_by_name("donut")
    spec = KernelSpec()
    ens = Ensemble(tgt.sample_reference(make_rng(38), 300), 0.0)
    pool = _BufferPool()
    build_workspace(ens.positions + 1.0, spec, pool)  # sizes "D"
    stein_discrepancies(ens.positions, [tgt.score_target(ens.positions)], pool=pool)
    del passes[:]
    fresh = kfrflow_i_step(ens, tgt, spec, 0.01, 1e-3).positions
    assert count_passes(passes) == (1, 0, 0)
    first = kfrflow_i_step(ens, tgt, spec, 0.01, 1e-3, pool=pool).positions
    assert count_passes(passes) == (1, 0, 0)  # taken from the observation
    second = kfrflow_i_step(ens, tgt, spec, 0.01, 1e-3, pool=pool).positions
    assert count_passes(passes) == (2, 0, 0)
    assert np.array_equal(first, fresh) and np.array_equal(second, fresh)


def test_distances_of_other_positions_are_not_taken(passes):
    tgt = target_by_name("donut")
    spec = KernelSpec()
    x = tgt.sample_reference(make_rng(39), 300)
    other = Ensemble(x.copy(), 0.0)  # the same values in another array
    pool = _BufferPool()
    build_workspace(x + 1.0, spec, pool)
    stein_discrepancies(x, [tgt.score_target(x)], pool=pool)
    assert pool.d_of is x
    del passes[:]
    got = kfrflow_i_step(other, tgt, spec, 0.01, 1e-3, pool=pool).positions
    assert count_passes(passes) == (1, 0, 0) and pool.d_of is None
    assert np.array_equal(got, kfrflow_i_step(other, tgt, spec, 0.01, 1e-3).positions)
