"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the statistical criteria use fixed
seeds, so results are reproducible bit for bit on a given platform.
"""

import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kfrflow.baselines import rwm_run
from kfrflow.config import RunConfig
from kfrflow.diagnostics import KsdConfig, ksd
from kfrflow.flows import (
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
)
from kfrflow.harness import bench_step
from kfrflow.integrators import (
    make_rng,
    run_unit_time,
    sde_stepper,
    velocity_stepper,
)
from kfrflow.kernels import KernelSpec
from kfrflow.particles import Ensemble
from kfrflow.targets import (
    TargetModel,
    make_bayesian_2d,
    make_funnel,
    make_gaussian,
)

from helpers import (
    central_diff_grad,
    imq_eval,
    imq_grad1,
    mixed_second_trace,
    rel_err,
    velocity_oracle,
)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def shifted(target, c):
    return TargetModel(
        name=target.name,
        dim=target.dim,
        log_ratio=lambda x: target.log_ratio(x) + c,
        sample_reference=target.sample_reference,
        score_reference=target.score_reference,
        score_target=target.score_target,
    )


def quantized(target, scale=16.0, grid=2**20):
    """Log ratio on a dyadic grid in (-8, 0], so a +7.3 shift is exact."""

    def lr(x):
        return np.floor(target.log_ratio(np.atleast_2d(x)) / scale * grid) / grid

    return TargetModel(
        name="quantized-" + target.name,
        dim=target.dim,
        log_ratio=lr,
        sample_reference=target.sample_reference,
        score_reference=target.score_reference,
        score_target=target.score_target,
    )


class TestCriterion1TheoremLimit:
    def test_one_step_displacement_converges_first_order(self):
        tic = time.time()
        donut = make_bayesian_2d("donut")
        spec = KernelSpec()
        x = np.random.default_rng(7).standard_normal((50, 2))
        ens = Ensemble(x, 0.0)
        v = kfrflow_velocity(ens, donut, spec, 0.0)
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            stepped = kfrflow_i_step(ens, donut, spec, dt, 0.0)
            disp = (stepped.positions - x) / dt
            errs.append(float(np.max(np.linalg.norm(disp - v, axis=1))))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        elapsed = time.time() - tic
        ok = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5 and elapsed < 10
        report(1, ok, f"error ratios {r1:.3f}, {r2:.3f} in [1.5, 2.5]; {elapsed:.1f}s")


class TestCriterion2ShiftInvariance:
    def test_constant_shift_changes_nothing(self):
        tic = time.time()
        spec = KernelSpec()
        base = quantized(make_bayesian_2d("donut"))
        plus = shifted(base, 7.3)
        ens = Ensemble(np.random.default_rng(3).standard_normal((40, 2)), 0.0)

        v_diff = np.max(np.abs(
            kfrflow_velocity(ens, base, spec, 0.0)
            - kfrflow_velocity(ens, plus, spec, 0.0)
        ))
        s_diff = np.max(np.abs(
            kfrflow_i_step(ens, base, spec, 0.01, 0.0).positions
            - kfrflow_i_step(ens, plus, spec, 0.01, 0.0).positions
        ))
        at = Ensemble(ens.positions, 0.3)  # the drift reads pi_t's score at 0.3
        d0, c0 = kfrd_drift(at, base, spec, 0.0, 0.5)
        d1, c1 = kfrd_drift(at, plus, spec, 0.0, 0.5)
        k_diff = max(np.max(np.abs(d0 - d1)), abs(c0 - c1))

        # companion check on the raw target: the shift enters only through
        # floating-point rounding of the inputs
        donut = make_bayesian_2d("donut")
        v0 = kfrflow_velocity(ens, donut, spec, 1e-6)
        v1 = kfrflow_velocity(ens, shifted(donut, 7.3), spec, 1e-6)
        generic_ok = np.allclose(v0, v1, rtol=1e-9, atol=1e-12)

        elapsed = time.time() - tic
        ok = v_diff == 0.0 and s_diff == 0.0 and k_diff == 0.0 and generic_ok and elapsed < 1
        report(
            2, ok,
            f"max changes velocity={v_diff}, transport={s_diff}, drift={k_diff} "
            f"(all exactly 0); {elapsed:.2f}s",
        )


class TestCriterion3GaussianTransport:
    def test_closed_form_moments(self):
        tic = time.time()
        target = make_gaussian([1.0, 0.0], 0.5)
        spec = KernelSpec()
        lam = 1e-3
        n = 100

        def one_trial(trial):
            rng = make_rng(11 + trial)
            ens = Ensemble(target.sample_reference(rng, 400), 0.0)
            grabbed = {}

            def obs(k, t, e, ns):
                if k in (50, 100):
                    grabbed[k] = e.positions

            stepper = velocity_stepper(
                lambda e: kfrflow_velocity(e, target, spec, lam), 1.0 / n, "euler"
            )
            run_unit_time(ens, stepper, n, [obs])
            return (
                grabbed[100].mean(axis=0),
                grabbed[100].var(axis=0, ddof=1),
                grabbed[50].var(axis=0, ddof=1),
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one_trial, range(30)))
        mean1 = np.mean([r[0] for r in results], axis=0)
        var1 = np.mean([r[1] for r in results], axis=0)
        var05 = np.mean([r[2] for r in results], axis=0)

        exact_mean = np.array([1.0, 0.0])
        # tempered variance at t=0.5: 1/(0.5 + 0.5/0.25) = 0.4
        mid_var = target.tempered_moments(0.5)[1][0, 0]
        elapsed = time.time() - tic
        ok = (
            np.all(np.abs(mean1 - exact_mean) < 0.1)
            and np.all(np.abs(var1 - 0.25) < 0.15 * 0.25)
            and np.all(np.abs(var05 - mid_var) < 0.15 * mid_var)
            and elapsed < 120
        )
        report(
            3, ok,
            f"mean {mean1.round(4)} (exact {exact_mean}), "
            f"var(t=1) {var1.round(4)} (exact 0.25 +-15%), "
            f"var(t=0.5) {var05.round(4)} (exact {mid_var} +-15%); {elapsed:.2f}s",
        )


class TestCriterion4OracleEquivalence:
    def test_vectorized_velocity_matches_loop_oracle(self):
        tic = time.time()
        spec = KernelSpec(bandwidth=0.5)  # keeps lam=0 systems well conditioned
        worst = 0.0
        for k in range(20):
            rng = np.random.default_rng(200 + k)
            J = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            target = make_gaussian(rng.standard_normal(d), 0.7)
            ens = Ensemble(rng.standard_normal((J, d)), 0.0)
            for lam in (0.0, 1e-3):
                v = kfrflow_velocity(ens, target, spec, lam)
                vo = velocity_oracle(ens, target, spec, lam)
                worst = max(worst, rel_err(v, vo))
        elapsed = time.time() - tic
        ok = worst < 1e-10 and elapsed < 5
        report(4, ok, f"worst relative deviation {worst:.3e} < 1e-10; {elapsed:.1f}s")


class TestCriterion5DonutConcentration:
    def test_radius_concentrates_near_two(self):
        tic = time.time()
        donut = make_bayesian_2d("donut")
        spec = KernelSpec()
        lam = 1e-6  # minimal regularization that keeps every seed stable

        def one_trial(trial):
            rng = make_rng(50 + trial)
            ens = Ensemble(donut.sample_reference(rng, 300), 0.0)
            for _ in range(100):
                ens = kfrflow_i_step(ens, donut, spec, 0.01, lam)
            return float(np.linalg.norm(ens.positions, axis=1).mean())

        with ThreadPoolExecutor(max_workers=2) as pool:
            radii = list(pool.map(one_trial, range(30)))
        mean_radius = float(np.mean(radii))
        elapsed = time.time() - tic
        ok = 1.8 <= mean_radius <= 2.2 and elapsed < 180
        report(
            5, ok,
            f"trial-mean radius {mean_radius:.4f} in [1.8, 2.2] "
            f"(spread [{min(radii):.3f}, {max(radii):.3f}]); {elapsed:.2f}s",
        )


class TestCriterion6FunnelDimensionRobustness:
    def test_ksd_growth_with_dimension_bounded(self):
        tic = time.time()
        spec = KernelSpec()
        ksd_cfg = KsdConfig()
        means = {}
        for d, lam in ((5, 0.01), (20, 0.001)):
            target = make_funnel(d)

            def one_trial(trial, target=target, lam=lam):
                rng = make_rng(60 + trial)
                ens = Ensemble(target.sample_reference(rng, 100), 0.0)
                for _ in range(100):
                    ens = kfrflow_i_step(ens, target, spec, 0.01, lam)
                return ksd(ens.positions, target.score_target, ksd_cfg)

            with ThreadPoolExecutor(max_workers=2) as pool:
                vals = list(pool.map(one_trial, range(30)))
            means[d] = float(np.mean(vals))
        ratio = means[20] / means[5]
        elapsed = time.time() - tic
        ok = ratio <= 3.0 and elapsed < 900
        report(
            6, ok,
            f"mean final KSD d=5: {means[5]:.4f}, d=20: {means[20]:.4f}, "
            f"ratio {ratio:.3f} <= 3; {elapsed:.2f}s",
        )


class TestCriterion7Kfrd:
    def test_zero_noise_reduction_and_stochastic_stability(self):
        tic = time.time()
        donut = make_bayesian_2d("donut")
        spec = KernelSpec()
        n, lam = 20, 1e-6

        # epsilon = 0: the SDE trajectory equals the Euler ODE trajectory bitwise
        def run_kfrd():
            rng = make_rng(17)
            ens = Ensemble(donut.sample_reference(rng, 30), 0.0)
            stepper = sde_stepper(
                lambda en: kfrd_drift(en, donut, spec, lam, 0.0), 1.0 / n, rng
            )
            return run_unit_time(ens, stepper, n).final.positions

        def run_euler():
            rng = make_rng(17)
            ens = Ensemble(donut.sample_reference(rng, 30), 0.0)
            stepper = velocity_stepper(
                lambda e: kfrflow_velocity(e, donut, spec, lam), 1.0 / n, "euler"
            )
            return run_unit_time(ens, stepper, n).final.positions

        bitwise = np.array_equal(run_kfrd(), run_euler())

        # epsilon = 5 on the funnel: trajectories and final KSD stay finite
        funnel = make_funnel(5)
        ksd_cfg = KsdConfig()

        def one_trial(trial):
            rng = make_rng(70 + trial)
            ens = Ensemble(funnel.sample_reference(rng, 100), 0.0)
            stepper = sde_stepper(
                lambda en: kfrd_drift(en, funnel, spec, 0.001, 5.0), 0.01, rng
            )
            trace = run_unit_time(ens, stepper, 100)
            final = trace.final.positions
            return np.isfinite(final).all() and np.isfinite(
                ksd(final, funnel.score_target, ksd_cfg)
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            finite = all(pool.map(one_trial, range(30)))
        elapsed = time.time() - tic
        ok = bitwise and finite and elapsed < 300
        report(
            7, ok,
            f"eps=0 bitwise reduction: {bitwise}; eps=5 funnel all finite: "
            f"{finite}; {elapsed:.0f}s",
        )


class TestCriterion8DerivativeSuite:
    def test_all_formulas_match_finite_differences(self):
        tic = time.time()
        rng = np.random.default_rng(500)
        worst_kernel = 0.0

        # IMQ gradient
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            h = float(rng.uniform(0.5, 2.0))
            fd = central_diff_grad(lambda z: imq_eval(z, y, h), x)
            worst_kernel = max(worst_kernel, rel_err(imq_grad1(x, y, h), fd))

        # Stein-kernel IMQ derivatives at h = 1
        h = 1.0
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            u = x - y
            q = (1.0 + np.dot(u, u)) ** -0.5
            worst_kernel = max(
                worst_kernel,
                rel_err(-u * q**3, central_diff_grad(lambda z: imq_eval(z, y, h), x)),
                rel_err(+u * q**3, central_diff_grad(lambda z: imq_eval(x, z, h), y)),
            )
            t1, t2 = 3.0 * q**3, 3.0 * np.dot(u, u) * q**5
            fd_trace = mixed_second_trace(lambda a, b: imq_eval(a, b, h), x, y)
            worst_kernel = max(worst_kernel, abs(t1 - t2 - fd_trace) / (t1 + t2))

        # bundled target scores against the unnormalized log target density
        targets = [
            make_bayesian_2d("donut"),
            make_bayesian_2d("butterfly"),
            make_bayesian_2d("spaceships"),
            make_funnel(6),
            make_gaussian([0.5, -1.0, 0.25], 0.7),
        ]
        worst_target = 0.0
        for target in targets:
            def log_density(z, target=target):
                return -0.5 * float(np.sum(z**2)) + target.log_ratio(z[None])[0]

            for _ in range(10):
                x = rng.standard_normal(target.dim)
                fd = central_diff_grad(log_density, x)
                worst_target = max(worst_target, rel_err(target.score_target(x[None])[0], fd))

        elapsed = time.time() - tic
        ok = worst_kernel < 1e-6 and worst_target < 1e-5 and elapsed < 5
        report(
            8, ok,
            f"worst kernel-formula deviation {worst_kernel:.2e} < 1e-6, "
            f"worst score deviation {worst_target:.2e} < 1e-5; {elapsed:.1f}s",
        )


class TestCriterion9RwmTuning:
    def test_acceptance_lands_in_window(self):
        tic = time.time()
        butterfly = make_bayesian_2d("butterfly")
        result = rwm_run(butterfly, 50, 50, "parallel", make_rng(123))
        elapsed = time.time() - tic
        ok = (
            result.tuned
            and result.tune_rounds_used <= 20
            and 0.20 <= result.tune_acceptance <= 0.26
            and elapsed < 30
        )
        report(
            9, ok,
            f"tuned acceptance {result.tune_acceptance:.3f} in [0.20, 0.26] "
            f"after {result.tune_rounds_used} rounds; {elapsed:.1f}s",
        )


class TestCriterion10Ab4VersusEuler:
    def test_ab4_at_least_as_good(self):
        tic = time.time()
        butterfly = make_bayesian_2d("butterfly")
        spec = KernelSpec()
        ksd_cfg = KsdConfig()
        lam, n = 1e-4, 32

        def one_trial(args):
            method, trial = args
            rng = make_rng(80 + trial)
            ens = Ensemble(butterfly.sample_reference(rng, 100), 0.0)
            stepper = velocity_stepper(
                lambda e: kfrflow_velocity(e, butterfly, spec, lam), 1.0 / n, method
            )
            trace = run_unit_time(ens, stepper, n)
            return method, ksd(trace.final.positions, butterfly.score_target, ksd_cfg)

        jobs = [(m, t) for m in ("euler", "ab4") for t in range(30)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(one_trial, jobs))
        euler = np.mean([v for m, v in results if m == "euler"])
        ab4 = np.mean([v for m, v in results if m == "ab4"])
        elapsed = time.time() - tic
        ok = ab4 <= euler and elapsed < 300
        report(
            10, ok,
            f"mean final KSD AB4 {ab4:.4f} <= Euler {euler:.4f}; {elapsed:.0f}s",
        )


class TestCriterion11StepCostScaling:
    def test_doubling_cost_envelope(self):
        tic = time.time()
        medians = {}
        for J in (100, 200, 400):
            cfg = RunConfig(
                target="donut", sampler="kfrflow-euler", J=J, N=100,
                lam=1e-3, seed=1, trials=1,
            )
            medians[J] = bench_step(cfg).median_ns
        r1 = medians[200] / medians[100]
        r2 = medians[400] / medians[200]
        elapsed = time.time() - tic
        ok = 2.0 <= r1 <= 10.0 and 2.0 <= r2 <= 10.0 and elapsed < 120
        report(
            11, ok,
            f"median step times {medians[100] / 1e6:.2f} / {medians[200] / 1e6:.2f} "
            f"/ {medians[400] / 1e6:.2f} ms; doubling ratios {r1:.2f}, {r2:.2f} "
            f"in [2, 10]; {elapsed:.2f}s",
        )


@pytest.fixture(autouse=True)
def _quiet_diagnostic_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield
