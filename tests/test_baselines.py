"""Baseline samplers: SVGD, parallel ULA, random walk Metropolis."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from kfrflow.baselines import RwmConfig, rwm_run, svgd_step, ula_step
from kfrflow.errors import CapabilityError
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, median_bandwidth
from kfrflow.particles import Ensemble
from kfrflow.targets import TargetModel, make_bayesian_2d, make_gaussian, target_by_name

from helpers import rel_err, rwm_parallel_oracle, svgd_phi_oracle


class OnesRng:
    """Stand-in generator returning unit noise, for deterministic formulas."""

    def standard_normal(self, shape):
        return np.ones(shape)


class TestSvgd:
    def test_single_particle_at_mode_stays(self):
        g = make_gaussian(np.zeros(2), 1.0)
        e = Ensemble(np.zeros((1, 2)), 0.0)
        out = svgd_step(e, g, KernelSpec(bandwidth=1.0), 0.1)
        assert np.array_equal(out.positions, e.positions)

    def test_single_particle_hand_value(self):
        g = make_gaussian([0.0], 1.0)
        e = Ensemble(np.array([[2.0]]), 0.0)
        out = svgd_step(e, g, KernelSpec(bandwidth=1.0), 0.1)
        # phi = K(x,x) * (-2) + 0 = -2; x + 0.1 * phi = 1.8
        assert out.positions[0, 0] == pytest.approx(1.8, rel=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(79)
        for target, J in ((make_bayesian_2d("donut"), 30), (make_gaussian(np.ones(5), 0.6), 20)):
            x = rng.standard_normal((J, target.dim))
            for spec in (KernelSpec(), KernelSpec(bandwidth=0.7)):
                h = spec.bandwidth or median_bandwidth(x)
                phi = svgd_phi_oracle(x, target.score_target(x), h)
                out = svgd_step(Ensemble(x, 0.0), target, spec, 0.05).positions
                assert rel_err((out - x) / 0.05, phi) <= 1e-12

    def test_permutation_equivariance(self):
        g = make_gaussian([1.0, -1.0], 0.7)
        rng = np.random.default_rng(80)
        x = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        spec = KernelSpec()
        a = svgd_step(Ensemble(x, 0.0), g, spec, 0.05).positions
        b = svgd_step(Ensemble(x[perm], 0.0), g, spec, 0.05).positions
        assert np.allclose(b, a[perm], rtol=1e-12, atol=1e-14)

    def test_zero_score_is_pure_repulsion(self):
        flat = TargetModel(
            name="flat",
            dim=2,
            log_ratio=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
            sample_reference=lambda rng, n: rng.standard_normal((n, 2)),
            score_reference=lambda x: np.zeros_like(x),
            score_target=lambda x: np.zeros_like(x),
        )
        rng = np.random.default_rng(81)
        x = rng.standard_normal((12, 2))
        out = svgd_step(Ensemble(x, 0.0), flat, KernelSpec(), 0.1).positions

        def mean_pairwise(z):
            d = np.linalg.norm(z[:, None] - z[None, :], axis=-1)
            return d[np.triu_indices(len(z), 1)].mean()

        assert mean_pairwise(out) >= mean_pairwise(x)

    def test_missing_score_raises(self):
        bare = TargetModel(
            name="bare",
            dim=1,
            log_ratio=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
            sample_reference=lambda rng, n: rng.standard_normal((n, 1)),
        )
        with pytest.raises(CapabilityError):
            svgd_step(Ensemble(np.zeros((2, 1)), 0.0), bare, KernelSpec(), 0.1)


class TestUla:
    def test_fixed_noise_formula(self):
        g = make_gaussian([0.0], 1.0)
        e = Ensemble(np.zeros((1, 1)), 0.0)
        out = ula_step(e, g, 0.01, [OnesRng()])
        # x=0 at the mode: 0 + 0 + sqrt(0.02) * 1
        assert out.positions[0, 0] == pytest.approx(0.1414213562373095, rel=1e-14)

    def test_noise_scales_with_sqrt_step(self):
        g = make_gaussian([0.0], 1.0)
        e = Ensemble(np.zeros((1, 1)), 0.0)
        big = ula_step(e, g, 0.04, [OnesRng()]).positions[0, 0]
        small = ula_step(e, g, 0.01, [OnesRng()]).positions[0, 0]
        assert big == pytest.approx(2.0 * small, rel=1e-12)

    def test_chains_have_independent_streams(self):
        g = make_gaussian([0.0, 0.0], 1.0)
        rng = np.random.default_rng(82)
        x = rng.standard_normal((5, 2))
        rngs_a = make_rng(3).spawn(5)
        rngs_b = make_rng(3).spawn(5)
        rngs_b[0] = make_rng(999)  # replace chain 0's stream
        a = ula_step(Ensemble(x, 0.0), g, 0.01, rngs_a).positions
        b = ula_step(Ensemble(x, 0.0), g, 0.01, rngs_b).positions
        assert not np.array_equal(a[0], b[0])
        assert np.array_equal(a[1:], b[1:])

    def test_long_run_stationary_variance(self):
        g = make_gaussian([0.0], 1.0)
        rngs = make_rng(11).spawn(200)
        e = Ensemble(make_rng(12).standard_normal((200, 1)), 0.0)
        pooled = []
        for k in range(10_000):
            e = ula_step(e, g, 0.01, rngs)
            if k >= 2000 and k % 10 == 0:
                pooled.append(e.positions[:, 0])
        var = np.concatenate(pooled).var()
        assert abs(var - 1.0) < 0.1

    def test_wrong_stream_count_rejected(self):
        g = make_gaussian([0.0], 1.0)
        with pytest.raises(ValueError, match="per chain"):
            ula_step(Ensemble(np.zeros((3, 1)), 0.0), g, 0.01, make_rng(0).spawn(2))


def assert_equals_sequential(target, cfg, seed):
    """Parallel ``rwm_run`` equals its chains run one by one, bit for bit."""
    result = rwm_run(target, cfg, make_rng(seed))
    samples, acc, std, tune_acc = rwm_parallel_oracle(target, cfg, make_rng(seed))
    assert np.array_equal(result.samples, samples)
    assert result.measure_acceptance == acc
    assert (result.proposal_std, result.tune_acceptance) == (std, tune_acc)
    return result


class TestRwm:
    def test_tuner_grows_vanishing_proposal(self):
        g = make_gaussian([0.0], 1.0)  # target is N(0,1) itself
        cfg = RwmConfig(
            steps=50, n_samples=20, mode="serial", proposal_std=1e-6, tune_rounds=60
        )
        result = rwm_run(g, cfg, make_rng(21))
        assert result.proposal_std > 1e-3
        assert result.tuned
        assert 0.20 <= result.tune_acceptance <= 0.26

    def test_tuned_acceptance_on_gaussian(self):
        g = make_gaussian([0.0], 1.0)
        cfg = RwmConfig(steps=100, n_samples=50, mode="serial")
        result = rwm_run(g, cfg, make_rng(22))
        assert result.tuned
        assert 0.20 <= result.tune_acceptance <= 0.26

    def test_parallel_mean_near_zero(self):
        g = make_gaussian([0.0], 1.0)
        cfg = RwmConfig(steps=30, n_samples=10_000, mode="parallel")
        result = rwm_run(g, cfg, make_rng(23))
        assert result.samples.shape == (10_000, 1)
        se = result.samples.std() / math.sqrt(result.samples.shape[0])
        assert abs(result.samples.mean()) < 3 * se

    def test_serial_keeps_last_states(self):
        g = make_gaussian([0.0], 1.0)
        cfg = RwmConfig(steps=40, n_samples=25, mode="serial")
        result = rwm_run(g, cfg, make_rng(24))
        assert result.samples.shape == (25, 1)
        assert np.isfinite(result.samples).all()

    def test_long_run_histogram_detailed_balance(self):
        # three-bin discretization of N(0,1): long-run occupancy within
        # total-variation 0.05 of the true cell probabilities
        g = make_gaussian([0.0], 1.0)
        cfg = RwmConfig(steps=1, n_samples=100_000, mode="serial")
        result = rwm_run(g, cfg, make_rng(25))
        states = result.samples[:, 0]
        edges = [-1.0, 1.0]
        counts = np.array([
            np.mean(states < edges[0]),
            np.mean((states >= edges[0]) & (states < edges[1])),
            np.mean(states >= edges[1]),
        ])
        truth = np.array([
            norm.cdf(-1.0), norm.cdf(1.0) - norm.cdf(-1.0), 1.0 - norm.cdf(1.0)
        ])
        assert 0.5 * np.abs(counts - truth).sum() < 0.05

    def test_acceptance_counts_are_exact(self):
        # a proposal so large every move is rejected from far out in the tail
        g = make_gaussian([0.0], 0.01)
        cfg = RwmConfig(
            steps=100, n_samples=10, mode="serial", proposal_std=1000.0, tune_rounds=1,
            tune_batch=50,
        )
        with pytest.warns(RuntimeWarning, match="tuning"):
            result = rwm_run(g, cfg, make_rng(26))
        assert 0.0 <= result.measure_acceptance < 0.05

    @pytest.mark.parametrize("name", ["donut", "funnel:20"])
    def test_parallel_equals_sequential_chains(self, name):
        cfg = RwmConfig(steps=50, n_samples=200)
        result = assert_equals_sequential(target_by_name(name), cfg, 27)
        assert result.tuned

    def test_parallel_equals_sequential_chains_when_rejecting(self):
        # every chain starts far out in the tail of N(0, 0.01^2) and a
        # std-1000 proposal almost never lands back in it
        g = target_by_name("gaussian:0,0.01")
        cfg = RwmConfig(steps=50, n_samples=200, proposal_std=1000.0, tune_rounds=1)
        with pytest.warns(RuntimeWarning, match="tuning"):
            result = assert_equals_sequential(g, cfg, 28)
        assert result.measure_acceptance < 0.05

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_density_proposals_are_rejected(self):
        # log ratio -inf on the left half-line: chains starting there sit at
        # -inf until a proposal reaches x >= 0, and none ever steps back
        g = make_gaussian([0.0], 1.0)
        half = dataclasses.replace(
            g, log_ratio=lambda x: np.where(x[:, 0] < 0, -np.inf, g.log_ratio(x))
        )
        result = assert_equals_sequential(half, RwmConfig(steps=30, n_samples=100), 29)
        assert (result.samples[:, 0] >= 0).mean() > 0.9

    def test_parallel_measurement_batches_all_chains(self):
        donut = target_by_name("donut")
        shapes = []

        def log_ratio(x):
            shapes.append(x.shape)
            return donut.log_ratio(x)

        J, N = 30, 20
        cfg = RwmConfig(steps=N, n_samples=J)
        result = rwm_run(dataclasses.replace(donut, log_ratio=log_ratio), cfg, make_rng(30))
        tune_calls = result.tune_rounds_used * (cfg.tune_batch + 1)
        assert shapes[:tune_calls] == [(1, 2)] * tune_calls
        assert shapes[tune_calls:] == [(J, 2)] * (N + 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RwmConfig(steps=10, n_samples=5, mode="diagonal")
        with pytest.raises(ValueError):
            RwmConfig(steps=10, n_samples=5, proposal_std=0.0)
        with pytest.raises(ValueError):
            RwmConfig(steps=0, n_samples=5)
