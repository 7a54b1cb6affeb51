"""Benchmark target distributions: log ratios, scores, samplers."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from kfrflow.config import RunConfig
from kfrflow.harness import run_experiment
from kfrflow.targets import (
    make_bayesian_2d,
    make_funnel,
    make_gaussian,
    target_by_name,
)

from helpers import central_diff_grad, rel_err


def log_target_density(target):
    """Unnormalized log pi_1 = log pi_0 + log ratio (reference is N(0, I))."""

    def lt(x):
        return -0.5 * float(np.sum(np.asarray(x) ** 2)) + target.log_ratio(x[None])[0]

    return lt


class TestBayesian2d:
    def test_donut_on_the_ring(self):
        donut = make_bayesian_2d("donut")
        assert donut.log_ratio(np.array([[2.0, 0.0]]))[0] == 0.0

    def test_donut_at_origin(self):
        donut = make_bayesian_2d("donut")
        assert donut.log_ratio(np.array([[0.0, 0.0]]))[0] == pytest.approx(-64.0, rel=1e-13)

    def test_butterfly_at_origin(self):
        bf = make_bayesian_2d("butterfly")
        # G(0,0) = 1, exponent -(1/0.36) * (-2)^2
        assert bf.log_ratio(np.zeros((1, 2)))[0] == pytest.approx(-4.0 / 0.36, rel=1e-13)

    def test_spaceships_at_origin(self):
        sp = make_bayesian_2d("spaceships")
        assert sp.log_ratio(np.zeros((1, 2)))[0] == pytest.approx(-16.0, rel=1e-13)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_bayesian_2d("pretzel")

    @pytest.mark.parametrize("kind", ["donut", "butterfly", "spaceships"])
    def test_scores_match_finite_differences(self, kind):
        target = make_bayesian_2d(kind)
        lt = log_target_density(target)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(2)
            fd = central_diff_grad(lt, x)
            assert rel_err(target.score_target(x[None])[0], fd) < 1e-5


class TestFunnel:
    def test_log_ratio_at_origin(self):
        for d in (2, 5, 20):
            f = make_funnel(d)
            assert f.log_ratio(np.zeros((1, d)))[0] == pytest.approx(-math.log(3.0), rel=1e-13)

    def test_score_at_origin(self):
        d = 7
        f = make_funnel(d)
        expected = np.zeros(d)
        expected[0] = -(d - 1) / 2.0
        assert np.allclose(f.score_target(np.zeros((1, d)))[0], expected, atol=1e-14)

    def test_scores_match_finite_differences(self):
        f = make_funnel(6)
        lt = log_target_density(f)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(6)
            assert rel_err(f.score_target(x[None])[0], central_diff_grad(lt, x)) < 1e-5

    def test_too_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_funnel(1)

    def test_overflow_is_silent_and_non_finite(self):
        f = make_funnel(3)
        x = np.array([[-800.0, 1.0, -2.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, g = f.log_ratio(x), f.score_target(x)
        assert r[0] == -np.inf and np.isinf(g[0]).all()
        assert r[1] == pytest.approx(-math.log(3.0), rel=1e-13) and np.isfinite(g[1]).all()

    def test_blown_up_trial_is_flagged_without_a_warning(self):
        # at dt = 1/6 trial 1 of this AB4 run blows up and exp(-x1) overflows
        cfg = RunConfig(
            target="funnel:20", sampler="kfrflow-ab4", J=40, N=6, lam=1e-3, seed=31,
            trials=2,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run_experiment(cfg)
        assert record.unstable_trials == [1]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestGaussian:
    def test_identity_target_has_zero_ratio(self):
        g = make_gaussian(np.zeros(3), 1.0)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20, 3))
        assert np.array_equal(g.log_ratio(x), np.zeros(20))

    def test_frozen_value_1d(self):
        # log 2 - 1.5
        g = make_gaussian([0.0], 0.5)
        assert g.log_ratio(np.array([[1.0]]))[0] == pytest.approx(
            -0.8068528194400547, rel=1e-14
        )

    def test_tempered_moments_endpoints(self):
        g = make_gaussian([0.0], 0.5)
        _, cov0 = g.tempered_moments(0.0)
        _, cov1 = g.tempered_moments(1.0)
        assert cov0[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert cov1[0, 0] == pytest.approx(0.25, rel=1e-15)

    def test_tempered_moments_midpoint(self):
        g = make_gaussian([1.0, 0.0], 0.5)
        mean, cov = g.tempered_moments(0.5)
        # precision 0.5 + 0.5/0.25 = 2.5
        assert np.allclose(cov, np.eye(2) / 2.5, rtol=1e-15)
        assert np.allclose(mean, [2.0 / 2.5, 0.0], rtol=1e-15)

    def test_scores_match_finite_differences(self):
        g = make_gaussian([0.5, -1.0], 0.8)
        lt = log_target_density(g)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert rel_err(g.score_target(x[None])[0], central_diff_grad(lt, x)) < 1e-5

    def test_ratio_normalization_by_quadrature(self):
        # exp(log_ratio) * pi_0 integrates to 1 when both densities are normalized
        g = make_gaussian([0.7], 0.6)

        def integrand(x):
            x = np.array([x])
            return math.exp(g.log_ratio(x[None])[0]) * math.exp(-0.5 * x[0] ** 2) / math.sqrt(2 * math.pi)

        val, _ = quad(integrand, -12, 12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_bad_stdev_rejected(self):
        with pytest.raises(ValueError):
            make_gaussian([0.0], 0.0)

    def test_empty_mean_rejected(self):
        # a d = 0 target has no particles to move and no KSD to report
        with pytest.raises(ValueError, match="at least one coordinate"):
            make_gaussian([], 1.0)
        with pytest.raises(ValueError, match="at least one coordinate"):
            target_by_name("gaussian:,1")


class TestReferenceSampler:
    def test_standard_normal_moments(self):
        target = make_bayesian_2d("donut")
        rng = np.random.default_rng(14)
        x = target.sample_reference(rng, 10_000)
        assert x.shape == (10_000, 2)
        assert np.all(np.abs(x.mean(axis=0)) < 0.05)
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)

    def test_reference_score(self):
        target = make_funnel(4)
        x = np.array([0.3, -1.2, 0.0, 2.0])
        assert np.array_equal(target.score_reference(x[None])[0], -x)


class TestTargetByName:
    def test_bundled_names(self):
        assert target_by_name("donut").dim == 2
        assert target_by_name("butterfly").dim == 2
        assert target_by_name("spaceships").dim == 2
        assert target_by_name("funnel:10").dim == 10

    def test_gaussian_parsing(self):
        g = target_by_name("gaussian:1;0,0.5")
        assert g.dim == 2
        assert g.log_ratio(np.array([[1.0, 0.0]]))[0] == pytest.approx(
            math.log(4.0) + 0.5, rel=1e-12
        )
        g1 = target_by_name("gaussian:0,1")
        assert g1.dim == 1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            target_by_name("cauchy")
        with pytest.raises(ValueError):
            target_by_name("gaussian:nope")
