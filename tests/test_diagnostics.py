"""Kernel Stein discrepancy, row moments, tempered KSD, and the loop oracle."""

import tracemalloc

import numpy as np
import pytest

from kfrflow import diagnostics
from kfrflow.diagnostics import KsdConfig, ksd, stein_discrepancies
from kfrflow.errors import CapabilityError, NumericalStabilityError
from kfrflow.flows import kfrflow_i_step, kfrflow_velocity, tempered_score
from kfrflow.harness import _row
from kfrflow.kernels import KernelSpec, _BufferPool, build_workspace
from kfrflow.particles import Ensemble
from kfrflow.targets import TargetModel, make_bayesian_2d, make_gaussian

from helpers import (
    central_diff_grad,
    imq_eval,
    mixed_second_trace,
    negated_kernel,
    rel_err,
    stein_kernel_matrix,
    velocity_oracle,
)


def stein_kernel_scalar(x, y, sx, sy, h):
    """Independent scalar transcription of the Langevin Stein kernel."""
    u = x - y
    q = (1.0 + np.dot(u, u) / h**2) ** -0.5
    grad_x = -u / h**2 * q**3
    grad_y = +u / h**2 * q**3
    trace = len(x) / h**2 * q**3 - 3.0 * np.dot(u, u) / h**4 * q**5
    return trace + np.dot(grad_x, sy) + np.dot(grad_y, sx) + q * np.dot(sx, sy)


class TestKsd:
    def test_single_sample_zero_score(self):
        for d in (1, 2, 3):
            x = np.full((1, d), 0.3)
            val = ksd(x, lambda z: np.zeros_like(z))
            assert val == pytest.approx(np.sqrt(d), rel=1e-12)

    def test_matrix_matches_scalar_transcription(self):
        g = make_gaussian([0.5, -0.2], 0.7)
        rng = np.random.default_rng(90)
        x = rng.standard_normal((6, 2))
        s = g.score_target(x)
        k0 = stein_kernel_matrix(x, s, 1.0)
        for i in range(6):
            for j in range(6):
                expected = stein_kernel_scalar(x[i], x[j], s[i], s[j], 1.0)
                assert k0[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_pass_matches_oracle_matrix_sum(self):
        rng = np.random.default_rng(89)
        for J in (1, 2, 50):
            for d in (1, 2, 20):
                for offset in (0.0, 40.0):
                    z = rng.standard_normal((J, d))
                    x = z + offset
                    # scores of a shifted Gaussian keep both statistics > 0
                    s = 2.0 - z
                    k0 = stein_kernel_matrix(x, s, 1.0)
                    v = k0.sum() / J**2
                    got = ksd(x, lambda _: s)
                    assert got**2 == pytest.approx(v, rel=1e-12)
                    if J < 2:
                        continue
                    u = (k0.sum() - np.trace(k0)) / (J * (J - 1))
                    assert u > 0.0
                    got = ksd(x, lambda _: s, KsdConfig(estimator="u"))
                    assert got**2 == pytest.approx(u, rel=1e-12)

    def test_several_scores_match_single_calls(self):
        rng = np.random.default_rng(88)
        x = rng.standard_normal((40, 3))
        scores = [-x, 0.5 - x, np.zeros_like(x)]
        for est in ("v", "u"):
            cfg = KsdConfig(h=0.8, estimator=est)
            together = stein_discrepancies(x, scores, cfg)
            assert together == [ksd(x, lambda _, s=s: s, cfg) for s in scores]

    def test_negative_v_statistic_is_numerical_error(self, monkeypatch):
        # a negated kernel makes the Stein sum exactly minus the true one,
        # which is well above 0 here
        x = np.array([[0.0], [1.0]])
        assert ksd(x, lambda _: -x) > 0.1
        monkeypatch.setattr(diagnostics, "_q_from_sq", negated_kernel())
        with pytest.raises(NumericalStabilityError, match="semidefinite"):
            ksd(x, lambda _: -x)

    def test_imq_derivative_formulas_match_finite_differences(self):
        rng = np.random.default_rng(91)
        h = 1.0
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            u = x - y
            q = (1.0 + np.dot(u, u) / h**2) ** -0.5
            grad_x = -u / h**2 * q**3
            grad_y = +u / h**2 * q**3
            fd_x = central_diff_grad(lambda z: imq_eval(z, y, h), x)
            fd_y = central_diff_grad(lambda z: imq_eval(x, z, h), y)
            assert rel_err(grad_x, fd_x) < 1e-6
            assert rel_err(grad_y, fd_y) < 1e-6
            term1 = 3.0 / h**2 * q**3
            term2 = 3.0 * np.dot(u, u) / h**4 * q**5
            trace = term1 - term2
            fd_trace = mixed_second_trace(lambda a, b: imq_eval(a, b, h), x, y)
            # the two terms cancel for distant pairs, so normalize by their
            # scale rather than by the (possibly vanishing) difference
            assert abs(trace - fd_trace) / (term1 + term2) < 1e-6

    def test_discriminates_wrong_location(self):
        rng = np.random.default_rng(92)
        good = rng.standard_normal((200, 1))
        bad = rng.standard_normal((200, 1)) + 3.0
        score = lambda x: -x  # N(0,1)
        assert ksd(bad, score) > 5.0 * ksd(good, score)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(93)
        x = rng.standard_normal((20, 2))
        score = lambda z: -z
        val = ksd(x, score)
        assert ksd(x[rng.permutation(20)], score) == pytest.approx(val, rel=1e-12)

    def test_u_statistic_clamps_and_validates(self):
        rng = np.random.default_rng(94)
        x = rng.standard_normal((30, 1))
        u = ksd(x, lambda z: -z, KsdConfig(estimator="u"))
        v = ksd(x, lambda z: -z, KsdConfig(estimator="v"))
        assert u >= 0.0
        assert v >= u  # V-statistic includes the nonnegative diagonal
        with pytest.raises(ValueError):
            ksd(x[:1], lambda z: -z, KsdConfig(estimator="u"))

    def test_missing_score_is_capability_error(self):
        with pytest.raises(CapabilityError):
            ksd(np.zeros((3, 1)), None)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KsdConfig(h=0.0)
        with pytest.raises(ValueError):
            KsdConfig(estimator="w")


def count_strips(monkeypatch):
    """Wrap the KSD's pair pass, one call per row strip, and count the calls."""
    calls = []
    pair_sq = diagnostics._pair_sq

    def counted(xa, xb, pool=None):
        calls.append(xa.shape[0])
        return pair_sq(xa, xb, pool)

    monkeypatch.setattr(diagnostics, "_pair_sq", counted)
    return calls


class TestStreamedKsd:
    """The row-strip pass against the oracle matrix sum, the pool, and its
    memory bound."""

    @staticmethod
    def check_against_oracle(x, s, h=1.0):
        J = x.shape[0]
        k0 = stein_kernel_matrix(x, s, h)
        v = stein_discrepancies(x, [s], KsdConfig(h=h))[0]
        assert v**2 == pytest.approx(k0.sum() / J**2, rel=1e-12)
        u = stein_discrepancies(x, [s], KsdConfig(h=h, estimator="u"))[0]
        assert u**2 == pytest.approx((k0.sum() - np.trace(k0)) / (J * (J - 1)), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 40.0])
    @pytest.mark.parametrize("d", [1, 2, 20])
    @pytest.mark.parametrize("J", [2, 3, 50])
    def test_small_strips_match_oracle_matrix_sum(self, monkeypatch, J, d, offset):
        monkeypatch.setattr(diagnostics, "_KSD_STRIP", max(1, J * J // 4))
        strips = count_strips(monkeypatch)
        rng = np.random.default_rng(1000 * J + d)
        z = rng.standard_normal((J, d))
        # scores of a shifted Gaussian keep both statistics > 0
        self.check_against_oracle(z + offset, 2.0 - z)
        # two calls (V and U), each over every row once in at least 3 strips
        assert sum(strips) == 2 * J and len(strips) >= 2 * min(J, 3)

    @pytest.mark.parametrize("offset", [0.0, 40.0])
    @pytest.mark.parametrize("d", [1, 2, 20])
    def test_bandwidth_matches_oracle_matrix_sum(self, d, offset):
        # the trace sum ((d - 3) sum q^3 + 3 sum q^5) / h^2 rests on
        # ||u||^2 q^2 = h^2 (1 - q^2): pin its h^2 away from h = 1
        z = np.random.default_rng(1750 + d).standard_normal((50, d))
        self.check_against_oracle(z + offset, 2.0 - z, h=0.7)

    def test_default_strips_match_oracle_matrix_sum(self, monkeypatch):
        strips = count_strips(monkeypatch)
        rng = np.random.default_rng(1700)
        z = rng.standard_normal((700, 2))
        self.check_against_oracle(z, 2.0 - z)
        assert len(strips) > 2 and max(strips) < 700

    @pytest.mark.parametrize("est", ["v", "u"])
    def test_pool_gives_the_same_bits(self, est):
        rng = np.random.default_rng(1701)
        x = rng.standard_normal((300, 3))
        scores = [-x, 0.5 - x]
        pool = _BufferPool()
        build_workspace(x[:250] + 1.0, KernelSpec(), pool)  # leave other data in it
        cfg = KsdConfig(h=0.7, estimator=est)
        fresh = stein_discrepancies(x, scores, cfg)
        assert stein_discrepancies(x, scores, cfg, pool=pool) == fresh
        assert stein_discrepancies(x, scores, cfg, pool=pool) == fresh
        # below d = 3, a pool whose "D" holds J x J gets the whole pair pass
        # there, for the next step; the strips read it with the same bits
        x2, scores = x[:, :2].copy(), [-x[:, :2], 0.5 - x[:, :2]]
        pool = _BufferPool()
        build_workspace(x2 + 1.0, KernelSpec(), pool)
        fresh = stein_discrepancies(x2, scores, cfg)
        assert stein_discrepancies(x2, scores, cfg, pool=pool) == fresh
        assert pool.d_of is x2

    def test_memory_stays_below_a_jxj_array(self):
        J = 2000
        rng = np.random.default_rng(1702)
        x = rng.standard_normal((J, 2))
        scores = [-x, 0.5 - x]
        tracemalloc.start()
        try:
            stein_discrepancies(x, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < J * J * 8 / 8, peak


def bare_target(dim):
    """A target without scores, so a harness row computes no KSD."""
    return TargetModel(
        name="bare",
        dim=dim,
        log_ratio=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        sample_reference=lambda rng, n: rng.standard_normal((n, dim)),
    )


def row_moments(x):
    """The mean and variance columns that the harness writes for ``x``."""
    d = x.shape[1]
    row = _row(0, 0, 0.0, x, 0, KsdConfig(), bare_target(d), False)
    return (np.array([row[f"mean_{a + 1}"] for a in range(d)]),
            np.array([row[f"var_{a + 1}"] for a in range(d)]))


def tempered_ksd(x, target, t):
    """KSD of ``x`` against the geometric mixture at time t."""
    return ksd(x, lambda y: tempered_score(target, y, t))


class TestMoments:
    def test_two_point_hand_values(self):
        mean, var = row_moments(np.array([[-1.0], [1.0]]))
        assert mean[0] == 0.0
        assert var[0] == 2.0

    def test_repeated_point_zero_covariance(self):
        mean, var = row_moments(np.full((4, 2), 1.5))
        assert np.array_equal(mean, [1.5, 1.5])
        assert np.array_equal(var, np.zeros(2))

    def test_monte_carlo_standard_normal(self):
        rng = np.random.default_rng(95)
        x = rng.standard_normal((10_000, 2))
        mean, var = row_moments(x)
        assert np.all(np.abs(mean) < 0.05)
        assert np.all(np.abs(var - 1.0) < 0.05)


class TestTemperedTrace:
    def test_identity_target_is_flat(self):
        g = make_gaussian(np.zeros(2), 1.0)
        rng = np.random.default_rng(96)
        x = rng.standard_normal((40, 2))
        vals = [tempered_ksd(x, g, t) for t in (0.0, 0.5, 1.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_initial_entry_is_reference_ksd(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(97)
        x = rng.standard_normal((50, 2))
        val = tempered_ksd(x, donut, 0.0)
        assert val == pytest.approx(ksd(x, lambda z: -z), rel=1e-12)
        assert val > 0.0  # nonzero at finite ensemble size

    def test_transport_trace_finite_everywhere(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(98)
        spec = KernelSpec()
        n = 256
        ens = Ensemble(donut.sample_reference(rng, 100), 0.0)
        snapshots = [(0.0, ens.positions)]
        for k in range(n):
            ens = kfrflow_i_step(ens, donut, spec, 1.0 / n, 1e-6)
            ens = Ensemble(ens.positions, (k + 1) / n)
            snapshots.append((ens.t, ens.positions))
        trace = [tempered_ksd(x, donut, t) for t, x in snapshots]
        assert len(trace) == n + 1
        assert all(np.isfinite(v) for v in trace)

    def test_accepts_ensembles(self):
        # a harness row scores the ensemble against pi_t at the row's time
        g = make_gaussian(np.zeros(1), 1.5)
        e = Ensemble(np.array([[0.1], [0.4]]), 0.25)
        row = _row(0, 0, e.t, e.positions, 0, KsdConfig(), g, True)
        assert row["t"] == 0.25
        assert row["ksd_tempered"] == pytest.approx(tempered_ksd(e.positions, g, 0.25), rel=1e-12)

    def test_missing_scores_rejected(self):
        with pytest.raises(CapabilityError):
            tempered_ksd(np.zeros((2, 1)), bare_target(1), 0.0)


class TestVelocityOracle:
    def test_constant_ratio_gives_zero(self):
        const = TargetModel(
            name="const",
            dim=2,
            log_ratio=lambda x: np.full(np.atleast_2d(x).shape[0], 2.0),
            sample_reference=lambda rng, n: rng.standard_normal((n, 2)),
        )
        rng = np.random.default_rng(99)
        e = Ensemble(rng.standard_normal((4, 2)), 0.0)
        v = velocity_oracle(e, const, KernelSpec(bandwidth=0.5), 1e-6)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_agrees_with_vectorized_velocity(self):
        g = make_gaussian([0.8, 0.0], 0.6)
        rng = np.random.default_rng(100)
        e = Ensemble(rng.standard_normal((6, 2)), 0.0)
        spec = KernelSpec(bandwidth=0.5)
        for lam in (0.0, 1e-3):
            v = kfrflow_velocity(e, g, spec, lam)
            vo = velocity_oracle(e, g, spec, lam)
            assert np.linalg.norm(v - vo) <= 1e-10 * (1 + np.linalg.norm(vo))

    def test_permutation_equivariance(self):
        g = make_gaussian([0.5], 0.7)
        rng = np.random.default_rng(101)
        x = rng.standard_normal((5, 1))
        perm = rng.permutation(5)
        spec = KernelSpec(bandwidth=0.5)
        v = velocity_oracle(Ensemble(x, 0.0), g, spec, 1e-6)
        vp = velocity_oracle(Ensemble(x[perm], 0.0), g, spec, 1e-6)
        assert np.allclose(vp, v[perm], rtol=1e-10, atol=1e-13)
