"""Ensemble state, coupling-matrix assembly, solves, and importance weights."""

import dataclasses
import math

import numpy as np
import pytest

from kfrflow.errors import NumericalStabilityError
from kfrflow.kernels import KernelSpec, _BufferPool
from kfrflow.particles import (
    Ensemble,
    build_workspace,
    importance_weights,
    spd_solve,
)
from kfrflow.targets import make_gaussian

from helpers import basis_gradient_oracle, imq_eval, imq_grad1, rel_err


def brute_force_M(x, h):
    """Double-loop transcription of the coupling-matrix entries."""
    J = x.shape[0]
    M = np.zeros((J, J))
    for ell in range(J):
        for m in range(J):
            M[ell, m] = (
                sum(
                    np.dot(imq_grad1(x[i], x[ell], h), imq_grad1(x[i], x[m], h))
                    for i in range(J)
                )
                / J
            )
    return M


class TestEnsemble:
    def test_valid_construction(self):
        e = Ensemble(np.zeros((3, 2)), 0.5)
        assert e.J == 3 and e.d == 2 and e.t == 0.5

    def test_rejects_non_finite(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"\[1\]"):
            Ensemble(x, 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros(3), 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((1, 1)), -0.1)


def assemble_M(x, spec):
    return build_workspace(x, spec).M


class TestAssembleM:
    def test_single_particle_is_zero(self):
        M = assemble_M(np.zeros((1, 2)), KernelSpec(bandwidth=1.0))
        assert np.array_equal(M, np.zeros((1, 1)))
        with pytest.raises(NumericalStabilityError):
            spd_solve(M, 0.0, np.zeros(1))

    def test_matches_brute_force_two_particles(self):
        x = np.array([[0.0], [1.0]])
        M = assemble_M(x, KernelSpec(bandwidth=1.0))
        assert np.allclose(M, brute_force_M(x, 1.0), atol=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, 2))
        M = assemble_M(x, KernelSpec(bandwidth=0.8))
        assert np.allclose(M, brute_force_M(x, 0.8), atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.standard_normal((7, 2))
            M = assemble_M(x, KernelSpec())
            assert np.linalg.eigvalsh(M).min() >= -1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        spec = KernelSpec()
        M = assemble_M(x, spec)
        Mp = assemble_M(x[perm], spec)
        assert np.allclose(Mp, M[np.ix_(perm, perm)], atol=1e-12)


class TestRegularize:
    """spd_solve solves with M + lam I, leaving M itself untouched."""

    def test_zero_lambda_is_identity(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        before = M.copy()
        rhs = np.array([1.0, -1.0])
        out = spd_solve(M, 0.0, rhs)
        assert np.allclose(M @ out, rhs, rtol=1e-14)
        assert np.array_equal(M, before)

    def test_zero_matrix(self):
        M = np.zeros((3, 3))
        out = spd_solve(M, 0.1, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, np.array([10.0, 20.0, 30.0]), rtol=1e-14)
        assert np.array_equal(M, np.zeros((3, 3)))

    def test_eigenvalues_shift_by_lambda(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((5, 5))
        M = A @ A.T
        lam = 0.37
        before, vecs = np.linalg.eigh(M)
        # each eigenvector of M is scaled by 1 / (eigenvalue + lam)
        after = np.array([vecs[:, i] @ spd_solve(M, lam, vecs[:, i]) for i in range(5)])
        assert np.allclose(1.0 / after, before + lam, rtol=1e-10, atol=1e-10)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            spd_solve(np.eye(2), -1e-3, np.ones(2))
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda must be finite"):
                spd_solve(np.eye(2), lam, np.ones(2))


class TestSolveM:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        assert np.allclose(spd_solve(np.eye(3), 0.0, rhs), rhs, rtol=1e-15)

    def test_scaled_identity(self):
        rhs = np.full(4, 4.0)
        assert np.allclose(spd_solve(2.0 * np.eye(4), 0.0, rhs), np.full(4, 2.0), rtol=1e-15)

    def test_against_dense_inverse(self):
        rng = np.random.default_rng(24)
        A = rng.standard_normal((8, 8))
        M = A @ A.T + 0.5 * np.eye(8)
        rhs = rng.standard_normal(8)
        x = spd_solve(M, 0.0, rhs)
        assert np.linalg.norm(x - np.linalg.inv(M) @ rhs) / np.linalg.norm(x) < 1e-8

    def test_residual_contract(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            A = rng.standard_normal((10, 10))
            M = A @ A.T + 0.1 * np.eye(10)
            rhs = rng.standard_normal(10)
            x = spd_solve(M, 0.0, rhs)
            assert np.linalg.norm(M @ x - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_non_pd_raises(self):
        # indefinite with zero trace, so the fallback lambda is 0 and no retry runs
        with pytest.raises(NumericalStabilityError, match="lambda"):
            spd_solve(np.diag([1.0, -1.0]), 0.0, np.ones(2))

    def test_fallback_regularization_warns(self):
        M = np.diag([1.0, 0.0])  # singular, nonzero trace
        with pytest.warns(RuntimeWarning, match="retrying"):
            x = spd_solve(M, 0.0, np.array([1.0, 0.0]))
        assert np.isfinite(x).all()

    def test_fallback_exhausted_raises(self):
        with pytest.raises(NumericalStabilityError):
            spd_solve(np.zeros((2, 2)), 0.0, np.ones(2))


class TestSpdSolveContract:
    """The in-place Cholesky solve, with and without a buffer pool."""

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("J", [1, 2, 50, 300])
    def test_matches_dense_solve(self, J, lam, pooled):
        rng = np.random.default_rng(J)
        B = rng.standard_normal((J, J))
        M = B @ B.T / J + 0.5 * np.eye(J)
        rhs = rng.standard_normal(J)
        before = M.copy()
        x = spd_solve(M, lam, rhs, pool=_BufferPool() if pooled else None)
        assert rel_err(x, np.linalg.solve(M + lam * np.eye(J), rhs)) <= 1e-12
        assert np.array_equal(M, before)

    def test_singular_warns_with_the_fallback_lambda(self):
        M = np.diag([1.0, 0.0])
        with pytest.warns(
            RuntimeWarning,
            match=r"solve failed at lambda=0; retrying with lambda=5e-09$",
        ):
            x = spd_solve(M, 0.0, np.array([1.0, 0.0]))
        assert np.allclose(x, [1.0 / (1.0 + 5e-9), 0.0], rtol=1e-15, atol=0.0)
        assert np.array_equal(M, np.diag([1.0, 0.0]))

    def test_indefinite_raises_and_leaves_M(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(NumericalStabilityError, match="not positive definite"):
            spd_solve(M, 0.0, np.ones(2), pool=_BufferPool())
        assert np.array_equal(M, np.diag([1.0, -1.0]))

    def test_nan_matrix_raises(self):
        # a NaN pivot passes the factorization's positivity test
        M = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericalStabilityError, match="non-finite"):
            spd_solve(M, 0.0, np.ones(2))

    def test_solution_is_not_a_pool_buffer(self):
        pool = _BufferPool()
        M = 2.0 * np.eye(5)
        x = spd_solve(M, 0.0, np.ones(5), pool=pool)
        assert not np.shares_memory(x, pool.get("G", (5, 5)))
        assert not np.shares_memory(M, pool.get("G", (5, 5)))


class TestImportanceWeights:
    def test_zero_dt_uniform(self):
        target = make_gaussian([0.0, 1.0], 0.5)
        rng = np.random.default_rng(26)
        e = Ensemble(rng.standard_normal((8, 2)), 0.0)
        w = importance_weights(e, target, 0.0)
        assert np.array_equal(w, np.full(8, 1.0 / 8))

    def test_constant_ratio_uniform(self):
        target = make_gaussian(np.zeros(2), 1.0)  # log_ratio identically 0
        rng = np.random.default_rng(27)
        e = Ensemble(rng.standard_normal((5, 2)), 0.0)
        assert np.array_equal(importance_weights(e, target, 0.7), np.full(5, 0.2))

    def test_hand_computed_pair(self):
        class Stub:
            def log_ratio(self, x):
                return np.array([0.0, math.log(4.0)])

        e = Ensemble(np.zeros((2, 1)), 0.0)
        w = importance_weights(e, Stub(), 0.5)
        assert np.allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    def test_shift_invariance_exact_on_dyadic_values(self):
        base = np.floor(np.random.default_rng(28).uniform(-8, 0, 12) * 2**20) / 2**20

        class Stub:
            def __init__(self, c):
                self.c = c

            def log_ratio(self, x):
                return base + self.c

        e = Ensemble(np.zeros((12, 1)), 0.0)
        w0 = importance_weights(e, Stub(0.0), 0.3)
        w1 = importance_weights(e, Stub(7.3), 0.3)
        assert np.array_equal(w0, w1)

    def test_shift_invariance_generic(self):
        target = make_gaussian([1.5], 0.5)

        class Shifted:
            def log_ratio(self, x):
                return target.log_ratio(x) + 123.456

        rng = np.random.default_rng(29)
        e = Ensemble(rng.standard_normal((30, 1)), 0.0)
        w0 = importance_weights(e, target, 0.2)
        w1 = importance_weights(e, Shifted(), 0.2)
        assert np.allclose(w0, w1, rtol=1e-12)

    def test_permutation_equivariance(self):
        target = make_gaussian([1.0], 0.7)
        rng = np.random.default_rng(30)
        x = rng.standard_normal((9, 1))
        perm = rng.permutation(9)
        w = importance_weights(Ensemble(x, 0.0), target, 0.4)
        wp = importance_weights(Ensemble(x[perm], 0.0), target, 0.4)
        assert np.allclose(wp, w[perm], rtol=1e-13)

    def test_non_finite_ratio_names_particle(self):
        class Bad:
            def log_ratio(self, x):
                out = np.zeros(len(x))
                out[2] = np.nan
                return out

        e = Ensemble(np.zeros((4, 1)), 0.0)
        with pytest.raises(NumericalStabilityError, match=r"\[2\]"):
            importance_weights(e, Bad(), 0.1)

    def test_negative_dt_rejected(self):
        target = make_gaussian([0.0], 1.0)
        with pytest.raises(ValueError):
            importance_weights(Ensemble(np.zeros((2, 1)), 0.0), target, -0.1)

    def test_positive_and_normalized(self):
        target = make_gaussian([2.0, 0.0], 0.3)
        rng = np.random.default_rng(31)
        e = Ensemble(rng.standard_normal((40, 2)), 0.0)
        w = importance_weights(e, target, 1.0)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)


class TestKernelMeans:
    """The kernel means a = (1/J) 1^T K and b = w^T K that KFRFlow-I forms
    from the workspace."""

    def test_uniform_weights_equalize(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((7, 2))
        ws = build_workspace(x, KernelSpec())
        w = importance_weights(x, make_gaussian([1.0, 0.0], 0.5), 0.0)
        a, b = np.full(7, 1.0 / 7) @ ws.Kmat, w @ ws.Kmat
        assert np.array_equal(a, b)

    def test_single_particle(self):
        ws = build_workspace(np.zeros((1, 2)), KernelSpec(bandwidth=1.0))
        a, b = np.full(1, 1.0) @ ws.Kmat, np.ones(1) @ ws.Kmat
        assert np.array_equal(a, np.ones(1))
        assert np.array_equal(b, np.ones(1))

    def test_weighted_mean_matches_double_loop(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((6, 2))
        spec = KernelSpec(bandwidth=1.2)
        ws = build_workspace(x, spec)
        w = rng.dirichlet(np.ones(6))
        b = w @ ws.Kmat
        expected = np.zeros(6)
        for ell in range(6):
            expected[ell] = sum(w[j] * imq_eval(x[j], x[ell], 1.2) for j in range(6))
        assert np.allclose(b, expected, atol=1e-13)

    def test_rejects_bad_shape(self):
        # weights come from the log ratio, which must have one value per particle
        target = make_gaussian([0.0], 1.0)
        four = dataclasses.replace(target, log_ratio=lambda x: np.zeros(4))
        with pytest.raises(ValueError):
            importance_weights(np.zeros((3, 1)), four, 0.1)


class TestWorkspace:
    def test_matrix_and_bandwidth_consistent_with_public_ops(self):
        from kfrflow.kernels import kernel_matrix, median_bandwidth

        rng = np.random.default_rng(34)
        x = rng.standard_normal((10, 2))
        spec = KernelSpec()
        ws = build_workspace(x, spec)
        assert ws.h == median_bandwidth(x)
        assert np.array_equal(ws.Kmat, kernel_matrix(x, spec))
        assert np.array_equal(ws.M, build_workspace(x, spec).M)

    def test_unweighted_mean_is_row_mean(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((5, 2))
        ws = build_workspace(x, KernelSpec())
        a = np.full(5, 1.0 / 5) @ ws.Kmat
        expected = [np.mean([imq_eval(x[j], x[ell], ws.h) for j in range(5)]) for ell in range(5)]
        assert np.allclose(a, ws.Kmat.mean(axis=0), rtol=1e-14)
        assert np.allclose(a, expected, rtol=1e-14)

    def test_M_matches_gradient_oracle(self):
        rng = np.random.default_rng(36)
        for J in (1, 2, 50):
            for d in (1, 2, 3, 4, 20):
                for offset in (0.0, 40.0):
                    x = rng.standard_normal((J, d)) + offset
                    ws = build_workspace(x, KernelSpec())
                    B = basis_gradient_oracle(x, ws.h)
                    assert rel_err(ws.M, B @ B.T / J) <= 1e-13, (J, d, offset)
                    # memory stays O(J^2) whatever d is
                    for value in vars(ws).values():
                        assert not isinstance(value, np.ndarray) or value.size <= J * J
