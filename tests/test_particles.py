"""Ensemble state, coupling-matrix assembly, solves, and importance weights."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from kfrflow import _blas, particles
from kfrflow.errors import NumericalStabilityError
from kfrflow.kernels import KernelSpec, _BufferPool, build_workspace
from kfrflow.particles import Ensemble, importance_weights, spd_solve
from kfrflow.targets import make_gaussian

from helpers import basis_gradient_oracle, imq_eval, imq_grad1, rel_err
from test_blas import HANDLES


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
        assert e.positions.shape == (3, 2) and e.t == 0.5

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
    """The in-place Cholesky solve: a caller's M, with or without a buffer
    pool, is left untouched; the pool's own M takes the factor."""

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

    @pytest.mark.parametrize("J", [1, 2, 50, 300])
    def test_pool_buffer_takes_the_factor_and_gives_M_back(self, J):
        M, rhs = _spd_system(J, seed=J)
        pool, Mp = _in_pool(M)
        x = spd_solve(Mp, 1e-3, rhs, pool=pool)
        assert np.array_equal(x, spd_solve(M, 1e-3, rhs))  # the same routine on a copy
        L = np.triu(Mp).T
        A = M + 1e-3 * np.eye(J)
        assert np.allclose(L @ L.T, A, rtol=0, atol=1e-13 * np.abs(A).max())
        assert np.array_equal(np.tril(Mp, -1), np.tril(M, -1))
        assert np.array_equal(particles._restore(Mp, M.diagonal().copy()), M)

    def test_singular_warns_with_the_fallback_lambda(self):
        M = np.diag([1.0, 0.0])
        with pytest.warns(
            RuntimeWarning,
            match=r"solve failed at lambda=0; retrying with lambda=5e-09$",
        ):
            x = spd_solve(M, 0.0, np.array([1.0, 0.0]))
        assert np.allclose(x, [1.0 / (1.0 + 5e-9), 0.0], rtol=1e-15, atol=0.0)
        assert np.array_equal(M, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("J", [2, 40])
    def test_retry_over_the_pool_buffer_gives_the_bits_of_a_fresh_copy(self, J):
        # a rank-one M of trace J: the factor fails at lambda = 0, and the
        # retry refactors M, recovered from its lower triangle and diagonal
        v = np.linspace(0.5, 1.5, J)
        M = np.outer(v, v) * (J / (v @ v))
        rhs = np.random.default_rng(J).standard_normal(J)
        pool, Mp = _in_pool(M)
        with pytest.warns(RuntimeWarning, match="retrying with lambda=1e-08$"):
            x = spd_solve(Mp, 0.0, rhs, pool=pool)
        assert np.array_equal(x, spd_solve(M.copy(), particles._lam_floor(M), rhs))
        assert np.array_equal(np.tril(Mp, -1), np.tril(M, -1))

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
        pool, Mp = _in_pool(M)
        with pytest.raises(NumericalStabilityError, match="non-finite"):
            spd_solve(Mp, 0.0, np.ones(2), pool=pool)

    def test_non_square_matrix_raises(self):
        for M in (np.ones((3, 2)), np.ones((2, 3)), np.ones(3)):
            with pytest.raises(ValueError):
                spd_solve(M, 0.0, np.ones(M.shape[0]))

    def test_solution_is_not_a_pool_buffer(self):
        x = np.random.default_rng(3).standard_normal((40, 2))
        pool = _BufferPool()
        ws = build_workspace(x, KernelSpec(), pool)
        out = spd_solve(ws.M, 1e-3, np.ones(40), pool=pool)
        assert np.shares_memory(ws.M, pool.get("D", (40, 40)))  # the factor's home
        for buf in pool._flat.values():
            assert not np.shares_memory(out, buf)


def _spd_system(J, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((J, J))
    return B @ B.T / J + 0.5 * np.eye(J), rng.standard_normal(J)


def _in_pool(M):
    """A buffer pool and a copy of M in its ``"D"``, where a step's M lives."""
    pool = _BufferPool()
    Mp = pool.get("D", M.shape)
    np.copyto(Mp, M)
    return pool, Mp


def _scipy_solves(factor, rhs):
    """The solve that spd_solve makes, done by scipy on the factor that it
    wrote over the upper triangle of ``factor``."""
    return lapack.dpotrs(factor.T, np.array(rhs, dtype=np.float64), lower=1)[0]


def _without_native_cholesky(monkeypatch):
    """Unbind the Cholesky routines, as on a numpy that exports neither."""
    for name in ("_DPOTRF", "_DPOTRS"):
        monkeypatch.setattr(_blas, name, None)


class TestTriangularSolves:
    """The Cholesky solve on numpy's OpenBLAS against scipy on the same
    factor, bit for bit, and the lazy scipy path when numpy exports none."""

    def test_numpy_blas_handle_resolved(self):
        # a misspelt symbol would fall back silently, moving bits only
        # within the reference tolerance
        from numpy.linalg import _umath_linalg

        if not getattr(_umath_linalg, "_ilp64", False):
            pytest.skip("numpy's linalg is not linked to an ILP64 OpenBLAS")
        for name in HANDLES:
            assert getattr(_blas, name) is not None, name

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("J", [300, 1000])
    def test_bitwise_equal_to_scipy(self, J, pooled):
        M, rhs = _spd_system(J, seed=J)
        M_before, rhs_before = M.copy(), rhs.copy()
        pool, L = _in_pool(M)
        x_pool = spd_solve(L, 1e-3, rhs, pool=pool)  # L now holds the factor
        x = x_pool if pooled else spd_solve(M, 1e-3, rhs)
        assert np.array_equal(x, _scipy_solves(L, rhs))
        assert np.array_equal(M, M_before) and np.array_equal(rhs, rhs_before)

    def test_strided_and_integer_rhs(self):
        J = 50
        M, _ = _spd_system(J)
        pool, L = _in_pool(M)
        wide = np.arange(2 * J, dtype=np.float64).reshape(J, 2)
        strided, before = wide[:, 1], wide.copy()
        x = spd_solve(L, 0.0, strided, pool=pool)
        assert np.array_equal(x, _scipy_solves(L, np.ascontiguousarray(strided)))
        assert np.array_equal(wide, before)
        ints = np.arange(J) - 7
        assert np.array_equal(spd_solve(M, 0.0, ints), _scipy_solves(L, ints.astype(float)))
        assert np.array_equal(ints, np.arange(J) - 7)

    def test_wrong_rhs_shape_raises(self):
        for rhs in (np.ones(4), np.ones((5, 2))):
            with pytest.raises(ValueError, match="rhs must have shape"):
                spd_solve(np.eye(5), 0.0, rhs)
        # checked before the factorization: neither an indefinite M nor one
        # that would retry turns a bad call into a numerical failure
        for M in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"rhs must have shape \(2,\)"):
                    spd_solve(M, 0.0, np.ones(3))

    # scipy's wheels bundle their own OpenBLAS build, whose factor can differ
    # from numpy's in the last bit; the fallback gives scipy's bits
    @pytest.mark.parametrize("J", [1, 2, 3, 300, 301])
    def test_forced_scipy_fallback_gives_the_same_bits(self, monkeypatch, J):
        M, rhs = _spd_system(J, seed=J)
        fast = spd_solve(M, 1e-3, rhs)
        _without_native_cholesky(monkeypatch)
        pool, L = _in_pool(M)
        x = spd_solve(L, 1e-3, rhs, pool=pool)
        c = lapack.dpotrf((M + 1e-3 * np.eye(J)).T, lower=1, clean=0)[0]
        assert np.array_equal(np.triu(L), np.tril(c).T)
        assert np.array_equal(x, _scipy_solves(L, rhs))
        assert rel_err(x, fast) <= 1e-13

    def test_fallback_without_scipy_says_why(self, monkeypatch):
        _without_native_cholesky(monkeypatch)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        with pytest.raises(ImportError, match="exports no dtrttf, dpotrf or dpotrs"):
            spd_solve(np.eye(2), 0.0, np.ones(2))


class TestInPlaceCholesky:
    """dpotrf over the upper triangle and diagonal of M: the factor of
    M + lam I, the scipy fallback within rounding, the strict lower triangle
    that keeps M, and the median's RFP copy, the one RFP routine left."""

    @pytest.mark.parametrize("J", [1, 64, 300, 301])
    def test_lower_factor_in_place_and_fallback_bits(self, monkeypatch, J):
        M, _ = _spd_system(J, seed=J + 1)
        A, rhs = M + 1e-3 * np.eye(J), np.ones(J)
        pool, fast = _in_pool(M)
        spd_solve(fast, 1e-3, rhs, pool=pool)
        L = np.triu(fast).T  # column-major lower: the row-major upper triangle
        assert np.allclose(L @ L.T, A, rtol=0, atol=1e-13 * np.abs(A).max())
        assert np.array_equal(np.tril(fast, -1), np.tril(M, -1))
        # the factor of scipy's OpenBLAS build agrees with numpy's to rounding
        _without_native_cholesky(monkeypatch)
        pool, slow = _in_pool(M)
        spd_solve(slow, 1e-3, rhs, pool=pool)
        assert np.allclose(slow, fast, rtol=0, atol=1e-13 * np.abs(fast).max())
        assert np.array_equal(np.tril(slow, -1), np.tril(M, -1))

    # the median partitions the RFP copy of D's upper triangle and counts J
    # diagonal zeros in it (kernels._partitioned_median)
    @pytest.mark.parametrize("J", [*range(1, 10), 300, 301])
    def test_rfp_diagonal_matches_a_dtrttf_marker(self, monkeypatch, J):
        marker = np.diag(np.arange(1.0, J + 1))
        for native in (True, False):
            if not native:
                monkeypatch.setattr(_blas, "_DTRTTF", None)
            arf = np.zeros(J * (J + 1) // 2)
            _blas.rfp_copy(marker, arf)
            assert np.count_nonzero(arf) == J
            assert np.array_equal(np.sort(arf[arf != 0]), np.arange(1.0, J + 1))

    @pytest.mark.parametrize("forced_fallback", [False, True])
    def test_indefinite_retries_then_raises(self, monkeypatch, forced_fallback):
        if forced_fallback:
            _without_native_cholesky(monkeypatch)
        assert not _blas.cholesky(np.diag([1.0, -1.0]))
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # trace 2: the retry lambda is tiny
        pool, Mp = _in_pool(M)
        with pytest.warns(RuntimeWarning, match="retrying"):
            with pytest.raises(NumericalStabilityError, match="not positive definite"):
                spd_solve(Mp, 1e-12, np.ones(2), pool=pool)
        assert np.array_equal(Mp, M)  # recovered after each failed factor


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


class TestGramWithoutBlas:
    """The rank-k updates of M through np.matmul, as on a numpy that exports
    no dsyrk or dsyr2k: the same M up to rounding."""

    @pytest.mark.parametrize("offset", [0.0, 40.0])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matmul_updates_match_blas_and_oracle(self, monkeypatch, d, offset):
        J = 50
        x = np.random.default_rng(37 + d).standard_normal((J, d)) + offset
        ws = build_workspace(x, KernelSpec(), _BufferPool())
        blas = ws.M.copy()
        B = basis_gradient_oracle(x, ws.h)
        monkeypatch.setattr(_blas, "_DSYRK", None)
        monkeypatch.setattr(_blas, "_DSYR2K", None)
        for pool in (None, _BufferPool()):
            M = build_workspace(x, KernelSpec(), pool).M
            assert np.array_equal(M, M.T)
            assert rel_err(M, blas) <= 1e-13
            assert rel_err(M, B @ B.T / J) <= 1e-13


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
