"""IMQ kernel evaluations, gradients, batch assembly, and bandwidth selection."""

import math

import numpy as np
import pytest

from scipy.spatial.distance import cdist, pdist

from kfrflow import _blas, kernels
from kfrflow.kernels import (
    KernelSpec,
    _differences,
    _grad_blocks,
    _grad_gram,
    _grad_jacobian,
    _grad_scale,
    _pair_kernel,
    _pair_sq,
    kernel_matrix,
    median_bandwidth,
)

from helpers import basis_gradient_oracle, central_diff_grad, imq_eval, imq_grad1, rel_err


class TestImqEval:
    def test_coincident_points_give_one(self):
        for d in (1, 2, 5):
            x = np.linspace(0.0, 1.0, d)
            assert imq_eval(x, x, 1.0) == 1.0

    def test_distance_equal_to_bandwidth(self):
        assert imq_eval(np.array([2.0]), np.array([0.5]), 1.5) == pytest.approx(
            2.0**-0.5, rel=1e-15
        )

    def test_frozen_value(self):
        # (1 + 25/4)^(-1/2), computed independently
        got = imq_eval(np.array([3.0, 0.0]), np.array([0.0, 4.0]), 2.0)
        assert got == pytest.approx(0.3713906763541037, rel=1e-14)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3))
            h = float(rng.uniform(0.2, 3.0))
            k = imq_eval(x, y, h)
            assert k == imq_eval(y, x, h)
            assert 0.0 < k <= 1.0
            assert (k == 1.0) == bool(np.all(x == y))

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            imq_eval(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            imq_eval(np.zeros(2), np.zeros(2), -1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            imq_eval(np.zeros(2), np.zeros(3), 1.0)


class TestImqGrad:
    def test_zero_at_coincidence(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(imq_grad1(x, x, 0.7), np.zeros(2))

    def test_frozen_value_1d(self):
        # -1 * 2^(-3/2)
        got = imq_grad1(np.array([1.0]), np.array([0.0]), 1.0)
        assert got[0] == pytest.approx(-0.3535533905932738, rel=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.standard_normal((2, 3))
            h = float(rng.uniform(0.4, 2.0))
            fd = central_diff_grad(lambda z: imq_eval(z, y, h), x)
            assert rel_err(imq_grad1(x, y, h), fd) < 1e-6

    def test_antisymmetric_in_difference(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 4))
        assert np.allclose(imq_grad1(x, y, 1.3), -imq_grad1(y, x, 1.3), rtol=1e-15)


class TestKernelMatrix:
    def test_single_particle(self):
        k = kernel_matrix(np.zeros((1, 3)), KernelSpec(bandwidth=1.0))
        assert np.array_equal(k, np.ones((1, 1)))

    def test_coincident_pair(self):
        x = np.ones((2, 2))
        k = kernel_matrix(x, KernelSpec(bandwidth=2.0))
        assert np.array_equal(k, np.ones((2, 2)))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2))
        k = kernel_matrix(x, KernelSpec())
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(3))
        off = k[~np.eye(3, dtype=bool)]
        assert np.all((off > 0) & (off < 1))

    def test_cross_matches_eval(self):
        rng = np.random.default_rng(4)
        xa = rng.standard_normal((4, 2))
        xb = rng.standard_normal((3, 2))
        _, k = _pair_kernel(xa, xb, 0.8)
        for i in range(4):
            for j in range(3):
                assert k[i, j] == pytest.approx(imq_eval(xa[i], xb[j], 0.8), rel=1e-14)


def jacobian(x, h, i):
    """Jacobian of the basis map x -> (K(x, X_1), ..., K(x, X_J)) at X_i:
    row j is grad_x K(x, X_j) at x = X_i, read from the gradient blocks."""
    _, q = _pair_kernel(x, x, h)
    return _grad_blocks(x, x, _grad_scale(q, h))[:, i, :].T


class TestKernelJacobian:
    def test_single_particle_zero(self):
        jac = jacobian(np.zeros((1, 3)), 1.0, 0)
        assert np.array_equal(jac, np.zeros((1, 3)))

    def test_rows_match_pointwise_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 2))
        for i in range(5):
            jac = jacobian(x, 1.1, i)
            for j in range(5):
                assert rel_err(jac[j], imq_grad1(x[i], x[j], 1.1)) < 1e-14

    def test_translation_equivariance(self):
        # coordinates on a dyadic grid so the shift is exact in float64
        rng = np.random.default_rng(6)
        x = np.floor(rng.standard_normal((6, 2)) * 2**20) / 2**20
        shift = 0.5
        for i in range(6):
            assert np.array_equal(jacobian(x, 0.9, i), jacobian(x + shift, 0.9, i))

    def test_batch_tensor_consistent(self):
        # one evaluation point against the basis gives the same blocks,
        # bit for bit, as the square batch
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        for i in range(4):
            _, q = _pair_kernel(x[i : i + 1], x, 0.75)
            row = _grad_blocks(x[i : i + 1], x, _grad_scale(q, 0.75))
            assert np.array_equal(row[:, 0, :].T, jacobian(x, 0.75, i))


class TestPairKernel:
    def test_blocks_match_pointwise_gradient(self):
        rng = np.random.default_rng(10)
        xa = rng.standard_normal((4, 3))
        xb = rng.standard_normal((5, 3))
        h, q = _pair_kernel(xa, xb, 0.9)
        G = _grad_blocks(xa, xb, _grad_scale(q, h))
        assert h == 0.9 and q.shape == (4, 5) and G.shape == (3, 4, 5)
        for i in range(4):
            for ell in range(5):
                assert rel_err(G[:, i, ell], imq_grad1(xa[i], xb[ell], 0.9)) < 1e-14

    def test_blocks_exactly_antisymmetric_on_one_ensemble(self):
        rng = np.random.default_rng(11)
        for J, d in ((1, 1), (2, 2), (30, 5)):
            x = rng.standard_normal((J, d)) * 3.0
            h, q = _pair_kernel(x, x, KernelSpec())
            G = _grad_blocks(x, x, _grad_scale(q, h))
            assert np.array_equal(q, q.T)
            for a in range(d):
                assert np.array_equal(G[a], -G[a].T)

    def test_spec_policy_resolved_on_the_pairs(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((9, 2))
        assert _pair_kernel(x, x, KernelSpec())[0] == median_bandwidth(x)
        assert _pair_kernel(x, x, KernelSpec(bandwidth=0.4))[0] == 0.4
        assert _pair_kernel(np.ones((3, 2)), np.ones((3, 2)), KernelSpec())[0] == 1e-6


def _bits(a):
    """The float64 bit patterns of ``a``: == on them tells -0 from +0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestDifferences:
    """[a, 1] @ [1; -b] has exact products, so it equals a - b bit for bit."""

    EDGES = np.array([
        5e-324, -5e-324, 2.5e-310, -1.7e-308, 1e308, -1e308, 8.9e307,  # subnormal, overflow
        1e-300, 1e300, -3.7e5, 2e-8, 1.0, 1.0 + 2.0**-52, -0.75, 0.0,  # mixed magnitudes
    ])

    def check(self, xa, xb, rows=slice(None), cols=slice(None)):
        diff = _differences(xa, xb)
        for a in range(xa.shape[1]):
            with np.errstate(over="ignore"):
                expected = np.subtract.outer(xa[rows, a], xb[cols, a])
                got = diff(a, np.full(expected.shape, np.nan), rows, cols)
            assert np.array_equal(_bits(got), _bits(expected)), a

    def test_edge_values_bitwise(self):
        x = np.stack((self.EDGES, self.EDGES[::-1]), axis=1)
        with np.errstate(over="ignore"):
            assert np.isinf(np.subtract.outer(x[:, 0], x[:, 0])).any()
        self.check(x, x)  # equal points give +0
        self.check(x, x[::-1].copy())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_rows_and_ragged_slices(self, n):
        rng = np.random.default_rng(n)
        xa = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
        xb = np.concatenate((xa, rng.standard_normal((5, 2))))
        self.check(xa, xb)
        self.check(xb, xa)
        self.check(xb, xb, slice(n - 1, None), slice(2, None))

    def test_f_order_and_strided_operands(self):
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((40, 7)) * 1e3
        for xa in (np.asfortranarray(wide), wide[::3, 1::2]):
            self.check(xa, wide[5:15, : xa.shape[1]])
            self.check(xa, xa, slice(2, 9), slice(1, None))

    def test_negative_zero_minus_zero_keeps_its_value(self):
        # -0 - (+0) is the one difference whose sign may differ: +0 or -0
        got = _differences(np.array([[-0.0]]), np.array([[0.0]]))(0, np.empty((1, 1)))
        assert got[0, 0] == 0.0


class TestGradBlocks:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("same", [True, False])
    def test_bitwise_equal_to_outer_difference_oracle(self, d, same):
        rng = np.random.default_rng(20 + d)
        x = rng.standard_normal((17, d)) + 30.0
        y = x if same else x + 0.3 * rng.standard_normal((17, d))
        h, q = _pair_kernel(y, x, 0.8)
        s = _grad_scale(q, h)
        G = _grad_blocks(y, x, s)
        for a in range(d):
            assert np.array_equal(_bits(G[a]), _bits(np.subtract.outer(y[:, a], x[:, a]) * s))


class TestPairSq:
    """_pair_sq sums the coordinates in cdist's order, so it matches it with ==."""

    @pytest.mark.parametrize("J", [1, 2, 7, 300, 1001])
    @pytest.mark.parametrize("d", [1, 2, 3, 20, 64])
    def test_bitwise_equal_to_cdist(self, J, d):
        # J = 1001 and d = 64 take several row blocks with a ragged last one
        rng = np.random.default_rng(1000 * J + d)
        x = rng.standard_normal((J, d)) + 40.0
        y = rng.standard_normal((J + 3, d))
        wide = rng.standard_normal((2 * J, d + 1))
        cases = {
            "symmetric": (x, x),
            "equal copy": (x, x.copy()),
            "cross": (y, x),
            "F-order": (np.asfortranarray(x),) * 2,
            "strided": (wide[::2, 1:],) * 2,
        }
        for name, (xa, xb) in cases.items():
            got = _pair_sq(xa, xb)
            assert np.array_equal(got, cdist(xa, xb, "sqeuclidean")), name
            if xa is xb:
                assert np.array_equal(got, got.T), name
                assert not np.diagonal(got).any(), name

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_strips_bitwise_equal_to_cdist(self, monkeypatch, block):
        # many strips, ragged ones and a strip narrower than a row
        monkeypatch.setattr(kernels, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        x = rng.standard_normal((23, 4)) * 5.0
        y = rng.standard_normal((9, 4))
        x2, x3 = x[:2], x[:3]
        for xa, xb in ((x, x), (y, x), (x, y), (x2, x2), (x3, x3)):
            got = _pair_sq(xa, xb, kernels._BufferPool())
            assert np.array_equal(got, cdist(xa, xb, "sqeuclidean"))

    def test_empty_dimension_gives_zero_distances(self):
        assert np.array_equal(_pair_sq(np.empty((3, 0)), np.empty((2, 0))), np.zeros((3, 2)))


class TestGradGram:
    def test_newton_jacobian_at_displaced_points_matches_oracle(self):
        # both routes: stacked blocks at d = 2, squared distances at d = 20
        rng = np.random.default_rng(13)
        J = 30
        for d in (2, 20):
            x = rng.standard_normal((J, d)) + 40.0
            y = x + 0.3 * rng.standard_normal((J, d))
            h, q = _pair_kernel(x, x, KernelSpec())
            _, qy = _pair_kernel(y, x, h)
            expected = basis_gradient_oracle(x, h, y) @ basis_gradient_oracle(x, h).T / J
            jac = _grad_jacobian(x, q, h, None)(y, qy, _pair_sq(y, x))
            assert rel_err(jac, expected) <= 1e-13, d

    def test_jacobian_leaves_distances_intact(self):
        # the centres' D, formed once per step, serves every iterate: two
        # calls with fresh distances of y give the same Jacobian
        rng = np.random.default_rng(15)
        x = rng.standard_normal((40, 20))
        y = x + 0.3 * rng.standard_normal((40, 20))
        h, q = _pair_kernel(x, x, KernelSpec())
        _, qy = _pair_kernel(y, x, h)
        jac = _grad_jacobian(x, q, h, None)
        assert np.array_equal(jac(y, qy, _pair_sq(y, x)), jac(y, qy, _pair_sq(y, x)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("whole_s", [True, False])
    def test_strips_bitwise_equal_to_gradient_blocks_of_their_rows(self, monkeypatch, d, whole_s):
        # J = 701 takes four or five row strips with a ragged last one; each
        # strip that reaches dsyrk is _grad_blocks of its rows, bit for bit
        strips = []
        real = _blas.rank_k_update

        def recorded(c, beta, a, b=None):
            strips.append(a.copy())
            return real(c, beta, a, b)

        monkeypatch.setattr(_blas, "rank_k_update", recorded)
        J = 701
        x = np.random.default_rng(16 + d).standard_normal((J, d)) + 30.0
        h, q = _pair_kernel(x, x, KernelSpec())
        s = _grad_scale(q, h)
        _grad_gram(x, q, h, np.empty((J, J)), s=s if whole_s else None)
        assert len(strips) >= 4
        i0 = 0
        for strip in strips:
            i1 = i0 + strip.shape[0] // d
            expected = _grad_blocks(x[i0:i1], x, s[i0:i1]).reshape(-1, J)
            assert np.array_equal(_bits(strip), _bits(expected)), (i0, i1)
            i0 = i1
        assert i0 == J


class TestMedianBandwidth:
    def test_two_particles_frozen_value(self):
        # sqrt(4 / log 3), computed independently
        x = np.array([[0.0], [2.0]])
        assert median_bandwidth(x) == pytest.approx(1.9081291640000027, rel=1e-12)
        assert median_bandwidth(x) == pytest.approx(
            math.sqrt(4.0 / math.log(3.0)), rel=1e-12
        )

    def test_collapsed_ensemble_clamps_to_floor(self):
        x = np.ones((5, 2))
        assert median_bandwidth(x, h_floor=1e-6) == 1e-6

    def test_single_particle_returns_floor(self):
        assert median_bandwidth(np.zeros((1, 2)), h_floor=1e-3) == 1e-3

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((9, 3))
        h = median_bandwidth(x)
        assert median_bandwidth(2.5 * x) == pytest.approx(2.5 * h, rel=1e-12)

    def test_matches_pdist_median(self):
        # odd and even pair counts J (J - 1) / 2
        rng = np.random.default_rng(14)
        for J in (2, 3, 4, 5, 6, 50, 51, 300):
            for d in (1, 2, 5, 20):
                x = rng.standard_normal((J, d)) + 7.0
                med = float(np.median(pdist(x)))
                expected = max(float(np.sqrt(med**2 / np.log(J + 1))), 1e-6)
                assert median_bandwidth(x) == expected, (J, d)

    def test_one_partition_matches_two_kth(self):
        # the median's two middle order statistics from one two-kth partition,
        # for odd and even pair counts J (J - 1) / 2, with and without ties
        rng = np.random.default_rng(15)
        for J in (2, 3, 4, 5, 6, 8, 301, 302, 1000):
            for x in (rng.standard_normal((J, 2)), rng.integers(0, 3, (J, 2)) * 1.0):
                pairs = _pair_sq(x, x)[np.triu_indices(J, 1)]
                k = pairs.size // 2
                pairs.partition((k - 1, k))
                lo, hi = np.sqrt(pairs[k - 1]), np.sqrt(pairs[k])
                med = float(hi) if pairs.size % 2 else (float(lo) + float(hi)) / 2.0
                expected = max(float(np.sqrt(med**2 / np.log(J + 1))), 1e-6)
                assert median_bandwidth(x) == expected, (J, pairs.size % 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        assert median_bandwidth(x[perm]) == median_bandwidth(x)


class TestKernelSpec:
    def test_fixed_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)

    def test_floor_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(h_floor=0.0)
