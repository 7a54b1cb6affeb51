"""The transport update rules: velocity field, importance transport map, and
the stochastic drift."""

import ast
from pathlib import Path

import numpy as np
import pytest

from kfrflow import flows, kernels, particles
from kfrflow.errors import CapabilityError
from kfrflow.flows import (
    kfrd_drift,
    kfrflow_i_step,
    kfrflow_velocity,
    sample_ot_newton,
    tempered_score,
)
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, _BufferPool, build_workspace, median_bandwidth
from kfrflow.particles import Ensemble, importance_weights
from kfrflow.targets import TargetModel, make_bayesian_2d, make_funnel, make_gaussian

from helpers import imq_matrix, velocity_oracle


def constant_ratio_target(dim, value=3.25):
    return TargetModel(
        name="const",
        dim=dim,
        log_ratio=lambda x: np.full(np.atleast_2d(x).shape[0], value),
        sample_reference=lambda rng, n: rng.standard_normal((n, dim)),
    )


def shifted_target(target, c):
    return TargetModel(
        name=target.name + "+c",
        dim=target.dim,
        log_ratio=lambda x: target.log_ratio(x) + c,
        sample_reference=target.sample_reference,
        score_reference=target.score_reference,
        score_target=target.score_target,
    )


def quantized_target(base, scale=16.0, grid=2**20):
    """Log ratio rounded onto a dyadic grid in (-8, 0], so +7.3 is exact."""

    def lr(x):
        return np.floor(base.log_ratio(np.atleast_2d(x)) / scale * grid) / grid

    return TargetModel(
        name="quantized",
        dim=base.dim,
        log_ratio=lr,
        sample_reference=base.sample_reference,
        score_reference=base.score_reference,
        score_target=base.score_target,
    )


class TestVelocity:
    def test_constant_ratio_gives_zero(self):
        target = constant_ratio_target(2)
        rng = np.random.default_rng(40)
        e = Ensemble(rng.standard_normal((10, 2)), 0.0)
        v = kfrflow_velocity(e, target, KernelSpec(), lam=1e-6)
        assert np.array_equal(v, np.zeros((10, 2)))

    def test_shift_invariance_bitwise_on_quantized_target(self):
        base = quantized_target(make_bayesian_2d("donut"))
        rng = np.random.default_rng(41)
        e = Ensemble(rng.standard_normal((25, 2)), 0.0)
        spec = KernelSpec()
        v0 = kfrflow_velocity(e, base, spec, 0.0)
        v1 = kfrflow_velocity(e, shifted_target(base, 7.3), spec, 0.0)
        assert np.array_equal(v0, v1)

    def test_shift_invariance_generic_target(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(42)
        e = Ensemble(rng.standard_normal((30, 2)), 0.0)
        spec = KernelSpec()
        v0 = kfrflow_velocity(e, donut, spec, 1e-6)
        v1 = kfrflow_velocity(e, shifted_target(donut, 7.3), spec, 1e-6)
        assert np.allclose(v0, v1, rtol=1e-10, atol=1e-12)

    def test_permutation_equivariance(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(43)
        x = rng.standard_normal((12, 2))
        perm = rng.permutation(12)
        spec = KernelSpec()
        v = kfrflow_velocity(Ensemble(x, 0.0), donut, spec, 1e-6)
        vp = kfrflow_velocity(Ensemble(x[perm], 0.0), donut, spec, 1e-6)
        assert np.allclose(vp, v[perm], rtol=1e-8, atol=1e-12)

    def test_small_instance_against_loop_oracle(self):
        rng = np.random.default_rng(44)
        cases = (
            # fixed moderate bandwidth keeps the unregularized system solvable
            (make_gaussian([1.0, -0.5], 0.5), rng.standard_normal((5, 2)), (0.0, 1e-3)),
            # d = 20 far from the origin: the distance-only Gram matrix
            (make_gaussian(np.full(20, 40.0), 0.5), rng.standard_normal((8, 20)) + 40.0, (1e-3,)),
        )
        spec = KernelSpec(bandwidth=0.5)
        for target, x, lams in cases:
            e = Ensemble(x, 0.0)
            for lam in lams:
                v = kfrflow_velocity(e, target, spec, lam)
                vo = velocity_oracle(e, target, spec, lam)
                assert np.linalg.norm(v - vo) <= 1e-10 * (1 + np.linalg.norm(vo))


class TestLogRatioShape:
    def test_short_log_ratio_names_both_shapes(self):
        rng = np.random.default_rng(45)
        e = Ensemble(rng.standard_normal((6, 2)), 0.0)
        short = TargetModel(
            name="short",
            dim=2,
            log_ratio=lambda x: np.zeros(np.atleast_2d(x).shape[0] - 1),
            sample_reference=lambda rng, n: rng.standard_normal((n, 2)),
        )
        for call in (
            lambda: kfrflow_velocity(e, short, KernelSpec(), 1e-6),
            lambda: importance_weights(e, short, 0.1),
        ):
            with pytest.raises(ValueError, match=r"\(5,\).*\(6,\)"):
                call()


class TestImportanceStep:
    def test_zero_dt_is_identity_bitwise(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(45)
        e = Ensemble(rng.standard_normal((15, 2)), 0.0)
        out = kfrflow_i_step(e, donut, KernelSpec(), 0.0, 0.0)
        assert np.array_equal(out.positions, e.positions)
        assert out.t == 0.0

    def test_constant_ratio_is_identity(self):
        target = constant_ratio_target(2)
        rng = np.random.default_rng(46)
        e = Ensemble(rng.standard_normal((8, 2)), 0.0)
        out = kfrflow_i_step(e, target, KernelSpec(), 0.25, 0.0)
        assert np.array_equal(out.positions, e.positions)
        assert out.t == 0.25

    def test_shift_invariance_bitwise_on_quantized_target(self):
        base = quantized_target(make_bayesian_2d("donut"))
        rng = np.random.default_rng(47)
        e = Ensemble(rng.standard_normal((20, 2)), 0.0)
        spec = KernelSpec()
        a = kfrflow_i_step(e, base, spec, 0.01, 0.0)
        b = kfrflow_i_step(e, shifted_target(base, 7.3), spec, 0.01, 0.0)
        assert np.array_equal(a.positions, b.positions)

    def test_displacement_rate_converges_to_velocity_second_target(self):
        # first-order limit on a second target (the donut case is pinned in
        # the acceptance suite)
        bf = make_bayesian_2d("butterfly")
        spec = KernelSpec()
        x = np.random.default_rng(9).standard_normal((30, 2))
        ens = Ensemble(x, 0.0)
        v = kfrflow_velocity(ens, bf, spec, 0.0)
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            disp = (kfrflow_i_step(ens, bf, spec, dt, 0.0).positions - x) / dt
            errs.append(np.max(np.linalg.norm(disp - v, axis=1)))
        assert 1.5 <= errs[0] / errs[1] <= 2.5
        assert 1.5 <= errs[1] / errs[2] <= 2.5

    def test_rejects_step_beyond_unit_time(self):
        donut = make_bayesian_2d("donut")
        e = Ensemble(np.zeros((3, 2)), 0.995)
        with pytest.raises(ValueError, match="unit time"):
            kfrflow_i_step(e, donut, KernelSpec(), 0.01, 0.0)

    def test_weight_degeneracy_warns(self):
        target = make_gaussian([40.0, 0.0], 0.1)
        rng = np.random.default_rng(48)
        e = Ensemble(rng.standard_normal((10, 2)), 0.0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            kfrflow_i_step(e, target, KernelSpec(), 1.0, 1e-6)

    def test_displacement_bounded_by_bandwidth(self):
        # the degenerate-weights fixture asks for a 2.8 h move at lam=1e-6
        target = make_gaussian([40.0, 0.0], 0.1)
        rng = np.random.default_rng(48)
        e = Ensemble(rng.standard_normal((10, 2)), 0.0)
        h = median_bandwidth(e)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            out = kfrflow_i_step(e, target, KernelSpec(), 1.0, 1e-6)
        moved = np.linalg.norm(out.positions - e.positions, axis=1)
        assert 0.0 < moved.max() <= h

    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_raised_lambda_refactors_the_pooled_M_as_a_fresh_copy(self, monkeypatch, lam):
        # the same fixture at J = 100: lambda is raised seven times, and each
        # pooled re-solve factors M recovered from its lower triangle and kept
        # diagonal, as the fresh step factors its untouched M
        target = make_gaussian([40.0, 0.0], 0.1)
        e = Ensemble(np.random.default_rng(48).standard_normal((100, 2)), 0.0)
        floor = particles._lam_floor(build_workspace(e, KernelSpec()).M)
        lams, real = [], flows.spd_solve

        def recorded(M, lam, rhs, pool=None):
            lams.append(lam)
            return real(M, lam, rhs, pool)

        monkeypatch.setattr(flows, "spd_solve", recorded)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            fresh = kfrflow_i_step(e, target, KernelSpec(), 1.0, lam).positions
            pooled = kfrflow_i_step(e, target, KernelSpec(), 1.0, lam, pool=_BufferPool())
        n = len(lams) // 2
        assert n >= 8 and lams[:n] == lams[n:] and lams[1] == max(10.0 * lam, floor)
        assert np.array_equal(pooled.positions, fresh)

    def test_donut_outlier_seeds_stay_on_the_ring(self):
        # reference outliers at these seeds once threw their neighbours
        # several bandwidths per step, to radius ~190
        donut = make_bayesian_2d("donut")
        spec = KernelSpec()
        for seed in (5002, 2012):
            ens = Ensemble(donut.sample_reference(make_rng(seed), 300), 0.0)
            for _ in range(100):
                ens = kfrflow_i_step(ens, donut, spec, 0.01, 1e-6)
            assert np.linalg.norm(ens.positions, axis=1).max() < 6.0


class TestNewtonTransport:
    def test_single_iteration_matches_i_step_bitwise(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(49)
        e = Ensemble(rng.standard_normal((20, 2)), 0.0)
        spec = KernelSpec()
        a = kfrflow_i_step(e, donut, spec, 0.02, 1e-8)
        b = sample_ot_newton(e, donut, spec, 0.02, 1e-8, iters=1)
        assert np.array_equal(a.positions, b.positions)

    def test_uniform_weights_keep_map_identity(self):
        target = constant_ratio_target(2)
        rng = np.random.default_rng(50)
        e = Ensemble(rng.standard_normal((10, 2)), 0.0)
        out = sample_ot_newton(e, target, KernelSpec(), 0.1, 0.0, iters=4)
        assert np.array_equal(out.positions, e.positions)

    def test_extra_iterations_contract_residual(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(55)
        x = rng.standard_normal((50, 2))
        e = Ensemble(x, 0.0)
        spec = KernelSpec()
        lam = 1e-3  # keeps the sample-equivalence Jacobian well conditioned
        h = median_bandwidth(x)
        ws = build_workspace(e, spec)
        w = importance_weights(e, donut, 0.05)
        b = w @ ws.Kmat

        def residual_after(iters):
            out = sample_ot_newton(e, donut, spec, 0.05, lam, iters=iters)
            g = imq_matrix(out.positions, x, h).mean(axis=0)
            return np.linalg.norm(g - b)

        r1, r3 = residual_after(1), residual_after(3)
        # observed on this fixture: r1 = 2.40e-2, r3 = 1.48e-3 (ratio 0.062)
        assert r3 <= 0.2 * r1

    def test_invalid_iters_rejected(self):
        donut = make_bayesian_2d("donut")
        e = Ensemble(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            sample_ot_newton(e, donut, KernelSpec(), 0.1, 0.0, iters=0)


@pytest.fixture
def pair_passes(monkeypatch):
    """Every pass over the pairs made through the modules that measure them:
    the coordinate pass _pair_sq and, from _DISTANCE_GRAM_MIN_DIM on, the
    product form _pair_sq_product of one ensemble."""
    calls = []
    real, real_product = kernels._pair_sq, kernels._pair_sq_product

    def counted(xa, xb, pool=None):
        calls.append((xa.shape, xb.shape))
        return real(xa, xb, pool)

    def counted_product(x, pool=None):
        calls.append((x.shape, x.shape))
        return real_product(x, pool)

    for module in (kernels, flows):
        monkeypatch.setattr(module, "_pair_sq", counted)
    monkeypatch.setattr(kernels, "_pair_sq_product", counted_product)
    return calls


class TestPairPasses:
    """Each step measures the pairs of its ensemble once."""

    @pytest.mark.parametrize("d", [2, 20])
    def test_workspace_makes_one_pass(self, pair_passes, d):
        x = np.random.default_rng(60).standard_normal((40, d))
        ws = build_workspace(x, KernelSpec())
        assert len(pair_passes) == 1
        if d >= kernels._DISTANCE_GRAM_MIN_DIM:
            # the shared D gives the M of a fresh product-form pass bit for bit
            D = kernels._pair_sq_product(x)
            assert np.array_equal(ws.M, kernels._grad_gram(x, ws.Kmat, ws.h, D, s=ws.s))

    def test_importance_step_makes_one_pass(self, pair_passes):
        e = Ensemble(np.random.default_rng(61).standard_normal((40, 20)), 0.0)
        kfrflow_i_step(e, make_funnel(20), KernelSpec(), 0.1, 1e-3)
        assert len(pair_passes) == 1

    @pytest.mark.parametrize("d", [2, 20])
    def test_newton_reuses_its_pair_matrices(self, pair_passes, d):
        # the workspace, the centres' D once for the distance-form Jacobians,
        # and one pass per displaced iterate: the last one feeds the
        # divergence guard
        iters = 3
        e = Ensemble(np.random.default_rng(62).standard_normal((40, d)), 0.0)
        sample_ot_newton(e, make_funnel(d), KernelSpec(), 0.1, 1e-3, iters=iters)
        assert len(pair_passes) == 1 + (d >= kernels._DISTANCE_GRAM_MIN_DIM) + iters


class TestJacobianCentres:
    """What the Newton Jacobian reads of the centres x alone, kernels forms
    once per step; flows does not know its form."""

    @pytest.mark.parametrize("J, d", [(40, 1), (40, 2), (400, 2)])
    def test_newton_forms_the_centres_blocks_once(self, monkeypatch, J, d):
        # J = 400 keeps s in row strips, so the blocks need the whole of it
        centres = []
        real = kernels._grad_blocks

        def counted(xa, xb, s):
            if xa is xb:
                centres.append(xa)
            return real(xa, xb, s)

        monkeypatch.setattr(kernels, "_grad_blocks", counted)
        e = Ensemble(np.random.default_rng(63).standard_normal((J, d)), 0.0)
        sample_ot_newton(e, make_gaussian([1.0] * d, 0.5), KernelSpec(), 0.1, 1e-3, iters=3)
        assert len(centres) == 1

    def test_only_kernels_names_the_distance_form(self):
        src = Path(kernels.__file__).parent
        named = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None))
                if "_DISTANCE_GRAM_MIN_DIM" in names:
                    named.add(path.name)
        assert named == {"kernels.py"}


class TestGradApplies:
    """Each Newton iteration applies the gradient basis once: its displacement
    gives the next Jacobian's points and, after the last iteration, the
    result."""

    @pytest.mark.parametrize("d", [2, 20])
    def test_newton_applies_once_per_iteration(self, monkeypatch, d):
        calls = {"_grad_apply": 0, "spd_solve": 0}
        for name in calls:
            def counted(*args, _real=getattr(flows, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(flows, name, counted)
        iters = 3
        e = Ensemble(np.random.default_rng(62).standard_normal((40, d)), 0.0)
        sample_ot_newton(e, make_funnel(d), KernelSpec(), 0.1, 1e-3, iters=iters)
        # one solve: the bandwidth bound did not raise lambda on this fixture
        assert calls == {"_grad_apply": iters, "spd_solve": 1}

    def test_diverging_newton_keeps_best_iterate_without_reapplying(self, monkeypatch):
        # at lambda = 0 the second step of this ensemble diverges after four
        # of five iterations; the best one is neither x nor the last one
        donut, spec = make_bayesian_2d("donut"), KernelSpec()
        e = Ensemble(donut.sample_reference(make_rng(0), 40), 0.0)
        e = sample_ot_newton(e, donut, spec, 0.1, 0.0, iters=5)
        calls = {"_grad_apply": 0, "spd_solve": 0, "solve": 0}
        measured = []  # the iterates whose residual the step measured
        for module, name in ((flows, "_grad_apply"), (flows, "spd_solve"), (np.linalg, "solve")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        real_pair_sq = flows._pair_sq

        def recorded(y, x, pool=None):
            measured.append(y)
            return real_pair_sq(y, x, pool)

        monkeypatch.setattr(flows, "_pair_sq", recorded)
        with pytest.warns(RuntimeWarning, match="diverging"):
            out = sample_ot_newton(e, donut, spec, 0.1, 0.0, iters=5)
        monkeypatch.undo()
        # each solve, of M or of a Jacobian, is applied once, and no iterate again
        assert calls["_grad_apply"] == calls["spd_solve"] + calls["solve"]
        assert calls["solve"] == len(measured) - 1 < 4
        x = e.positions
        ws = build_workspace(e, spec)
        b = importance_weights(e, donut, 0.1) @ ws.Kmat
        iterates = [x, *measured]
        norms = [np.linalg.norm(imq_matrix(y, x, ws.h).mean(axis=0) - b) for y in iterates]
        best = int(np.argmin(norms))
        assert 0 < best < len(measured)
        assert np.array_equal(out.positions, iterates[best])


class TestTemperedScore:
    def test_endpoints(self):
        g = make_gaussian([2.0], 0.5)
        x = np.array([[1.0], [0.0]])
        assert np.array_equal(tempered_score(g, x, 0.0), -x)
        assert np.allclose(tempered_score(g, x, 1.0), g.score_target(x), rtol=1e-15)

    def test_midpoint_value(self):
        g = make_gaussian([0.0], 0.5)
        x = np.array([1.0])
        # 0.5*(-1) + 0.5*(-4)
        assert tempered_score(g, x, 0.5)[0] == pytest.approx(-2.5, rel=1e-15)

    def test_missing_scores_raise(self):
        bare = constant_ratio_target(2)
        with pytest.raises(CapabilityError, match="scores"):
            tempered_score(bare, np.zeros((1, 2)), 0.5)


class TestKfrdDrift:
    def test_zero_noise_reduces_to_velocity(self):
        donut = make_bayesian_2d("donut")
        rng = np.random.default_rng(52)
        e = Ensemble(rng.standard_normal((12, 2)), 0.3)
        spec = KernelSpec()
        drift, coeff = kfrd_drift(e, donut, spec, 1e-6, 0.0)
        v = kfrflow_velocity(e, donut, spec, 1e-6)
        assert np.array_equal(drift, v)
        assert coeff == 0.0

    def test_pure_reference_pull(self):
        # constant ratio + unit gaussian target: drift row j = -X_j, coeff sqrt(2)
        g = make_gaussian(np.zeros(2), 1.0)
        rng = np.random.default_rng(53)
        e = Ensemble(rng.standard_normal((9, 2)), 0.4)
        drift, coeff = kfrd_drift(e, g, KernelSpec(), 1e-6, 1.0)
        assert np.allclose(drift, -e.positions, rtol=1e-12, atol=1e-12)
        assert coeff == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_funnel_drift_finite(self):
        from kfrflow.targets import make_funnel

        f = make_funnel(10)
        rng = np.random.default_rng(54)
        e = Ensemble(f.sample_reference(rng, 100), 0.5)
        drift, coeff = kfrd_drift(e, f, KernelSpec(), 1e-3, 5.0)
        assert np.isfinite(drift).all()
        assert coeff == pytest.approx(np.sqrt(10.0), rel=1e-15)

    def test_shift_invariance_bitwise_on_quantized_target(self):
        base = quantized_target(make_bayesian_2d("donut"))
        rng = np.random.default_rng(55)
        e = Ensemble(rng.standard_normal((15, 2)), 0.25)
        spec = KernelSpec()
        d0, c0 = kfrd_drift(e, base, spec, 0.0, 0.5)
        d1, c1 = kfrd_drift(e, shifted_target(base, 7.3), spec, 0.0, 0.5)
        assert np.array_equal(d0, d1)
        assert c0 == c1

    def test_rejects_bad_lambda_and_eps(self):
        donut = make_bayesian_2d("donut")
        e = Ensemble(np.random.default_rng(56).standard_normal((8, 2)), 0.3)
        with pytest.raises(ValueError):
            kfrd_drift(e, donut, KernelSpec(), -1.0, 0.0)
        with pytest.raises(ValueError):
            kfrd_drift(e, donut, KernelSpec(), 0.0, -0.5)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda must be finite"):
                kfrd_drift(e, donut, KernelSpec(), value, 0.0)
            with pytest.raises(ValueError, match="eps must be finite"):
                kfrd_drift(e, donut, KernelSpec(), 0.0, value)
