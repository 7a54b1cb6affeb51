"""Time-stepping drivers, schedules, and RNG streams."""

import numpy as np
import pytest

from kfrflow.errors import NonFiniteStateError, NumericalStabilityError
from kfrflow.integrators import (
    make_rng,
    run_unit_time,
    sde_stepper,
    velocity_stepper,
)
from kfrflow.particles import Ensemble


class TestSchedule:
    def test_grid_is_exact(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)
        for n in (1, 3, 7, 64, 100):
            times = []
            run_unit_time(
                e, lambda ens: ens, n, [lambda k, t, *_: times.append(t)]
            )
            grid = np.asarray(times)
            assert grid[0] == 0.0
            assert grid[-1] == 1.0
            assert np.all(np.abs(grid - np.arange(n + 1) / n) < 1e-12)

    def test_invalid(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError, match=r"^n_steps must be >= 1, got 0$"):
            run_unit_time(e, lambda ens: ens, 0)


def euler(e, velocity_fn, dt):
    """One step of a fresh Euler velocity stepper."""
    return velocity_stepper(velocity_fn, dt)(e)


class TestEulerStep:
    def test_zero_velocity(self):
        e = Ensemble(np.arange(6.0).reshape(3, 2), 0.0)
        out = euler(e, lambda _: np.zeros((3, 2)), 0.1)
        assert np.array_equal(out.positions, e.positions)
        assert out.t == pytest.approx(0.1)

    def test_constant_velocity_exact_displacement(self):
        e = Ensemble(np.zeros((2, 2)), 0.0)
        c = np.array([[1.0, -2.0], [0.5, 0.25]])
        out = euler(e, lambda _: c, 0.1)
        assert np.array_equal(out.positions, 0.1 * c)

    def test_linear_velocity(self):
        e = Ensemble(np.array([[1.0]]), 0.0)
        out = euler(e, lambda ens: -ens.positions, 0.5)
        assert out.positions[0, 0] == 0.5

    def test_non_finite_velocity_raises(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)
        with pytest.raises(NumericalStabilityError, match="velocity"):
            euler(e, lambda _: np.array([[np.nan]]), 0.1)

    def test_bad_dt(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            euler(e, lambda _: np.zeros((1, 1)), 0.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'rk4'$"):
            velocity_stepper(lambda _: np.zeros((1, 1)), 0.1, "rk4")


class TestAb4Step:
    @staticmethod
    def fourth_step(velocity_fn, ensembles, dt):
        """The result of an AB4 stepper's fourth call, on ensembles[3]; the
        first three calls (Euler warm-up) store the velocities at ensembles[:3]."""
        step = velocity_stepper(velocity_fn, dt, "ab4")
        for e in ensembles[:3]:
            step(e)
        return step(ensembles[3])

    def test_equal_history_reduces_to_euler(self):
        e = Ensemble(np.ones((2, 3)), 0.0)
        v = np.full((2, 3), 0.7)
        out = self.fourth_step(lambda _: v, [e] * 4, 0.05)
        # (55 - 59 + 37 - 9)/24 = 1
        assert np.allclose(out.positions, e.positions + 0.05 * v, rtol=1e-14)

    def test_exact_for_cubic_velocity(self):
        # dx/dt = 4 t^3 has solution x = t^4; one AB4 step from t=0.3 with
        # dt=0.1 must hit 0.4^4 to roundoff
        dt = 0.1
        t = 0.3
        ensembles = [Ensemble(np.array([[s**4]]), s) for s in (0.0, 0.1, 0.2, t)]
        out = self.fourth_step(lambda ens: np.array([[4.0 * ens.t**3]]), ensembles, dt)
        assert out.positions[0, 0] == pytest.approx((t + dt) ** 4, rel=1e-13)

    def test_beats_euler_on_decay_ode(self):
        # dx/dt = -x over [0, 1], N = 64; AB4 (with Euler warm-up) should beat
        # plain Euler by at least 10x in global error
        n, dt = 64, 1.0 / 64

        def global_error(method):
            e = Ensemble(np.array([[1.0]]), 0.0)
            stepper = velocity_stepper(lambda ens: -ens.positions, dt, method)
            for _ in range(n):
                e = stepper(e)
            return abs(e.positions[0, 0] - np.exp(-1.0))

        assert global_error("ab4") * 10 <= global_error("euler")


class TestEulerMaruyama:
    @staticmethod
    def drift_zero(coeff):
        return lambda ens: (np.zeros_like(ens.positions), coeff)

    def test_zero_diffusion_matches_euler_bitwise(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((5, 2))
        v = rng.standard_normal((5, 2))
        e = Ensemble(x, 0.0)
        em = sde_stepper(lambda ens: (v, 0.0), 0.05, make_rng(1))(e)
        eu = euler(e, lambda ens: v, 0.05)
        assert np.array_equal(em.positions, eu.positions)

    def test_increment_variance(self):
        rng = make_rng(2)
        e = Ensemble(np.zeros((10_000, 1)), 0.0)
        out = sde_stepper(self.drift_zero(np.sqrt(2.0)), 0.01, rng)(e)
        var = out.positions.var()
        assert abs(var - 0.02) < 0.002  # rel err < 10%

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_bad_dt(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be > 0, got {dt}$"):
            sde_stepper(self.drift_zero(1.0), dt, make_rng(3))

    def test_fixed_seed_reproducible(self):
        e = Ensemble(np.zeros((50, 2)), 0.0)
        a = sde_stepper(self.drift_zero(1.0), 0.1, make_rng(42))(e)
        b = sde_stepper(self.drift_zero(1.0), 0.1, make_rng(42))(e)
        assert np.array_equal(a.positions, b.positions)


class TestRunUnitTime:
    def test_single_zero_step(self):
        e = Ensemble(np.ones((4, 1)), 0.0)
        seen = []
        stepper = lambda ens: Ensemble(ens.positions, ens.t)
        trace = run_unit_time(e, stepper, 1, [lambda *a: seen.append(a[0])])
        assert seen == [0, 1]
        assert np.array_equal(trace.final.positions, e.positions)
        assert trace.final.t == 1.0

    def test_observer_count_and_final_time(self):
        e = Ensemble(np.zeros((2, 2)), 0.0)
        count = [0]
        stepper = lambda ens: ens
        trace = run_unit_time(
            e, stepper, 100, [lambda *a: count.__setitem__(0, count[0] + 1)]
        )
        assert count[0] == 101
        assert abs(trace.final.t - 1.0) < 1e-12

    def test_requires_time_zero_start(self):
        e = Ensemble(np.zeros((1, 1)), 0.5)
        with pytest.raises(ValueError, match="t=0"):
            run_unit_time(e, lambda ens: ens, 2)

    def test_step_error_carries_index(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)

        calls = []

        def stepper(ens):
            calls.append(ens.t)
            if len(calls) == 4:
                raise NumericalStabilityError("boom")
            return ens

        with pytest.raises(NumericalStabilityError, match="step 3"):
            run_unit_time(e, stepper, 10)

    def test_step_error_keeps_its_own_index(self):
        # an error that a stepper already attributed to a step is not re-filed
        e = Ensemble(np.zeros((1, 1)), 0.0)

        def stepper(ens):
            raise NumericalStabilityError("boom", step=7)

        with pytest.raises(NumericalStabilityError) as info:
            run_unit_time(e, stepper, 3)
        assert info.value.step == 7 and str(info.value) == "step 7: boom"

    def test_other_step_errors_propagate_unchanged(self):
        # only numerical failures are attributed to a step; a ValueError (a
        # fault in the caller or the target) is not re-filed as one
        e = Ensemble(np.zeros((1, 1)), 0.0)

        def stepper(ens):
            raise ValueError("log_ratio returned shape (0,)")

        with pytest.raises(ValueError, match=r"^log_ratio returned shape \(0,\)$") as info:
            run_unit_time(e, stepper, 3)
        assert not isinstance(info.value, NumericalStabilityError)

    def test_blowup_positions_flagged_with_step(self):
        from types import SimpleNamespace

        e = Ensemble(np.zeros((1, 1)), 0.0)

        calls = []

        def stepper(ens):
            calls.append(ens.t)
            pos = ens.positions + (np.inf if len(calls) == 3 else 1.0)
            return SimpleNamespace(positions=pos)

        with pytest.raises(NumericalStabilityError, match="step 2") as info:
            run_unit_time(e, stepper, 4)
        assert "non-finite coordinates" in str(info.value)
        # attaching the step keeps the class: a blow-up is still a ValueError
        assert type(info.value) is NonFiniteStateError
        assert isinstance(info.value, ValueError) and info.value.step == 2

    def test_total_time_rescales_grid(self):
        e = Ensemble(np.zeros((1, 1)), 0.0)
        times = []
        stepper = lambda ens: ens
        run_unit_time(e, stepper, 4, [lambda k, t, *_: times.append(t)], total_time=2.0)
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(8)
        b = make_rng(123).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            make_rng(1).standard_normal(4), make_rng(2).standard_normal(4)
        )

    def test_split_streams_independent_and_reproducible(self):
        a = [g.standard_normal(3) for g in make_rng(7).spawn(4)]
        b = [g.standard_normal(3) for g in make_rng(7).spawn(4)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(a[0], a[1])
