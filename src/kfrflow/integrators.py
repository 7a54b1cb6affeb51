"""Time-stepping drivers: explicit Euler, fourth-order Adams-Bashforth, and
Euler-Maruyama, plus the unit-time schedule and seeded RNG streams.

Grid times are always computed as (step index) * (T / N) rather than by
repeated addition, so the final time is exactly T and intermediate times carry
no accumulation drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalStabilityError
from .particles import Ensemble

AB4_COEFFS = (55.0, -59.0, 37.0, -9.0)  # divided by 24


@dataclass(frozen=True)
class Schedule:
    """Uniform grid of N steps over [0, 1] (or [0, T] when a driver rescales)."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) with a platform-stable stream.

    Identical seeds produce identical draw sequences across runs and
    platforms; trial seeds are derived as base seed + trial index, and
    per-chain streams come from :func:`split_rngs`.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split_rngs(seed: int, n: int) -> list:
    """n independent child streams of a seed (SeedSequence spawn)."""
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _finite_velocity(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise NumericalStabilityError("non-finite velocity")
    return v


def euler_step(ensemble: Ensemble, velocity_fn: Callable, dt: float) -> Ensemble:
    """X <- X + dt * v(X)."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    v = _finite_velocity(velocity_fn(ensemble))
    return Ensemble(ensemble.positions + dt * v, ensemble.t + dt)


def ab4_step(history: Sequence[np.ndarray], ensemble: Ensemble, dt: float) -> Ensemble:
    """Fourth-order Adams-Bashforth step.

    ``history`` holds the last four velocities, newest first: v(t), v(t-dt),
    v(t-2dt), v(t-3dt).  X <- X + (dt/24)(55 v0 - 59 v1 + 37 v2 - 9 v3).
    """
    if len(history) < 4:
        raise RuntimeError(
            "Adams-Bashforth driver bug: need 4 stored velocities, "
            f"got {len(history)}"
        )
    combo = sum(c * np.asarray(h) for c, h in zip(AB4_COEFFS, history))
    return Ensemble(ensemble.positions + (dt / 24.0) * combo, ensemble.t + dt)


def euler_maruyama_step(
    ensemble: Ensemble, drift_fn: Callable, dt: float, rng: np.random.Generator
) -> Ensemble:
    """X <- X + dt * drift(X) + coeff * sqrt(dt) * xi, xi ~ N(0, I).

    ``drift_fn`` returns (drift rows, diffusion coefficient).  With a zero
    coefficient this reproduces :func:`euler_step` exactly.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    drift, coeff = drift_fn(ensemble)
    drift = _finite_velocity(drift)
    xi = rng.standard_normal(ensemble.positions.shape)
    new = ensemble.positions + dt * drift + (coeff * np.sqrt(dt)) * xi
    return Ensemble(new, ensemble.t + dt)


def velocity_stepper(velocity_fn: Callable, dt: float, method: str = "euler") -> Callable:
    """Stateful stepper for an ODE flow; AB4 warms up with three Euler steps."""
    if method not in ("euler", "ab4"):
        raise ValueError(f"unknown method {method!r}")
    history: list = []

    def step(ensemble: Ensemble, k: int, t_next: float) -> Ensemble:
        v = _finite_velocity(velocity_fn(ensemble))
        history.insert(0, v)
        del history[4:]
        if method == "ab4" and k >= 3:
            return ab4_step(history, ensemble, dt)
        return euler_step(ensemble, lambda _: v, dt)

    return step


def sde_stepper(drift_fn: Callable, dt: float, rng: np.random.Generator) -> Callable:
    def step(ensemble: Ensemble, k: int, t_next: float) -> Ensemble:
        return euler_maruyama_step(ensemble, drift_fn, dt, rng)

    return step


def map_stepper(update_fn: Callable, dt: float) -> Callable:
    """Stepper for discrete-time transport maps (KFRFlow-I and friends)."""

    def step(ensemble: Ensemble, k: int, t_next: float) -> Ensemble:
        return update_fn(ensemble, dt)

    return step


@dataclass
class RunTrace:
    final: Ensemble
    n_steps: int


def run_unit_time(
    initial: Ensemble,
    stepper: Callable,
    schedule: Schedule,
    observers: Sequence[Callable] = (),
    total_time: float = 1.0,
) -> RunTrace:
    """Apply N steps and invoke observers at every grid time, 0 and T included.

    Observers are called as ``observer(step_index, t, ensemble, step_time_ns)``
    with ``step_time_ns = 0`` for the initial state.  Any step failure is
    re-raised with the step index attached; rows already collected by the
    observers survive.
    """
    if abs(initial.t) > 1e-12:
        raise ValueError(f"initial ensemble must start at t=0, got t={initial.t}")
    n = schedule.n_steps
    ens = initial
    for obs in observers:
        obs(0, 0.0, ens, 0)
    for k in range(n):
        t_next = (k + 1) * total_time / n
        tic = time.perf_counter_ns()
        try:
            stepped = stepper(ens, k, t_next)
            ens = Ensemble(stepped.positions, t_next)
        except NumericalStabilityError as err:
            if err.step is None:
                raise NumericalStabilityError(str(err), step=k) from err
            raise
        except ValueError as err:
            raise NumericalStabilityError(str(err), step=k) from err
        step_ns = time.perf_counter_ns() - tic
        for obs in observers:
            obs(k + 1, t_next, ens, step_ns)
    return RunTrace(final=ens, n_steps=n)
