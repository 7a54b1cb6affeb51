"""Time-stepping drivers: explicit Euler, fourth-order Adams-Bashforth, and
Euler-Maruyama steppers, the unit-time loop, and seeded RNG streams.

A stepper is any callable ``step(ensemble) -> Ensemble`` that advances the
ensemble by one step; it keeps whatever state it needs (AB4 its velocity
history, the SDE its noise stream).

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


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) with a platform-stable stream.

    Identical seeds produce identical draw sequences across runs and
    platforms; trial seeds are derived as base seed + trial index, and each
    trial draws everything, for all of its chains, from its one generator.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _finite_velocity(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise NumericalStabilityError("non-finite velocity")
    return v


def velocity_stepper(velocity_fn: Callable, dt: float, method: str = "euler") -> Callable:
    """Stepper ``step(ens) -> Ensemble`` for an ODE flow.

    Euler: X <- X + dt v(X).  Fourth-order Adams-Bashforth over the last four
    velocities, newest first: X <- X + (dt/24)(55 v0 - 59 v1 + 37 v2 - 9 v3);
    the stepper stores them and takes Euler steps until it has four.
    """
    if method not in ("euler", "ab4"):
        raise ValueError(f"unknown method {method!r}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    history: list = []

    def step(ensemble: Ensemble) -> Ensemble:
        v = _finite_velocity(velocity_fn(ensemble))
        history.insert(0, v)
        del history[4:]
        if method == "ab4" and len(history) == 4:
            combo = sum(c * h for c, h in zip(AB4_COEFFS, history))
            return Ensemble(ensemble.positions + (dt / 24.0) * combo, ensemble.t + dt)
        return Ensemble(ensemble.positions + dt * v, ensemble.t + dt)

    return step


def sde_stepper(drift_fn: Callable, dt: float, rng: np.random.Generator) -> Callable:
    """Euler-Maruyama stepper: X <- X + dt drift(X) + coeff sqrt(dt) xi.

    ``drift_fn`` returns (drift rows, diffusion coefficient) and xi ~ N(0, I)
    is drawn from ``rng``.  With a zero coefficient each step equals the
    Euler step of :func:`velocity_stepper` bit for bit.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    def step(ensemble: Ensemble) -> Ensemble:
        drift, coeff = drift_fn(ensemble)
        drift = _finite_velocity(drift)
        xi = rng.standard_normal(ensemble.positions.shape)
        new = ensemble.positions + dt * drift + (coeff * np.sqrt(dt)) * xi
        return Ensemble(new, ensemble.t + dt)

    return step


@dataclass
class RunTrace:
    final: Ensemble


def run_unit_time(
    initial: Ensemble,
    stepper: Callable,
    n_steps: int,
    observers: Sequence[Callable] = (),
    total_time: float = 1.0,
) -> RunTrace:
    """Apply ``n_steps`` steps and invoke observers at every grid time, 0 and T included.

    ``stepper`` is any callable ``step(ensemble) -> Ensemble``; the result is
    placed at the grid time.  Observers are called as
    ``observer(step_index, t, ensemble, step_time_ns)`` with
    ``step_time_ns = 0`` for the initial state.  A
    :class:`NumericalStabilityError` from a step (non-finite state, velocity
    or log ratio, or a failed solve) is re-raised as its own class with the
    step index attached; rows already collected by the observers survive.  Every other
    error propagates unchanged.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 0 < total_time < np.inf:
        raise ValueError(f"total_time must be > 0 and finite, got {total_time}")
    if abs(initial.t) > 1e-12:
        raise ValueError(f"initial ensemble must start at t=0, got t={initial.t}")
    ens = initial
    for obs in observers:
        obs(0, 0.0, ens, 0)
    for k in range(n_steps):
        t_next = (k + 1) * total_time / n_steps
        tic = time.perf_counter_ns()
        try:
            ens = Ensemble(stepper(ens).positions, t_next)
        except NumericalStabilityError as err:
            if err.step is None:
                raise type(err)(str(err), step=k) from err
            raise
        step_ns = time.perf_counter_ns() - tic
        for obs in observers:
            obs(k + 1, t_next, ens, step_ns)
    return RunTrace(final=ens)
