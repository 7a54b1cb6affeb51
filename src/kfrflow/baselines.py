"""Reference samplers: SVGD, parallel ULA, and random walk Metropolis.

These are the comparison methods for the transport flows.  SVGD and ULA are
gradient-based (they need grad log pi_1); RWM only needs the unnormalized
target log density, here log pi_0 + log(pi_1/pi_0).  RWM supports a "serial"
mode (one chain of N*J steps, keep the last J states) and a "parallel" mode
(J chains of N steps, keep each chain's last state), matching the
equal-total-budget comparison protocol.  Before measuring, RWM tunes its
isotropic Gaussian proposal to the 23% optimum: from std 1.0 it runs up to
20 rounds of 400 single-chain steps, multiplies the std by
exp(acceptance - 0.23) after each round, and keeps the std of the first
round whose acceptance lies in ``ACCEPTANCE_WINDOW``, or of the last.

Parallel chains advance together: each step is one batched (J, d)
log-target call and a masked accept.  ULA and parallel RWM draw each step's
noise for all chains in one call on the trial's generator, as the KFRD
stepper does: ULA its (J, d) normals, RWM its (J, d) proposal steps and then
its J uniforms.  Chain j reads row j, so chains share no noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .kernels import KernelSpec, _grad_apply, _pair_kernel
from .particles import Ensemble, _log_ratio_rows

# tuned acceptance is accepted anywhere in this window around the 23% optimum
ACCEPTANCE_WINDOW = (0.20, 0.26)
TARGET_ACCEPTANCE = 0.23
PROPOSAL_STD = 1.0  # the tuner's starting std
TUNE_ROUNDS = 20
TUNE_BATCH = 400  # steps per tuning round


@dataclass
class RwmResult:
    samples: np.ndarray
    proposal_std: float
    tune_acceptance: float
    tune_rounds_used: int
    tuned: bool
    measure_acceptance: float


def _require_score(target):
    if target.score_target is None:
        raise CapabilityError(f"target {target.name!r} does not provide scores")
    return target.score_target


def svgd_step(ensemble: Ensemble, target, spec: KernelSpec, step_size: float,
              pool=None) -> Ensemble:
    """One Stein variational gradient descent update with the IMQ kernel.

    phi(x) = (1/J) sum_j [ K(X_j, x) grad log pi_1(X_j) + grad_1 K(X_j, x) ],
    bandwidth from the per-step median heuristic.  The J x J arrays (pair
    pass, median, kernel, the apply's strips) live in the buffer pool
    ``pool`` when one is given; the result is the same.  The ensemble time
    advances by the step size.
    """
    if not step_size > 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    score = _require_score(target)
    x = ensemble.positions
    h, q = _pair_kernel(x, spec, pool)
    # q is symmetric and grad_1 K(X_j, X_i) = -grad_1 K(X_i, X_j)
    phi = (q @ score(x) - _grad_apply(x, q, h, 1.0, pool)) / x.shape[0]
    return Ensemble(x + step_size * phi, ensemble.t + step_size)


def ula_step(ensemble: Ensemble, target, step_size: float, rng: np.random.Generator) -> Ensemble:
    """Unadjusted Langevin update on J independent chains.

    X_j <- X_j + step * grad log pi_1(X_j) + sqrt(2 step) * xi_j, with the
    (J, d) noise xi drawn from ``rng`` in one call; row j is chain j's.  The
    ensemble time advances by the step size.
    """
    if not step_size > 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    score = _require_score(target)
    x = ensemble.positions
    xi = rng.standard_normal(x.shape)
    new = x + step_size * score(x) + np.sqrt(2.0 * step_size) * xi
    return Ensemble(new, ensemble.t + step_size)


def _log_target(target):
    def lt(x):
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        # -inf is a valid zero-density value here: that proposal is rejected
        return -0.5 * np.sum(x2**2, axis=1) + _log_ratio_rows(target, x2)

    return lt


def _mh_chain(lt, x0, n_steps, std, rng, keep_last=1):
    """Metropolis chain with isotropic Gaussian proposals; exact accept counts."""
    d = x0.shape[0]
    steps = rng.standard_normal((n_steps, d)) * std
    logu = np.log(rng.random(n_steps))
    x = x0.copy()
    lx = float(lt(x)[0])
    accepts = 0
    tail = []
    for k in range(n_steps):
        prop = x + steps[k]
        lp = float(lt(prop)[0])
        if logu[k] < lp - lx:
            x, lx = prop, lp
            accepts += 1
        if n_steps - k <= keep_last:
            tail.append(x.copy())
    return np.asarray(tail), accepts


def _lockstep_chains(lt, x0, n_steps, std, rng):
    """J Metropolis chains from the rows of x0, advanced together.

    Each step draws the (J, d) proposal steps and then the J uniforms of
    all chains from ``rng`` and makes one (J, d) log-target call; chain j
    reads row j.  Returns the final states and the exact total accept count.
    """
    J, d = x0.shape
    x = x0.copy()
    lx = lt(x)
    accepts = 0
    # a chain at zero density meets -inf - -inf = nan, which rejects silently
    # in _mh_chain's float arithmetic; keep numpy as quiet
    with np.errstate(invalid="ignore"):
        for _ in range(n_steps):
            prop = x + rng.standard_normal((J, d)) * std
            lp = lt(prop)
            accept = np.log(rng.random(J)) < lp - lx
            x = np.where(accept[:, None], prop, x)
            lx = np.where(accept, lp, lx)
            accepts += int(np.count_nonzero(accept))
    return x, accepts


def rwm_run(target, steps: int, n_samples: int, mode: str,
            rng: np.random.Generator) -> RwmResult:
    """Tune the proposal, then draw ``n_samples`` states in ``mode`` with the
    std frozen, so that the measurement chain is a valid Markov chain; a
    parallel chain runs ``steps`` steps, the serial one ``steps * n_samples``.
    """
    if mode not in ("serial", "parallel"):
        raise ValueError(f"mode must be 'serial' or 'parallel', got {mode!r}")
    if steps < 1 or n_samples < 1:
        raise ValueError("steps and n_samples must be >= 1")
    lt = _log_target(target)
    d = target.dim
    std = PROPOSAL_STD
    x = rng.standard_normal(d)
    acc_rate = float("nan")
    tuned = False
    rounds = 0
    for rounds in range(1, TUNE_ROUNDS + 1):
        tail, acc = _mh_chain(lt, x, TUNE_BATCH, std, rng)
        x = tail[-1]
        acc_rate = acc / TUNE_BATCH
        if ACCEPTANCE_WINDOW[0] <= acc_rate <= ACCEPTANCE_WINDOW[1]:
            tuned = True
            break
        std *= float(np.exp(acc_rate - TARGET_ACCEPTANCE))
    if not tuned:
        warnings.warn(
            f"proposal tuning did not reach {ACCEPTANCE_WINDOW} in "
            f"{TUNE_ROUNDS} rounds (last acceptance {acc_rate:.3f}); "
            "proceeding with the last std",
            RuntimeWarning,
            stacklevel=2,
        )

    if mode == "serial":
        samples, acc = _mh_chain(lt, x, steps * n_samples, std, rng, keep_last=n_samples)
    else:
        inits = rng.standard_normal((n_samples, d))
        samples, acc = _lockstep_chains(lt, inits, steps, std, rng)
    return RwmResult(
        samples=samples,
        proposal_std=std,
        tune_acceptance=acc_rate,
        tune_rounds_used=rounds,
        tuned=tuned,
        measure_acceptance=acc / (steps * n_samples),
    )
