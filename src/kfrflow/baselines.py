"""Reference samplers: SVGD, parallel ULA, and random walk Metropolis.

These are the comparison methods for the transport flows.  SVGD and ULA are
gradient-based (they need grad log pi_1); RWM only needs the unnormalized
target log density, here log pi_0 + log(pi_1/pi_0).  RWM supports a "serial"
mode (one chain of N*J steps, keep the last J states) and a "parallel" mode
(J chains of N steps, keep each chain's last state), matching the
equal-total-budget comparison protocol, and tunes its isotropic Gaussian
proposal to a 23% acceptance rate before measuring.

Parallel chains advance together: each step is one batched (J, d)
log-target call and a masked accept.  Each chain still draws its proposals
and uniforms from its own stream, in the order a single chain draws them,
so the samples and accept counts equal those of running the chains one
after another.  The pre-drawn proposals and uniforms hold 8*N*J*(d+1)
bytes (4.8 MB at J=1000, N=200, d=2).

ULA chains also draw from their own streams ahead of use, in blocks: a
trial's :class:`_ChainNoise` refills max(1, _NOISE_BLOCK // (J d)) steps at
a time with one ``standard_normal((steps, d))`` call per chain, which reads
each stream in the order one draw per step reads it, so the samples equal
those of per-step draws.  The block holds at most 8 * max(_NOISE_BLOCK, J d)
bytes (256 KB up to J d = 32768).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError
from .kernels import KernelSpec, _grad_apply, _pair_kernel
from .particles import Ensemble, _log_ratio_rows

# tuned acceptance is accepted anywhere in this window around the 23% optimum
ACCEPTANCE_WINDOW = (0.20, 0.26)

# elements of one ULA noise block across all chains: 256 KB.  At J = 300,
# d = 2 a twice larger block drew no faster and kept 0.45 MB more resident
_NOISE_BLOCK = 32768


@dataclass(frozen=True)
class RwmConfig:
    steps: int
    n_samples: int
    mode: str = "parallel"
    proposal_std: float = 1.0
    target_acceptance: float = 0.23
    tune_rounds: int = 20
    tune_batch: int = 400

    def __post_init__(self):
        if self.mode not in ("serial", "parallel"):
            raise ValueError(f"mode must be 'serial' or 'parallel', got {self.mode!r}")
        if not self.proposal_std > 0:
            raise ValueError("proposal_std must be > 0")
        if not 0 < self.target_acceptance < 1:
            raise ValueError("target_acceptance must be in (0, 1)")
        if self.steps < 1 or self.n_samples < 1:
            raise ValueError("steps and n_samples must be >= 1")


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


def svgd_step(ensemble: Ensemble, target, spec: KernelSpec, step_size: float) -> Ensemble:
    """One Stein variational gradient descent update with the IMQ kernel.

    phi(x) = (1/J) sum_j [ K(X_j, x) grad log pi_1(X_j) + grad_1 K(X_j, x) ],
    bandwidth from the per-step median heuristic.  The ensemble time
    advances by the step size.
    """
    if not step_size > 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    score = _require_score(target)
    x = ensemble.positions
    h, q = _pair_kernel(x, x, spec)
    # q is symmetric and grad_1 K(X_j, X_i) = -grad_1 K(X_i, X_j)
    phi = (q @ score(x) - _grad_apply(x, q, h, 1.0)) / x.shape[0]
    return Ensemble(x + step_size * phi, ensemble.t + step_size)


class _ChainNoise:
    """Standard normal rows for J chains, one stream each, drawn in blocks.

    ``draw()`` returns the (J, d) noise of the next step, row j from
    ``streams[j]``.  Every ``steps`` calls, each stream is asked for its next
    ``steps`` rows at once, which reads it in the order one row per call
    would.  Rows drawn past a trial's last step are never used."""

    def __init__(self, streams: Sequence[np.random.Generator], d: int, steps=None):
        self.streams = streams
        self.steps = steps or max(1, _NOISE_BLOCK // (len(streams) * d))
        self._block = np.empty((self.steps, len(streams), d))
        self._next = self.steps

    def draw(self) -> np.ndarray:
        if self._next == self.steps:
            for j, rng in enumerate(self.streams):
                self._block[:, j] = rng.standard_normal(self._block[:, j].shape)
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]


def ula_step(
    ensemble: Ensemble,
    target,
    step_size: float,
    rngs: Sequence[np.random.Generator] | _ChainNoise,
) -> Ensemble:
    """Unadjusted Langevin update on J independent chains.

    X_j <- X_j + step * grad log pi_1(X_j) + sqrt(2 step) * xi_j with one RNG
    stream per chain, so chains never interact through the noise either.
    A sequence of J generators gives one row each per call; a trial passes
    its :class:`_ChainNoise`, which draws the same rows in blocks.  The
    ensemble time advances by the step size.
    """
    if not step_size > 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    score = _require_score(target)
    x = ensemble.positions
    noise = rngs if isinstance(rngs, _ChainNoise) else _ChainNoise(rngs, x.shape[1], 1)
    if len(noise.streams) != x.shape[0]:
        raise ValueError(
            f"need one RNG stream per chain: {len(noise.streams)} vs J={x.shape[0]}"
        )
    xi = noise.draw()
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


def _lockstep_chains(lt, x0, n_steps, std, rngs):
    """J Metropolis chains from the rows of x0, advanced together.

    Chain j draws from rngs[j] exactly what _mh_chain would, so its final
    state and the exact total accept count equal those of J sequential
    _mh_chain runs; each step makes one (J, d) log-target call.
    """
    J, d = x0.shape
    steps = np.empty((n_steps, J, d))
    logu = np.empty((n_steps, J))
    for j, rng in enumerate(rngs):
        steps[:, j] = rng.standard_normal((n_steps, d)) * std
        logu[:, j] = np.log(rng.random(n_steps))
    x = x0.copy()
    lx = lt(x)
    accepts = 0
    # a chain at zero density meets -inf - -inf = nan, which rejects silently
    # in _mh_chain's float arithmetic; keep numpy as quiet
    with np.errstate(invalid="ignore"):
        for k in range(n_steps):
            prop = x + steps[k]
            lp = lt(prop)
            accept = logu[k] < lp - lx
            x = np.where(accept[:, None], prop, x)
            lx = np.where(accept, lp, lx)
            accepts += int(np.count_nonzero(accept))
    return x, accepts


def rwm_run(target, config: RwmConfig, rng: np.random.Generator) -> RwmResult:
    """Tune the proposal to ~23% acceptance, then run the measurement phase.

    Tuning adapts the proposal std multiplicatively (factor exp(acc - 0.23))
    over batches until the batch acceptance lands in [0.20, 0.26]; the std is
    then frozen, keeping the measurement chain a valid Markov chain.
    """
    lt = _log_target(target)
    d = target.dim
    std = config.proposal_std
    x = rng.standard_normal(d)
    acc_rate = float("nan")
    tuned = False
    rounds = 0
    for rounds in range(1, config.tune_rounds + 1):
        tail, acc = _mh_chain(lt, x, config.tune_batch, std, rng)
        x = tail[-1]
        acc_rate = acc / config.tune_batch
        if ACCEPTANCE_WINDOW[0] <= acc_rate <= ACCEPTANCE_WINDOW[1]:
            tuned = True
            break
        std *= float(np.exp(acc_rate - config.target_acceptance))
    if not tuned:
        warnings.warn(
            f"proposal tuning did not reach {ACCEPTANCE_WINDOW} in "
            f"{config.tune_rounds} rounds (last acceptance {acc_rate:.3f}); "
            "proceeding with the last std",
            RuntimeWarning,
            stacklevel=2,
        )

    J, N = config.n_samples, config.steps
    if config.mode == "serial":
        samples, acc = _mh_chain(lt, x, N * J, std, rng, keep_last=J)
        measure_acc = acc / (N * J)
    else:
        chain_rngs = rng.spawn(J)
        inits = rng.standard_normal((J, d))
        samples, acc = _lockstep_chains(lt, inits, N, std, chain_rngs)
        measure_acc = acc / (N * J)
    return RwmResult(
        samples=samples,
        proposal_std=std,
        tune_acceptance=acc_rate,
        tune_rounds_used=rounds,
        tuned=tuned,
        measure_acceptance=measure_acc,
    )
