"""Ensemble state, the coupling-matrix solve and importance weights.

An :class:`Ensemble` is an immutable snapshot of J particle positions in R^d
plus the pseudo-time t of the transport.  The per-step workspace of
:mod:`kfrflow.kernels` gathers the kernel matrix, the gradient scale and the
Gram-type coupling matrix

    M[l, m] = (1/J) sum_i < grad_1 K(X_i, X_l), grad_1 K(X_i, X_m) >.

M is symmetric positive semidefinite; a Tikhonov term lam * I makes it
definite for the Cholesky solve, whose factor a pooled step writes over M
itself (:func:`spd_solve`; buffers as in :mod:`kfrflow.kernels`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import NonFiniteStateError, NumericalStabilityError
from .kernels import _mirror_lower, _positions


@dataclass(frozen=True)
class Ensemble:
    positions: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must be a (J, d) array, got {pos.shape}")
        if not np.isfinite(pos).all():
            bad = np.argwhere(~np.isfinite(pos).all(axis=1)).ravel()
            raise NonFiniteStateError(f"non-finite coordinates for particles {bad.tolist()}")
        t = float(self.t)
        if not np.isfinite(t) or t < -1e-15:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "t", t)


def _lam_floor(M: np.ndarray) -> float:
    """1e-8 tr(M) / J, relative to M's own scale: the least lambda that a
    failed factorization retries with, and that the KFRFlow-I step bound of
    :func:`kfrflow.flows.sample_ot_newton` raises lambda to."""
    return 1e-8 * float(np.trace(M)) / M.shape[0]


def _restore(M: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """M again, over the factor that :func:`spd_solve` wrote to its upper
    triangle: the strict lower triangle still holds M, ``diag`` its diagonal."""
    _mirror_lower(M).flat[:: M.shape[0] + 1] = diag
    return M


def spd_solve(M: np.ndarray, lam: float, rhs: np.ndarray, pool=None) -> np.ndarray:
    """Solve (M + lam I) x = rhs by Cholesky, with a one-shot fallback.

    M must be exactly symmetric.  The factor of M + lam I overwrites M's
    upper triangle and diagonal where M is a buffer of ``pool`` (the step's
    own M), and a copy of M otherwise, so a caller's M is left untouched; the
    strict lower triangle keeps M, which :func:`_restore` recovers.  If
    factorization fails at the user's lam, retries once with
    lam' = max(lam, 1e-8 * trace(M)/J) and warns; a second failure, or a
    non-finite factor, raises :class:`NumericalStabilityError`.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    J, x = len(M), np.array(rhs, dtype=np.float64, order="C")
    if x.shape != (J,):
        raise ValueError(f"rhs must have shape ({J},), got {x.shape}")
    if pool is None or not any(np.may_share_memory(M, b) for b in pool._flat.values()):
        M = np.array(M, dtype=np.float64)
    diag = M.diagonal().copy()
    for retry in (False, True):
        M.flat[:: J + 1] = diag + lam
        if _blas.cholesky(M):
            break
        _restore(M, diag)
        fallback = max(lam, _lam_floor(M))
        if retry or fallback <= lam:
            raise NumericalStabilityError(
                "coupling matrix is not positive definite; increase the regularization lambda")
        warnings.warn(f"coupling-matrix solve failed at lambda={lam:g}; "
                      f"retrying with lambda={fallback:g}", RuntimeWarning, stacklevel=2)
        lam = fallback
    # a NaN in M passes the factorization's pivot test and leaves a NaN on
    # the diagonal
    if not np.isfinite(M.diagonal()).all():
        raise NumericalStabilityError("non-finite coupling matrix")
    return _blas.cholesky_solve(M, x)


def _log_ratio_rows(target, positions: np.ndarray) -> np.ndarray:
    """log(pi_1/pi_0) at the n rows of positions, checked to be an (n,) vector."""
    r = np.atleast_1d(np.asarray(target.log_ratio(positions), dtype=np.float64))
    if r.shape != positions.shape[:1]:
        raise ValueError(
            f"log_ratio returned shape {r.shape} for {positions.shape[0]} "
            f"particles; expected shape {positions.shape[:1]}"
        )
    return r


def _log_ratio_values(target, positions: np.ndarray) -> np.ndarray:
    """log(pi_1/pi_0) at the J particles, checked to be a finite (J,) vector."""
    r = _log_ratio_rows(target, positions)
    if not np.isfinite(r).all():
        bad = np.argwhere(~np.isfinite(r)).ravel()
        raise NumericalStabilityError(f"non-finite log density ratio for particles {bad.tolist()}")
    return r


def importance_weights(ensemble, target, dt: float) -> np.ndarray:
    """Self-normalized importance weights w_j proportional to (pi_1/pi_0)^dt.

    Computed in the log domain with max-subtraction, so no exponent can
    overflow.  The log-ratio vector is pivoted on its first element before
    exponentiation: algebraically a no-op, this makes the weights insensitive
    to the absolute level of log(pi_1/pi_0), which carries no information.
    """
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    r = _log_ratio_values(target, _positions(ensemble))
    z = dt * (r - r[0])
    e = np.exp(z - z.max())
    return e / e.sum()

