"""Ensemble state, the coupling-matrix solve and importance weights.

An :class:`Ensemble` is an immutable snapshot of J particle positions in R^d
plus the pseudo-time t of the transport.  The per-step workspace of
:mod:`kfrflow.kernels` gathers the kernel matrix, the gradient scale and the
Gram-type coupling matrix

    M[l, m] = (1/J) sum_i < grad_1 K(X_i, X_l), grad_1 K(X_i, X_m) >.

M is symmetric positive semidefinite; a Tikhonov term lam * I makes it
definite for the solves, which use a symmetric-definite (Cholesky)
factorization written over a copy of M + lam I.

Given the buffer pool of :mod:`kfrflow.kernels`, a workspace lives in its
buffers as described there, and is valid until the pool's next use;
:func:`spd_solve` factors M + lam I in ``"G"``, whose scratch of M is dead
once M is formed.  The factor takes J(J+1)/2 elements in LAPACK's
rectangular full packed (RFP) format, which the routines of
:mod:`kfrflow._blas` copy, factor and solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import NonFiniteStateError, NumericalStabilityError
from .kernels import _positions, _scratch


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


def _rfp_diagonal(J: int) -> np.ndarray:
    """Positions of the diagonal of a J x J matrix, in order, in the RFP array
    that ``dtrttf`` writes with transr 'N' and uplo 'L'.  For odd J the
    leading (J+1)/2 diagonal elements sit at j(J+1) and the others at
    J + j(J+1); for even J the leading J/2 at 1 + j(J+2) and the others at
    j(J+2)."""
    n1 = (J + 1) // 2
    if J % 2:
        return np.concatenate((np.arange(n1) * (J + 1), J + np.arange(J - n1) * (J + 1)))
    return np.concatenate((1 + np.arange(n1) * (J + 2), np.arange(n1) * (J + 2)))


def _rfp_cholesky(M: np.ndarray, lam: float, arf: np.ndarray, diag=None) -> bool:
    """Write M + lam I to ``arf`` in RFP storage and overwrite it there with
    its Cholesky factor; False when it is not positive definite.  The copy
    reads the symmetric M, and lam is added at the RFP positions of the
    diagonal (``diag``, when the caller holds them) before the factor."""
    _blas.rfp_copy(M, arf)
    if lam > 0:
        arf[_rfp_diagonal(M.shape[0]) if diag is None else diag] += lam
    return _blas.rfp_factor(arf, M.shape[0])


def _lam_floor(M: np.ndarray) -> float:
    """1e-8 tr(M) / J, relative to M's own scale: the least lambda that a
    failed factorization retries with, and that the KFRFlow-I step bound of
    :func:`kfrflow.flows.sample_ot_newton` raises lambda to."""
    return 1e-8 * float(np.trace(M)) / M.shape[0]


def spd_solve(M: np.ndarray, lam: float, rhs: np.ndarray, pool=None) -> np.ndarray:
    """Solve (M + lam I) x = rhs by Cholesky, with a one-shot fallback.

    M, which must be exactly symmetric, is copied with lam I added to the
    J(J+1)/2 elements at the head of the pool's ``"G"`` (a fresh array
    without a pool) in rectangular full packed storage, and overwritten
    there by its Cholesky factor, which the solve reads in place; M itself
    is left untouched.  If factorization fails at the user's lam, retries
    once with lam' = max(lam, 1e-8 * trace(M)/J) and warns; a second
    failure, or a non-finite factor, raises
    :class:`NumericalStabilityError`.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    M = np.ascontiguousarray(M, dtype=np.float64)
    J, x = M.shape[0], np.array(rhs, dtype=np.float64, order="C")
    if x.shape != (J,):
        raise ValueError(f"rhs must have shape ({J},), got {x.shape}")
    diag = _rfp_diagonal(J)
    for retry in (False, True):
        arf = _scratch(pool, "G", (J * (J + 1) // 2,))
        if _rfp_cholesky(M, lam, arf, diag):
            break
        fallback = max(lam, _lam_floor(M))
        if retry or fallback <= lam:
            raise NumericalStabilityError(
                "coupling matrix is not positive definite; increase the regularization lambda")
        warnings.warn(f"coupling-matrix solve failed at lambda={lam:g}; "
                      f"retrying with lambda={fallback:g}", RuntimeWarning, stacklevel=2)
        lam = fallback
    # a NaN in M passes the factorization's pivot test and leaves a NaN on
    # the diagonal
    if not np.isfinite(arf[diag]).all():
        raise NumericalStabilityError("non-finite coupling matrix")
    return _blas.rfp_solve(arf, x)


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

