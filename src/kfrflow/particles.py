"""Ensemble state and the per-step kernel workspace.

An :class:`Ensemble` is an immutable snapshot of J particle positions in R^d
plus the pseudo-time t of the transport.  A :class:`FlowWorkspace` gathers the
derived quantities every update rule needs: the kernel matrix, the gradient
scale s of the kernel basis (grad_1 K(X_i, X_l) = (X_i - X_l) s[i, l]), and
the Gram-type coupling matrix

    M[l, m] = (1/J) sum_i < grad_1 K(X_i, X_l), grad_1 K(X_i, X_m) >.

M is symmetric positive semidefinite; a Tikhonov term lam * I makes it
definite for the solves, which use a symmetric-definite (Cholesky)
factorization written over a copy of M + lam I.

Given the buffer pool of :mod:`kfrflow.kernels`, a workspace lives in it: M in
``"D"``, the kernel matrix in ``"q"`` and s in ``"s"``, and :func:`spd_solve`
factors M + lam I in ``"G"``, whose scratch of M is dead once M is formed.
Those four J x J buffers are all a pooled step holds; the workspace is valid
until the pool's next use.  The factor and the triangular solves run on
numpy's OpenBLAS (``dpotrf`` and ``cblas_dtrsv``, bound in
:mod:`kfrflow.kernels`); without both, :func:`spd_solve` falls back to
numpy's gufunc and scipy.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonFiniteStateError, NumericalStabilityError
from .kernels import _DPOTRF, _DTRSV, KernelSpec, _kernel_gram, _scratch


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
            raise NonFiniteStateError(
                f"non-finite coordinates for particles {bad.tolist()}"
            )
        t = float(self.t)
        if not np.isfinite(t) or t < -1e-15:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "t", t)

    @property
    def J(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass
class FlowWorkspace:
    """Per-step derived quantities, all computed at one shared bandwidth ``h``;
    ``s`` is the gradient scale of :func:`kernels._pair_kernel`, and each
    array is J x J whatever d is."""

    h: float
    Kmat: np.ndarray
    M: np.ndarray
    s: np.ndarray


def build_workspace(ensemble, spec: KernelSpec, pool=None) -> FlowWorkspace:
    x = ensemble.positions if isinstance(ensemble, Ensemble) else np.asarray(ensemble)
    h, kmat, s, M = _kernel_gram(x, spec, pool)
    return FlowWorkspace(h=float(h), Kmat=kmat, M=M, s=s)


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite the lower triangle of the C-contiguous SPD matrix ``a`` with
    its Cholesky factor L; False when ``a`` is not positive definite.

    dpotrf's upper factor U of column-major storage is, read row-major, the
    lower L of the same symmetric matrix, so the factor is written in place
    and the strict upper triangle, which no solve reads, keeps ``a``.  The
    fallback, numpy's gufunc for the same upper factor written to ``a.T``,
    gives the same bits in the lower triangle and zeros above it."""
    if _DTRSV is None:
        try:
            with np.errstate(invalid="raise"):
                _umath_linalg.cholesky_up(a, out=a.T, signature="d->d")
        except FloatingPointError:
            return False
        return True
    n, info = ctypes.c_int64(a.shape[0]), ctypes.c_int64(0)
    _DPOTRF(b"U", ctypes.byref(n), a.ctypes.data, ctypes.byref(n), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    return info.value == 0


def _lam_floor(M: np.ndarray) -> float:
    """1e-8 tr(M) / J, relative to M's own scale: the least lambda that a
    failed factorization retries with, and that the KFRFlow-I step bound of
    :func:`kfrflow.flows.sample_ot_newton` raises lambda to."""
    return 1e-8 * float(np.trace(M)) / M.shape[0]


def spd_solve(M: np.ndarray, lam: float, rhs: np.ndarray, pool=None) -> np.ndarray:
    """Solve (M + lam I) x = rhs by Cholesky, with a one-shot fallback.

    M + lam I is copied to the pool's ``"G"`` (a fresh array without a pool)
    and overwritten there by its lower Cholesky factor L, which the two
    triangular solves read in place; M itself is left untouched.  If
    factorization fails at the user's lam, retries once with
    lam' = max(lam, 1e-8 * trace(M)/J) and warns; a second failure, or a
    non-finite factor, raises :class:`NumericalStabilityError`.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    M = np.asarray(M, dtype=np.float64)
    J = M.shape[0]
    for retry in (False, True):
        chol = _scratch(pool, "G", M.shape)
        np.copyto(chol, M)
        if lam > 0:
            chol.ravel()[:: J + 1] += lam
        if _cholesky_in_place(chol):
            break
        fallback = max(lam, _lam_floor(M))
        if retry or fallback <= lam:
            raise NumericalStabilityError(
                "coupling matrix is not positive definite; increase the "
                "regularization lambda"
            )
        warnings.warn(
            f"coupling-matrix solve failed at lambda={lam:g}; "
            f"retrying with lambda={fallback:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        lam = fallback
    # a NaN in M passes the factorization's pivot test and leaves a NaN on
    # the diagonal
    if not np.isfinite(chol.diagonal()).all():
        raise NumericalStabilityError("non-finite coupling matrix")
    x = np.array(rhs, dtype=np.float64, order="C")
    if x.shape != (J,):
        raise ValueError(f"rhs must have shape ({J},), got {x.shape}")
    if _DTRSV is None:
        try:
            from scipy.linalg import solve_triangular
        except ImportError as err:
            raise ImportError(
                "spd_solve needs scipy: numpy exports no cblas_dtrsv or dpotrf"
            ) from err
        y = solve_triangular(chol, x, lower=True, check_finite=False)
        return solve_triangular(chol, y, lower=True, trans=1, check_finite=False)
    # in place on x: L y = rhs, then L^T x = y (row-major, lower, non-unit)
    for trans in (111, 112):
        _DTRSV(101, 122, trans, 131, J, chol.ctypes.data, J, x.ctypes.data, 1)
    return x


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
        raise NumericalStabilityError(
            f"non-finite log density ratio for particles {bad.tolist()}"
        )
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
    x = ensemble.positions if isinstance(ensemble, Ensemble) else np.asarray(ensemble)
    r = _log_ratio_values(target, x)
    z = dt * (r - r[0])
    e = np.exp(z - z.max())
    return e / e.sum()

