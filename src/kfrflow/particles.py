"""Ensemble state and the per-step kernel workspace.

An :class:`Ensemble` is an immutable snapshot of J particle positions in R^d
plus the pseudo-time t of the transport.  A :class:`FlowWorkspace` gathers the
derived quantities every update rule needs: the kernel matrix, the gradient
scale s of the kernel basis (grad_1 K(X_i, X_l) = (X_i - X_l) s[i, l]), and
the Gram-type coupling matrix

    M[l, m] = (1/J) sum_i < grad_1 K(X_i, X_l), grad_1 K(X_i, X_m) >.

M is symmetric positive semidefinite; a Tikhonov term lam * I makes it
definite for the solves, which use a symmetric-definite (Cholesky)
factorization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonFiniteStateError, NumericalStabilityError
from .kernels import KernelSpec, _kernel_gram


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


def build_workspace(ensemble, spec: KernelSpec) -> FlowWorkspace:
    x = ensemble.positions if isinstance(ensemble, Ensemble) else np.asarray(ensemble)
    h, kmat, s, M = _kernel_gram(x, spec)
    return FlowWorkspace(h=float(h), Kmat=kmat, M=M, s=s)


def spd_solve(M: np.ndarray, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (M + lam I) x = rhs by Cholesky, with a one-shot fallback.

    If factorization fails at the user's lam, retries once with
    lam' = max(lam, 1e-8 * trace(M)/J) and warns; a second failure raises
    :class:`NumericalStabilityError`.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    for retry in (False, True):
        Mreg = np.array(M, dtype=np.float64, copy=True)
        if lam > 0:
            Mreg[np.diag_indices_from(Mreg)] += lam
        try:
            chol = np.linalg.cholesky(Mreg)
            break
        except np.linalg.LinAlgError as err:
            fallback = max(lam, 1e-8 * float(np.trace(M)) / M.shape[0])
            if retry or fallback <= lam:
                raise NumericalStabilityError(
                    "coupling matrix is not positive definite; increase the "
                    "regularization lambda"
                ) from err
            warnings.warn(
                f"coupling-matrix solve failed at lambda={lam:g}; "
                f"retrying with lambda={fallback:g}",
                RuntimeWarning,
                stacklevel=2,
            )
            lam = fallback
    y = solve_triangular(chol, rhs, lower=True)
    return solve_triangular(chol, y, lower=True, trans=1)


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

