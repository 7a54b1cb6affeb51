"""Particle update rules for unit-time transport along the geometric mixture.

Three interacting particle systems move an ensemble from the reference
density pi_0 to the target pi_1 over t in [0, 1], following the tempered path
pi_t propto pi_0^(1-t) pi_1^t:

* :func:`kfrflow_velocity` -- the deterministic ODE velocity field (KFRFlow),
  obtained from a kernelized weak-form solve for the transport potential;
* :func:`kfrflow_i_step` / :func:`sample_ot_newton` -- the importance-weighted
  discrete-time transport map (KFRFlow-I), a Newton approximation to the
  sample-equivalence condition of kernel-parameterized optimal transport;
* :func:`kfrd_drift` -- the drift of the stochastic variant (KFRD), which adds
  a score term and Brownian noise with matching marginals.

All rules consume the target only through log(pi_1/pi_0) evaluated at the
particles (KFRD additionally needs scores).  The log-ratio vector is pivoted
on its first entry before centering or exponentiation, which realizes in
floating point the algebraic fact that constant shifts of the log ratio --
unknown normalizing constants -- cannot affect any update.

Every rule takes an optional trailing ``pool``, the trial's buffer pool of
:mod:`kfrflow.kernels`: the workspace, the solve and the row strips of the
gradient scale s then live in its buffers, and the result (a new ensemble,
velocity or drift) never does.  A Newton step's first iterate is the
KFRFlow-I map, and later ones allocate their own arrays; each applies the
gradient basis once: its displaced points are the next Jacobian's, and the
last ones, or the best where the iteration diverges, the result.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import CapabilityError, NumericalStabilityError
from .kernels import (
    KernelSpec,
    _grad_apply,
    _grad_jacobian,
    _pair_sq,
    _q_from_sq,
    build_workspace,
)
from .particles import (
    Ensemble,
    _lam_floor,
    _log_ratio_values,
    importance_weights,
    spd_solve,
)


def kfrflow_velocity(
    ensemble: Ensemble, target, spec: KernelSpec, lam: float = 0.0, pool=None
) -> np.ndarray:
    """KFRFlow velocity, one (J, d) row per particle.

    Solves (M + lam I) f = (1/J) sum_k c_k K_basis(X_k) with c the centered
    log ratios, then evaluates v_j = Jac(K_basis)(X_j)^T f.
    """
    x = ensemble.positions
    ws = build_workspace(ensemble, spec, pool=pool)
    r = _log_ratio_values(target, x)
    rp = r - r[0]
    c = rp - rp.mean()
    rhs = (c @ ws.Kmat) / x.shape[0]
    f = spd_solve(ws.M, lam, rhs, pool=pool)
    return _grad_apply(x, ws.Kmat, ws.h, f, pool, ws.s)


def kfrflow_i_step(
    ensemble: Ensemble, target, spec: KernelSpec, dt: float, lam: float = 0.0, pool=None
) -> Ensemble:
    """One KFRFlow-I update: the single-Newton transport map from t to t+dt.

    Moves each particle by Jac(K_basis)(X_j)^T s* where
    s* = -(M + lam I)^{-1} sum_k (1/J - w_k) K_basis(X_k) and w are the
    self-normalized importance weights with exponent dt; lam is raised until
    no particle moves farther than the kernel bandwidth.
    """
    return sample_ot_newton(ensemble, target, spec, dt, lam, iters=1, pool=pool)


def sample_ot_newton(
    ensemble: Ensemble,
    target,
    spec: KernelSpec,
    dt: float,
    lam: float = 0.0,
    iters: int = 1,
    pool=None,
) -> Ensemble:
    """Newton iteration for the sample-equivalence condition G(s) = b.

    G(s) is the mean of the kernel basis over the displaced particles
    X_j + Jac(K_basis)(X_j)^T s; b is the importance-weighted kernel mean.
    ``iters=1`` is exactly :func:`kfrflow_i_step`.  Basis centers stay at the
    original particle positions throughout; only evaluation points move.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if ensemble.t + dt > 1.0 + 1e-12:
        raise ValueError(
            f"step beyond unit time: t={ensemble.t} + dt={dt} exceeds 1"
        )
    x = ensemble.positions
    J = x.shape[0]
    ws = build_workspace(ensemble, spec, pool=pool)
    w = importance_weights(ensemble, target, dt)
    if w.max() > 0.5:
        warnings.warn(
            f"importance weights degenerate: max weight {w.max():.3f} > 0.5",
            RuntimeWarning,
            stacklevel=2,
        )
    uniform = np.full(J, 1.0 / J)
    b = w @ ws.Kmat
    # the first iterate is the KFRFlow-I map: at s = 0 the residual comes
    # from the workspace and the Jacobian is exactly M.  The map linearizes
    # K(X_j + disp_j, .), valid only while ||disp_j|| <~ h: raise lam (kept
    # for later iterations) until no particle moves farther.
    resid = uniform @ ws.Kmat - b
    while True:
        s = -spd_solve(ws.M, lam, resid, pool=pool)
        disp = _grad_apply(x, ws.Kmat, ws.h, s, pool, ws.s)
        if not np.max(np.sum(disp * disp, axis=1)) > ws.h * ws.h:
            break
        lam = max(10.0 * lam, _lam_floor(ws.M))
    y = x + disp
    if iters == 1:
        return Ensemble(y, ensemble.t + dt)

    jacobian = _grad_jacobian(x, ws.Kmat, ws.h, ws.s)
    norm = float(np.linalg.norm(resid))
    best_y, best_norm, grew = x, norm, 0
    for it in range(1, iters + 1):
        Dy = _pair_sq(y, x)
        ky = _q_from_sq(Dy, ws.h)
        resid = uniform @ ky - b
        prev_norm, norm = norm, float(np.linalg.norm(resid))
        if norm < best_norm:
            best_norm, best_y = norm, y
        grew = grew + 1 if norm > prev_norm else 0
        if grew >= 2:
            warnings.warn(
                "transport Newton iteration diverging; keeping best iterate",
                RuntimeWarning,
                stacklevel=2,
            )
            return Ensemble(best_y, ensemble.t + dt)
        if it == iters:
            break
        jac = jacobian(y, ky, Dy)
        if lam > 0:
            jac.flat[:: J + 1] += lam
        try:
            s = s - np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError as err:
            raise NumericalStabilityError(
                "singular Jacobian in transport Newton iteration; "
                "increase the regularization lambda"
            ) from err
        y = x + _grad_apply(x, ws.Kmat, ws.h, s, pool, ws.s)
    return Ensemble(y, ensemble.t + dt)


def tempered_score(target, x, t: float) -> np.ndarray:
    """Score of the geometric mixture at time t.

    grad log pi_t = (1-t) grad log pi_0 + t grad log pi_1; requires both
    scores on the target.
    """
    if not target.has_scores:
        raise CapabilityError(
            f"target {target.name!r} does not provide scores; "
            "KFRD and tempered diagnostics require them"
        )
    return (1.0 - t) * target.score_reference(x) + t * target.score_target(x)


def kfrd_drift(
    ensemble: Ensemble, target, spec: KernelSpec, lam: float, eps: float, t: float, pool=None
) -> tuple:
    """Drift rows and diffusion coefficient of the KFRD SDE.

    drift_j = v_j + eps * grad log pi_t(X_j), diffusion sqrt(2 eps).  With
    eps = 0 this is exactly the KFRFlow ODE; a negative or non-finite eps or
    lam raises ValueError.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    v = kfrflow_velocity(ensemble, target, spec, lam, pool=pool)
    if eps > 0:
        v = v + eps * tempered_score(target, ensemble.positions, t)
    return v, float(np.sqrt(2.0 * eps))
