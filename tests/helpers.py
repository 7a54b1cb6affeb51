"""Shared finite-difference and brute-force oracles for the test suite."""

import tracemalloc

import numpy as np

from kfrflow import baselines, harness
from kfrflow.baselines import ACCEPTANCE_WINDOW, _log_target, _mh_chain, svgd_step
from kfrflow.diagnostics import KsdConfig
from kfrflow.flows import kfrflow_i_step, kfrflow_velocity, sample_ot_newton
from kfrflow.integrators import make_rng
from kfrflow.kernels import KernelSpec, _BufferPool, _pair_sq, _q_from_sq, median_bandwidth
from kfrflow.particles import Ensemble
from kfrflow.targets import target_by_name


def _check_h(h) -> float:
    h = float(h)
    if not h > 0:
        raise ValueError(f"bandwidth must be > 0, got {h}")
    return h


def imq_eval(x, y, h) -> float:
    """Evaluate K(x, y) = (1 + ||x-y||^2/h^2)^(-1/2)."""
    h = _check_h(h)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    r2 = np.sum((x - y) ** 2)
    return float(1.0 / np.sqrt(1.0 + r2 / (h * h)))


def imq_grad1(x, y, h) -> np.ndarray:
    """Gradient of K with respect to the first argument.

    grad_x K(x, y) = -(x - y)/h^2 * (1 + ||x-y||^2/h^2)^(-3/2)
    """
    h = _check_h(h)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    u = x - y
    q = 1.0 / np.sqrt(1.0 + np.sum(u * u) / (h * h))
    return -u / (h * h) * q**3


def imq_matrix(xa, xb, h) -> np.ndarray:
    """q[i, l] = K(xa_i, xb_l) at the fixed bandwidth h, for two point sets
    or one (xa is xb), from the library's pair pass and kernel sweeps: the
    same bits as the kernel of a step at that bandwidth."""
    return _q_from_sq(_pair_sq(xa, xb), _check_h(h))


def negated_kernel(where=lambda d2: True):
    """A stand-in for ``diagnostics._q_from_sq`` that returns -K for the
    squared distances d2 where ``where(d2)`` holds.  The Stein kernel is
    linear in K and negation is exact, so the KSD's Stein sum is then
    exactly minus the true one: negative, by construction, wherever the
    true sum is positive."""
    def q_from_sq(d2, h, out=None):
        q = _q_from_sq(d2, h, out=out)
        return np.negative(q, out=q) if where(d2) else q

    return q_from_sq


def central_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def mixed_second_trace(f, x, y, h=1e-4):
    """sum_a d^2/dx_a dy_a f(x, y) by a four-point central stencil."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    total = 0.0
    for a in range(x.size):
        ex = np.zeros_like(x)
        ex[a] = h
        ey = np.zeros_like(y)
        ey[a] = h
        total += (
            f(x + ex, y + ey) - f(x + ex, y - ey)
            - f(x - ex, y + ey) + f(x - ex, y - ey)
        ) / (4.0 * h * h)
    return total


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.linalg.norm(exact)), 1e-300)
    return float(np.linalg.norm(approx - exact)) / denom


def timeless_rows(rows):
    """CSV rows without their wall-clock column, as text, so that equal bits
    (NaN included) compare equal."""
    return [{k: repr(v) for k, v in r.items() if k != "step_time_ns"} for r in rows]


def basis_gradient_oracle(x, h, y=None):
    """The (J, J*d) matrix B[l, i*d + a] = d/dx_a K(y_i, X_l), one
    ``imq_grad1`` call per pair, with evaluation points y defaulting to the
    basis centers x.  The coupling matrix is M = B B^T / J, and the transport
    Newton Jacobian at displaced points y is B(y) B(x)^T / J."""
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    J, d = x.shape
    B = np.zeros((J, J * d))
    for ell in range(J):
        for i in range(J):
            B[ell, i * d : (i + 1) * d] = imq_grad1(y[i], x[ell], h)
    return B


def svgd_phi_oracle(x, scores, h):
    """Loop transcription of the SVGD direction
    phi(x_i) = (1/J) sum_j [K(X_j, x_i) s(X_j) + grad_1 K(X_j, x_i)]."""
    x = np.asarray(x, dtype=np.float64)
    J = x.shape[0]
    phi = np.zeros_like(x)
    for i in range(J):
        for j in range(J):
            phi[i] += imq_eval(x[j], x[i], h) * scores[j] + imq_grad1(x[j], x[i], h)
    return phi / J


def stein_kernel_matrix(x, scores, h):
    """The J x J matrix k0(x_i, x_j) of the IMQ Langevin Stein kernel, built
    from the full (J, J, d) difference tensor (oracle for the KSD pass)."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    d = x.shape[1]
    u = x[:, None, :] - x[None, :, :]
    d2 = np.sum(u**2, axis=-1)
    q = (1.0 + d2 / h**2) ** -0.5
    q3 = q**3
    q5 = q3 * q * q
    us_i = np.einsum("ijk,ik->ij", u, s)
    us_j = np.einsum("ijk,jk->ij", u, s)
    return (
        (d / h**2) * q3
        - (3.0 / h**4) * d2 * q5
        + (us_i - us_j) * q3 / h**2
        + q * (s @ s.T)
    )


def velocity_oracle(ensemble, target, spec, lam=0.0):
    """Triple-loop KFRFlow velocity with an explicit dense inverse.

    A deliberately naive transcription of the KFRFlow update that shares no
    assembly code with the vectorized implementation.
    """

    def k_scalar(a, b, h):
        return (1.0 + np.sum((a - b) ** 2) / h**2) ** -0.5

    def grad1_scalar(a, b, h):
        q = k_scalar(a, b, h)
        return -(a - b) / h**2 * q**3

    x = np.asarray(getattr(ensemble, "positions", ensemble), dtype=np.float64)
    J, d = x.shape
    h = spec.bandwidth if spec.bandwidth is not None else median_bandwidth(x, spec.h_floor)
    r = np.atleast_1d(np.asarray(target.log_ratio(x), dtype=np.float64))
    c = r - r.mean()

    M = np.zeros((J, J))
    for ell in range(J):
        for m in range(J):
            acc = 0.0
            for i in range(J):
                acc += np.dot(grad1_scalar(x[i], x[ell], h), grad1_scalar(x[i], x[m], h))
            M[ell, m] = acc / J
    rhs = np.zeros(J)
    for ell in range(J):
        acc = 0.0
        for k in range(J):
            acc += c[k] * k_scalar(x[k], x[ell], h)
        rhs[ell] = acc / J
    f = np.linalg.inv(M + lam * np.eye(J)) @ rhs
    v = np.zeros((J, d))
    for j in range(J):
        for ell in range(J):
            v[j] += f[ell] * grad1_scalar(x[j], x[ell], h)
    return v


def median_bw_gather_oracle(d2, h_floor):
    """The median-heuristic bandwidth from a squared-distance matrix, its
    strict upper triangle gathered one row slice at a time and partitioned
    once (the library's form until it read the triangle with one RFP copy)."""
    J = d2.shape[0]
    if J < 2:
        return float(h_floor)
    pairs = np.concatenate([d2[i, i + 1 :] for i in range(J - 1)])
    k = pairs.size // 2
    pairs.partition(k)
    med = float(np.sqrt(pairs[k]))
    if pairs.size % 2 == 0:
        med = (float(np.sqrt(pairs[:k].max())) + med) / 2.0
    return max(float(np.sqrt(med**2 / np.log(J + 1))), float(h_floor))


def rwm_parallel_oracle(target, steps, n_samples, rng):
    """Parallel-mode ``rwm_run`` with its chains run one after another: the
    tuning loop, then the measurement's per-step draws for all chains, (J, d)
    proposal steps and then J uniforms, and each chain's Metropolis loop on
    its rows with single-row log-target calls.  Returns ``(samples,
    measure_acceptance, proposal_std, tune_acceptance)``; it emits no tuning
    warning."""
    lt = _log_target(target)
    d = target.dim
    std = baselines.PROPOSAL_STD
    x = rng.standard_normal(d)
    acc_rate = float("nan")
    for _ in range(baselines.TUNE_ROUNDS):
        tail, acc = _mh_chain(lt, x, baselines.TUNE_BATCH, std, rng)
        x = tail[-1]
        acc_rate = acc / baselines.TUNE_BATCH
        if ACCEPTANCE_WINDOW[0] <= acc_rate <= ACCEPTANCE_WINDOW[1]:
            break
        std *= float(np.exp(acc_rate - baselines.TARGET_ACCEPTANCE))

    J, N = n_samples, steps
    inits = rng.standard_normal((J, d))
    moves, logu = [], []
    for _ in range(N):
        moves.append(rng.standard_normal((J, d)) * std)
        logu.append(np.log(rng.random(J)))
    rows = []
    total_acc = 0
    for j in range(J):
        x = inits[j].copy()
        lx = float(lt(x)[0])
        for k in range(N):
            prop = x + moves[k][j]
            lp = float(lt(prop)[0])
            if logu[k][j] < lp - lx:
                x, lx = prop, lp
                total_acc += 1
        rows.append(x)
    return np.asarray(rows), total_acc / (N * J), std, acc_rate


# one pooled update at dt = 0.01 (lambda = 1e-3 for the flows), returning the
# new positions
POOLED_STEPS = {
    "kfrflow-i": lambda e, tgt, spec, pool: kfrflow_i_step(
        e, tgt, spec, 0.01, 1e-3, pool=pool
    ).positions,
    "velocity": lambda e, tgt, spec, pool: e.positions
    + 0.01 * kfrflow_velocity(e, tgt, spec, 1e-3, pool=pool),
    "svgd": lambda e, tgt, spec, pool: svgd_step(e, tgt, spec, 0.01, pool).positions,
}
# a Newton step's later iterates allocate their own J x J arrays, so it is
# measured apart from the steps that a warm pool holds entirely
NEWTON_STEP = {
    "newton:3": lambda e, tgt, spec, pool: sample_ot_newton(
        e, tgt, spec, 0.01, 1e-3, iters=3, pool=pool
    ).positions,
}


def pooled_step_peak(target, rule, J, seed=34):
    """The ``tracemalloc`` peak of one update ``POOLED_STEPS[rule]`` (or
    ``NEWTON_STEP[rule]``) in a fresh buffer pool plus the harness
    observation of its result in the same pool, in units of one J x J
    float64 array."""
    tgt = target_by_name(target)
    spec = KernelSpec()
    ens = Ensemble(tgt.sample_reference(make_rng(seed), J), 0.0)
    pool = _BufferPool()
    tracemalloc.start()
    try:
        out = {**POOLED_STEPS, **NEWTON_STEP}[rule](ens, tgt, spec, pool)
        harness._row(0, 1, 0.01, out, 0, KsdConfig(), tgt, True, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (J * J * 8)
