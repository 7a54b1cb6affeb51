"""Shared finite-difference and brute-force oracles for the test suite."""

import numpy as np

from kfrflow.kernels import imq_eval, imq_grad1, median_bandwidth


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


def basis_gradient_oracle(x, h):
    """The (J, J*d) matrix B[l, i*d + a] = d/dx_a K(X_i, X_l), one
    ``imq_grad1`` call per pair; the coupling matrix is M = B B^T / J."""
    x = np.asarray(x, dtype=np.float64)
    J, d = x.shape
    B = np.zeros((J, J * d))
    for ell in range(J):
        for i in range(J):
            B[ell, i * d : (i + 1) * d] = imq_grad1(x[i], x[ell], h)
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
