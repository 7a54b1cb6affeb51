"""Inverse multiquadric (IMQ) kernel evaluations, gradients, and bandwidth selection.

The kernel is

    K(x, y) = (1 + ||x - y||^2 / h^2)^(-1/2),    h > 0,

a symmetric positive definite kernel with values in (0, 1] and K(x, x) = 1.
Batch routines take points as rows of ``(n, d)`` arrays.  Gradients are always
taken with respect to the first argument.

All batch entry points share the same low-level primitives, so quantities
assembled through different routes (kernel matrix, gradient tensors, bandwidth)
agree bit for bit whenever their inputs do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class KernelFamily(enum.Enum):
    IMQ = "imq"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth policy.

    ``bandwidth=None`` selects the median heuristic, recomputed from the
    current ensemble every time a kernel quantity is assembled; a positive
    float fixes the bandwidth for the whole run.  ``h_floor`` is a lower
    clamp that guards collapsed ensembles.
    """

    family: KernelFamily = KernelFamily.IMQ
    bandwidth: float | None = None
    h_floor: float = 1e-6

    def __post_init__(self):
        if self.family is not KernelFamily.IMQ:
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("fixed bandwidth must be > 0")
        if not self.h_floor > 0:
            raise ValueError("h_floor must be > 0")


def _positions(ensemble) -> np.ndarray:
    """Accept an Ensemble or a raw (J, d) array."""
    x = getattr(ensemble, "positions", ensemble)
    return np.asarray(x, dtype=np.float64)


def _check_h(h) -> float:
    h = float(h)
    if not h > 0:
        raise ValueError(f"bandwidth must be > 0, got {h}")
    return h


def _pair_diff_sq(xa: np.ndarray, xb: np.ndarray) -> tuple:
    """(xa_i - xb_j, ||xa_i - xb_j||^2) as (na, nb, d) and (na, nb) arrays.

    Computed from coordinate differences (not the expanded dot product), so
    the result depends only on relative positions.
    """
    diff = xa[:, None, :] - xb[None, :, :]
    d2 = diff[:, :, 0] * diff[:, :, 0]
    for a in range(1, diff.shape[2]):
        d2 += diff[:, :, a] * diff[:, :, a]
    return diff, d2


def _pair_sq(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """||xa_i - xb_j||^2 as an (na, nb) array, summed one coordinate at a
    time so that the (na, nb, d) difference tensor is never built."""
    d2 = np.subtract.outer(xa[:, 0], xb[:, 0])
    d2 *= d2
    for a in range(1, xa.shape[1]):
        diff = np.subtract.outer(xa[:, a], xb[:, a])
        diff *= diff
        d2 += diff
    return d2


def _q_from_sq(d2: np.ndarray, h: float) -> np.ndarray:
    out = d2 / (h * h)
    out += 1.0
    np.sqrt(out, out=out)
    np.reciprocal(out, out=out)
    return out


def _grads_from(diff: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    return diff * (-(q * q * q) / (h * h))[..., None]


def _basis_major_grads(diff: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """Gradient tensor in basis-major (nb, na, d) layout.

    Entry [j, i, :] is grad_1 K(xa_i, xb_j); the contiguous (nb, na*d)
    reshape makes Gram products plain matrix products.
    """
    scale = q * q
    scale *= q
    scale /= -(h * h)
    return diff.transpose(1, 0, 2) * scale.T[:, :, None]


def _scaled_parts(xa: np.ndarray, xb: np.ndarray, h: float) -> tuple:
    """Kernel matrix, gradient tensor, and its basis-major matrix in one pass.

    Returns (q, grads, basis) with q[i, j] = K(xa_i, xb_j),
    grads[i, j, :] = grad_1 K(xa_i, xb_j), and basis the (nb, na*d) reshape of
    the gradients with the basis-center index first.  ``grads`` is a view of
    the ``basis`` memory.
    """
    diff, d2 = _pair_diff_sq(xa, xb)
    q = _q_from_sq(d2, h)
    basis3 = _basis_major_grads(diff, q, h)
    return q, basis3.transpose(1, 0, 2), basis3.reshape(xb.shape[0], -1)


def _median_bw_from_sq(d2: np.ndarray, h_floor: float) -> float:
    """Bandwidth from the squared-distance matrix of an ensemble.

    med is the exact median of the J(J-1)/2 pairwise distances (for an even
    count, the average of the two middle ones); h = sqrt(med^2 / log(J+1)),
    clamped below by h_floor.
    """
    J = d2.shape[0]
    if J < 2:
        return float(h_floor)
    # order statistics of the full matrix map onto the pair multiset: the
    # flattened array holds J diagonal zeros plus every pair value twice
    flat = d2.reshape(-1)
    m = J * (J - 1) // 2
    k = m // 2
    if m % 2:
        med = float(np.sqrt(np.partition(flat, J + 2 * k)[J + 2 * k]))
    else:
        lo, hi = J + 2 * (k - 1), J + 2 * k
        part = np.partition(flat, (lo, hi))
        med = (float(np.sqrt(part[lo])) + float(np.sqrt(part[hi]))) / 2.0
    h = float(np.sqrt(med**2 / np.log(J + 1)))
    return max(h, float(h_floor))


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


def imq_cross(xa, xb, h) -> np.ndarray:
    """Kernel matrix K(xa_i, xb_j) of shape (na, nb)."""
    h = _check_h(h)
    _, d2 = _pair_diff_sq(np.atleast_2d(xa), np.atleast_2d(xb))
    return _q_from_sq(d2, h)


def imq_cross_parts(xa, xb, h) -> tuple:
    """Kernel matrix and first-argument gradient tensor in one pass.

    Returns (K, T) with K[i, j] = K(xa_i, xb_j) and
    T[i, j, :] = grad_x K(xa_i, xb_j).
    """
    h = _check_h(h)
    diff, d2 = _pair_diff_sq(np.atleast_2d(xa), np.atleast_2d(xb))
    q = _q_from_sq(d2, h)
    return q, _grads_from(diff, q, h)


def imq_cross_grad1(xa, xb, h) -> np.ndarray:
    """Gradient tensor T[i, j, :] = grad_x K(xa_i, xb_j), shape (na, nb, d)."""
    return imq_cross_parts(xa, xb, h)[1]


def kernel_matrix(ensemble, spec: KernelSpec) -> np.ndarray:
    """J x J matrix with entries K(X_i, X_j); symmetric with unit diagonal."""
    x = _positions(ensemble)
    return imq_cross(x, x, resolve_bandwidth(spec, x))


def kernel_jacobian(ensemble, spec: KernelSpec, i: int) -> np.ndarray:
    """Jacobian of the basis map x -> (K(x, X_1), ..., K(x, X_J)) at X_i.

    Row j is grad_x K(x, X_j) evaluated at x = X_i, so the result has shape
    (J, d).
    """
    x = _positions(ensemble)
    J = x.shape[0]
    if not 0 <= i < J:
        raise IndexError(f"particle index {i} out of range for J={J}")
    h = resolve_bandwidth(spec, x)
    return imq_cross_grad1(x[i : i + 1], x, h)[0]


def median_bandwidth(ensemble, h_floor: float = 1e-6) -> float:
    """Median-heuristic bandwidth h = sqrt(med^2 / log(J+1)).

    med is the median of the J(J-1)/2 pairwise Euclidean distances of the
    ensemble.  Returns h_floor when J < 2 or when the heuristic falls below
    the floor (e.g. a collapsed ensemble).
    """
    x = _positions(ensemble)
    if x.shape[0] < 2:
        return float(h_floor)
    _, d2 = _pair_diff_sq(x, x)
    return _median_bw_from_sq(d2, h_floor)


def resolve_bandwidth(spec: KernelSpec, ensemble) -> float:
    """Bandwidth for the current ensemble under ``spec``'s policy."""
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    return median_bandwidth(ensemble, h_floor=spec.h_floor)
