"""Inverse multiquadric (IMQ) kernel evaluations, gradients, and bandwidth selection.

The kernel is

    K(x, y) = (1 + ||x - y||^2 / h^2)^(-1/2),    h > 0,

a symmetric positive definite kernel with values in (0, 1] and K(x, x) = 1.
Batch routines take points as rows of ``(n, d)`` arrays.  Gradients are always
taken with respect to the first argument.

Every batch quantity comes from one pairwise primitive, :func:`_pair_kernel`:
the kernel matrix q[i, l] = K(xa_i, xb_l) and the per-coordinate gradient
blocks G[a, i, l] = d/dx_a K(x, xb_l) at x = xa_i, one (na, nb) block per
coordinate.  The kernel matrix, gradient blocks and bandwidth therefore agree
bit for bit whichever route assembles them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth policy of the IMQ kernel.

    ``bandwidth=None`` selects the median heuristic, recomputed from the
    current ensemble every time a kernel quantity is assembled; a positive
    float fixes the bandwidth for the whole run.  ``h_floor`` is a lower
    clamp that guards collapsed ensembles.
    """

    bandwidth: float | None = None
    h_floor: float = 1e-6

    def __post_init__(self):
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


def _pair_sq(xa: np.ndarray, xb: np.ndarray, diffs=None) -> np.ndarray:
    """||xa_i - xb_j||^2 as an (na, nb) array, summed one coordinate at a
    time so that the (na, nb, d) difference tensor is never built.

    When ``diffs`` is a (d, na, nb) array, the per-coordinate differences
    xa_i[a] - xb_j[a] are kept in ``diffs[a]``.
    """
    d2 = np.zeros((xa.shape[0], xb.shape[0]))
    for a in range(xa.shape[1]):
        diff = np.subtract.outer(xa[:, a], xb[:, a], out=None if diffs is None else diffs[a])
        # square in place unless the differences are kept: one (na, nb)
        # temporary besides d2
        d2 += np.square(diff, out=diff) if diffs is None else diff * diff
    return d2


def _q_from_sq(d2: np.ndarray, h: float) -> np.ndarray:
    out = d2 / (h * h)
    out += 1.0
    np.sqrt(out, out=out)
    np.reciprocal(out, out=out)
    return out


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


def _bandwidth_from_sq(spec: KernelSpec, d2: np.ndarray) -> float:
    """``spec``'s bandwidth for the ensemble whose squared distances are ``d2``."""
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    return _median_bw_from_sq(d2, spec.h_floor)


def _pair_kernel(xa: np.ndarray, xb: np.ndarray, h) -> tuple:
    """The pairwise primitive: (h, q, G) for the kernel between xa and xb.

    q[i, l] = K(xa_i, xb_l) is (na, nb) and G[a, i, l] = d/dx_a K(x, xb_l) at
    x = xa_i is (d, na, nb), filled one coordinate at a time from the
    differences that the squared distances are summed from.  ``h`` is the
    bandwidth, or a KernelSpec whose policy is applied to these pairs (then
    xa and xb are the same ensemble).  When xa is xb, each G[a] is exactly
    antisymmetric.
    """
    G = np.empty((xa.shape[1], xa.shape[0], xb.shape[0]))
    d2 = _pair_sq(xa, xb, G)
    if isinstance(h, KernelSpec):
        h = _bandwidth_from_sq(h, d2)
    q = _q_from_sq(d2, h)
    scale = q * q
    scale *= q
    scale /= -(h * h)
    G *= scale
    return h, q, G


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


def kernel_matrix(ensemble, spec: KernelSpec) -> np.ndarray:
    """J x J matrix with entries K(X_i, X_j); symmetric with unit diagonal."""
    x = _positions(ensemble)
    d2 = _pair_sq(x, x)
    return _q_from_sq(d2, _bandwidth_from_sq(spec, d2))


def median_bandwidth(ensemble, h_floor: float = 1e-6) -> float:
    """Median-heuristic bandwidth h = sqrt(med^2 / log(J+1)).

    med is the median of the J(J-1)/2 pairwise Euclidean distances of the
    ensemble.  Returns h_floor when J < 2 or when the heuristic falls below
    the floor (e.g. a collapsed ensemble).
    """
    x = _positions(ensemble)
    if x.shape[0] < 2:
        return float(h_floor)
    return _median_bw_from_sq(_pair_sq(x, x), h_floor)
