"""Inverse multiquadric (IMQ) kernel matrices, gradient products, and bandwidth selection.

The kernel is K(x, y) = (1 + ||x - y||^2 / h^2)^(-1/2), h > 0: symmetric
positive definite, with values in (0, 1] and K(x, x) = 1.  Batch routines take
points as rows of ``(n, d)`` arrays; gradients are taken with respect to the
first argument.

Every batch quantity comes from one pairwise primitive, :func:`_pair_kernel`,
which gives q[i, l] = K(xa_i, xb_l) and s = -q^3 / h^2, so that
grad_1 K(xa_i, xb_l) = (xa_i - xb_l) s[i, l].  Every product with the
gradients is :func:`_grad_apply` or :func:`_grad_gram`; no (d, J, J) array
leaves this module.

The squared distances under all of them come from :func:`_pair_sq`, which
sums the coordinates in order, exactly as ``scipy.spatial.distance.pdist``
does, so bandwidths and kernel values match it bit for bit.  Within one
workspace that pass is made once: the bandwidth, q and, from
``_DISTANCE_GRAM_MIN_DIM`` on, the Gram matrix all read the same D.

A step's J x J arrays can live in a :class:`_BufferPool`: J and d stay
fixed over a trial, so one trial creates a pool and hands it to every step
and observation, and no step allocates those arrays again.  Without a pool
every array is fresh; the arithmetic is the same either way.  The named buffers, each J x J unless
said otherwise:

* ``"D"``: the squared distances of the pair pass, spent on the coupling
  matrix M once q and s are formed (at every d);
* ``"q"``, ``"s"``: the kernel matrix and the gradient scale;
* ``"G"``: below ``_DISTANCE_GRAM_MIN_DIM`` the (d, J, J) gradient blocks,
  from it on P = D o (s^T s); both are dead once M is formed, and
  ``particles.spd_solve`` then factors M + lam I in its first J x J;
* ``"T"``: T = (D o s) s of the distance form of M, from
  ``_DISTANCE_GRAM_MIN_DIM`` on;
* ``"tri"``: the J(J-1)/2 distances that the median partitions in place;
* ``"blk"``: the difference block of the pair pass, at most 512 KB.

Between steps every buffer is dead, so the KSD of an observation borrows
``"D"``, ``"q"`` and ``"s"``.  A result that outlives the step (positions,
velocities) is never a pool buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# _grad_gram multiplies gradient blocks (d J^3 flops, d + 1 J x J arrays)
# below this dimension and squared distances (3 J^3 flops, 3 arrays) from it
# on; at d = 1 the distance form misses the 1e-10 oracle bound of criterion 4.
# The distance form reuses the D that the kernel of the same step was built
# from, so a workspace makes one pair pass at every d.
_DISTANCE_GRAM_MIN_DIM = 3

# elements of one (d, rows, cols) difference block of _pair_sq: 512 KB, which
# stays in cache while it is squared and reduced
_PAIR_BLOCK = 65536


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


class _BufferPool:
    """Named float64 scratch arrays of one trial, allocated on first use.

    ``get(name, shape)`` returns the leading ``prod(shape)`` elements of the
    name's storage, reallocated only when too small, so two shapes asked for
    under one name share memory.  A pool belongs to one trial: it is never
    shared between threads."""

    def __init__(self):
        self._flat = {}

    def get(self, name: str, shape: tuple) -> np.ndarray:
        n = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < n:
            flat = self._flat[name] = np.empty(n)
        return flat[:n].reshape(shape)


def _scratch(pool, name: str, shape: tuple) -> np.ndarray:
    """``pool.get(name, shape)``, or a fresh array when ``pool`` is None."""
    return np.empty(shape) if pool is None else pool.get(name, shape)


def _positions(ensemble) -> np.ndarray:
    """Accept an Ensemble or a raw (J, d) array."""
    x = getattr(ensemble, "positions", ensemble)
    return np.asarray(x, dtype=np.float64)


def _pair_sq(xa: np.ndarray, xb: np.ndarray, pool=None) -> np.ndarray:
    """||xa_i - xb_l||^2 as an (na, nb) array, the pool's ``"D"``.

    Rows go in blocks of at most ``_PAIR_BLOCK`` differences, each reduced
    over its leading coordinate axis, which adds the coordinates in order:
    the sum of scipy's pdist and cdist, bit for bit.  When xa is xb only the
    upper triangle is computed and each strip is mirrored below the diagonal;
    (a - b)^2 == (b - a)^2 keeps the result exactly symmetric."""
    (na, d), nb = xa.shape, xb.shape[0]
    sym = xa is xb
    at = np.ascontiguousarray(xa.T)
    bt = at if sym else np.ascontiguousarray(xb.T)
    d2 = _scratch(pool, "D", (na, nb))
    buf = _scratch(pool, "blk", (min(d * na * nb, max(_PAIR_BLOCK, d * nb)),))
    i0 = 0
    while i0 < na:
        c0 = i0 if sym else 0
        i1 = min(na, i0 + max(1, _PAIR_BLOCK // max(1, d * (nb - c0))))
        blk = buf[: d * (i1 - i0) * (nb - c0)].reshape(d, i1 - i0, nb - c0)
        np.subtract(at[:, i0:i1, None], bt[:, None, c0:], out=blk)
        np.square(blk, out=blk)
        np.add.reduce(blk, axis=0, out=d2[i0:i1, c0:])
        if sym:
            d2[i1:, i0:i1] = d2[i0:i1, i1:].T
        i0 = i1
    return d2


def _q_from_sq(d2: np.ndarray, h: float, out=None) -> np.ndarray:
    out = np.divide(d2, h * h, out=out)
    out += 1.0
    np.sqrt(out, out=out)
    np.reciprocal(out, out=out)
    return out


def _median_bw_from_sq(d2: np.ndarray, h_floor: float, pool=None) -> float:
    """Bandwidth from the squared-distance matrix of an ensemble.

    med is the exact median of the J(J-1)/2 pairwise distances (for an even
    count, the average of the two middle ones), read from the strict upper
    triangle into the pool's ``"tri"`` and partitioned there;
    h = sqrt(med^2 / log(J+1)), clamped below by h_floor.
    """
    J = d2.shape[0]
    if J < 2:
        return float(h_floor)
    pairs = np.concatenate(
        [d2[i, i + 1 :] for i in range(J - 1)],
        out=_scratch(pool, "tri", (J * (J - 1) // 2,)),
    )
    k = pairs.size // 2
    if pairs.size % 2:
        pairs.partition(k)
        med = float(np.sqrt(pairs[k]))
    else:
        pairs.partition((k - 1, k))
        med = (float(np.sqrt(pairs[k - 1])) + float(np.sqrt(pairs[k]))) / 2.0
    h = float(np.sqrt(med**2 / np.log(J + 1)))
    return max(h, float(h_floor))


def _bandwidth_from_sq(spec: KernelSpec, d2: np.ndarray, pool=None) -> float:
    """``spec``'s bandwidth for the ensemble whose squared distances are ``d2``."""
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    return _median_bw_from_sq(d2, spec.h_floor, pool)


def _pair_kernel(xa: np.ndarray, xb: np.ndarray, h) -> tuple:
    """The pairwise primitive: (h, q, s) with q[i, l] = K(xa_i, xb_l) and
    s = -q^3 / h^2, so that grad_1 K(xa_i, xb_l) = (xa_i - xb_l) s[i, l].
    ``h`` is the bandwidth, or a KernelSpec whose policy is applied to these
    pairs (then xa and xb are the same ensemble)."""
    d2 = _pair_sq(xa, xb)
    return _kernel_from_sq(d2, h, q=d2)


def _kernel_from_sq(d2: np.ndarray, h, q=None, s=None) -> tuple:
    """:func:`_pair_kernel` from the squared distances ``d2 = _pair_sq(xa,
    xb)``; q and s are written to the arrays ``q`` and ``s`` when given (q
    may be d2 itself once nothing else reads the distances)."""
    if isinstance(h, KernelSpec):
        h = _bandwidth_from_sq(h, d2)
    q = _q_from_sq(d2, h, out=q)
    s = np.multiply(q, q, out=s)
    s *= q
    s /= -(h * h)
    return h, q, s


def _grad_blocks(xa: np.ndarray, xb: np.ndarray, s: np.ndarray, out=None) -> np.ndarray:
    """The (d, na, nb) gradient blocks G[a, i, l] = d/dx_a K(x, xb_l) at
    x = xa_i, for s from ``_pair_kernel(xa, xb, h)``, written to ``out`` when
    given.  When xa is xb, each G[a] is exactly antisymmetric."""
    G = np.empty((xa.shape[1],) + s.shape) if out is None else out
    for a in range(xa.shape[1]):
        np.subtract.outer(xa[:, a], xb[:, a], out=G[a])
        G[a] *= s
    return G


def _grad_apply(xa: np.ndarray, xb: np.ndarray, s: np.ndarray, f) -> np.ndarray:
    """sum_l grad_1 K(xa_i, xb_l) f_l = xa_i (s f)_i - (s (xb o f))_i as an
    (na, d) array, for s from ``_pair_kernel(xa, xb, h)`` and f an (nb,)
    vector or a scalar.  Both point sets are shifted to xb's mean, which keeps
    the difference free of cancellation far from the origin; overflow on a
    far-out ensemble is left to the non-finite result."""
    c = xb.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.broadcast_to(f, xb.shape[:1])[:, None]
        sf = s @ np.hstack((f, (xb - c) * f))
        return (xa - c) * sf[:, :1] - sf[:, 1:]


def _grad_gram(
    x: np.ndarray, s: np.ndarray, y=None, sy=None, D=None, Dy=None, pool=None
) -> np.ndarray:
    """(1/J) sum_i grad_1 K(y_i, x_l) . grad_1 K(x_i, x_m) as a J x J array,
    for s from ``_pair_kernel(x, x, h)``: the coupling matrix M without y, the
    transport Newton Jacobian at displaced points y (sy from
    ``_pair_kernel(y, x, h)``) with it.  From ``_DISTANCE_GRAM_MIN_DIM`` on,
    D[i, l] = ||x_i - x_l||^2 and (x_i - x_l).(x_i - x_m) = (D_il + D_im -
    D_lm) / 2 give M = (T + T^T - D o (s^T s)) / (2J) with T = (D o s) s and,
    with Dy[i, m] = ||y_i - x_m||^2 and n_i = ||y_i - x_i||^2,
    jac = (sy^T ((Dy - n 1^T) o s) + (D o sy)^T s - D o (sy^T s)) / (2J).
    A caller that holds D = ``_pair_sq(x, x)`` or Dy = ``_pair_sq(y, x)``
    passes it instead of a second pass (below ``_DISTANCE_GRAM_MIN_DIM``
    neither is read); M is written to D's buffer when D is passed, the
    Jacobian spends Dy's and leaves D intact.  M's scratch (the blocks, or P
    and T) is the pool's ``"G"`` and ``"T"``."""
    J, d = x.shape
    if d < _DISTANCE_GRAM_MIN_DIM:
        Gr = _grad_blocks(x, x, s, out=_scratch(pool, "G", (d, J, J))).reshape(d * J, J)
        Gy = Gr if y is None else _grad_blocks(y, x, sy).reshape(d * J, J)
        # for M one operand twice: a symmetric rank-k update
        out = np.matmul(Gy.T, Gr, out=D if y is None else None)
        out /= J
        return out
    if D is None:
        D = _pair_sq(x, x)
    if y is None:
        # s.T @ s, not s @ s: numpy sends it to syrk
        P = np.matmul(s.T, s, out=_scratch(pool, "G", (J, J)))
        P *= D
        D *= s
        T = np.matmul(D, s, out=_scratch(pool, "T", (J, J)))
        out = np.add(T, T.T, out=D)  # D o s is spent: reuse its buffer
        out -= P
    else:
        if Dy is None:
            Dy = _pair_sq(y, x)
        Dy -= np.sum((y - x) ** 2, axis=1)[:, None]
        Dy *= s
        out = sy.T @ Dy + (D * sy).T @ s
        out -= D * (sy.T @ s)
    out /= 2 * J
    return out


def _kernel_gram(x: np.ndarray, spec: KernelSpec, pool=None) -> tuple:
    """(h, q, s) of ``_pair_kernel(x, x, spec)`` and M = ``_grad_gram(x, s)``
    from one pair pass, in the pool's ``"q"``, ``"s"`` and ``"D"``."""
    D = _pair_sq(x, x, pool)
    h = _bandwidth_from_sq(spec, D, pool)
    h, q, s = _kernel_from_sq(
        D, h, q=_scratch(pool, "q", D.shape), s=_scratch(pool, "s", D.shape)
    )
    return h, q, s, _grad_gram(x, s, D=D, pool=pool)


def kernel_matrix(ensemble, spec: KernelSpec) -> np.ndarray:
    """J x J matrix with entries K(X_i, X_j); symmetric with unit diagonal."""
    x = _positions(ensemble)
    d2 = _pair_sq(x, x)
    return _q_from_sq(d2, _bandwidth_from_sq(spec, d2), out=d2)


def median_bandwidth(ensemble, h_floor: float = 1e-6) -> float:
    """Median-heuristic bandwidth h = sqrt(med^2 / log(J+1)).

    med is the median of the J(J-1)/2 pairwise Euclidean distances of the
    ensemble.  Returns h_floor when J < 2 or when the heuristic falls below
    the floor (e.g. a collapsed ensemble).
    """
    x = _positions(ensemble)
    return _median_bw_from_sq(_pair_sq(x, x), h_floor)
