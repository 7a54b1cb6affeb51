"""Inverse multiquadric (IMQ) kernel matrices, gradient products, and bandwidth selection.

The kernel is K(x, y) = (1 + ||x - y||^2 / h^2)^(-1/2), h > 0: symmetric
positive definite, with values in (0, 1] and K(x, x) = 1.  Batch routines take
points as rows of ``(n, d)`` arrays; gradients are taken with respect to the
first argument.

Every batch quantity comes from one pairwise primitive, :func:`_pair_kernel`,
which gives q[i, l] = K(xa_i, xb_l); the gradient scale s = -q^3 / h^2, so that
grad_1 K(xa_i, xb_l) = (xa_i - xb_l) s[i, l], is formed from q by
:func:`_grad_scale`, whole where that costs no more than a row strip and
otherwise for the rows that a product reads.  Every product with the
gradients is the apply :func:`_grad_apply`, the coupling matrix M of
:func:`_grad_gram` or the Newton Jacobian of :func:`_grad_jacobian`, each
with one job; no (d, J, J) array leaves this module.

Every coordinate difference xa_ia - xb_la is an element of an exact BLAS
product (:func:`_differences`).  The pair pass, :func:`_pair_sq`, adds their
squares in coordinate order, exactly as ``scipy.spatial.distance.pdist``
does, so bandwidths and kernel values match it bit for bit.  A
:class:`FlowWorkspace` (:func:`build_workspace`) makes it once, and its
bandwidth, q and, from ``_DISTANCE_GRAM_MIN_DIM`` on, its Gram matrix all
read the same D.

A step's J x J arrays can live in a :class:`_BufferPool`: J and d stay
fixed over a trial, so one trial creates a pool and hands it to every step
and observation, and no step allocates those arrays again.  Without a pool
every array is fresh; the arithmetic is the same either way.  A pooled step
holds four named buffers and nothing else: below ``_DISTANCE_GRAM_MIN_DIM``
2.5 J x J arrays and at most ``_S_STRIP`` elements of s, and from it on 4
J x J arrays:

* ``"D"``: the squared distances of the pair pass, then the coupling matrix
  M, which is formed over them once q is (at every d);
* ``"q"``: the kernel matrix; its head holds the pair pass's scratch, at
  most two row strips of ``_PAIR_BLOCK`` pairs (512 KB while J <= 2^15),
  which is dead before q is written;
* ``"s"``: the gradient scale, whole where the distance form of M needs it
  (from ``_DISTANCE_GRAM_MIN_DIM`` on) or where J x J fits in ``_S_STRIP``
  elements, and otherwise formed from q in row strips of at most
  ``_S_STRIP`` elements where a product reads them (q^3 in the apply);
* ``"G"``: J(J+1)/2 elements below ``_DISTANCE_GRAM_MIN_DIM``, J x J from it
  on, and dead between its uses.  Within a step it holds in turn the
  J(J-1)/2 distances that the median partitions in place, the scratch of M
  (one row strip of the gradient blocks at a time, or P = D o (s^T s) and
  then T + T^T - P), and the Cholesky factor of M + lam I in rectangular
  full packed storage that ``particles.spd_solve`` writes.

Between steps every buffer is dead, so the KSD of an observation borrows
them: its row strips of at most ``diagnostics._KSD_STRIP`` elements live in
the heads of ``"D"``, ``"q"`` and ``"s"``, its O(J d) operands and
accumulators in the head of ``"G"``.  A result that outlives the step
(positions, velocities) is never a pool buffer.

The rank-k updates of M (dsyrk, dsyr2k) run on numpy's own OpenBLAS, or
without it through ``np.matmul``, as :mod:`kfrflow._blas` decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas

# _grad_gram sums gradient blocks (d J^3 flops) below this dimension and
# squared distances (3 J^3 flops) from it on; at d = 1 the distance form
# misses the 1e-10 oracle bound of criterion 4.  The distance form reuses the
# D that the kernel of the same step was built from, so a workspace makes one
# pair pass at every d.
_DISTANCE_GRAM_MIN_DIM = 3

# pairs in one row strip of _pair_sq: its sum and one coordinate's squares,
# 256 KB each, stay in cache while the coordinates are added
_PAIR_BLOCK = 32768

# elements of one row strip of s.  On one thread, M at J = 1000 took 51 ms at
# d = 2 and 27 ms at d = 1 with these strips, against 54 and 29 ms with the
# 2^19-element gradient strips they replace; at J = 2000, d = 2, 356 ms
# against 337 ms.
_S_STRIP = 131072

# rows of the diagonal blocks that _mirror_lower copies through a transposed
# scratch (32 KB), and the mask of their strict upper triangle, read from bytes:
# numpy work at import kept 0.1 MB more resident where nothing is mirrored
_MIRROR_BLOCK = 64
_UPPER = np.frombuffer(b"".join(
    bytes(r + 1) + b"\1" * (_MIRROR_BLOCK - 1 - r) for r in range(_MIRROR_BLOCK)
), bool).reshape(_MIRROR_BLOCK, _MIRROR_BLOCK)

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


def _differences(xa: np.ndarray, xb: np.ndarray):
    """``diff(a, out, rows, cols)`` writes xa_ia - xb_la for coordinate a,
    the rows i and the columns l (slices, all by default) to ``out`` as one
    BLAS product of [xa_a, 1] and [1; -xb_a]: both of its products are exact,
    so their sum rounds once, as the subtraction does (-0 - (+0) may give +0)."""
    lhs = np.ones((xa.shape[1], xa.shape[0], 2))
    lhs[:, :, 0] = xa.T
    rhs = np.ones((xb.shape[1], 2, xb.shape[0]))
    np.negative(xb.T, out=rhs[:, 1])
    return lambda a, out, rows=slice(None), cols=slice(None): np.matmul(
        lhs[a, rows], rhs[a, :, cols], out=out)


def _pair_sq(xa: np.ndarray, xb: np.ndarray, pool=None) -> np.ndarray:
    """||xa_i - xb_l||^2 as an (na, nb) array, the pool's ``"D"``.

    Row strips of at most ``_PAIR_BLOCK`` pairs add the squares of the
    coordinates' differences in order: the sum of scipy's pdist and cdist,
    bit for bit.  Squares after the first coordinate's, and the sum of a
    strip that is strided in D (numpy's ufuncs are slow on it), are formed
    in the head of the pool's ``"q"`` (its callers write q only after the
    pass).  When xa is xb only the upper triangle is computed and mirrored;
    (a - b)^2 == (b - a)^2 keeps the result exactly symmetric."""
    (na, d), nb = xa.shape, xb.shape[0]
    sym, diff = xa is xb, _differences(xa, xb)
    d2 = _scratch(pool, "D", (na, nb))
    buf = _scratch(pool, "q", (min(na * nb, (1 + sym) * max(_PAIR_BLOCK, nb)),))
    if not d:
        d2.fill(0.0)
    i0 = 0
    while i0 < na:
        c0 = i0 if sym else 0
        i1 = min(na, i0 + max(1, _PAIR_BLOCK // max(1, nb - c0)))
        strip, n = d2[i0:i1, c0:], (i1 - i0) * (nb - c0)
        acc = buf[n : 2 * n].reshape(strip.shape) if c0 else strip
        for a in range(d):
            u = diff(a, buf[:n].reshape(strip.shape) if a else acc, slice(i0, i1), slice(c0, None))
            np.square(u, out=u)
            if a:
                acc += u
        if c0:
            np.copyto(strip, acc)
        if sym:
            d2[i1:, i0:i1] = d2[i0:i1, i1:].T
        i0 = i1
    return d2


def _q_from_sq(d2: np.ndarray, h: float, out=None) -> np.ndarray:
    if h * h != 1.0:  # d2 / 1 is d2: the KSD's default h = 1 skips the divide
        d2 = out = np.divide(d2, h * h, out=out)
    out = np.add(d2, 1.0, out=out)
    np.sqrt(out, out=out)
    np.reciprocal(out, out=out)
    return out


def _median_bw_from_sq(d2: np.ndarray, h_floor: float, pool=None) -> float:
    """Bandwidth from the squared-distance matrix of an ensemble.

    med is the exact median of the J(J-1)/2 pairwise distances (for an even
    count, the average of the two middle ones), read from the strict upper
    triangle into the head of the pool's ``"G"`` and partitioned there;
    h = sqrt(med^2 / log(J+1)), clamped below by h_floor.
    """
    J = d2.shape[0]
    if J < 2:
        return float(h_floor)
    pairs = np.concatenate(
        [d2[i, i + 1 :] for i in range(J - 1)],
        out=_scratch(pool, "G", (J * (J - 1) // 2,)),
    )
    k = pairs.size // 2
    pairs.partition(k)
    med = float(np.sqrt(pairs[k]))
    if pairs.size % 2 == 0:
        # one partition: the (k-1)-th order statistic is the largest below k
        med = (float(np.sqrt(pairs[:k].max())) + med) / 2.0
    h = float(np.sqrt(med**2 / np.log(J + 1)))
    return max(h, float(h_floor))


def _bandwidth_from_sq(spec: KernelSpec, d2: np.ndarray, pool=None) -> float:
    """``spec``'s bandwidth for the ensemble whose squared distances are ``d2``."""
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    return _median_bw_from_sq(d2, spec.h_floor, pool)


def _pair_kernel(xa: np.ndarray, xb: np.ndarray, h) -> tuple:
    """The pairwise primitive: (h, q) with q[i, l] = K(xa_i, xb_l); the
    gradient scale s = ``_grad_scale(q, h)`` gives grad_1 K(xa_i, xb_l) =
    (xa_i - xb_l) s[i, l].  ``h`` is the bandwidth, or a KernelSpec whose
    policy is applied to these pairs (then xa and xb are the same ensemble)."""
    d2 = _pair_sq(xa, xb)
    if isinstance(h, KernelSpec):
        h = _bandwidth_from_sq(h, d2)
    return h, _q_from_sq(d2, h, out=d2)


def _grad_scale(q: np.ndarray, h: float, out=None) -> np.ndarray:
    """s = -q^3 / h^2 for the rows of q given, written to ``out`` when given;
    a row of s depends on the same row of q only."""
    s = np.multiply(q, q, out=out)
    s *= q
    s /= -(h * h)
    return s


def _grad_blocks(xa: np.ndarray, xb: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (d, na, nb) gradient blocks G[a, i, l] = d/dx_a K(x, xb_l) at
    x = xa_i, for s = ``_grad_scale(q, h)`` of ``_pair_kernel(xa, xb, h)``:
    the differences of :func:`_differences` times s.  When xa is xb, each
    G[a] is exactly antisymmetric."""
    G = np.empty((xa.shape[1],) + s.shape)
    diff = _differences(xa, xb)
    for a in range(xa.shape[1]):
        diff(a, G[a])
        G[a] *= s
    return G


def _grad_apply(x: np.ndarray, q: np.ndarray, h: float, f, pool=None, s=None) -> np.ndarray:
    """sum_l grad_1 K(x_i, x_l) f_l = x_i (s f)_i - (s (x o f))_i as a
    (J, d) array, for q from ``_pair_kernel(x, x, h)`` and f a (J,) vector
    or a scalar.  A caller that holds the whole of s = -q^3 / h^2 passes
    it; otherwise q^3 is formed ``_S_STRIP`` elements of rows at a time in
    the pool's ``"s"`` and its product divided by -h^2, a pass less than
    forming s.  The points are shifted to their mean, which keeps the
    difference free of cancellation far from the origin; overflow on a
    far-out ensemble is left to the non-finite result."""
    J = q.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean(axis=0)
        f = np.broadcast_to(f, (J,))[:, None]
        w = np.hstack((f, xc * f))
        if s is not None:
            sf = s @ w
        else:
            rows = max(1, min(J, _S_STRIP // max(1, J)))
            sf = np.empty((J, w.shape[1]))
            buf = _scratch(pool, "s", (rows * J,))
            for i0 in range(0, J, rows):
                i1 = min(J, i0 + rows)
                q3 = buf[: (i1 - i0) * J].reshape(i1 - i0, J)
                np.multiply(q[i0:i1], q[i0:i1], out=q3)
                q3 *= q[i0:i1]
                np.matmul(q3, w, out=sf[i0:i1])
            sf /= -(h * h)
        return xc * sf[:, :1] - sf[:, 1:]


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of the square array ``a`` onto its upper one in
    place, ``_MIRROR_BLOCK`` rows at a time; a diagonal block, whose two
    triangles overlap in memory, goes through a transposed copy of itself."""
    J, b = a.shape[0], _MIRROR_BLOCK
    for i0 in range(0, J, b):
        i1 = min(J, i0 + b)
        a[i0:i1, i1:] = a[i1:, i0:i1].T
        blk = a[i0:i1, i0:i1]
        np.copyto(blk, blk.T.copy(), where=_UPPER[: i1 - i0, : i1 - i0])
    return a


def _grad_gram(x: np.ndarray, q: np.ndarray, h: float, D, pool=None, s=None) -> np.ndarray:
    """The coupling matrix M[l, m] = (1/J) sum_i grad_1 K(x_i, x_l) .
    grad_1 K(x_i, x_m), written over the J x J array D, for q from
    ``_pair_kernel(x, x, h)``; s is formed from q unless the caller passes
    the whole of it.

    Below ``_DISTANCE_GRAM_MIN_DIM`` D's values are not read: M sums B^T B
    over row strips B of the gradient blocks with dsyrk, each strip's rows
    of s (at most ``_S_STRIP`` elements) formed in the pool's ``"s"`` and its
    blocks (at most J(J+1)/2 elements, like the factor that follows) in
    ``"G"``, from differences made once per call.  From it on D is
    ``_pair_sq(x, x)``, and D_il = ||x_i - x_l||^2 and (x_i - x_l).(x_i -
    x_m) = (D_il + D_im - D_lm) / 2 give M = (T + T^T - D o (s^T s)) / (2J)
    with T = (D o s) s: one dsyr2k over the whole of s in ``"s"``, with
    P = D o (s^T s) and then T + T^T - P in ``"G"``.  Either form fills the
    lower triangle and mirrors it, so M is exactly symmetric."""
    J, d = x.shape
    if d < _DISTANCE_GRAM_MIN_DIM:
        rows = max(1, min(_S_STRIP // J, (J + 1) // (2 * max(1, d))))
        sbuf = _scratch(pool, "s", (rows * J,)) if s is None else None
        buf = _scratch(pool, "G", (d * rows * J,))
        diff = _differences(x, x)
        for i0 in range(0, J, rows):
            i1 = min(J, i0 + rows)
            if s is None:
                si = _grad_scale(q[i0:i1], h, out=sbuf[: (i1 - i0) * J].reshape(i1 - i0, J))
            else:
                si = s[i0:i1]
            strip = buf[: d * (i1 - i0) * J].reshape(d, i1 - i0, J)
            for a in range(d):
                diff(a, strip[a], slice(i0, i1))
                strip[a] *= si
            _blas.rank_k_update(D, 1.0 if i0 else 0.0, strip.reshape(-1, J))
        return np.divide(_mirror_lower(D), J, out=D)
    if s is None:
        s = _grad_scale(q, h, out=_scratch(pool, "s", (J, J)))
    # s.T @ s, not s @ s: numpy sends it to syrk
    P = np.matmul(s.T, s, out=_scratch(pool, "G", (J, J)))
    P *= D
    D *= s
    _blas.rank_k_update(P, -1.0, D, s)  # T + T^T - P, D o s being symmetric
    return _mirror_lower(np.divide(P, 2 * J, out=D))  # D o s is spent


def _grad_jacobian(x: np.ndarray, q: np.ndarray, h: float, s):
    """``jac(y, qy, Dy)``: the transport Newton Jacobian (1/J) sum_i
    grad_1 K(y_i, x_l) . grad_1 K(x_i, x_m) at displaced points y, a fresh
    J x J array, for q from ``_pair_kernel(x, x, h)``, s its whole gradient
    scale or None, Dy = ``_pair_sq(y, x)`` (spent) and qy its kernel.

    What depends on the centres x alone is formed here, once per Newton
    step: below ``_DISTANCE_GRAM_MIN_DIM`` the gradient blocks of x (and s
    for them, where the step keeps it in strips), and jac multiplies them by
    those of y; from it on D = ``_pair_sq(x, x)``, and with n_i =
    ||y_i - x_i||^2, jac = (sy^T ((Dy - n 1^T) o s) + (D o sy)^T s -
    D o (sy^T s)) / (2J)."""
    J, d = x.shape
    if s is None:
        s = _grad_scale(q, h)
    if d < _DISTANCE_GRAM_MIN_DIM:
        Gr = _grad_blocks(x, x, s).reshape(d * J, J)

        def jac(y, qy, Dy):
            out = np.matmul(_grad_blocks(y, x, _grad_scale(qy, h)).reshape(d * J, J).T, Gr)
            return np.divide(out, J, out=out)
        return jac
    D = _pair_sq(x, x)

    def jac(y, qy, Dy):
        sy = _grad_scale(qy, h)
        Dy -= np.sum((y - x) ** 2, axis=1)[:, None]
        Dy *= s
        out = sy.T @ Dy + (D * sy).T @ s
        out -= D * (sy.T @ s)
        return np.divide(out, 2 * J, out=out)
    return jac


@dataclass
class FlowWorkspace:
    """Per-step derived quantities, all computed at one shared bandwidth
    ``h``: the kernel matrix and M, each J x J whatever d is, and the
    gradient scale ``s`` where the step keeps it whole, else None; the
    products then form it from ``Kmat`` and ``h`` row strip by row strip."""

    h: float
    Kmat: np.ndarray
    M: np.ndarray
    s: np.ndarray | None = None


def build_workspace(ensemble, spec: KernelSpec, pool=None) -> FlowWorkspace:
    """The workspace of an Ensemble or (J, d) array from one pair pass: q in
    the pool's ``"q"``, M over the distances in ``"D"``, and s in ``"s"``.
    s is kept whole where the distance form of M needs it or where it fits
    in one strip of ``_S_STRIP`` elements.  The pool's ``"G"`` and ``"q"``
    are sized first, so that no later part of the step grows them."""
    x = _positions(ensemble)
    J, d = x.shape
    if pool is not None:
        pool.get("G", (J * J if d >= _DISTANCE_GRAM_MIN_DIM else J * (J + 1) // 2,))
        pool.get("q", (J, J))
    D = _pair_sq(x, x, pool)
    h = _bandwidth_from_sq(spec, D, pool)
    q = _q_from_sq(D, h, out=_scratch(pool, "q", D.shape))
    s = None
    if d >= _DISTANCE_GRAM_MIN_DIM or J * J <= _S_STRIP:
        s = _grad_scale(q, h, out=_scratch(pool, "s", (J, J)))
    return FlowWorkspace(h, q, _grad_gram(x, q, h, D, pool, s), s)


def kernel_matrix(ensemble, spec: KernelSpec) -> np.ndarray:
    """J x J matrix with entries K(X_i, X_j); symmetric with unit diagonal."""
    x = _positions(ensemble)
    return _pair_kernel(x, x, spec)[1]


def median_bandwidth(ensemble, h_floor: float = 1e-6) -> float:
    """Median-heuristic bandwidth h = sqrt(med^2 / log(J+1)).

    med is the median of the J(J-1)/2 pairwise Euclidean distances of the
    ensemble.  Returns h_floor when J < 2 or when the heuristic falls below
    the floor (e.g. a collapsed ensemble).
    """
    x = _positions(ensemble)
    return _median_bw_from_sq(_pair_sq(x, x), h_floor)
