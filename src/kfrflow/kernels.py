"""Inverse multiquadric (IMQ) kernel matrices, gradient products, and bandwidth selection.

The kernel is K(x, y) = (1 + ||x - y||^2 / h^2)^(-1/2), h > 0: symmetric
positive definite, with values in (0, 1] and K(x, x) = 1.  Batch routines take
points as rows of ``(n, d)`` arrays; gradients are taken with respect to the
first argument.

Every kernel matrix q[i, l] = K(xa_i, xb_l) is formed by :func:`_q_from_sq`
from squared distances D, those of :func:`_pair_sq` or
:func:`_pair_sq_product`, as q = sqrt(h^2 / (h^2 + D)): one add, one divide
and one square root over the pairs (1 / sqrt(1 + D) at h = 1, the KSD's
default, also three).  Every bandwidth comes from one routine,
:func:`_bandwidth_from_sq`: a :class:`KernelSpec`'s fixed value, or the
median heuristic on an ensemble's own D.  :func:`_pair_kernel` serves one
ensemble under a KernelSpec: it composes the pass of its own pairs, that
bandwidth and q for SVGD and :func:`kernel_matrix`.  The workspace, Newton
and the KSD compose them themselves, and Newton's displaced points against
the centres take ``_q_from_sq`` of their ``_pair_sq``.  The gradient scale
s = -q^3 / h^2, so that grad_1 K(xa_i, xb_l) = (xa_i - xb_l) s[i, l], is
formed from q by :func:`_grad_scale` as q times the constant -1/h^2, then
twice times q, whole where that costs no more than a row strip and otherwise
for the rows that a product reads.  Every product with the gradients is the
apply :func:`_grad_apply`, the coupling matrix M of :func:`_grad_gram` or
the Newton Jacobian of :func:`_grad_jacobian`, each with one job; no
(d, J, J) array leaves this module.  M's 1/J is the alpha of its rank-k
updates below ``_DISTANCE_GRAM_MIN_DIM`` and a multiply by 1/(2J) from it
on, so neither s nor M takes a divide sweep.

Every coordinate difference xa_ia - xb_la is an element of an exact BLAS
product (:func:`_differences`).  The pair pass, :func:`_pair_sq`, adds their
squares in coordinate order, exactly as ``scipy.spatial.distance.pdist``
does, so bandwidths and kernel values match it bit for bit.  A
:class:`FlowWorkspace` (:func:`build_workspace`) measures its ensemble's
pairs once, and its bandwidth, q and, from ``_DISTANCE_GRAM_MIN_DIM`` on,
its Gram matrix all read the same D.  Below that dimension D is this exact
pass; from it on D comes from one rank-2k product of the mean-centred
points (:func:`_pair_sq_product`), within 8 eps (n_i + n_l) of the pass,
n_i = ||x_i - mean(x)||^2, and so does the Newton Jacobian's D of the
centres.  The exact pass remains for the KSD, Newton's cross distances of
the displaced points, SVGD and the public :func:`kernel_matrix` and
:func:`median_bandwidth`.

Below ``_DISTANCE_GRAM_MIN_DIM`` an observation and the step after it
measure the same positions, so they share one pass: where the pool's
``"D"`` already holds J x J elements, the KSD makes the pass whole there
(:func:`_pair_sq_handoff`) and records in the pool which positions array it
measured; the next :func:`build_workspace` or SVGD step on that same array
takes it (:func:`_self_pair_sq`) instead of measuring again.  Every
``get("D")`` clears the record, as its caller is about to write there, so
a handed-on D is taken once and never read after M or another pass has
overwritten it.  Positions are never changed in place, so the same array
means the same pairs.

A step's J x J arrays can live in a :class:`_BufferPool`: J and d stay
fixed over a trial, so one trial creates a pool and hands it to every step
and observation, and no step allocates those arrays again.  Without a pool
every array is fresh; the arithmetic is the same either way.  A pooled step
holds four named buffers and nothing else: below ``_DISTANCE_GRAM_MIN_DIM``
2.5 J x J arrays and at most ``_S_STRIP`` elements of s, and from it on 4
J x J arrays:

* ``"D"``: the squared distances of the pair pass, made by the step or
  handed on by the observation before it, then the coupling matrix M, which
  is formed over them once q is (at every d), and in a Newton step from
  ``_DISTANCE_GRAM_MIN_DIM`` on the Jacobian's D of the centres, which is
  written over M once the first iterate has spent it;
* ``"q"``: the kernel matrix; below ``_DISTANCE_GRAM_MIN_DIM`` its head
  holds the pair pass's scratch, at most two row strips of ``_PAIR_BLOCK``
  pairs (512 KB while J <= 2^15), which is dead before q is written;
* ``"s"``: the gradient scale, whole where the distance form of M needs it
  (from ``_DISTANCE_GRAM_MIN_DIM`` on) or where J x J fits in ``_S_STRIP``
  elements, and otherwise formed from q in row strips of at most
  ``_S_STRIP`` elements where a product reads them (q^3 in the apply);
* ``"G"``: J(J+1)/2 elements below ``_DISTANCE_GRAM_MIN_DIM``, J x J from it
  on (and at least 2 (d + 2) J), and dead between its uses.  Within a step
  it holds in turn the two (d + 2, J) operands of the product form of D
  (from ``_DISTANCE_GRAM_MIN_DIM`` on), the upper triangle of D, diagonal
  included, that the median partitions in place, the scratch of M (one row
  strip of the gradient blocks at a time, or P = D o (s^T s) and then
  T + T^T - P), and the Cholesky factor of M + lam I in rectangular full
  packed storage that ``particles.spd_solve`` writes.

An SVGD step borrows the same names: q formed over the distances in
``"D"``, the median in ``"G"`` and the apply's strips of q^3 in ``"s"``.

Between steps every buffer is dead, so the KSD of an observation borrows
them: its row strips of at most ``diagnostics._KSD_STRIP`` elements live in
the heads of ``"q"`` and ``"s"``, and their distances in the head of
``"D"``, or in the whole of it where it hands them on; its O(J d) operands
and accumulators live in the head of ``"G"``.  A result that outlives the step
(positions, velocities) is never a pool buffer.

The rank-k updates of M and of the product form of D (dsyrk, dsyr2k) run
on numpy's own OpenBLAS, or without it through ``np.matmul``, as
:mod:`kfrflow._blas` decides.
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
# pair pass at every d.  From this dimension on that D, and the Newton
# Jacobian's D of the centres, is one rank-2k product (_pair_sq_product),
# 1.4 times faster than _pair_sq at d = 3 and 6 times at d = 20 (J = 300);
# below it D stays the exact coordinate pass, and d <= 2 keeps its bits.
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
    under one name share memory.  ``d_of`` is the positions array whose
    whole pair pass ``"D"`` holds for the next step to take, or None; every
    ``get("D")`` clears it.  A pool belongs to one trial: it is never shared
    between threads."""

    def __init__(self):
        self._flat = {}
        self.d_of = None

    def get(self, name: str, shape: tuple) -> np.ndarray:
        if name == "D":  # its caller is about to write there
            self.d_of = None
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


def _self_pair_sq(x: np.ndarray, pool=None) -> np.ndarray:
    """``_pair_sq(x, x, pool)``, or the pool's ``"D"`` where it holds that
    pass for this same array (the KSD of an observation leaves it there for
    the next step).  Taking it clears the record, so it is taken once."""
    if pool is not None and pool.d_of is x:
        return pool.get("D", (x.shape[0],) * 2)
    return _pair_sq(x, x, pool)


def _pair_sq_handoff(x: np.ndarray, pool) -> np.ndarray | None:
    """``_pair_sq(x, x, pool)`` whole, recorded for the next step on x to
    take (:func:`_self_pair_sq`), where that step reads this exact pass
    (below ``_DISTANCE_GRAM_MIN_DIM``) and the pool's ``"D"`` already holds
    J x J elements; otherwise None, and the pool is not touched."""
    J, d = x.shape
    held = None if pool is None else pool._flat.get("D")
    if held is None or held.size < J * J or d >= _DISTANCE_GRAM_MIN_DIM:
        return None
    D = _pair_sq(x, x, pool)
    pool.d_of = x
    return D


def _pair_sq_product(x: np.ndarray, pool=None) -> np.ndarray:
    """||x_i - x_l||^2 of one ensemble as a J x J array, the pool's ``"D"``,
    from one dsyr2k instead of d coordinate passes.  With xc the mean-centred
    points and n_i = ||xc_i||^2, U = [xc^T; n; 1] and V = [-xc^T; 1/2; n/2],
    both (d + 2, J) in the head of the pool's ``"G"``, give U^T V + V^T U =
    n_i + n_l - 2 xc_i . xc_l, within a few eps (n_i + n_l) of
    :func:`_pair_sq`.  Negatives from cancellation are clamped to 0, the
    diagonal is set to exactly 0 and the lower triangle is mirrored, so the
    result is exactly symmetric."""
    J, d = x.shape
    U, V = _scratch(pool, "G", (2, d + 2, J))
    xc = np.subtract(x.T, x.mean(axis=0)[:, None], out=U[:d])
    np.einsum("aj,aj->j", xc, xc, out=U[d])
    U[d + 1] = 1.0
    np.negative(xc, out=V[:d])
    V[d] = 0.5
    np.multiply(U[d], 0.5, out=V[d + 1])
    D = _scratch(pool, "D", (J, J))
    _blas.rank_k_update(D, 0.0, U, V)
    np.maximum(D, 0.0, out=D)
    D.flat[:: J + 1] = 0.0
    return _mirror_lower(D)


def _q_from_sq(d2: np.ndarray, h: float, out=None) -> np.ndarray:
    """q = sqrt(h^2 / (h^2 + d2)) in three sweeps.  At h = 1, the KSD's
    default, 1 / sqrt(1 + d2) takes three too and keeps the KSD's bits."""
    h2 = h * h
    out = np.add(d2, h2, out=out)
    if h2 == 1.0:
        np.sqrt(out, out=out)
        return np.reciprocal(out, out=out)
    np.divide(h2, out, out=out)
    return np.sqrt(out, out=out)


def _partitioned_median(tri: np.ndarray, J: int) -> float:
    """The median distance of J points from the J(J+1)/2 squared distances
    of their upper triangle, diagonal included, partitioned at J + k with
    k = n // 2 for n = J(J-1)/2 pairs.  The J diagonal zeros sort first, so
    the k-th pair is element J + k; for an even n the (k-1)-th pair is the
    largest element left of J + k, which may lie left of J among the zeros."""
    n = J * (J - 1) // 2
    k = n // 2
    med = float(np.sqrt(tri[J + k]))
    if n % 2 == 0:
        med = (float(np.sqrt(tri[: J + k].max())) + med) / 2.0
    return med


def _bandwidth_from_sq(spec: KernelSpec, d2: np.ndarray, pool=None) -> float:
    """``spec``'s bandwidth for the ensemble whose squared distances are
    ``d2``, with a zero diagonal, as ``_pair_sq(x, x)`` and
    ``_pair_sq_product`` make them: the fixed one, or the median heuristic.

    med is the exact median of the J(J-1)/2 pairwise distances (for an even
    count, the average of the two middle ones), read from the upper
    triangle, diagonal included, into J(J+1)/2 elements at the head of the
    pool's ``"G"`` (one RFP copy) and partitioned there once
    (:func:`_partitioned_median`); h = sqrt(med^2 / log(J+1)), clamped
    below by ``spec.h_floor``, which is also the bandwidth of one particle.
    """
    if spec.bandwidth is not None:
        return float(spec.bandwidth)
    J = d2.shape[0]
    if J < 2:
        return float(spec.h_floor)
    tri = _scratch(pool, "G", (J * (J + 1) // 2,))
    _blas.rfp_copy(d2, tri)
    tri.partition(J + J * (J - 1) // 2 // 2)
    med = _partitioned_median(tri, J)
    h = float(np.sqrt(med**2 / np.log(J + 1)))
    return max(h, float(spec.h_floor))


def _pair_kernel(x: np.ndarray, spec: KernelSpec, pool=None) -> tuple:
    """The kernel of one ensemble's own pairs: (h, q) with h ``spec``'s
    bandwidth for them and q[i, l] = K(x_i, x_l), formed over the distances
    of :func:`_self_pair_sq` in the pool's ``"D"``; the gradient scale
    s = ``_grad_scale(q, h)`` gives grad_1 K(x_i, x_l) = (x_i - x_l) s[i, l]."""
    d2 = _self_pair_sq(x, pool)
    h = _bandwidth_from_sq(spec, d2, pool)
    return h, _q_from_sq(d2, h, out=d2)


def _grad_scale(q: np.ndarray, h: float, out=None) -> np.ndarray:
    """s = -q^3 / h^2 for the rows of q given, written to ``out`` when given;
    a row of s depends on the same row of q only."""
    s = np.multiply(q, -1.0 / (h * h), out=out)
    s *= q
    s *= q
    return s


def _grad_blocks(xa: np.ndarray, xb: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (d, na, nb) gradient blocks G[a, i, l] = d/dx_a K(x, xb_l) at
    x = xa_i, for s = ``_grad_scale(q, h)`` and q[i, l] = K(xa_i, xb_l) at
    bandwidth h: the differences of :func:`_differences` times s.  When xa
    is xb, each G[a] is exactly antisymmetric."""
    G = np.empty((xa.shape[1],) + s.shape)
    diff = _differences(xa, xb)
    for a in range(xa.shape[1]):
        diff(a, G[a])
        G[a] *= s
    return G


def _grad_apply(x: np.ndarray, q: np.ndarray, h: float, f, pool=None, s=None) -> np.ndarray:
    """sum_l grad_1 K(x_i, x_l) f_l = x_i (s f)_i - (s (x o f))_i as a
    (J, d) array, for q the kernel matrix of x at bandwidth h and f a (J,)
    vector or a scalar.  A caller that holds the whole of s = -q^3 / h^2
    passes it; otherwise q^3 is formed ``_S_STRIP`` elements of rows at a
    time in the pool's ``"s"`` and its product divided by -h^2, a pass less
    than forming s.  The points are shifted to their mean, which keeps the
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
    grad_1 K(x_i, x_m), written over the J x J array D, for q the kernel
    matrix of x at bandwidth h and s its whole gradient scale: required from
    ``_DISTANCE_GRAM_MIN_DIM`` on, and formed from q below it where s is None.

    Below ``_DISTANCE_GRAM_MIN_DIM`` D's values are not read: M sums
    B^T B / J over row strips B of the gradient blocks with dsyrk (alpha =
    1/J), each strip's rows of s (at most ``_S_STRIP`` elements) formed in
    the pool's ``"s"`` and its blocks (at most J(J+1)/2 elements, like the
    factor that follows) in ``"G"``, from differences made once per call.
    From it on D is
    ``_pair_sq_product(x)``, and D_il = ||x_i - x_l||^2 and
    (x_i - x_l).(x_i - x_m) = (D_il + D_im - D_lm) / 2 give
    M = (T + T^T - D o (s^T s)) / (2J) with T = (D o s) s: one dsyr2k over
    the whole of s in ``"s"``, with P = D o (s^T s) and then T + T^T - P in
    ``"G"``.  Either form fills the lower triangle and mirrors it, so M is
    exactly symmetric."""
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
            _blas.rank_k_update(D, 1.0 if i0 else 0.0, strip.reshape(-1, J), alpha=1.0 / J)
        return _mirror_lower(D)
    # s.T @ s, not s @ s: numpy sends it to syrk
    P = np.matmul(s.T, s, out=_scratch(pool, "G", (J, J)))
    P *= D
    D *= s
    _blas.rank_k_update(P, -1.0, D, s)  # T + T^T - P, D o s being symmetric
    return _mirror_lower(np.multiply(P, 1.0 / (2 * J), out=D))  # D o s is spent


def _grad_jacobian(x: np.ndarray, q: np.ndarray, h: float, s, pool=None):
    """``jac(y, qy, Dy)``: the transport Newton Jacobian (1/J) sum_i
    grad_1 K(y_i, x_l) . grad_1 K(x_i, x_m) at displaced points y, a fresh
    J x J array, for q the kernel matrix of x at bandwidth h, s its whole
    gradient scale or None, Dy = ``_pair_sq(y, x)`` (spent) and qy its kernel.

    What depends on the centres x alone is formed here, once per Newton
    step: below ``_DISTANCE_GRAM_MIN_DIM`` the gradient blocks of x (and s
    for them, where the step keeps it in strips), and jac multiplies them by
    those of y; from it on D = ``_pair_sq_product(x, pool)``, made in the
    pool's ``"D"`` and ``"G"`` once the caller has spent its M and factor,
    and with n_i = ||y_i - x_i||^2, jac = (sy^T ((Dy - n 1^T) o s) +
    (D o sy)^T s - D o (sy^T s)) / (2J)."""
    J, d = x.shape
    if s is None:
        s = _grad_scale(q, h)
    if d < _DISTANCE_GRAM_MIN_DIM:
        Gr = _grad_blocks(x, x, s).reshape(d * J, J)

        def jac(y, qy, Dy):
            out = np.matmul(_grad_blocks(y, x, _grad_scale(qy, h)).reshape(d * J, J).T, Gr)
            return np.divide(out, J, out=out)
        return jac
    D = _pair_sq_product(x, pool)

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
    """The workspace of an Ensemble or (J, d) array from one pass over its
    pairs (:func:`_pair_sq`, or the one that the observation of this same
    array handed on in the pool's ``"D"``, or :func:`_pair_sq_product` from
    ``_DISTANCE_GRAM_MIN_DIM`` on): q in the pool's ``"q"``, M over the
    distances in ``"D"``, and s in ``"s"``.  s is kept whole where the
    distance form of M needs it or where it fits in one strip of
    ``_S_STRIP`` elements.  The pool's ``"G"`` and ``"q"`` are sized first,
    so that no later part of the step grows them."""
    x = _positions(ensemble)
    J, d = x.shape
    distance_form = d >= _DISTANCE_GRAM_MIN_DIM
    if pool is not None:
        pool.get("G", (J * max(J, 2 * d + 4) if distance_form else J * (J + 1) // 2,))
        pool.get("q", (J, J))
    D = _pair_sq_product(x, pool) if distance_form else _self_pair_sq(x, pool)
    h = _bandwidth_from_sq(spec, D, pool)
    q = _q_from_sq(D, h, out=_scratch(pool, "q", D.shape))
    s = None
    if distance_form or J * J <= _S_STRIP:
        s = _grad_scale(q, h, out=_scratch(pool, "s", (J, J)))
    return FlowWorkspace(h, q, _grad_gram(x, q, h, D, pool, s), s)


def kernel_matrix(ensemble, spec: KernelSpec) -> np.ndarray:
    """J x J matrix with entries K(X_i, X_j); symmetric with unit diagonal."""
    x = _positions(ensemble)
    return _pair_kernel(x, spec)[1]


def median_bandwidth(ensemble, h_floor: float = 1e-6) -> float:
    """Median-heuristic bandwidth h = sqrt(med^2 / log(J+1)).

    med is the median of the J(J-1)/2 pairwise Euclidean distances of the
    ensemble.  Returns h_floor when J < 2 or when the heuristic falls below
    the floor (e.g. a collapsed ensemble); an h_floor that is not > 0 raises
    the ValueError of :class:`KernelSpec`.
    """
    x = _positions(ensemble)
    return _bandwidth_from_sq(KernelSpec(h_floor=h_floor), _pair_sq(x, x))
