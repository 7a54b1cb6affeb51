"""Sample-quality diagnostics.

Kernel Stein discrepancy (KSD) uses the Langevin Stein kernel built on the
IMQ base kernel with fixed bandwidth (default h = 1):

    k0(x, y) = trace grad_x grad_y K
             + grad_x K . s(y) + grad_y K . s(x) + K s(x).s(y)

with, for u = x - y and q = (1 + ||u||^2/h^2)^(-1/2),

    grad_x K = -u/h^2 q^3,  grad_y K = +u/h^2 q^3,
    trace grad_x grad_y K = (d/h^2) q^3 - (3 ||u||^2/h^4) q^5
                          = ((d - 3) q^3 + 3 q^5) / h^2,

the last since ||u||^2 q^2 = h^2 (1 - q^2).

KSD consumes only the score of the distribution under test, so it is
insensitive to normalizing constants.  The V-statistic is the default; the
U-statistic (diagonal removed) is available via the config.
:func:`stein_discrepancies` is the one implementation: it scores an ensemble
against several scores in one pass over the pairs.  Below d = 3, in a
trial's buffer pool that holds a J x J ``"D"``, that pass is the one the
next step reads (see :mod:`kfrflow.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, NumericalStabilityError
from .kernels import _BufferPool, _pair_sq, _pair_sq_handoff, _q_from_sq

# elements of one row strip of the KSD pass: three such arrays stay small
# whatever J is
_KSD_STRIP = 32768


@dataclass(frozen=True)
class KsdConfig:
    h: float = 1.0
    estimator: str = "v"

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError(f"KSD bandwidth h must be > 0 and finite, got {self.h}")
        if self.estimator not in ("v", "u"):
            raise ValueError(f"estimator must be 'v' or 'u', got {self.estimator!r}")


def stein_discrepancies(samples, scores, cfg: KsdConfig | None = None, pool=None) -> list:
    """KSD of one ensemble against each (J, d) score array in ``scores``.

    The score-free parts of the Stein kernel sum are computed once.  With
    G_i = sum_j q_ij^3 (x_i - x_j) and ||u||^2 q^2 = h^2 (1 - q^2), the sum
    over all pairs is

        ((d - 3) sum q^3 + 3 sum q^5) / h^2 + (2/h^2) <S, G> + <S, q S>,

    since (u_ij . s_i - u_ij . s_j) summed against the symmetric q^3 gives
    2 <S, G>; the trace term reads q and its powers, never ||u||^2.  The
    diagonal of the kernel matrix, removed by the U-statistic, is
    d/h^2 + ||s_i||^2.  Overflow on far-out ensembles is left to the
    non-finite result, so it raises no floating-point warnings.

    The pairs are visited once each, in row strips [i0, i1) against the
    columns [i0, J) of at most ``_KSD_STRIP`` elements: every term is
    symmetric in (i, j), so a strip's square diagonal block counts once and
    the block to its right counts twice, once by its rows and once by its
    columns.  The sum of ||u||^2 q^5 adds twice the strip's sum less its
    diagonal block's; the row sums of q^3 (a product with a column of ones),
    G and each q S gather the strip's rows into rows [i0, i1) and its right
    block's columns into rows [i1, J).  Memory is O(J d + B)
    for a strip of B elements, whatever J is: the strips borrow the heads of a
    trial's ``"D"``, ``"q"`` and ``"s"`` (see :mod:`kfrflow.kernels`), which
    are dead between steps, and the operands, accumulators and products the
    head of its ``"G"``; without a pool the call makes its own.

    Where the next step reads the exact pair pass (d < 3) and the pool's
    ``"D"`` already holds J x J elements, the pass is made there whole and
    handed on (``kernels._pair_sq_handoff``), and the strips read their
    distances from it; otherwise each strip makes its own, in the head of
    ``"D"``.  Both come from the uncentred positions, and the pass is exact
    element by element, so the result has the same bits either way.  Calls
    without a pool keep the strips, and so do ULA and RWM trials, whose
    pools hold a J x J ``"D"`` only where one strip covers every pair
    (J^2 <= ``_KSD_STRIP``).
    """
    cfg = cfg or KsdConfig()
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    J, d = x.shape
    scores = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in scores]
    for s in scores:
        if s.shape != x.shape:
            raise ValueError(f"score shape {s.shape} does not match samples {x.shape}")
    if cfg.estimator == "u" and J < 2:
        raise ValueError("U-statistic needs at least two samples")
    D = _pair_sq_handoff(x, pool)
    pool = _BufferPool() if pool is None else pool
    h2 = cfg.h * cfg.h
    # columns [1 | xc | S_1 ... S_k]: q^3 multiplies the first 1 + d and q the
    # rest; A gathers the same columns as [sum_j q^3 | q^3 xc | q S_1 ... q S_k]
    nx, width = 1 + d, 1 + d * (1 + len(scores))
    ops = pool.get("G", (J * (2 * width + max(nx, width - nx)),))
    W, A = ops[: 2 * J * width].reshape(2, J, width)
    mm = ops[2 * J * width :]  # one strip's product before it is gathered
    W[:, 0] = 1.0
    A.fill(0.0)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        # centring keeps G free of cancellation far from the origin
        xc = np.subtract(x, x.mean(axis=0), out=W[:, 1:nx])
        for k, s in enumerate(scores):
            W[:, nx + k * d : nx + (k + 1) * d] = s
        sum_q5 = 0.0
        i0 = 0
        while i0 < J:
            i1 = min(J, i0 + max(1, _KSD_STRIP // (J - i0)))
            n = i1 - i0
            d2 = _pair_sq(x[i0:i1], x[i0:], pool) if D is None else D[i0:i1, i0:]
            q = _q_from_sq(d2, cfg.h, out=pool.get("q", d2.shape))
            q3 = np.multiply(q, q, out=pool.get("s", d2.shape))
            q3 *= q
            for m, c in ((q3, slice(0, nx)), (q, slice(nx, width))):
                k = c.stop - c.start
                A[i0:i1, c] += np.matmul(m, W[i0:, c], out=mm[: n * k].reshape(n, k))
                A[i1:, c] += np.matmul(
                    m[:, n:].T, W[i0:i1, c], out=mm[: (J - i1) * k].reshape(J - i1, k)
                )
            q *= q
            q3 *= q  # q^5
            sum_q5 += 2.0 * float(q3.sum()) - float(q3[:, :n].sum())
            i0 = i1
        base = ((d - 3) * float(A[:, 0].sum()) + 3.0 * sum_q5) / h2
        G = A[:, :1] * xc - A[:, 1:nx]
        for k, s in enumerate(scores):
            qs = A[:, nx + k * d : nx + (k + 1) * d]
            total = base + (2.0 / h2) * float(np.vdot(s, G)) + float(np.vdot(s, qs))
            if cfg.estimator == "v":
                total /= J * J
                if total < -1e-10:
                    raise NumericalStabilityError(
                        f"KSD V-statistic {total} violates positive semidefiniteness"
                    )
            else:
                total = (total - J * d / h2 - float(np.vdot(s, s))) / (J * (J - 1))
            out.append(float(np.sqrt(max(total, 0.0))))
    return out


def ksd(samples, score_fn, cfg: KsdConfig | None = None) -> float:
    """Kernel Stein discrepancy between samples and the distribution with
    score ``score_fn``."""
    if score_fn is None:
        raise CapabilityError("KSD requires the score of the tested distribution")
    x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    return stein_discrepancies(x, [score_fn(x)], cfg)[0]
