"""Sample-quality diagnostics.

Kernel Stein discrepancy (KSD) uses the Langevin Stein kernel built on the
IMQ base kernel with fixed bandwidth (default h = 1):

    k0(x, y) = trace grad_x grad_y K
             + grad_x K . s(y) + grad_y K . s(x) + K s(x).s(y)

with, for u = x - y and q = (1 + ||u||^2/h^2)^(-1/2),

    grad_x K = -u/h^2 q^3,  grad_y K = +u/h^2 q^3,
    trace grad_x grad_y K = (d/h^2) q^3 - (3 ||u||^2/h^4) q^5.

KSD consumes only the score of the distribution under test, so it is
insensitive to normalizing constants.  The V-statistic is the default; the
U-statistic (diagonal removed) is available via the config.
:func:`stein_discrepancies` is the one implementation: it scores an ensemble
against several scores in one pass over the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, NumericalStabilityError
from .kernels import _pair_sq, _q_from_sq, _scratch


@dataclass(frozen=True)
class KsdConfig:
    h: float = 1.0
    estimator: str = "v"

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("KSD bandwidth must be > 0")
        if self.estimator not in ("v", "u"):
            raise ValueError(f"estimator must be 'v' or 'u', got {self.estimator!r}")


def stein_discrepancies(samples, scores, cfg: KsdConfig | None = None, pool=None) -> list:
    """KSD of one ensemble against each (J, d) score array in ``scores``.

    The score-free parts of the Stein kernel sum are computed once.  With
    G_i = sum_j q_ij^3 (x_i - x_j), the sum over all pairs is

        (d/h^2) sum q^3 - (3/h^4) sum ||u||^2 q^5 + (2/h^2) <S, G> + <S, q S>,

    since (u_ij . s_i - u_ij . s_j) summed against the symmetric q^3 gives
    2 <S, G>; each score costs one J x J by J x d product.  The diagonal of
    the kernel matrix, removed by the U-statistic, is d/h^2 + ||s_i||^2.
    Overflow on far-out ensembles is left to the non-finite result, so it
    raises no floating-point warnings.  Given a trial's buffer pool (see
    :mod:`kfrflow.kernels`), the J x J arrays borrow its ``"D"``, ``"q"`` and
    ``"s"``, which are dead between steps.
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
    h2 = cfg.h * cfg.h
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        # centring keeps G free of cancellation far from the origin
        xc = x - x.mean(axis=0)
        d2 = _pair_sq(xc, xc, pool)
        q = _q_from_sq(d2, cfg.h, out=_scratch(pool, "q", d2.shape))
        q3 = np.multiply(q, q, out=_scratch(pool, "s", d2.shape))
        q3 *= q
        d2 *= q3
        d2 *= q
        d2 *= q
        base = (d / h2) * float(q3.sum()) - (3.0 / (h2 * h2)) * float(d2.sum())
        G = q3.sum(axis=1)[:, None] * xc - q3 @ xc
        for s in scores:
            total = base + (2.0 / h2) * float(np.vdot(s, G)) + float(np.vdot(s, q @ s))
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
