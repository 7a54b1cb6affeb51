"""Benchmark target distributions.

Every target bundles the unnormalized log density ratio log(pi_1/pi_0), a
sampler for the reference pi_0 = N(0, I_d), and (where available) the scores
grad log pi_0 and grad log pi_1.  The density ratio is the only target
information the gradient-free samplers consume; scores are needed by the
stochastic and gradient-based methods and by the Stein discrepancy
diagnostics.  Every callback takes an (n, d) array of rows and returns one
value (log ratio) or one (d,) row (scores) per input row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class TargetModel:
    name: str
    dim: int
    log_ratio: Callable[[np.ndarray], np.ndarray]
    sample_reference: Callable[[np.random.Generator, int], np.ndarray]
    score_reference: Optional[Callable[[np.ndarray], np.ndarray]] = None
    score_target: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # exact (mean, cov) of the geometric mixture at time t; Gaussian oracle only
    tempered_moments: Optional[Callable[[float], tuple]] = field(
        default=None, repr=False
    )

    @property
    def has_scores(self) -> bool:
        return self.score_reference is not None and self.score_target is not None


def _gaussian_reference_sampler(dim):
    def sample(rng, count):
        return rng.standard_normal((count, dim))

    return sample


def _reference_score(x):
    return -x


# G(x), y*, sigma_eps^2 for the three two-dimensional Bayesian posteriors.
# The likelihood exponent is -(1/sigma_eps^2) * (y* - G(x))^2, exactly this
# coefficient (no extra factor 1/2).
_BAYESIAN_2D = {
    "donut": {
        "G": lambda x: np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2),
        "gradG": lambda x: _donut_gradG(x),
        "y": 2.0,
        "sigma2": 0.25**2,
    },
    "butterfly": {
        "G": lambda x: np.sin(x[:, 1]) + np.cos(x[:, 0]),
        "gradG": lambda x: np.stack([-np.sin(x[:, 0]), np.cos(x[:, 1])], axis=1),
        "y": -1.0,
        "sigma2": 0.6**2,
    },
    "spaceships": {
        "G": lambda x: np.sin(x[:, 0] * x[:, 1]) + np.cos(x[:, 0] * x[:, 1]),
        "gradG": lambda x: _spaceships_gradG(x),
        "y": -1.0,
        "sigma2": 0.5**2,
    },
}


def _donut_gradG(x):
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
    # radial gradient x/||x||; zero at the (measure-zero) origin
    safe = np.where(r > 0, r, 1.0)
    g = x / safe[:, None]
    g[r == 0] = 0.0
    return g


def _spaceships_gradG(x):
    u = x[:, 0] * x[:, 1]
    c = np.cos(u) - np.sin(u)
    return c[:, None] * np.stack([x[:, 1], x[:, 0]], axis=1)


def make_bayesian_2d(kind: str) -> TargetModel:
    """Two-dimensional Bayesian posterior with Gaussian observation noise.

    kind is one of "donut" (concentration onto a ring), "butterfly"
    (bimodality), "spaceships" (multimodality).
    """
    key = kind.lower()
    if key not in _BAYESIAN_2D:
        raise ValueError(f"unknown 2-D posterior {kind!r}")
    tbl = _BAYESIAN_2D[key]
    G, gradG, ystar, sigma2 = tbl["G"], tbl["gradG"], tbl["y"], tbl["sigma2"]

    def log_ratio(x):
        return -(ystar - G(x)) ** 2 / sigma2

    def score_target(x):
        # grad log pi_1 = grad log pi_0 + grad log_ratio, chain rule on G
        return -x + (2.0 / sigma2) * (ystar - G(x))[:, None] * gradG(x)

    return TargetModel(
        name=key,
        dim=2,
        log_ratio=log_ratio,
        sample_reference=_gaussian_reference_sampler(2),
        score_reference=_reference_score,
        score_target=score_target,
    )


def make_funnel(d: int) -> TargetModel:
    """Funnel distribution N(x_1; 0, 9) * N(x_{2:d}; 0, exp(x_1) I)."""
    if d < 2:
        raise ValueError(f"funnel requires d >= 2, got {d}")

    def log_ratio(x):
        x1 = x[:, 0]
        rest2 = np.sum(x[:, 1:] ** 2, axis=1)
        # an overflow to inf reaches the non-finite checks, which flag the trial
        with np.errstate(over="ignore"):
            e = np.exp(-x1)
        return (
            -0.5 * np.log(9.0)
            - x1**2 / 18.0
            - 0.5 * (d - 1) * x1
            - 0.5 * e * rest2
            + 0.5 * np.sum(x**2, axis=1)
        )

    def score_target(x):
        x1 = x[:, 0]
        with np.errstate(over="ignore"):
            e = np.exp(-x1)
        out = np.empty_like(x)
        out[:, 0] = -x1 / 9.0 - 0.5 * (d - 1) + 0.5 * e * np.sum(x[:, 1:] ** 2, axis=1)
        out[:, 1:] = -x[:, 1:] * e[:, None]
        return out

    return TargetModel(
        name=f"funnel:{d}",
        dim=d,
        log_ratio=log_ratio,
        sample_reference=_gaussian_reference_sampler(d),
        score_reference=_reference_score,
        score_target=score_target,
    )


def make_gaussian(mean, stdev: float) -> TargetModel:
    """Isotropic Gaussian target N(mean, stdev^2 I).

    The geometric mixture of two Gaussians is Gaussian, so this target also
    exposes ``tempered_moments(t)`` returning the exact (mean, covariance) of
    the mixture at time t.  It is the closed-form anchor for statistical
    tests of the transport.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    s = float(stdev)
    if not s > 0:
        raise ValueError(f"stdev must be > 0, got {stdev}")
    d = mean.shape[0]
    if not d:
        raise ValueError("mean must have at least one coordinate")
    s2 = s * s

    def log_ratio(x):
        return (
            -0.5 * d * np.log(s2)
            - np.sum((x - mean) ** 2, axis=1) / (2.0 * s2)
            + 0.5 * np.sum(x**2, axis=1)
        )

    def score_target(x):
        return -(x - mean) / s2

    def tempered_moments(t):
        p = (1.0 - t) + t / s2
        return (t / s2) * mean / p, np.eye(d) / p

    return TargetModel(
        name=f"gaussian:{','.join(repr(float(m)) for m in mean)},{s!r}",
        dim=d,
        log_ratio=log_ratio,
        sample_reference=_gaussian_reference_sampler(d),
        score_reference=_reference_score,
        score_target=score_target,
        tempered_moments=tempered_moments,
    )


def target_by_name(name: str) -> TargetModel:
    """Build a bundled target from its CLI name.

    Supported: "donut", "butterfly", "spaceships", "funnel:<d>",
    "gaussian:<m1>[;m2;...],<s>".
    """
    name = name.strip().lower()
    if name in _BAYESIAN_2D:
        return make_bayesian_2d(name)
    if name.startswith("funnel:"):
        return make_funnel(int(name.split(":", 1)[1]))
    if name.startswith("gaussian:"):
        body = name.split(":", 1)[1]
        if "," not in body:
            raise ValueError(
                f"gaussian target needs '<mean>,<stdev>', got {name!r}"
            )
        mean_part, s_part = body.rsplit(",", 1)
        mean = [float(v) for v in mean_part.replace(";", " ").split()]
        return make_gaussian(mean, float(s_part))
    raise ValueError(f"unknown target {name!r}")
