"""Descriptive statistics and normally ordered moments of click data.

Every function here works on one distribution or on a stack of them: a
distribution's outcome runs along the last axis (joint distributions along
the last two, shape (..., N_A+1, N_B+1)), and any leading axes are carried
through. Joint-distribution functions also accept a JointClickDistribution.

The m-th normally ordered moment of the on-off "click operator" is recovered
from an N-bin click distribution by the factorial-moment rule

    <:pi^m:> = sum_b  C(b, m) / C(N, m) * c(b),

which is exact for the binomial-form statistics produced by uniform
multiplexing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import JointClickDistribution, UndefinedStatisticError, ValidationError


@dataclass(frozen=True)
class NormalMoments:
    """Normally ordered moments <:pi^m:> for m = 0..m_max."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def m_max(self) -> int:
        return self.values.size - 1

    @property
    def physical(self) -> bool:
        """True when every moment lies in [0, 1]; noisy empirical data may not."""
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))


def _probs(joint) -> np.ndarray:
    if isinstance(joint, JointClickDistribution):
        return joint.probs
    return np.asarray(joint, dtype=float)


def marginals(joint) -> tuple[np.ndarray, np.ndarray]:
    """Marginal click distributions (over a, over b)."""
    probs = _probs(joint)
    return probs.sum(axis=-1), probs.sum(axis=-2)


def conditionals(joint) -> np.ndarray:
    """Conditional distributions c(b | a) for every a; the row of an
    unsupported condition (c(a) = 0) is zero."""
    probs = _probs(joint)
    ca = probs.sum(axis=-1, keepdims=True)
    return np.divide(probs, ca, out=np.zeros_like(probs), where=ca > 0.0)


def conditional(jcd: JointClickDistribution, a: int) -> np.ndarray:
    """Conditional distribution c(b | a); undefined when c(a) = 0."""
    if not 0 <= a <= jcd.bins_a:
        raise ValidationError(f"condition a={a} out of range 0..{jcd.bins_a}")
    row = jcd.probs[a]
    total = row.sum()
    if total <= 0.0:
        raise UndefinedStatisticError(f"unsupported condition: c(a={a}) = 0")
    return row / total


def mean(dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    return dist @ np.arange(dist.shape[-1])


def variance(dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    k = np.arange(dist.shape[-1])
    return ((k - mean(dist)[..., None]) ** 2 * dist).sum(axis=-1)


def covariance(joint) -> np.ndarray:
    """Cov(a, b) = E(ab) - E(a) E(b) over the joint click outcomes."""
    probs = _probs(joint)
    ca, cb = marginals(probs)
    e_ab = (probs @ np.arange(cb.shape[-1])) @ np.arange(ca.shape[-1])
    return e_ab - mean(ca) * mean(cb)


def summed_click_mean(joint) -> np.ndarray:
    """E(a + b), the summed click number of the dataset."""
    ca, cb = marginals(joint)
    return mean(ca) + mean(cb)


def moment_weights(bins: int, m_max: int) -> np.ndarray:
    """Matrix W[m, b] = C(b, m) / C(N, m); exact integer combinatorics."""
    if m_max > bins:
        raise ValidationError(f"moment order {m_max} exceeds bin count {bins}")
    w = np.zeros((m_max + 1, bins + 1))
    for m in range(m_max + 1):
        denom = math.comb(bins, m)
        for b in range(bins + 1):
            w[m, b] = math.comb(b, m) / denom
    return w


def normal_moment(dist: np.ndarray, m: int, bins: int) -> float:
    """<:pi^m:> extracted from an N-bin click distribution."""
    if m < 0:
        raise ValidationError(f"moment order must be >= 0, got {m}")
    return float(normal_moments(dist, m, bins).values[m])


def normal_moments(dist: np.ndarray, m_max: int, bins: int) -> NormalMoments:
    """All moments 0..m_max at once via the precomputed weight matrix."""
    w = moment_weights(bins, m_max)
    return NormalMoments(w @ np.asarray(dist, dtype=float))


def conditional_normal_moments(jcd: JointClickDistribution, a: int,
                               m_max: int) -> NormalMoments:
    """Normally ordered moments of arm B conditioned on outcome a in arm A."""
    return normal_moments(conditional(jcd, a), m_max, jcd.bins_b)


def joint_normal_moment(jcd: JointClickDistribution) -> float:
    """<:pi_A pi_B:> = E(a b) / (N_A N_B)."""
    a = np.arange(jcd.bins_a + 1)
    b = np.arange(jcd.bins_b + 1)
    return float(a @ jcd.probs @ b) / (jcd.bins_a * jcd.bins_b)
