"""Descriptive statistics of click data, over stacks of distributions.

Every function here works on one distribution or on a stack of them: a
distribution's outcome runs along the last axis (joint distributions along
the last two, shape (..., N_A+1, N_B+1)), and any leading axes are carried
through. Joint-distribution functions also accept a JointClickDistribution.

The module holds ``marginals``, ``conditionals``, ``mean``, ``variance``,
``covariance``, ``summed_click_mean`` and ``moment_weights``: the weights of
the factorial-moment rule, which recovers the m-th normally ordered moment of
the on-off "click operator" from an N-bin click distribution exactly for the
binomial-form statistics produced by uniform multiplexing:

    <:pi^m:> = sum_b  C(b, m) / C(N, m) * c(b).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import JointClickDistribution, ValidationError


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


@lru_cache(maxsize=None)
def moment_weights(bins: int, m_max: int) -> np.ndarray:
    """Read-only matrix W[m, b] = C(b, m) / C(N, m), built once per (bins,
    m_max) from exact integer combinatorics."""
    if m_max > bins:
        raise ValidationError(f"moment order {m_max} exceeds bin count {bins}")
    w = np.array([[math.comb(b, m) / math.comb(bins, m) for b in range(bins + 1)]
                  for m in range(m_max + 1)])
    w.setflags(write=False)
    return w
