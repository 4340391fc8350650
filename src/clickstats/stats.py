"""Descriptive statistics of click distributions, over stacks of them.

Every function here works on one distribution or on a stack of them: a
distribution's outcome runs along the last axis, and any leading axes are
carried through. The module holds ``mean``, ``variance`` (summed about the
mean) and ``moment_weights``: the weights of the factorial-moment rule, which
recovers the m-th normally ordered moment of the on-off "click operator" from
an N-bin click distribution exactly for the binomial-form statistics produced
by uniform multiplexing:

    <:pi^m:> = sum_b  C(b, m) / C(N, m) * c(b).

Joint-distribution statistics are written once, in
``criteria.stack_statistics``.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import ValidationError


def mean(dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    return dist @ np.arange(dist.shape[-1])


def variance(dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    k = np.arange(dist.shape[-1])
    return ((k - mean(dist)[..., None]) ** 2 * dist).sum(axis=-1)


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
