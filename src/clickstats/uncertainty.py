"""Nonparametric bootstrap errors for every reported statistic.

Resampling happens at the level of the raw (a, b) count matrix: each replicate
is a fresh multinomial draw of the full shot count from the empirical
distribution, and every statistic is recomputed from scratch on it. This
propagates the correlation between numerators and denominators of conditional
quantities without any delta-method approximations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import criteria
from .model import CountMatrix, ValidationError

# statistic name -> callable on a JointClickDistribution
STATISTICS: dict = {name: partial(criteria.statistic, name=name)
                    for name in criteria.WHY_UNDEFINED}

# Replicates are drawn and scored this many at a time, which bounds the memory
# a bootstrap holds at large bin counts.
CHUNK = 64

MAX_DROP_FRACTION = 0.5


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    seed: int = 0
    statistics: tuple = tuple(STATISTICS)

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValidationError("bootstrap needs at least 2 replicates")
        unknown = set(self.statistics) - set(STATISTICS)
        if unknown:
            raise ValidationError(f"unknown statistics: {sorted(unknown)}")


@dataclass(frozen=True)
class BootstrapStat:
    """Standard error of one statistic across replicates.

    ``defined`` is False when the statistic was undefined on more than half of
    the replicates; ``drop_fraction`` records how many were dropped.
    """

    stderr: float | None
    drop_fraction: float
    defined: bool = True


def bootstrap(counts: CountMatrix, cfg: BootstrapConfig) -> dict[str, BootstrapStat]:
    """Multinomial bootstrap of the count matrix; deterministic per seed.

    Each replicate draws from a generator spawned off the config seed, so a
    parallel split of the replicate loop would reproduce the serial result.
    Replicates are scored CHUNK at a time by criteria.stack_statistics; a
    statistic is dropped from the replicates on which it is undefined (NaN).
    """
    total = counts.total
    if total < 1:
        raise ValidationError("empty dataset: total count is zero")
    pflat = counts.counts.ravel() / total
    shape = counts.counts.shape

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    samples: dict[str, list] = {name: [] for name in cfg.statistics}
    for start in range(0, cfg.replicates, CHUNK):
        draws = np.stack([np.random.default_rng(child).multinomial(total, pflat)
                          for child in seeds[start:start + CHUNK]])
        scored = criteria.stack_statistics(draws.reshape(-1, *shape) / total).values
        for name in cfg.statistics:
            samples[name].append(scored[name])

    out: dict[str, BootstrapStat] = {}
    for name in cfg.statistics:
        values = np.concatenate(samples[name])
        values = values[~np.isnan(values)]
        drop = 1.0 - values.size / cfg.replicates
        if drop > MAX_DROP_FRACTION or values.size < 2:
            out[name] = BootstrapStat(stderr=None, drop_fraction=drop, defined=False)
        else:
            out[name] = BootstrapStat(stderr=float(np.std(values, ddof=1)),
                                      drop_fraction=drop)
    return out
