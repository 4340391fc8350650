"""Nonparametric bootstrap errors for every reported statistic.

Resampling happens at the level of the raw (a, b) count matrix: each replicate
is a fresh multinomial draw of the full shot count from the empirical
distribution, and every statistic is recomputed from scratch on it. This
propagates the correlation between numerators and denominators of conditional
quantities without any delta-method approximations.

The random stream is part of the contract: replicate i is the one multinomial
draw of the full shot count made by ``np.random.default_rng(child)``, where
``child`` is the i-th of ``np.random.SeedSequence(seed).spawn(replicates)``.
The bootstrap reproduces that stream bit for bit without spawning: it mixes
only the spawn indices into the pool numpy mixes from the seed, and one seed
source hands each new PCG64 the four words its child would generate, which
PCG64 asks for once, when it is built.

Each replicate is drawn and scored on the count matrix's support grid only:
the rows and columns with at least one count, and always row N_A and column
N_B. A zero cell can never be drawn, so nothing is lost; and the draw is the
full-matrix draw, bit for bit. numpy's multinomial draws cell j as
``binomial(remaining, p_j / remaining_p)`` in order and gives the last cell
the remainder; for p_j = 0 that binomial returns 0 without taking a random
number and leaves ``remaining_p`` as it was, so dropping the zero cells
leaves every other cell's draw unchanged, and the last cell, (N_A, N_B) on
both grids, still takes the remainder.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, repeat

import numpy as np

from . import criteria
from .model import CountMatrix, ValidationError, as_int

# name -> criteria.statistic of that name; only pipebench/tracer.py reads it
STATISTICS: dict = {name: partial(criteria.statistic, name=name)
                    for name in criteria.WHY_UNDEFINED}

# Replicates are drawn and scored in chunks whose moment-matrix stack, one
# (N_B//2 + 1)-square float64 matrix per support row and replicate, holds at
# most CHUNK_BYTES; a chunk holds at least one replicate.
CHUNK_BYTES = 4 << 20

MAX_DROP_FRACTION = 0.5

# numpy's SeedSequence hash and mix constants (32-bit words, pool of 4)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class BootstrapConfig:
    """``statistics`` selects the standard errors bootstrap returns, by names
    of criteria.WHY_UNDEFINED; every replicate still scores all of them."""
    replicates: int = 1000
    seed: int = 0
    statistics: tuple = tuple(criteria.WHY_UNDEFINED)

    def __post_init__(self) -> None:
        for name in ("replicates", "seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.replicates < 2:
            raise ValidationError("bootstrap needs at least 2 replicates")
        if self.replicates >= 2**32:   # a spawn index is one 32-bit word
            raise ValidationError(f"replicates must be below 2^32, got {self.replicates}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        unknown = set(self.statistics) - set(criteria.WHY_UNDEFINED)
        if unknown:
            raise ValidationError(f"unknown statistics: {sorted(unknown)}")


@dataclass(frozen=True)
class BootstrapStat:
    """Standard error of one statistic across replicates.

    ``stderr`` is None when the statistic was undefined on more than half of
    the replicates; ``drop_fraction`` records how many were dropped.
    """

    stderr: float | None
    drop_fraction: float

    @property
    def defined(self) -> bool:
        return self.stderr is not None


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash of a 32-bit word (a Python int or a uint64 array
    of them), and the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _child_generators(seed: int, count: int):
    """An iterator of ``np.random.default_rng(child)`` for the first ``count``
    (< 2**32) children of ``SeedSequence(seed).spawn``, without spawning them.

    A child's entropy is its parent's, then its spawn index, so every child
    starts from ``SeedSequence(seed).pool``. Only the spawn index is mixed
    here and ``generate_state(4, uint64)`` run, on arrays of all children.
    PCG64 asks its seed sequence for four words once, when it is built, so
    one seed source hands each new PCG64 the next child's words; a generator
    that never draws still uses its child up. The hash constant advances
    once per hash, 4 * max(4, words) times over the seed's 32-bit words.
    """
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 * max(_POOL, words), 1 << 32) & _MASK32
    pool = [int(word) for word in np.random.SeedSequence(seed).pool]
    index = np.arange(count, dtype=np.uint64)
    for dst in range(_POOL):
        value, const = _hashmix(index, const, _MULT_A)
        mixed = (_MIX_L * pool[dst] - _MIX_R * value) & _MASK32
        pool[dst] = mixed ^ mixed >> 16

    const = _INIT_B
    halves = []
    for i in range(8):
        value, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        halves.append(value)
    # little-endian pairs of 32-bit words, one row of four uint64 per child
    rows = iter(np.stack([halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)], 1))

    # defined here, as a subclass at module level would load numpy.random on import
    class Source(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return next(rows)

    return map(np.random.Generator, map(np.random.PCG64, repeat(Source(), count)))


def bootstrap(counts: CountMatrix, cfg: BootstrapConfig) -> dict[str, BootstrapStat]:
    """Multinomial bootstrap of the count matrix; deterministic per seed.

    Replicate i is drawn by a generator seeded from the i-th
    ``SeedSequence(cfg.seed).spawn`` child, which its spawn index alone
    defines, so a parallel split of the replicate loop would reproduce the
    serial result. Draws and scores run on the support grid (see the module
    docstring), so their cost follows the populated rows and columns, not N_A
    and N_B. Replicates are scored by criteria.stack_statistics in chunks
    whose moment matrices, one (N_B//2 + 1)-square float64 matrix per support
    row and replicate, fit in CHUNK_BYTES, or of one replicate where a single
    one does not; a statistic is dropped from the replicates on which it is
    undefined (NaN).

    The point distribution is scored once, and its ``criteria.point_bounds``
    at each moment order a chunk reaches let stack_statistics solve only the
    (replicate, condition) pairs that can hold the replicate's frak_n. A
    pruned pair's eigenvalue reads +inf; every frak_n, and so every standard
    error, is the same bit for bit as with every pair solved.
    """
    total = counts.total
    # the support grid: rows and columns with a count, and always the last
    keep_a, keep_b = counts.counts.any(axis=1), counts.counts.any(axis=0)
    keep_a[-1] = keep_b[-1] = True
    clicks = np.flatnonzero(keep_a), np.flatnonzero(keep_b)
    support = counts.counts[keep_a][:, keep_b]
    pflat = support.ravel() / total
    n_b = keep_b.size - 1
    chunk = max(1, CHUNK_BYTES // (8 * clicks[0].size * (n_b // 2 + 1) ** 2))
    point = criteria.stack_statistics(support / total, clicks).moments
    bounds = lru_cache(maxsize=None)(partial(criteria.point_bounds, point))

    children = _child_generators(cfg.seed, cfg.replicates)
    samples: dict[str, list] = {name: [] for name in cfg.statistics}
    for _ in range(0, cfg.replicates, chunk):
        draws = np.array([rng.multinomial(total, pflat) for rng in islice(children, chunk)])
        scored = criteria.stack_statistics(draws.reshape(-1, *support.shape) / total,
                                           clicks, bounds).values
        for name in cfg.statistics:
            samples[name].append(scored[name])

    out: dict[str, BootstrapStat] = {}
    for name in cfg.statistics:
        values = np.concatenate(samples[name])
        values = values[~np.isnan(values)]
        drop = 1.0 - values.size / cfg.replicates
        kept = drop <= MAX_DROP_FRACTION and values.size >= 2
        out[name] = BootstrapStat(stderr=float(np.std(values, ddof=1)) if kept else None,
                                  drop_fraction=drop)
    return out
