"""Nonparametric bootstrap errors for every reported statistic.

Resampling happens at the level of the raw (a, b) count matrix: each replicate
is a fresh multinomial draw of the full shot count from the empirical
distribution, and every statistic is recomputed from scratch on it. This
propagates the correlation between numerators and denominators of conditional
quantities without any delta-method approximations.

The random stream is part of the contract: replicate i is the one multinomial
draw of the full shot count made by ``np.random.default_rng(child)``, where
``child`` is the i-th of ``np.random.SeedSequence(seed).spawn(replicates)``.
The bootstrap reproduces that stream bit for bit without building the
per-child objects: it mixes only the spawn indices into the pool numpy mixes
from the seed, and loads each child's PCG64 state into one generator.

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
from functools import partial

import numpy as np

from . import criteria
from .model import CountMatrix, ValidationError

# statistic name -> callable on a JointClickDistribution
STATISTICS: dict = {name: partial(criteria.statistic, name=name)
                    for name in criteria.WHY_UNDEFINED}

# Replicates are drawn and scored CHUNK * (N_A + 1) // (support rows) at a
# time: the conditions of CHUNK full-grid replicates, which bounds the memory
# a bootstrap holds at large bin counts.
CHUNK = 64

MAX_DROP_FRACTION = 0.5

# numpy's SeedSequence hash and mix constants (32-bit words, pool of 4) and
# PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    seed: int = 0
    statistics: tuple = tuple(STATISTICS)

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValidationError("bootstrap needs at least 2 replicates")
        if self.replicates >= 2**32:   # a spawn index is one 32-bit word
            raise ValidationError(f"replicates must be below 2^32, got {self.replicates}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        unknown = set(self.statistics) - set(STATISTICS)
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


def _child_states(seed: int, count: int):
    """Yield ``np.random.PCG64(child).state`` for the first ``count``
    (< 2**32) children of ``SeedSequence(seed).spawn``, without building them.

    A child's entropy is its parent's, then its spawn index, so every child
    starts from ``SeedSequence(seed).pool``. Only the spawn index is mixed
    here, and ``generate_state(4, uint64)`` run, on an array of all children;
    PCG64's seeding step runs on Python ints. The hash constant advances once
    per hash, 4 * max(4, words) times over the seed's 32-bit words.
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
    # little-endian pairs of 32-bit words: seed = (u0, u1), stream = (u2, u3)
    u = np.stack([halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)], axis=1)
    # PCG64 seeding: inc = 2 * stream + 1, then two LCG steps from state 0
    # with the seed added in between
    for seed_hi, seed_lo, inc_hi, inc_lo in u.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def bootstrap(counts: CountMatrix, cfg: BootstrapConfig) -> dict[str, BootstrapStat]:
    """Multinomial bootstrap of the count matrix; deterministic per seed.

    Replicate i is the draw of a generator built from the i-th
    ``SeedSequence(cfg.seed).spawn`` child (see the module docstring), so a
    parallel split of the replicate loop would reproduce the serial result.
    One PCG64 is loaded with each child's state in turn before its draw.
    Draws and scores run on the support grid (see the module docstring), so
    their cost follows the populated rows and columns, not N_A and N_B.
    Replicates are scored by criteria.stack_statistics in chunks that hold
    as many conditions as CHUNK full-grid replicates; a statistic is dropped
    from the replicates on which it is undefined (NaN).
    """
    total = counts.total
    # the support grid: rows and columns with a count, and always the last
    keep_a, keep_b = counts.counts.any(axis=1), counts.counts.any(axis=0)
    keep_a[-1] = keep_b[-1] = True
    clicks = np.flatnonzero(keep_a), np.flatnonzero(keep_b)
    support = counts.counts[keep_a][:, keep_b]
    pflat = support.ravel() / total
    chunk = CHUNK * keep_a.size // clicks[0].size

    # the seed is a placeholder: every draw first loads a child's state
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    states = _child_states(cfg.seed, cfg.replicates)
    samples: dict[str, list] = {name: [] for name in cfg.statistics}
    for start in range(0, cfg.replicates, chunk):
        draws = np.empty((min(chunk, cfg.replicates - start), pflat.size), dtype=np.int64)
        for row, state in zip(draws, states):
            bit_generator.state = state
            row[:] = rng.multinomial(total, pflat)
        scored = criteria.stack_statistics(draws.reshape(-1, *support.shape) / total,
                                           clicks).values
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
