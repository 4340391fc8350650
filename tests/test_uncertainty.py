import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import clickstats as cs
from clickstats import criteria, uncertainty
from clickstats.criteria import stack_statistics
from clickstats.model import ValidationError
from clickstats.uncertainty import BootstrapConfig, _child_generators, bootstrap

import reference  # read-only: the benchmark's own bootstrap
from exact import exact_jcd, tmsv_jcd


def coherent_counts(shots, seed=21):
    jcd = exact_jcd(cs.StateSpec.coherent(0.5, 0.5), cs.DetectorConfig(8, 0.8, 0.0))
    return cs.sample_counts(jcd, shots, seed)


def test_config_validation():
    # the default and the name check both read criteria.WHY_UNDEFINED
    assert BootstrapConfig().statistics == tuple(criteria.WHY_UNDEFINED)
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=1)
    with pytest.raises(ValidationError, match="unknown statistics: \\['no_such_stat'\\]"):
        BootstrapConfig(statistics=("no_such_stat",))
    with pytest.raises(ValidationError, match="seed"):
        BootstrapConfig(seed=-1)
    # _child_generators mixes each spawn index as one 32-bit word
    with pytest.raises(ValidationError, match="replicates must be below 2\\^32"):
        BootstrapConfig(replicates=2**32)
    assert BootstrapConfig(replicates=2**32 - 1).replicates == 2**32 - 1
    # a bool seed would reach the report as `"seed": true`, which no reader takes
    for args, message in (((2.5, 0), "replicates must be an integer, got 2.5"),
                          ((10, 1.5), "seed must be an integer, got 1.5"),
                          ((10, True), "seed must be an integer, got True")):
        with pytest.raises(ValidationError, match=message):
            BootstrapConfig(*args)
    config = BootstrapConfig(np.int64(10), np.uint64(2**64 - 1))
    assert (type(config.replicates), type(config.seed)) == (int, int)
    counts = coherent_counts(1000)
    assert bootstrap(counts, config) == bootstrap(counts, BootstrapConfig(10, 2**64 - 1))


@pytest.mark.parametrize("replicates", [1, 2, 65])
@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**100 + 3, 2**160 + 3])
def test_child_states_equal_spawned_generators(seed, replicates):
    children = np.random.SeedSequence(seed).spawn(replicates)
    assert ([g.bit_generator.state for g in _child_generators(seed, replicates)]
            == [np.random.PCG64(c).state for c in children])
    # taken in islice chunks of 1, 2 and the rest, as bootstrap takes them,
    # drawing from each chunk's first generator before the next chunk: a
    # generator that is built and never drawn from still uses up its child
    generators = _child_generators(seed, replicates)
    spawned = [np.random.default_rng(c) for c in children]
    taken = []
    for size in (1, 2, None):
        chunk = list(islice(generators, size))
        if chunk:
            for rng in (chunk[0], spawned[len(taken)]):
                rng.multinomial(10**6, [0.5, 0.5])
        taken += chunk
    assert ([g.bit_generator.state for g in taken]
            == [g.bit_generator.state for g in spawned])


@given(seed=st.integers(0, 2**256 - 1), count=st.integers(1, 300))
# seeds of two, four, six and eight 32-bit words
@example(seed=2**32 + 5, count=1)
@example(seed=2**100 + 3, count=300)
@example(seed=2**160 + 3, count=65)
@example(seed=2**256 - 1, count=300)
def test_child_states_equal_spawned_generators_for_any_seed(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    assert ([g.bit_generator.state for g in _child_generators(seed, count)]
            == [np.random.PCG64(c).state for c in children])


def test_import_does_not_load_numpy_random():
    # numpy loads numpy.random lazily, for about 6 MB of RSS; the exact
    # criteria never draw, so importing the package and its CLI must not
    # load it (a module-level seed-sequence subclass would)
    code = "import sys, clickstats, clickstats.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cs.__file__).parents[1])},
                          check=True)
    assert done.stdout == "False\n"


def test_determinism():
    counts = coherent_counts(10**4)
    cfg = BootstrapConfig(replicates=100, seed=5)
    a = bootstrap(counts, cfg)
    b = bootstrap(counts, cfg)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].stderr == b[name].stderr
        assert a[name].drop_fraction == b[name].drop_fraction


def test_degenerate_counts():
    counts = np.zeros((9, 9), dtype=np.int64)
    counts[0, 0] = 1000
    out = bootstrap(cs.CountMatrix(counts), BootstrapConfig(replicates=50, seed=1))
    assert out["summed_click_mean"].stderr == 0.0
    assert out["q_a"].defined is False
    assert out["kappa"].defined is False
    assert out["gamma"].defined is False
    with pytest.raises(ValidationError, match="empty dataset"):
        bootstrap(cs.CountMatrix(np.zeros((9, 9), dtype=np.int64)), BootstrapConfig())


def test_linear_statistic_anchor():
    # bootstrap error of E(a+b) vs the closed-form multinomial standard error
    counts = coherent_counts(10**5)
    jcd = cs.normalize(counts)
    s = np.add.outer(np.arange(9), np.arange(9))
    var_s = float((jcd.probs * s**2).sum() - (jcd.probs * s).sum() ** 2)
    analytic = np.sqrt(var_s / counts.total)
    out = bootstrap(counts, BootstrapConfig(replicates=1000, seed=2,
                                            statistics=("summed_click_mean",)))
    assert out["summed_click_mean"].stderr == pytest.approx(analytic, rel=0.2)


def test_gamma_error_scaling():
    cfg = BootstrapConfig(replicates=400, seed=3, statistics=("gamma",))
    small = bootstrap(coherent_counts(10**4), cfg)["gamma"].stderr
    large = bootstrap(coherent_counts(10**6), cfg)["gamma"].stderr
    assert small / large == pytest.approx(10.0, rel=0.3)


def test_statistic_subset():
    counts = coherent_counts(10**4)
    out = bootstrap(counts, BootstrapConfig(replicates=50, seed=4,
                                            statistics=("kappa", "gamma")))
    assert set(out) == {"kappa", "gamma"}


def serial_replay(counts, cfg):
    """The bootstrap one spawned child at a time on the full grid, each
    replicate scored by one stack_statistics call with no point bounds:
    name -> (standard error or None, drop fraction)."""
    total = counts.total
    pflat = counts.counts.ravel() / total
    samples = {name: [] for name in cfg.statistics}
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
        draw = np.random.default_rng(child).multinomial(total, pflat)
        scored = stack_statistics(draw.reshape(counts.counts.shape) / total).values
        for name in cfg.statistics:
            if not math.isnan(value := float(scored[name])):
                samples[name].append(value)
    out = {}
    for name, values in samples.items():
        drop = 1.0 - len(values) / cfg.replicates
        defined = drop <= 0.5 and len(values) >= 2
        out[name] = (float(np.std(values, ddof=1)) if defined else None, drop)
    return out


def tmsv_counts():
    # sparse TMSV counts: the high-click conditions are drawn in only some
    # replicates of a chunk
    return cs.sample_counts(tmsv_jcd(0.1, eta=0.5, nu=1e-4), 10**4, seed=31)


def holed_counts(last_cell=7, empty_last_row=False):
    """Small counts with zero cells between non-zero ones; ``last_cell`` is
    the count of the last cell (a, b) = (8, 8)."""
    rng = np.random.default_rng(33)
    counts = rng.integers(1, 40, size=(9, 9)) * (rng.random((9, 9)) < 0.5)
    counts[-1, -1] = last_cell
    if empty_last_row:
        counts[-1] = 0
    return cs.CountMatrix(counts)


def grid_counts(rows, cols, last_cell=0, seed=35, bins=8):
    """Counts on the given rows and columns of a (bins+1)-square matrix,
    every cell of that grid non-zero, and ``last_cell`` counts at
    (a, b) = (bins, bins)."""
    counts = np.zeros((bins + 1, bins + 1), dtype=np.int64)
    counts[np.ix_(rows, cols)] = np.random.default_rng(seed).integers(
        1, 40, size=(len(rows), len(cols)))
    counts[-1, -1] += last_cell
    return cs.CountMatrix(counts)


# Counts with empty rows and columns between populated ones, and the shape of
# their support grid: the rows and columns with a count, and always the last.
SUPPORT_GRIDS = {
    "one-row": (lambda: grid_counts([3], [1, 2, 4, 5]), (2, 5)),
    "every-row": (lambda: grid_counts(range(9), [0, 2, 3]), (9, 4)),
    "last-row": (lambda: grid_counts([0, 8], [1, 8]), (2, 2)),
    "last-cell": (lambda: grid_counts([1, 2], [0, 3], last_cell=5), (3, 3)),
}


def matrix_bytes(rows, bins=8):
    """Bytes of one replicate's moment matrices on a support grid of
    ``rows`` rows: one (bins//2 + 1)-square float64 matrix per row."""
    return 8 * rows * (bins // 2 + 1) ** 2


# A budget of the moment matrices of 64 full-grid replicates at 8 bins: a
# chunk then holds 64 replicates when all 9 rows are populated, and
# 64 * 9 // rows on fewer rows.
SMALL_CHUNK_BYTES = 64 * matrix_bytes(9)


def support_chunk(rows):
    """Replicates per chunk on a support grid of ``rows`` rows at 8 bins,
    under SMALL_CHUNK_BYTES."""
    return SMALL_CHUNK_BYTES // matrix_bytes(rows)


# Below this, a standard error of an O(1) statistic is rounding, not spread.
ROUNDING_SPREAD = 1e-14


# Replicate counts run under SMALL_CHUNK_BYTES, so that they fill a chunk or
# spill one replicate into the next.
@pytest.mark.parametrize("make_counts, replicates, seed", [
    *(pytest.param(tmsv_counts, n, 32, id=str(n)) for n in (2, 64, 65, 300)),
    pytest.param(holed_counts, 65, 32, id="interior-zeros"),
    pytest.param(lambda: holed_counts(last_cell=0), 65, 32, id="zero-last-cell"),
    pytest.param(lambda: holed_counts(last_cell=0, empty_last_row=True), 65, 32,
                 id="zero-last-row"),
    pytest.param(tmsv_counts, 65, 2**100 + 3, id="multi-word-seed"),
    # one full chunk, and one replicate into the next
    *(pytest.param(make, support_chunk(shape[0]) + offset, 32, id=f"{name}-chunk{offset:+d}")
      for name, (make, shape) in SUPPORT_GRIDS.items() for offset in (0, 1)),
])
def test_chunked_bootstrap_matches_serial_replay(make_counts, replicates, seed, monkeypatch):
    monkeypatch.setattr(uncertainty, "CHUNK_BYTES", SMALL_CHUNK_BYTES)
    counts = make_counts()
    boot_cfg = BootstrapConfig(replicates=replicates, seed=seed)
    batched = bootstrap(counts, boot_cfg)
    serial = serial_replay(counts, boot_cfg)
    for name, (stderr, drop) in serial.items():
        assert batched[name].drop_fraction == drop
        if stderr is None:
            assert batched[name].stderr is None
        elif stderr < ROUNDING_SPREAD:
            # constant in exact arithmetic (kappa on one condition, Q_A on
            # outcomes 0 and N alone): the spread is rounding, which differs
            # between the grids
            assert batched[name].stderr < ROUNDING_SPREAD, name
        else:
            assert math.isclose(batched[name].stderr, stderr, rel_tol=1e-12), name


# state, efficiency, shots
REFERENCE_CASES = {
    "tmsv": (cs.StateSpec.tmsv(np.sqrt(0.1)), 0.5, 10**4),
    "coherent": (cs.StateSpec.coherent(0.5, 0.5), 0.8, 10**4),
    # 20 shots: some replicates never click in one arm, so drop fractions
    # are not zero
    "split-photon": (cs.StateSpec.split_photon(np.sqrt(0.5)), 0.45, 20),
}


@pytest.mark.parametrize("state, eta, shots, bins", [
    *(pytest.param(*REFERENCE_CASES[name], bins, id=f"{bins}-{name}")
      for bins in (8, 16) for name in REFERENCE_CASES),
    # at 32 and 64 bins the counts reach a few columns of arm B, far below
    # N_B/2, so the package solves only those moment orders
    *(pytest.param(*REFERENCE_CASES[name], bins, id=f"{bins}-{name}")
      for bins in (32, 64) for name in ("tmsv", "coherent")),
])
def test_bootstrap_matches_reference(state, eta, shots, bins):
    # the reference draws one generator per spawned child and scores all
    # replicates with its own statistics, sharing no code with the package,
    # and solves every moment matrix at full order
    jcd = exact_jcd(state, cs.DetectorConfig(bins, eta, 1e-4))
    counts = cs.sample_counts(jcd, shots, seed=bins)
    got = bootstrap(counts, BootstrapConfig(replicates=200, seed=41))
    want = reference.bootstrap_stderr(counts.counts, 200, 41)
    assert got.keys() == want.keys()
    for name, (stderr, drop) in want.items():
        assert got[name].drop_fraction == drop, name
        if stderr is None:
            assert got[name].stderr is None, name
        else:
            assert math.isclose(got[name].stderr, stderr, rel_tol=1e-10), name


def every_pair_solved(probs, clicks, bounds=None):
    """stack_statistics as bootstrap calls it, with the point bounds dropped."""
    return stack_statistics(probs, clicks)


@pytest.mark.parametrize("bins", [8, 16, 32])
@pytest.mark.parametrize("name", ["tmsv", "coherent"])
def test_pruned_bootstrap_equals_every_pair_solved(name, bins, monkeypatch):
    # bootstrap's own chunks, drawn by the same generators, replayed with
    # every supported (replicate, condition) pair solved: the pairs the
    # point bounds skip change no standard error and no drop fraction
    state, eta, _ = REFERENCE_CASES[name]
    counts = cs.sample_counts(exact_jcd(state, cs.DetectorConfig(bins, eta, 1e-4)), 10**5,
                              seed=bins)
    solves = {"pruned": 0, "full": 0}

    def counted(run):
        def solve(matrices):
            solves[run] += len(matrices)
            return np.linalg.eigvalsh(matrices)
        return solve

    for seed in (1, 2, 3):
        cfg = BootstrapConfig(replicates=200, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(criteria, "jacobi_eigh", counted("pruned"))
            pruned = bootstrap(counts, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(criteria, "jacobi_eigh", counted("full"))
            patch.setattr(criteria, "stack_statistics", every_pair_solved)
            full = bootstrap(counts, cfg)
        assert pruned == full
    assert solves["pruned"] < solves["full"]


@pytest.mark.parametrize("make_counts, shape, bins", [
    *(pytest.param(make, shape, 8, id=name) for name, (make, shape) in SUPPORT_GRIDS.items()),
    # 129 rows of 65 x 65 matrices: one replicate alone is over the budget
    pytest.param(lambda: grid_counts(range(129), [0, 2], bins=128), (129, 3), 128,
                 id="every-row-128"),
])
def test_chunks_stay_within_the_byte_budget(make_counts, shape, bins, monkeypatch):
    # every chunk is scored on the support grid and holds the most replicates
    # whose moment matrices fit in CHUNK_BYTES, or one replicate where a
    # single one does not fit
    chunk = max(1, uncertainty.CHUNK_BYTES // matrix_bytes(shape[0], bins))
    shapes = []

    def record(probs, clicks, bounds=None):
        if probs.ndim == 3:     # a chunk; the point estimate is scored once, alone
            shapes.append(probs.shape)
        return stack_statistics(probs, clicks, bounds)

    monkeypatch.setattr(criteria, "stack_statistics", record)
    bootstrap(make_counts(), BootstrapConfig(replicates=chunk + 1, seed=3))
    assert shapes == [(chunk, *shape), (1, *shape)]
