import math

import numpy as np
import pytest

import clickstats as cs
from clickstats import stats
from clickstats.model import UndefinedStatisticError, ValidationError
from clickstats.uncertainty import (CHUNK, STATISTICS, BootstrapConfig,
                                    _child_states, bootstrap)


def coherent_counts(shots, seed=21):
    cfg = cs.DetectorConfig(8, 0.8, 0.0)
    jpd = cs.build_photon_distribution(cs.StateSpec.coherent(0.5, 0.5))
    jcd = cs.joint_click_distribution(jpd, cfg, cfg)
    return cs.sample_counts(jcd, shots, seed)


def test_config_validation():
    with pytest.raises(ValidationError):
        BootstrapConfig(replicates=1)
    with pytest.raises(ValidationError):
        BootstrapConfig(statistics=("no_such_stat",))
    with pytest.raises(ValidationError, match="seed"):
        BootstrapConfig(seed=-1)


@pytest.mark.parametrize("replicates", [1, 2, CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**100 + 3])
def test_child_states_equal_spawned_generators(seed, replicates):
    children = np.random.SeedSequence(seed).spawn(replicates)
    assert list(_child_states(seed, replicates)) == [np.random.PCG64(c).state
                                                     for c in children]


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
    """The bootstrap one replicate at a time through the scalar statistics:
    name -> (standard error or None, drop fraction)."""
    total = counts.total
    pflat = counts.counts.ravel() / total
    samples = {name: [] for name in cfg.statistics}
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
        draw = np.random.default_rng(child).multinomial(total, pflat)
        jcd = cs.JointClickDistribution(draw.reshape(counts.counts.shape) / total)
        for name in cfg.statistics:
            try:
                samples[name].append(STATISTICS[name](jcd))
            except UndefinedStatisticError:
                pass
    out = {}
    for name, values in samples.items():
        drop = 1.0 - len(values) / cfg.replicates
        defined = drop <= 0.5 and len(values) >= 2
        out[name] = (float(np.std(values, ddof=1)) if defined else None, drop)
    return out


def tmsv_counts():
    # sparse TMSV counts: the high-click conditions are drawn in only some
    # replicates of a chunk
    cfg = cs.DetectorConfig(8, 0.5, 1e-4)
    jcd = cs.joint_click_distribution(
        cs.build_photon_distribution(cs.StateSpec.tmsv(np.sqrt(0.1))), cfg, cfg)
    return cs.sample_counts(jcd, 10**4, seed=31)


def holed_counts(last_cell=7, empty_last_row=False):
    """Small counts with zero cells between non-zero ones; ``last_cell`` is
    the count of the last cell (a, b) = (8, 8)."""
    rng = np.random.default_rng(33)
    counts = rng.integers(1, 40, size=(9, 9)) * (rng.random((9, 9)) < 0.5)
    counts[-1, -1] = last_cell
    if empty_last_row:
        counts[-1] = 0
    return cs.CountMatrix(counts)


@pytest.mark.parametrize("make_counts, replicates, seed", [
    *(pytest.param(tmsv_counts, n, 32, id=str(n)) for n in (2, CHUNK, CHUNK + 1, 300)),
    pytest.param(holed_counts, CHUNK + 1, 32, id="interior-zeros"),
    pytest.param(lambda: holed_counts(last_cell=0), CHUNK + 1, 32, id="zero-last-cell"),
    pytest.param(lambda: holed_counts(last_cell=0, empty_last_row=True), CHUNK + 1, 32,
                 id="zero-last-row"),
    pytest.param(tmsv_counts, CHUNK + 1, 2**100 + 3, id="multi-word-seed"),
])
def test_chunked_bootstrap_matches_serial_replay(make_counts, replicates, seed):
    counts = make_counts()
    boot_cfg = BootstrapConfig(replicates=replicates, seed=seed)
    batched = bootstrap(counts, boot_cfg)
    serial = serial_replay(counts, boot_cfg)
    for name, (stderr, drop) in serial.items():
        assert batched[name].drop_fraction == drop
        if stderr is None:
            assert batched[name].stderr is None
        else:
            assert math.isclose(batched[name].stderr, stderr, rel_tol=1e-12)
