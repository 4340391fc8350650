"""State families, the click kernel and the finite-shot sampler.

The kernel is checked against oracles that share no code with it
(``tests/oracles.py``): exhaustive enumeration of photon placements, the
coherent closed form, and ``sample_counts_physical``, an independent
Monte-Carlo of the detector, vectorised over shots (Bernoulli detection,
photons placed into random bins, dark clicks), which the
``test_physical_sampler_*`` tests compare with the analytic kernel.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

import clickstats as cs
from clickstats.model import MAX_BINS, ValidationError
from clickstats.simulator import (MAX_COHERENT_MEAN, MAX_TMSV_CUT, _tmsv_cut,
                                  click_kernel_matrix)

from exact import exact_jcd, ideal_split_photon_jcd, tmsv_jcd
from oracles import (coherent_click_marginal, enumerate_click_kernel, poisson_pmf,
                     sample_counts_physical)


def test_state_spec_validation():
    with pytest.raises(ValidationError):
        cs.StateSpec.tmsv(1.0)
    with pytest.raises(ValidationError):
        cs.StateSpec.tmsv(0.0)
    with pytest.raises(ValidationError):
        cs.StateSpec.split_photon(1.0)
    with pytest.raises(ValidationError):
        cs.StateSpec.coherent(-0.1, 0.0)
    with pytest.raises(ValidationError, match="unknown state variant: 'bogus'"):
        cs.build_photon_distribution(cs.StateSpec("bogus"))


@pytest.mark.parametrize("make_spec, message", [
    # the Poisson series of a mean of 1000 starts from exp(-1000) == 0 and hung
    (lambda: cs.StateSpec("coherent", mean_a=1000.0), "700"),
    # squeezing 0 reached math.log(0.0)
    (lambda: cs.StateSpec("tmsv"), "tmsv squeezing must be in \\(0, 1\\), got 0.0"),
    (lambda: cs.StateSpec("tmsv", squeezing=1.5), "tmsv squeezing"),
    (lambda: cs.StateSpec("split_photon"), "splitting amplitude must be in"),
    # a bool was taken as 0 or 1; a string or None failed a comparison
    (lambda: cs.StateSpec.coherent(True, 0), "mean_a must be a real number, got True"),
    (lambda: cs.StateSpec.coherent("1", 0), "mean_a must be a real number, got '1'"),
    (lambda: cs.StateSpec.tmsv(None), "squeezing must be a real number, got None"),
], ids=["coherent-mean-1000", "tmsv-default", "tmsv-squeezing-1.5",
        "split-photon-default", "coherent-bool", "coherent-str", "tmsv-none"])
def test_state_spec_checks_its_variant_on_construction(make_spec, message, deadline):
    with pytest.raises(ValidationError, match=message):
        make_spec()


def test_tmsv_photon_cut_bound():
    # rejected on construction, before the dense (cut+1)^2 photon matrix
    for lam2 in (0.995, 0.9999999999999):
        with pytest.raises(ValidationError, match=f"photon cut .* exceeds {MAX_TMSV_CUT}"):
            cs.StateSpec.tmsv(np.sqrt(lam2))
    spec = cs.StateSpec.tmsv(np.sqrt(0.99))   # constructed only, not built
    assert _tmsv_cut(spec.squeezing) == 2750 <= MAX_TMSV_CUT
    # lambda^2 underflows to 0, where the cut's logarithm is undefined
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(1e-200))
    assert jpd.probs[0, 0] == 1.0


@pytest.mark.parametrize("means", [(float("nan"), 0.5), (0.5, float("nan")),
                                   (float("inf"), 0.5), (0.5, float("inf"))])
def test_coherent_requires_finite_means(means):
    with pytest.raises(ValidationError, match="finite"):
        cs.StateSpec.coherent(*means)


def test_coherent_mean_bound(deadline):
    # above about 745 the Poisson series starts from exp(-mean) == 0 and
    # never reaches its tail; the bound rejects such means before building
    with pytest.raises(ValidationError, match="700"):
        cs.StateSpec.coherent(800.0, 0.1)
    with pytest.raises(ValidationError, match="700"):
        cs.StateSpec.coherent(0.1, 800.0)
    jpd = cs.build_photon_distribution(
        cs.StateSpec.coherent(MAX_COHERENT_MEAN, MAX_COHERENT_MEAN))
    assert abs(jpd.probs.sum() - 1.0) < 1e-12


def test_sample_counts_rejects_negative_seed():
    jcd = cs.JointClickDistribution(np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValidationError, match="seed"):
        cs.sample_counts(jcd, 10, -1)
    for seed in (1.5, True):
        with pytest.raises(ValidationError, match=f"seed must be an integer, got {seed}"):
            cs.sample_counts(jcd, 5, seed)
    assert np.array_equal(cs.sample_counts(jcd, 10, np.int64(3)).counts,
                          cs.sample_counts(jcd, 10, 3).counts)


def test_sample_counts_shots_bound():
    # the bound of CountMatrix.total; rng.multinomial overflowed above it
    jcd = cs.JointClickDistribution(np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValidationError, match="shots 9223372036854775808 exceeds 2\\^63 - 1"):
        cs.sample_counts(jcd, 2**63, 1)
    assert cs.sample_counts(jcd, 2**63 - 1, 1).total == 2**63 - 1
    # a float is no shot count: truncated, 2.9 would draw 2 shots
    for shots in (2.9, 2.0, True):
        with pytest.raises(ValidationError, match=f"shots must be an integer, got {shots}"):
            cs.sample_counts(jcd, shots, 0)
    assert cs.sample_counts(jcd, np.int64(5), 0).total == 5


def test_split_photon_distribution():
    jpd = cs.build_photon_distribution(cs.StateSpec.split_photon(2 ** -0.5))
    assert jpd.probs[1, 0] == pytest.approx(0.5)
    assert jpd.probs[0, 1] == pytest.approx(0.5)


def test_tmsv_distribution_geometric():
    lam = 0.3162
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(lam))
    lam2 = lam ** 2
    expected = (1.0 - lam2) * lam2 ** np.arange(jpd.max_a + 1)
    diag = np.diag(jpd.probs)
    assert np.allclose(diag, expected / expected.sum(), atol=1e-13)
    assert diag[0] == pytest.approx(0.9, abs=1e-3)
    assert diag[1] == pytest.approx(0.09, abs=1e-3)
    assert diag[2] == pytest.approx(0.009, abs=1e-3)
    off = jpd.probs - np.diag(diag)
    assert np.all(off == 0)


def test_coherent_vacuum():
    jpd = cs.build_photon_distribution(cs.StateSpec.coherent(0.0, 0.0))
    assert jpd.probs.shape == (1, 1)
    assert jpd.probs[0, 0] == 1.0


def test_coherent_truncation_tail():
    jpd = cs.build_photon_distribution(cs.StateSpec.coherent(2.0, 0.5))
    pa = jpd.probs.sum(axis=1)
    raw = sps.poisson.pmf(np.arange(pa.size), 2.0)
    assert raw.sum() > 1.0 - 1e-12


def test_kernel_vacuum():
    cfg = cs.DetectorConfig(8, 0.7, 0.0)
    k = click_kernel_matrix(0, cfg)[0]
    assert k[0] == pytest.approx(1.0)
    assert np.all(k[1:] == pytest.approx(0.0, abs=1e-15))


def test_kernel_single_photon_unit_efficiency():
    k = click_kernel_matrix(1, cs.DetectorConfig(8, 1.0, 0.0))[1]
    assert k[1] == pytest.approx(1.0, abs=1e-14)


def test_kernel_two_photons_same_bin():
    k = click_kernel_matrix(2, cs.DetectorConfig(8, 1.0, 0.0))[2]
    assert k[1] == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert k[2] == pytest.approx(7.0 / 8.0, abs=1e-14)


def test_kernel_single_bernoulli():
    k = click_kernel_matrix(1, cs.DetectorConfig(8, 0.5, 0.0))[1]
    assert k[0] == pytest.approx(0.5, abs=1e-14)
    assert k[1] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_kernel_normalization(eta, nu):
    cfg = cs.DetectorConfig(8, eta, nu)
    for n in range(51):
        assert click_kernel_matrix(n, cfg)[n].sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bins", [2, 4])
@pytest.mark.parametrize("eta,nu", [(0.7, 0.0), (1.0, 0.01)])
def test_kernel_matches_enumeration(bins, eta, nu):
    cfg = cs.DetectorConfig(bins, eta, nu)
    for n in range(5):
        oracle = enumerate_click_kernel(n, bins, eta, nu)
        assert np.max(np.abs(click_kernel_matrix(n, cfg)[n] - oracle)) < 1e-12


def test_joint_distribution_split_photon():
    jcd = ideal_split_photon_jcd()
    assert jcd.probs[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert jcd.probs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert jcd.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_vacuum():
    jcd = exact_jcd(cs.StateSpec.coherent(0.0, 0.0), cs.DetectorConfig(8, 1.0, 0.0))
    assert jcd.probs[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("nu", [0.0, 0.02])
def test_coherent_closed_form(nu):
    # the exact kernel route must match the analytic binomial product
    cfg_a = cs.DetectorConfig(8, 0.6, nu)
    cfg_b = cs.DetectorConfig(8, 0.9, nu)
    mean_a, mean_b = 0.8, 1.4
    jcd = exact_jcd(cs.StateSpec.coherent(mean_a, mean_b), cfg_a, cfg_b)
    expected = np.outer(coherent_click_marginal(mean_a, 8, 0.6, nu),
                        coherent_click_marginal(mean_b, 8, 0.9, nu))
    assert np.max(np.abs(jcd.probs - expected)) < 1e-10


@given(bins=st.integers(2, MAX_BINS),
       eta=st.floats(0.0, 1.0),
       nu=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.sampled_from([0.999, 0.999999, 1.0 - 1e-12])),
       n_max=st.integers(0, 60))
def test_kernel_rows_nonnegative_and_normalised(bins, eta, nu, n_max):
    kernel = click_kernel_matrix(n_max, cs.DetectorConfig(bins, eta, nu))
    assert kernel.shape == (n_max + 1, bins + 1)
    assert np.all(kernel >= 0.0)
    assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("eta,nu", [(0.6, 0.0), (0.9, 0.01)])
def test_kernel_matches_enumeration_64_bins(eta, nu):
    kernel = click_kernel_matrix(3, cs.DetectorConfig(64, eta, nu))
    for n in range(4):
        oracle = enumerate_click_kernel(n, 64, eta, nu)
        assert np.max(np.abs(kernel[n] - oracle)) < 1e-14


@pytest.mark.parametrize("bins", [2, 8, 16, 32, 64, MAX_BINS])
@pytest.mark.parametrize("mean,eta,nu", [(0.5, 0.5, 1e-4), (3.0, 0.9, 0.02),
                                         (20.0, 0.7, 0.3)])
def test_kernel_coherent_closed_form_to_max_bins(bins, mean, eta, nu):
    # a Poisson average of the kernel rows is the binomial closed form
    kernel = click_kernel_matrix(120, cs.DetectorConfig(bins, eta, nu))
    got = poisson_pmf(mean, 120) @ kernel
    assert np.max(np.abs(got - coherent_click_marginal(mean, bins, eta, nu))) < 1e-13


def test_fock_click_kernel_is_a_kernel_row():
    # K(a|n), the kernel of an n-photon Fock input, is the last row of the
    # n-photon matrix and row n of every longer one
    cfg = cs.DetectorConfig(16, 0.4, 1e-3)
    kernel = click_kernel_matrix(7, cfg)
    for n in range(8):
        assert np.array_equal(click_kernel_matrix(n, cfg)[n], kernel[n])
    with pytest.raises(ValidationError):
        click_kernel_matrix(-1, cfg)


def test_joint_distribution_has_no_negative_mass():
    # the exact-sweep settings where the alternating series went negative,
    # by hand and through both paths of joint_click_distribution
    for bins in (8, 16, 32):
        cfg = cs.DetectorConfig(bins, 0.5, 1e-4)
        for spec in (cs.StateSpec.coherent(0.5, 0.5), cs.StateSpec.tmsv(0.5)):
            jpd = cs.build_photon_distribution(spec)
            k_a = click_kernel_matrix(jpd.max_a, cfg)
            k_b = click_kernel_matrix(jpd.max_b, cfg)
            assert np.all(k_a.T @ jpd.probs @ k_b >= 0.0)
            for cfg_b in (cfg, cs.DetectorConfig(bins, 0.3, 1e-4)):
                assert np.all(cs.joint_click_distribution(jpd, cfg, cfg_b).probs >= 0.0)


SHARED_CHAIN_STATES = [cs.StateSpec.coherent(3.0, 0.001), cs.StateSpec.coherent(0.001, 3.0),
                       cs.StateSpec.tmsv(0.5), cs.StateSpec.split_photon(0.6)]


@pytest.mark.parametrize("bins", [2, 8, 16, MAX_BINS])
@pytest.mark.parametrize("spec", SHARED_CHAIN_STATES,
                         ids=["coherent-3-0.001", "coherent-0.001-3", "tmsv", "split"])
def test_shared_chain_equals_one_chain_per_arm(spec, bins):
    # equal arms read both kernels from one chain; the product is the one of
    # two chains cut at each arm's own photon number, byte for byte, on square
    # and non-square photon matrices (Poisson cuts longer on either arm)
    cfg = cs.DetectorConfig(bins, 0.45, 1e-3)
    jpd = cs.build_photon_distribution(spec)
    expected = (click_kernel_matrix(jpd.max_a, cfg).T @ jpd.probs
                @ click_kernel_matrix(jpd.max_b, cfg))
    for cfg_b in (cfg, cs.DetectorConfig(bins, 0.45, 1e-3)):
        got = cs.joint_click_distribution(jpd, cfg, cfg_b).probs
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cfg_b,chains", [
    (None, 1),
    (cs.DetectorConfig(8, 0.5, 1e-4), 1),
    (cs.DetectorConfig(16, 0.5, 1e-4), 2),
    (cs.DetectorConfig(8, 0.6, 1e-4), 2),
    (cs.DetectorConfig(8, 0.5, 2e-4), 2),
], ids=["shared", "equal", "bins", "eta", "nu"])
def test_equal_configs_build_one_chain(monkeypatch, cfg_b, chains):
    # configs are compared by value: cmd_simulate builds two equal objects
    cfg_a = cs.DetectorConfig(8, 0.5, 1e-4)
    calls = []

    def counting(n_max, cfg):
        calls.append((n_max, cfg))
        return click_kernel_matrix(n_max, cfg)

    monkeypatch.setattr(cs.simulator, "click_kernel_matrix", counting)
    jpd = cs.build_photon_distribution(cs.StateSpec.coherent(3.0, 0.001))
    cs.joint_click_distribution(jpd, cfg_a, cfg_a if cfg_b is None else cfg_b)
    assert len(calls) == chains
    if chains == 1:
        assert calls[0][0] == max(jpd.max_a, jpd.max_b)


def test_mean_clicks_monotone_in_efficiency():
    means = []
    for eta in np.linspace(0.05, 1.0, 12):
        jcd = tmsv_jcd(0.2, eta=eta)
        means.append(float(np.arange(9) @ jcd.probs.sum(axis=1)))
    assert np.all(np.diff(means) >= -1e-14)


def test_sample_counts_total_and_determinism():
    jcd = tmsv_jcd(0.1, eta=0.5)
    c1 = cs.sample_counts(jcd, 10**6, seed=7)
    c2 = cs.sample_counts(jcd, 10**6, seed=7)
    assert c1.total == 10**6
    assert np.array_equal(c1.counts, c2.counts)
    assert not np.array_equal(c1.counts, cs.sample_counts(jcd, 10**6, 8).counts)


def test_sample_counts_degenerate():
    probs = np.zeros((9, 9))
    probs[0, 0] = 1.0
    c = cs.sample_counts(cs.JointClickDistribution(probs), 100, seed=1)
    assert c.counts[0, 0] == 100


def test_sample_counts_binomial_error():
    c = cs.sample_counts(ideal_split_photon_jcd(), 10**6, seed=3)
    assert abs(c.counts[1, 0] / 10**6 - 0.5) < 3.0 * np.sqrt(0.25 / 10**6)


def test_physical_sampler_vacuum():
    jpd = cs.build_photon_distribution(cs.StateSpec.coherent(0.0, 0.0))
    cfg = cs.DetectorConfig(8, 1.0, 0.0)
    c = sample_counts_physical(jpd.probs, cfg, cfg, 1000, seed=2)
    assert c[0, 0] == 1000


def test_physical_sampler_two_photon_collision():
    probs = np.zeros((3, 1))
    probs[2, 0] = 1.0
    jpd = cs.JointPhotonDistribution(probs)
    cfg = cs.DetectorConfig(8, 1.0, 0.0)
    shots = 10**6
    c = sample_counts_physical(jpd.probs, cfg, cfg, shots, seed=4)
    k1 = c[1, :].sum() / shots
    sigma = np.sqrt((1 / 8) * (7 / 8) / shots)
    assert abs(k1 - 1.0 / 8.0) < 3.0 * sigma


def test_physical_sampler_loss():
    jpd = cs.build_photon_distribution(cs.StateSpec.split_photon(2 ** -0.5))
    cfg = cs.DetectorConfig(8, 0.5, 0.0)
    shots = 10**6
    c = sample_counts_physical(jpd.probs, cfg, cfg, shots, seed=5)
    sigma = np.sqrt(0.25 / shots)
    assert abs(c[0, 0] / shots - 0.5) < 3.0 * sigma


def test_physical_sampler_determinism():
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(np.sqrt(0.1)))
    cfg = cs.DetectorConfig(8, 0.5, 1e-3)
    c1 = sample_counts_physical(jpd.probs, cfg, cfg, 10**4, seed=9)
    c2 = sample_counts_physical(jpd.probs, cfg, cfg, 10**4, seed=9)
    assert np.array_equal(c1, c2)


def test_physical_sampler_matches_exact_distribution():
    # chi-square goodness of fit at the 0.1% level, pooling rare cells
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(np.sqrt(0.15)))
    cfg = cs.DetectorConfig(8, 0.5, 1e-3)
    jcd = cs.joint_click_distribution(jpd, cfg, cfg)
    shots = 10**6
    c = sample_counts_physical(jpd.probs, cfg, cfg, shots, seed=17)
    expected = jcd.probs.ravel() * shots
    observed = c.ravel().astype(float)
    keep = expected >= 5.0
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    _, p = sps.chisquare(obs, exp * obs.sum() / exp.sum())
    assert p > 0.001


def test_physical_sampler_matches_kernel_32_bins():
    # broad thermal marginals reach click numbers up to ~20, the rows where the
    # old alternating-series kernel was wrong by 1e-2. Every cell of each arm's
    # marginal lies within 5 binomial standard errors of the kernel's.
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(np.sqrt(0.8)))
    cfg = cs.DetectorConfig(32, 0.7, 0.02)
    shots = 10**5
    counts = sample_counts_physical(jpd.probs, cfg, cfg, shots, seed=32)
    exact = cs.joint_click_distribution(jpd, cfg, cfg).probs
    for observed, p in ((counts.sum(axis=1), exact.sum(axis=1)),
                        (counts.sum(axis=0), exact.sum(axis=0))):
        sigma = np.sqrt(shots * p * (1.0 - p))
        assert np.all(np.abs(observed - shots * p) <= 5.0 * sigma + 1.0)


def test_thermal_marginal_of_tmsv():
    # tracing out one arm of the pair-correlated state leaves thermal light
    lam = np.sqrt(0.2)
    cfg = cs.DetectorConfig(8, 0.4, 0.0)
    jpd = cs.build_photon_distribution(cs.StateSpec.tmsv(lam))
    jcd = cs.joint_click_distribution(jpd, cfg, cfg)
    thermal = np.diag(jpd.probs)[:, None]  # same weights, arm B in vacuum
    reduced = cs.JointPhotonDistribution(thermal)
    single = cs.joint_click_distribution(reduced, cfg, cs.DetectorConfig(8, 1.0, 0.0))
    assert np.allclose(jcd.probs.sum(axis=1), single.probs[:, 0], atol=1e-12)
