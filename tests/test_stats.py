import math

import numpy as np
import pytest

import clickstats as cs
from clickstats.criteria import (mean, moment_matrix, moment_weights,
                                 stack_statistics, variance)
from clickstats.model import UndefinedStatisticError, ValidationError

from exact import coherent_product_jcd, ideal_split_photon_jcd
from oracles import conditionals, covariance, marginals, random_click_distribution

# click numbers 0..8 of an 8-bin arm
CLICKS = np.arange(9)


def normal_moment(dist, m, bins):
    """<:pi^m:> of an N-bin click distribution."""
    return (moment_weights(bins, m) @ dist)[m]


def joint_normal_moment(jcd):
    """<:pi_A pi_B:> = E(ab) / (N_A N_B)."""
    a, b = np.arange(jcd.bins_a + 1), np.arange(jcd.bins_b + 1)
    return float(a @ jcd.probs @ b) / (jcd.bins_a * jcd.bins_b)


def test_marginals_of_product():
    jcd = coherent_product_jcd()
    ca, cb = marginals(jcd)
    assert np.allclose(np.outer(ca, cb), jcd.probs, atol=1e-12)
    assert ca.sum() == pytest.approx(1.0)
    assert cb.sum() == pytest.approx(1.0)


def test_marginals_split_photon():
    ca, cb = marginals(ideal_split_photon_jcd())
    assert ca[0] == pytest.approx(0.5, abs=1e-12)
    assert ca[1] == pytest.approx(0.5, abs=1e-12)


def test_conditional_independent():
    jcd = coherent_product_jcd()
    _, cb = marginals(jcd)
    for a in range(9):
        assert np.allclose(conditionals(jcd)[a], cb, atol=1e-12)


def test_conditional_split_photon():
    cond = conditionals(ideal_split_photon_jcd())[1]
    assert cond[0] == pytest.approx(1.0, abs=1e-12)


def test_conditional_unsupported():
    jcd = ideal_split_photon_jcd()
    assert not conditionals(jcd)[5].any()
    with pytest.raises(UndefinedStatisticError, match="unsupported condition"):
        moment_matrix(jcd, 5)
    for a in (-1, 9):
        with pytest.raises(ValidationError, match="out of range"):
            moment_matrix(jcd, a)
    with pytest.raises(ValidationError, match="condition a must be an integer, got 1.0"):
        moment_matrix(jcd, 1.0)
    assert np.array_equal(moment_matrix(jcd, np.int64(1)), moment_matrix(jcd, 1))


def test_mean_variance_point_mass():
    dist = np.zeros(9)
    dist[1] = 1.0
    assert mean(dist, CLICKS) == 1.0
    assert variance(dist, CLICKS) == 0.0


def test_mean_variance_uniform():
    dist = np.full(9, 1.0 / 9.0)
    assert mean(dist, CLICKS) == pytest.approx(4.0)
    assert variance(dist, CLICKS) == pytest.approx(20.0 / 3.0)


def test_covariance_split_photon():
    assert covariance(ideal_split_photon_jcd()) == pytest.approx(-0.25, abs=1e-12)


def test_normal_moment_order_zero():
    rng = np.random.default_rng(0)
    dist = rng.dirichlet(np.ones(9))
    assert normal_moment(dist, 0, 8) == pytest.approx(1.0)


def test_normal_moment_rejects_large_order():
    with pytest.raises(ValidationError):
        normal_moment(np.full(9, 1.0 / 9.0), 9, 8)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
def test_normal_moment_binomial_fixed_point(p):
    bins = 8
    dist = np.array([math.comb(bins, b) * p**b * (1 - p) ** (bins - b)
                     for b in range(bins + 1)])
    for m in range(bins + 1):
        # brute-force factorial-moment summation as the oracle
        oracle = sum(math.comb(b, m) / math.comb(bins, m) * dist[b]
                     for b in range(bins + 1))
        assert oracle == pytest.approx(p**m, abs=1e-12)
        assert normal_moment(dist, m, bins) == pytest.approx(p**m, abs=1e-12)


def test_normal_moment_single_click():
    dist = np.zeros(9)
    dist[1] = 1.0
    assert normal_moment(dist, 1, 8) == pytest.approx(1.0 / 8.0)
    for m in range(2, 9):
        assert normal_moment(dist, m, 8) == 0.0


def test_variance_identity_random():
    # normally ordered variance vs the closed form in terms of E and Var
    rng = np.random.default_rng(42)
    for _ in range(100):
        dist = rng.dirichlet(np.ones(9))
        n = 8
        e = mean(dist, CLICKS)
        v = variance(dist, CLICKS)
        lhs = normal_moment(dist, 2, n) - normal_moment(dist, 1, n) ** 2
        rhs = (n * v - e * (n - e)) / (n**2 * (n - 1))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_covariance_identity_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        na, nb = jcd.bins_a, jcd.bins_b
        joint = joint_normal_moment(jcd)
        ca, cb = marginals(jcd)
        lhs = na * nb * (joint - normal_moment(ca, 1, na)
                         * normal_moment(cb, 1, nb))
        assert lhs == pytest.approx(covariance(jcd), abs=1e-12)


def test_law_of_total_variance():
    rng = np.random.default_rng(44)
    for _ in range(20):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        ca, cb = marginals(jcd)
        total = 0.0
        means = []
        for a in range(9):
            cond = conditionals(jcd)[a]
            total += ca[a] * variance(cond, CLICKS)
            means.append(mean(cond, CLICKS))
        means = np.array(means)
        e_b = mean(cb, CLICKS)
        total += float(ca @ (means - e_b) ** 2)
        assert total == pytest.approx(variance(cb, CLICKS), abs=1e-12)


def test_conditional_moments_split_photon():
    moments = stack_statistics(ideal_split_photon_jcd().probs).moments
    nm0, nm1 = moments[0, :5], moments[1, :5]
    assert np.allclose(nm0, [1.0, 1.0 / 8.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(nm1, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.all((nm0 >= 0.0) & (nm0 <= 1.0))


def test_conditional_moments_coherent_product():
    jcd = coherent_product_jcd(mean_a=0.6, mean_b=1.1, eta=0.8)
    p = 1.0 - math.exp(-0.8 * 1.1 / 8.0)
    moments = stack_statistics(jcd.probs).moments
    for a in (0, 1, 2):
        assert np.allclose(moments[a, :5], p ** np.arange(5), atol=1e-10)


def test_moment_weights_cached_read_only():
    for bins in (2, 8, 16, 128):
        w = moment_weights(bins, bins)
        assert moment_weights(bins, bins) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 2.0
        exact = [[math.comb(b, m) / math.comb(bins, m) for b in range(bins + 1)]
                 for m in range(bins + 1)]
        assert np.array_equal(w, exact)
