import json
import math
import re

import numpy as np
import pytest

import clickstats as cs
from clickstats import criteria
from clickstats.criteria import moment_matrix
from clickstats.model import UndefinedStatisticError, ValidationError

from exact import (coherent_mixture, coherent_product_jcd, exact_jcd, ideal_split_photon_jcd,
                   tmsv_jcd)
from oracles import (marginals, min_eigenvalue, poisson_pmf,
                     random_click_distribution)

SP_FRAK_N = (1.0 - math.sqrt(17.0 / 16.0)) / 2.0


def product_jcd(ca, cb):
    """The product of two marginals, whose q_a and q_b are theirs."""
    return cs.JointClickDistribution(np.outer(ca, cb))


def test_binomial_q_binomial_marginal():
    jcd = product_jcd(*marginals(coherent_product_jcd()))
    assert cs.statistic(jcd, "q_a") == pytest.approx(0.0, abs=1e-10)
    assert cs.statistic(jcd, "q_b") == pytest.approx(0.0, abs=1e-10)


def test_binomial_q_single_photon():
    marginal = np.zeros(9)
    marginal[0] = marginal[1] = 0.5  # single photon, eta = 0.5
    jcd = product_jcd(marginal, marginal)
    assert cs.statistic(jcd, "q_a") == pytest.approx(-7.0 / 15.0, abs=1e-12)


def test_binomial_q_thermal_super_binomial():
    ca, _ = marginals(tmsv_jcd())
    assert cs.statistic(product_jcd(ca, ca), "q_a") > 0.0


def test_binomial_q_degenerate():
    marginal = np.zeros(9)
    marginal[0] = 1.0
    with pytest.raises(UndefinedStatisticError, match="degenerate marginal"):
        cs.statistic(product_jcd(marginal, marginal), "q_a")


def test_kappa_independent():
    assert cs.statistic(coherent_product_jcd(), "kappa") == pytest.approx(0.0, abs=1e-10)


def test_kappa_ideal_split_photon():
    assert cs.statistic(ideal_split_photon_jcd(), "kappa") == pytest.approx(
        1.0, abs=1e-12)


def test_kappa_no_variability():
    probs = np.zeros((9, 9))
    probs[0, 0] = probs[1, 0] = 0.5
    with pytest.raises(UndefinedStatisticError, match="no variability"):
        cs.statistic(cs.JointClickDistribution(probs), "kappa")


def test_kappa_cl_max_split_photon():
    assert cs.statistic(ideal_split_photon_jcd(), "kappa_cl_max") == pytest.approx(
        -0.75, abs=1e-12)


def test_kappa_tight_for_binomial_conditionals():
    jcd = coherent_product_jcd(mean_a=1.2, mean_b=0.4, eta=0.9)
    assert cs.statistic(jcd, "kappa") == pytest.approx(
        cs.statistic(jcd, "kappa_cl_max"), abs=1e-10)


def test_kappa_in_unit_interval_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        k = cs.statistic(jcd, "kappa")
        assert -1e-12 <= k <= 1.0 + 1e-12


def test_pearson_independent():
    assert cs.statistic(coherent_product_jcd(), "gamma") == pytest.approx(0.0, abs=1e-12)


def test_pearson_ideal_split_photon():
    assert cs.statistic(ideal_split_photon_jcd(), "gamma") == pytest.approx(
        -1.0, abs=1e-12)


def test_pearson_tmsv_positive():
    assert cs.statistic(tmsv_jcd(), "gamma") > 0.0


def test_pearson_bounded_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        assert abs(cs.statistic(jcd, "gamma")) <= 1.0 + 1e-12


def test_pearson_cl_max_split_photon():
    jcd = ideal_split_photon_jcd()
    assert cs.statistic(jcd, "gamma_cl_max") == pytest.approx(1.0, abs=1e-12)
    # |gamma| = 1 exactly meets the bound: no violation
    assert abs(cs.statistic(jcd, "gamma")) <= cs.statistic(jcd, "gamma_cl_max") + 1e-12


def test_pearson_cl_max_collapses_for_binomial():
    assert cs.statistic(coherent_product_jcd(), "gamma_cl_max") == pytest.approx(
        0.0, abs=1e-5)


def test_pearson_violation_tmsv():
    jcd = tmsv_jcd(lam2=0.1, eta=0.5)
    assert cs.statistic(jcd, "gamma") > cs.statistic(jcd, "gamma_cl_max")


def test_permutation_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        swapped = cs.JointClickDistribution(jcd.probs.T)
        assert cs.statistic(swapped, "gamma") == pytest.approx(
            cs.statistic(jcd, "gamma"), abs=1e-12)
        assert cs.statistic(swapped, "gamma_cl_max") == pytest.approx(
            cs.statistic(jcd, "gamma_cl_max"), abs=1e-12)


def test_moment_matrix_split_photon():
    m = moment_matrix(ideal_split_photon_jcd(), 0)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    expected[0, 1] = expected[1, 0] = 1.0 / 8.0
    assert np.allclose(m, expected, atol=1e-12)


def test_moment_matrix_binomial_rank_one():
    jcd = coherent_product_jcd(mean_b=1.1, eta=0.8)
    p = 1.0 - math.exp(-0.8 * 1.1 / 8.0)
    m = moment_matrix(jcd, 1)
    moments = p ** np.arange(5)
    assert np.allclose(m, np.outer(moments, moments), atol=1e-10)


def test_moment_matrix_vacuum_conditional():
    probs = np.zeros((9, 9))
    probs[0, 0] = 0.5
    probs[1, 1] = 0.5
    m = moment_matrix(cs.JointClickDistribution(probs), 0)
    e0 = np.zeros(5)
    e0[0] = 1.0
    assert np.allclose(m, np.outer(e0, e0), atol=1e-12)


def test_min_eigenvalue_identity():
    val, vec = min_eigenvalue(np.eye(5))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_min_eigenvalue_split_photon_block():
    entries = np.zeros((5, 5))
    entries[0, 0] = 1.0
    entries[0, 1] = entries[1, 0] = 1.0 / 8.0
    val, vec = min_eigenvalue(entries)
    assert val == pytest.approx(SP_FRAK_N, abs=1e-12)
    assert np.linalg.norm(entries @ vec - val * vec) <= 1e-10


def test_min_eigenvalue_rank_one_gram():
    moments = 0.3 ** np.arange(5)
    val, _ = min_eigenvalue(np.outer(moments, moments))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_min_eigenvalue_vs_characteristic_polynomial():
    rng = np.random.default_rng(10)
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        m = (a + a.T) / 2
        val, _ = min_eigenvalue(m)
        tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] ** 2
        root = (tr - math.sqrt(tr**2 - 4 * det)) / 2
        assert val == pytest.approx(root, abs=1e-10)
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        m = (a + a.T) / 2
        val, vec = min_eigenvalue(m)
        roots = np.sort(np.roots(np.poly(m)).real)
        assert val == pytest.approx(roots[0], abs=1e-10)
        assert np.linalg.norm(m @ vec - val * vec) <= 1e-10


def test_min_eigenvalue_residual_dim5():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.normal(size=(5, 5))
        m = (a + a.T) / 2
        val, vec = min_eigenvalue(m)
        assert np.linalg.norm(m @ vec - val * vec) <= 1e-10
        assert val == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-10)


def test_frak_n_product_binomials():
    value = cs.statistic(coherent_product_jcd(), "frak_n")
    assert value == pytest.approx(0.0, abs=1e-10)


def test_frak_n_ideal_split_photon():
    value = cs.statistic(ideal_split_photon_jcd(), "frak_n")
    assert value == pytest.approx(SP_FRAK_N, abs=1e-10)


def test_frak_n_classical_mixtures_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(60):
        components = int(rng.integers(1, 4))
        cfg = cs.DetectorConfig(8, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.02))
        jcd = coherent_mixture(rng, rng.dirichlet(np.ones(components)), cfg)
        assert cs.statistic(jcd, "frak_n") >= -1e-10


def test_evaluate_all_exact_split_photon():
    report = cs.evaluate_all(ideal_split_photon_jcd())
    assert report.kappa_test.violated is True
    assert report.gamma_test.violated is False
    assert report.frak_n_test.violated is True
    assert report.summed_click_mean.value == pytest.approx(1.0, abs=1e-12)


# (mean_a, mean_b, efficiency, dark-click probability)
COHERENT_SETTINGS = [(0.5, 0.5, 0.5, 1e-4), (0.4, 0.7, 0.9, 0.0),
                     (2.0, 1.0, 0.8, 0.01), (0.05, 0.05, 0.8, 1e-4)]


@pytest.mark.parametrize("bins", [2, 3, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("setting", COHERENT_SETTINGS)
def test_exact_coherent_verdicts_not_violated(bins, setting):
    # coherent light sits on every classical bound; the exact margins are
    # rounding and photon-number truncation, within EXACT_MARGIN_TOL
    mean_a, mean_b, eta, nu = setting
    cfg = cs.DetectorConfig(bins, eta, nu)
    report = cs.evaluate_all(exact_jcd(cs.StateSpec.coherent(mean_a, mean_b), cfg))
    assert (report.kappa_test.violated, report.gamma_test.violated,
            report.frak_n_test.violated) == (False, False, False)


# Coherent states whose exact margins exceed EXACT_MARGIN_TOL at these bin
# counts (the same states pass at others): (bins, setting), each with the
# ROADMAP item whose fix turns it green.
COHERENT_FAULTS = [
    pytest.param(8, (150.0, 135.0, 1.0, 1e-4), marks=pytest.mark.xfail(
        strict=True, reason="gamma margin 3.3e-7: the raw covariance E(ab) - E(a)E(b) "
                            "cancels on a saturated detector (ROADMAP item 1)")),
    *[pytest.param(bins, (2.0, 0.01, 1.0, 0.0), marks=pytest.mark.xfail(
        strict=True, reason="kappa margin 1.3e-9 to 1.5e-9: the TAIL_MASS cut makes "
                            "the Poisson sub-Poissonian (ROADMAP item 2)"))
      for bins in (16, 32, 64)],
]


@pytest.mark.parametrize("bins,setting", COHERENT_FAULTS)
def test_exact_coherent_faults_not_violated(bins, setting):
    test_exact_coherent_verdicts_not_violated(bins, setting)


@pytest.mark.xfail(strict=True, reason="frak_n -7.9e-3, decided by row a = 84, whose "
                   "c(84) ~ 1.1e-321 is subnormal; stack_statistics supports every "
                   "c(a) > 0 (ROADMAP item 12)")
def test_exact_coherent_unequal_arms_frak_n_not_violated():
    jcd = exact_jcd(cs.StateSpec.coherent(0.174, 38.65), cs.DetectorConfig(84, 0.177, 1e-4),
                    cs.DetectorConfig(21, 0.177, 1e-4))
    assert cs.evaluate_all(jcd).frak_n_test.violated is False


def test_exact_verdict_tolerance():
    tol = criteria.EXACT_MARGIN_TOL
    assert 0.0 < tol <= 1e-9
    assert criteria._as_verdict(tol / 2, None, 3.0).violated is False
    assert criteria._as_verdict(2 * tol, None, 3.0).violated is True


@pytest.mark.parametrize("bins", [16, 32])
@pytest.mark.parametrize("eta,nu", [(0.5, 1e-4), (0.9, 0.01), (0.2, 0.0)])
def test_exact_coherent_light_within_classical_bounds(bins, eta, nu):
    # At 16 bins the alternating-series kernel made this state read
    # frak_n = -0.159. An uncut Poisson keeps the state exactly coherent (the
    # package's TAIL_MASS cut alone moves the kappa margin by ~1e-11), so
    # every margin is rounding.
    pmf = poisson_pmf(0.5, 60)
    jcd = exact_jcd(np.outer(pmf, pmf) / pmf.sum() ** 2, cs.DetectorConfig(bins, eta, nu))
    values = criteria.stack_statistics(jcd.probs).values
    assert values["kappa_margin"] <= 1e-12
    assert values["gamma_margin"] <= 1e-12
    assert -values["frak_n"] <= 1e-12


# the report's JSON could not hold these: a bool reads back as no number, a
# numpy bool does not serialise, and the rest are no numbers at all
NOT_REAL = {"bool": True, "numpy-bool": np.True_, "str": "3", "None": None, "complex": 3j,
            "numpy-complex": np.complex128(3), "0-d-array": np.array(3.0)}


@pytest.mark.parametrize("threshold", [
    math.nan, math.inf, -math.inf, -3.0, 0.0,
    pytest.param(np.float32(math.inf), id="float32-inf"),
    pytest.param(10**400, id="int-beyond-float"),
    *[pytest.param(value, id=name) for name, value in NOT_REAL.items()]])
def test_evaluate_all_rejects_threshold_not_finite_and_positive(threshold):
    rule = ("a real number" if any(threshold is v for v in NOT_REAL.values())
            else "finite and > 0")
    with pytest.raises(ValidationError,
                       match=re.escape(f"threshold must be {rule}, got {threshold!r}")):
        cs.evaluate_all(ideal_split_photon_jcd(), threshold=threshold)


@pytest.mark.parametrize("threshold", [3, np.int64(3), np.float32(3.0), np.float64(3.0)],
                         ids=["int", "numpy-int64", "numpy-float32", "numpy-float64"])
def test_evaluate_all_threshold_round_trips_as_float(threshold):
    report = cs.evaluate_all(tmsv_jcd(), threshold=threshold)
    assert type(report.threshold) is float and report.threshold == 3.0
    text = json.dumps(report.to_dict(), allow_nan=False)
    assert cs.CriteriaReport.from_dict(json.loads(text)) == report


def test_evaluate_all_undefined_components():
    # almost all mass at (0,0): Q and the correlation statistics are degenerate
    probs = np.zeros((9, 9))
    probs[0, 0] = 1.0
    report = cs.evaluate_all(cs.JointClickDistribution(probs))
    assert report.q_a.defined is False
    assert report.kappa.defined is False
    assert report.kappa_test.violated is None
    assert report.gamma_test.violated is None
    # frak_n is still defined: the vacuum conditional has lambda_min = 0
    assert report.frak_n_test.violated is False
