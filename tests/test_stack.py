"""The batched statistics engine against the closed-form oracle and against
its own scalar views."""
import math

import numpy as np
from hypothesis import given, strategies as st

import clickstats as cs
from clickstats import stats
from clickstats.criteria import (WHY_UNDEFINED, min_eigenvalue, moment_matrix,
                                 stack_statistics)
from clickstats.uncertainty import STATISTICS

from oracles import criterion_margins


@st.composite
def stacks(draw):
    """Random stacks of joint click distributions, 2-16 bins per arm, with
    every condition a carrying probability."""
    bins_a = draw(st.integers(2, 16))
    bins_b = draw(st.integers(2, 16))
    depth = draw(st.integers(1, 3))
    concentration = draw(st.floats(0.2, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.full((bins_a + 1) * (bins_b + 1), concentration),
                          size=depth)
    return probs.reshape(depth, bins_a + 1, bins_b + 1)


@given(stacks())
def test_stack_matches_oracle(probs):
    stacked = stack_statistics(probs)
    values = stacked.values
    for i, dist in enumerate(probs):
        gamma_margin, kappa_margin, eigenvalues = criterion_margins(dist)
        # the oracle's gamma margin is signed, the package's takes |gamma|
        assert abs(values["gamma"][i] - values["gamma_cl_max"][i] - gamma_margin) <= 1e-10
        assert values["gamma_margin"][i] == abs(values["gamma"][i]) - values["gamma_cl_max"][i]
        assert abs(values["kappa_margin"][i] - kappa_margin) <= 1e-10
        assert np.max(np.abs(stacked.eigenvalues[i] - eigenvalues)) <= 1e-10
        assert stacked.values["frak_n"][i] == stacked.eigenvalues[i].min()


def same(scalar, stacked):
    # a stack and a single distribution may round differently in the last bits
    return math.isclose(scalar, stacked, rel_tol=1e-12, abs_tol=1e-14)


@given(stacks())
def test_scalar_wrappers_equal_stack_rows(probs):
    stacked = stack_statistics(probs)
    for i, dist in enumerate(probs):
        jcd = cs.JointClickDistribution(dist)
        row = {name: stacked.values[name][i] for name in WHY_UNDEFINED}
        ca, cb = stats.marginals(jcd)
        assert same(cs.binomial_q(ca, jcd.bins_a), row["q_a"])
        assert same(cs.binomial_q(cb, jcd.bins_b), row["q_b"])
        assert same(cs.kappa(jcd), row["kappa"])
        assert same(cs.kappa_cl_max(jcd), row["kappa_cl_max"])
        assert same(cs.pearson(jcd), row["gamma"])
        assert same(cs.pearson_cl_max(jcd), row["gamma_cl_max"])
        assert same(cs.conditional_nonclassicality_number(jcd), row["frak_n"])
        assert same(stats.summed_click_mean(jcd), row["summed_click_mean"])
        for name, fn in STATISTICS.items():
            assert same(fn(jcd), row[name])
        for a in range(jcd.bins_a + 1):
            assert same(min_eigenvalue(moment_matrix(jcd, a))[0],
                        stacked.eigenvalues[i, a])


def test_undefined_statistics_are_nan():
    probs = np.zeros((2, 9, 9))
    probs[0, 0, 0] = 1.0           # vacuum: only frak_n and the mean are defined
    probs[1, 0, 3] = probs[1, 1, 3] = 0.5   # arm B always gives 3 clicks
    values = stack_statistics(probs).values
    assert values["summed_click_mean"].tolist() == [0.0, 3.5]
    assert values["frak_n"][0] == 0.0
    for name in ("q_a", "q_b", "kappa", "kappa_cl_max", "kappa_margin", "gamma",
                 "gamma_cl_max", "gamma_margin"):
        assert np.isnan(values[name][0])
    # a fixed click number is maximally sub-binomial, and the gamma bound's
    # denominator (Q_B + 1) vanishes
    assert values["q_b"][1] == -1.0
    for name in ("kappa", "kappa_cl_max", "kappa_margin", "gamma", "gamma_cl_max",
                 "gamma_margin"):
        assert np.isnan(values[name][1])


def test_unsupported_conditions_are_masked():
    probs = np.zeros((9, 9))
    probs[0, 0] = probs[0, 1] = probs[1, 0] = probs[1, 1] = 0.25
    stacked = stack_statistics(probs)
    assert np.isnan(stacked.eigenvalues[2:]).all()
    assert np.isnan(stacked.moments[2:]).all()
    assert stacked.values["frak_n"] == np.nanmin(stacked.eigenvalues)
