"""The batched statistics engine against the closed-form oracle, the
benchmark's reference statistics and its scalar accessor ``statistic``."""
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import clickstats as cs
from clickstats.criteria import WHY_UNDEFINED, moment_matrix, stack_statistics
from clickstats.uncertainty import STATISTICS

from oracles import criterion_margins, min_eigenvalue, summed_click_mean

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipebench"))

import reference  # noqa: E402  (read-only: the benchmark's own statistics)


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
        assert same(cs.statistic(jcd, "kappa"), row["kappa"])
        assert same(cs.statistic(jcd, "kappa_cl_max"), row["kappa_cl_max"])
        assert same(cs.statistic(jcd, "gamma"), row["gamma"])
        assert same(cs.statistic(jcd, "gamma_cl_max"), row["gamma_cl_max"])
        assert same(cs.statistic(jcd, "frak_n"), row["frak_n"])
        assert same(summed_click_mean(jcd), row["summed_click_mean"])
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


def test_stack_without_probability_is_undefined():
    # no column of arm B carries probability, so there is no highest one to
    # cut the moment orders at: the solve runs at order 0 on no condition
    stacked = stack_statistics(np.zeros((2, 9, 9)))
    assert np.isnan(stacked.eigenvalues).all()
    assert np.isnan(stacked.values["frak_n"]).all()


@st.composite
def cut_stacks(draw, relation):
    """A stack whose arm-B columns above a drawn k carry nothing, column N_B
    included, with k below, at or above N_B//2 as ``relation`` says. Member 0
    reaches column k and the others columns of their own at or below it;
    some conditions are empty, condition 0 never."""
    bins_a = draw(st.integers(2, 8))
    bins_b = draw(st.integers(3, 16))
    half = bins_b // 2
    k = draw({"below": st.integers(0, half - 1), "at": st.just(half),
              "above": st.integers(half + 1, bins_b - 1)}[relation])
    depth = draw(st.integers(1, 3))
    reach = [k, *draw(st.lists(st.integers(0, k), min_size=depth - 1,
                               max_size=depth - 1))]
    concentration = draw(st.floats(0.2, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = np.zeros((depth, bins_a + 1, bins_b + 1))
    for member, top in zip(probs, reach):
        member[:, :top + 1] = rng.dirichlet(
            np.full((bins_a + 1) * (top + 1), concentration)).reshape(bins_a + 1, top + 1)
        member *= rng.random((bins_a + 1, 1)) < 0.8
        member[0, top] += 0.1
    return probs / probs.sum(axis=(-2, -1), keepdims=True)


@pytest.mark.parametrize("relation", ["below", "at", "above"])
@given(data=st.data())
def test_order_cut_equals_full_order_solve(relation, data):
    # the stack solves only the moment orders up to the highest column it
    # reaches; LAPACK solves the full (N_B//2 + 1)-square moment matrix
    probs = data.draw(cut_stacks(relation))
    stacked = stack_statistics(probs)
    for i, dist in enumerate(probs):
        jcd = cs.JointClickDistribution(dist)
        want = np.full(jcd.bins_a + 1, np.nan)
        for a in np.flatnonzero(dist.sum(axis=-1) > 0.0):
            want[a] = min_eigenvalue(moment_matrix(jcd, a))[0]
        got = stacked.eigenvalues[i]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-12
        assert abs(stacked.values["frak_n"][i] - np.nanmin(want)) <= 1e-12


def test_unsupported_conditions_are_masked():
    probs = np.zeros((9, 9))
    probs[0, 0] = probs[0, 1] = probs[1, 0] = probs[1, 1] = 0.25
    stacked = stack_statistics(probs)
    assert np.isnan(stacked.eigenvalues[2:]).all()
    assert np.isnan(stacked.moments[2:]).all()
    assert stacked.values["frak_n"] == np.nanmin(stacked.eigenvalues)


def test_partly_supported_stack_equals_row_by_row():
    # conditions 7 and 8 are empty in every member, 5 is supported in one
    # member and 6 in two: the eigen-solve runs only on the supported
    # (member, condition) pairs
    probs = np.random.default_rng(17).dirichlet(np.ones(81), size=(2, 3)).reshape(2, 3, 9, 9)
    probs[..., 7:, :] = 0.0
    probs[..., 5, :] = 0.0
    probs[..., 6, :] = 0.0
    probs[1, 2, 5] = probs[0, 0, 6] = probs[1, 1, 6] = 0.05
    probs /= probs.sum(axis=(-2, -1), keepdims=True)
    stacked = stack_statistics(probs)
    for index in np.ndindex(2, 3):
        jcd = cs.JointClickDistribution(probs[index])
        supported = probs[index].sum(axis=-1) > 0.0
        for a in range(9):
            got = stacked.eigenvalues[index][a]
            if supported[a]:
                assert abs(got - min_eigenvalue(moment_matrix(jcd, a))[0]) <= 1e-12
            else:
                assert np.isnan(got)
        assert stacked.values["frak_n"][index] == np.nanmin(stacked.eigenvalues[index])
        row = stack_statistics(probs[index]).values
        for name in WHY_UNDEFINED:
            assert same(stacked.values[name][index], row[name])


@pytest.mark.parametrize("bins", [8, 16])
def test_saturated_detector_matches_reference(bins):
    # mean photon numbers far past the bin count: nearly every shot fires
    # every bin, so each variance is a small difference of large sums, and a
    # raw-moment variance E(b^2) - E(b)^2 loses about 1e-7 here; gamma is left
    # out, its covariance is ill-conditioned at saturation in both codes
    cfg = cs.DetectorConfig(bins, 1.0, 1e-4)
    jcd = cs.joint_click_distribution(
        cs.build_photon_distribution(cs.StateSpec.coherent(150.0, 135.0)), cfg, cfg)
    got = stack_statistics(jcd.probs).values
    want = reference.statistics(jcd.probs)
    for name in ("q_a", "q_b", "kappa", "kappa_cl_max"):
        assert abs(got[name] - want[name]) <= 1e-8 * max(1.0, abs(want[name])), name


def test_unsupported_conditions_raise_no_warning():
    # conditions 7 and 8 are empty in every member and 5 in two of three;
    # member 2 never clicks in arm A, a degenerate marginal
    probs = np.random.default_rng(5).dirichlet(np.ones(81), size=3).reshape(3, 9, 9)
    probs[:, 7:] = 0.0
    probs[1:, 5] = 0.0
    probs[2, 1:] = 0.0
    probs /= probs.sum(axis=(-2, -1), keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = stack_statistics(probs)
    assert np.isnan(stacked.moments[:, 7:]).all()
    assert np.isnan(stacked.moments[1:, 5]).all()
    assert not np.isnan(stacked.moments[0, :7]).any()
    assert np.isnan(stacked.values["q_a"][2]) and np.isnan(stacked.values["gamma"][2])
    assert stacked.values["frak_n"][2] == stacked.eigenvalues[2, 0]


@st.composite
def support_grids(draw):
    """A stack on a support grid: some rows and columns of a 2-16 bin
    distribution, always the last of each, with some kept rows empty in some
    members. Returns the stack, its click numbers and the zero-padded full
    stack."""
    bins_a = draw(st.integers(2, 16))
    bins_b = draw(st.integers(2, 16))
    keep_a = np.array(draw(st.lists(st.booleans(), min_size=bins_a + 1,
                                    max_size=bins_a + 1)))
    keep_b = np.array(draw(st.lists(st.booleans(), min_size=bins_b + 1,
                                    max_size=bins_b + 1)))
    keep_a[-1] = keep_b[-1] = True
    rows, cols = np.flatnonzero(keep_a), np.flatnonzero(keep_b)
    depth = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sub = rng.dirichlet(np.full(rows.size * cols.size, draw(st.floats(0.2, 5.0))),
                        size=depth).reshape(depth, rows.size, cols.size)
    sub *= rng.random((depth, rows.size, 1)) < 0.8
    sub[:, 0, 0] += 0.1
    sub /= sub.sum(axis=(-2, -1), keepdims=True)
    full = np.zeros((depth, bins_a + 1, bins_b + 1))
    full[:, rows[:, None], cols] = sub
    return sub, (rows, cols), full


def close_or_both_nan(got, want):
    return np.array_equal(np.isnan(got), np.isnan(want)) and np.all(
        np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)), where=~np.isnan(want))


@given(support_grids())
def test_support_grid_equals_padded_grid(grid):
    # the bootstrap scores replicates on the rows and columns that hold
    # counts; the rows and columns it leaves out carry no probability
    sub, (rows, cols), full = grid
    got = stack_statistics(sub, (rows, cols))
    want = stack_statistics(full)
    for name in WHY_UNDEFINED:
        assert close_or_both_nan(got.values[name], want.values[name]), name
    assert close_or_both_nan(got.moments, want.moments[:, rows])
    assert close_or_both_nan(got.eigenvalues, want.eigenvalues[:, rows])
    assert np.isnan(np.delete(want.eigenvalues, rows, axis=1)).all()


def test_one_outcome_marginal_is_degenerate():
    # arm A always gives 0, 2 or 4 of 4 clicks, on a row whose mass sums to
    # 1 - 2^-53: a summed variance reads that rounding, (k - mean)^2 =
    # (k (1 - mass))^2, and made gamma 1.1 and the kappa bound -2e31
    row = np.array([16, 3, 4, 1]) / 24
    assert row.sum() != 1.0
    probs = np.zeros((3, 5, 4))
    probs[[0, 1, 2], [0, 2, 4]] = row
    values = stack_statistics(probs).values
    assert np.isnan(values["q_a"][[0, 2]]).all() and values["q_a"][1] == -1.0
    for name in ("gamma", "gamma_cl_max", "gamma_margin"):
        assert np.isnan(values[name]).all(), name
    values = stack_statistics(probs.swapaxes(-2, -1)).values
    assert np.isnan(values["q_b"][[0, 2]]).all() and values["q_b"][1] == -1.0
    for name in ("kappa", "kappa_cl_max", "gamma", "gamma_cl_max"):
        assert np.isnan(values[name]).all(), name
