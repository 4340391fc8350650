"""Nonclassicality criteria, their classical bounds, and verdicts.

Three tests are evaluated on a joint click distribution:

* conditional correlation: kappa, the fraction of arm B's variance removed
  by conditioning on arm A's outcome, against its classical maximum (which
  may be negative),
* joint correlation: Pearson coefficient gamma against a bound built from the
  binomial Q parameters of the two marginals,
* higher-order conditional correlation: the minimal eigenvalue of the
  conditional moment matrices (negative only for nonclassical light).

A classical state (any mixture of coherent states, any detector response)
satisfies kappa <= kappa_cl_max, |gamma| <= gamma_cl_max, and frak_n >= 0.

The normally ordered moments of the on-off "click operator" come from the
factorial-moment rule, exact for the binomial-form statistics produced by
uniform multiplexing over N bins:

    <:pi^m:> = sum_b  C(b, m) / C(N, m) * c(b).

Every statistic is written once, in ``stack_statistics``, over a stack of
distributions: the point estimate and all bootstrap replicates run the same
code. ``statistic(jcd, name)`` reads one of them, named by a key of
WHY_UNDEFINED, for a single distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (CriteriaReport, Estimate, JointClickDistribution,
                    UndefinedStatisticError, ValidationError, Verdict, as_int, as_real)

# The statistics of a stack, each with the reason it can be undefined.
WHY_UNDEFINED = {
    "summed_click_mean": "empty distribution",
    "q_a": "degenerate marginal in arm A",
    "q_b": "degenerate marginal in arm B",
    "kappa": "no variability in arm B",
    "kappa_cl_max": "no variability in arm B",
    "kappa_margin": "no variability in arm B",
    "gamma": "zero variance in one arm",
    "gamma_cl_max": "degenerate marginal or zero bound denominator",
    "gamma_margin": "zero variance or degenerate marginal",
    "frak_n": "no supported conditions",
}

# An exact margin (no bootstrap errors) must exceed this to count as violated.
# It absorbs the rounding of a margin that is zero in exact arithmetic, as on
# coherent light, and stays below the benchmark's 1e-8 check of exact
# statistics. Some coherent states read more: the raw covariance gives a
# gamma margin of 3.3e-7 and the TAIL_MASS cut kappa margins up to 1.5e-9
# (ROADMAP items 1-2; strict xfails in tests/test_criteria.py).
EXACT_MARGIN_TOL = 1e-9

# stack_statistics' eigen-solve: ascending eigenvalues of a stack of symmetric
# matrices. stack_statistics calls it through this module-level name because
# the pipeline benchmark's tracer patches it under that name. The point
# eigenvectors of ``point_bounds`` come from np.linalg.eigh.
jacobi_eigh = np.linalg.eigvalsh


@dataclass(frozen=True)
class StackStatistics:
    """Every statistic of a stack of joint click distributions.

    ``values`` maps each name of WHY_UNDEFINED to an array of the stack's
    shape, NaN where the statistic is undefined. ``moments[..., a, m]`` is the
    conditional moment <:pi_B^m:>_|a for m = 0..2*(N_B//2), and
    ``eigenvalues[..., a]`` the smallest eigenvalue of condition a's full
    (N_B//2 + 1)-square moment matrix, solved on the orders the stack reaches
    (see ``stack_statistics``); both are NaN on unsupported conditions, where
    c(a) is 0 or subnormal. An eigenvalue that point bounds proved above its
    member's frak_n is not solved and reads +inf, so frak_n is still the fmin
    of the member's eigenvalues.
    """

    values: dict
    moments: np.ndarray
    eigenvalues: np.ndarray


def marginal_statistics(dist, clicks) -> tuple:
    """Mean, variance and binomial Q = N Var / (E (N - E)) - 1 of
    distributions whose outcomes, along the last axis, have the click numbers
    ``clicks``, N = ``clicks[-1]``. The variance is summed about the mean, and
    is exactly 0 on one outcome, where the sum reads the rounding of a mass
    not exactly 1 (k - mean = k (1 - mass)). Q is NaN where the mean is 0 or
    N; by that rounding a one-outcome mean at N may read just below it."""
    bins = int(clicks[-1])
    mean = dist @ clicks
    var = ((clicks - mean[..., None]) ** 2 * dist).sum(axis=-1)
    var = var * ((dist > 0.0).sum(axis=-1) > 1)
    inside = (mean > 0.0) & (mean < bins - 0.5 * (var == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return mean, var, np.where(inside, bins * var / (mean * (bins - mean)) - 1.0, np.nan)


@lru_cache(maxsize=None)
def moment_weights(bins: int, m_max: int) -> np.ndarray:
    """Read-only matrix W[m, b] = C(b, m) / C(N, m), built once per (bins,
    m_max) from exact integer combinatorics."""
    if m_max > bins:
        raise ValidationError(f"moment order {m_max} exceeds bin count {bins}")
    w = np.array([[math.comb(b, m) / math.comb(bins, m) for b in range(bins + 1)]
                  for m in range(m_max + 1)])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _hankel(order: int) -> np.ndarray:
    """Read-only index matrix m + m' of a moment matrix, m, m' = 0..order."""
    orders = np.arange(order + 1)
    index = orders[:, None] + orders[None, :]
    index.setflags(write=False)
    return index


def point_bounds(moments: np.ndarray, order: int) -> tuple:
    """What ``stack_statistics`` needs of a point estimate to prune the
    eigen-solves of a stack at ``order``, from the point's
    ``StackStatistics.moments``. For each condition a it gives the smallest
    eigenvalue λ_a of the (order+1)-square moment matrix P_a, the
    autoconvolution v_a ∗ v_a of λ_a's unit eigenvector and P_a's moments
    0..2*order; all three are NaN on unsupported conditions."""
    moments = moments[:, :2 * order + 1]
    lowest, conv = np.full(len(moments), np.nan), np.full(moments.shape, np.nan)
    rows = ~np.isnan(moments[:, 0])
    values, vectors = np.linalg.eigh(moments[rows][:, _hankel(order)])
    lowest[rows] = values[:, 0]
    conv[rows] = [np.convolve(v, v) for v in vectors[:, :, 0]]
    return lowest, conv, moments


def _above_minimum(moments: np.ndarray, bounds: tuple, order: int) -> np.ndarray:
    """True on the (member, condition) pairs whose smallest eigenvalue the
    point ``bounds`` (see ``point_bounds``) prove above the member's frak_n.

    With n = order + 1, v ∗ v the autoconvolution and w_k = min(k, 2*order
    - k) + 1 the number of entries of anti-diagonal k, a Hankel moment
    matrix H(m) has vᵀH(m)v = m · (v ∗ v) and ‖H(d)‖_F² = Σ_k w_k d_k². So,
    from the moment table alone, member r's frak_n is at most
    U_r = min_a M_{r,a} · (v_a ∗ v_a) (Rayleigh–Ritz), and condition a's
    smallest eigenvalue at least λ_a − ‖H(M_{r,a} − P_a)‖_F (Weyl's
    inequality; Golub & Van Loan, Matrix Computations, §8.1). A pair whose
    lower bound, less a slack, exceeds U_r cannot hold the minimum: the
    condition attaining U_r is solved and reads no more.

    The slack makes this hold for computed numbers: the eigenvalue LAPACK
    would return for a pruned pair is never below the one it returns for the
    condition attaining U_r, so frak_n is the same bit for bit. Every moment
    lies in [0, 1], so each matrix has ‖·‖₂ ≤ ‖·‖_F ≤ n. With ε the machine
    epsilon and LAPACK's eigenvalue error taken as nε‖A‖₂ (the LAPACK Users'
    Guide gives p(n)ε‖A‖₂, p a modestly growing function), the errors are:

    - three eigen-solves, the pruned pair's, the attaining pair's and the
      point's: 3n²ε;
    - the Frobenius norm, 2n - 1 weighted squares of rounded differences
      summed and a square root, relative error (n + 2)ε/2 on a norm ≤ 2n:
      3n²ε;
    - the Rayleigh bound, v ∗ v and its product with the moments, relative
      error about 3nε/2 on Σ_ij |v_i v_j| ≤ n: 2n²ε;
    - a computed v_a whose squared norm is off 1 by nε, which moves
      vᵀMv / ‖v‖² by n · nε: n²ε;
    - the two subtractions λ_a − ‖·‖_F − slack, on values ≤ 3n: 3n²ε.

    They sum to 12n²ε. The slack is 16n²ε, which also covers moments that
    round to just above 1. NaN bounds, of conditions the point does not
    support, prove nothing.
    """
    lowest, conv, centre = bounds
    moments = moments[..., :2 * order + 1]
    upper = np.fmin.reduce(np.einsum("...ak,ak->...a", moments, conv), axis=-1)
    diff = moments - centre
    diff *= diff
    frobenius = np.sqrt(diff @ np.bincount(_hankel(order).ravel()))
    slack = 16 * (order + 1) ** 2 * np.finfo(float).eps
    return lowest - frobenius - slack > upper[..., None]


def stack_statistics(probs, clicks=None, bounds=None) -> StackStatistics:
    """All statistics of click distributions of shape (..., N_A+1, N_B+1).

    ``clicks = (rows, cols)``, two integer arrays, gives the click numbers of
    the rows and columns of ``probs`` when it holds only some of them, in
    ascending order and ending with N_A and N_B; the rows and columns left
    out must carry no probability. The default is every row and column,
    0..N_A and 0..N_B. Moments and eigenvalues then run along the given rows
    only.

    The eigen-solve takes only the moment orders the stack reaches. With k
    the highest click number of arm B that carries probability in any
    member (0 if none does), every moment of order m > k is exactly 0, as
    C(b, m) = 0 for b < m. Each moment matrix is then block-diagonal, its
    leading (k+1)-square block and zeros, and its smallest eigenvalue is
    min(0, the block's). So the solve runs at order min(k, N_B//2) and, below
    N_B//2, clamps at 0. The point estimate and every bootstrap chunk run
    this one rule.

    ``bounds``, a function of that order returning a point estimate's
    ``point_bounds``, prunes the solve: only the pairs that can hold their
    member's minimum are gathered and solved (see ``_above_minimum``), and
    the others read +inf. frak_n and every solved eigenvalue are the same
    bit for bit as without it.

    Conditional moments come from one table, ``c(a, b) @ W.T`` with
    W[m, b] = C(b, m) / C(N_B, m), which holds c(a) <:pi_B^m:>_|a; divided by
    c(a) it gives the moments, NaN on unsupported conditions: c(a) 0 or subnormal.
    ``c(a, b) @ b`` gives c(a) E(b|a): the conditional means, the kappa bound
    and, through ``@ a``, E(ab).

    Variances are summed centred, the marginal ones about the marginal means
    and sum_a c(a) Var(b|a) about each condition's mean: the raw form
    E(b^2) - E(b)^2 loses about 1e-7 of kappa and Q_B on a saturated
    detector. For the same reason c(a) is summed like the other marginal,
    not read from the table's m = 0 column: near saturation Q_A turns on its
    last bit, and a matrix product sums in another order. Each arm's mean,
    variance and Q come from ``marginal_statistics``: a one-outcome marginal
    has variance exactly 0 and Q -1, or NaN on outcome 0 or N.
    """
    probs = np.asarray(probs, dtype=float)
    clicks_a, clicks_b = clicks or map(np.arange, probs.shape[-2:])
    n_a, n_b = int(clicks_a[-1]), int(clicks_b[-1])
    table = probs @ moment_weights(n_b, 2 * (n_b // 2))[:, clicks_b].T
    ca, cb = probs.sum(axis=-1), probs.sum(axis=-2)
    supported = ca >= np.finfo(float).tiny
    mean_a, var_a, q_a = marginal_statistics(ca, clicks_a)
    mean_b, var_b, q_b = marginal_statistics(cb, clicks_b)

    # c(a) E(b|a); the conditional mean is about 0 on unsupported rows, which
    # carry no weight, or a subnormal one, in the sums below
    weighted_mean = probs @ clicks_b
    cond_mean = weighted_mean / np.where(supported, ca, 1.0)
    # sum_a c(a) Var(b|a)
    cond_var = ((clicks_b - cond_mean[..., None]) ** 2 * probs).sum(axis=(-2, -1))

    with np.errstate(divide="ignore", invalid="ignore"):
        moments = table / np.where(supported, ca, np.nan)[..., None]
        varies_b = var_b > 0.0
        kappa = np.where(varies_b, 1.0 - cond_var / var_b, np.nan)
        kappa_cl_max = np.where(
            varies_b,
            1.0 - (weighted_mean * (n_b - cond_mean)).sum(axis=-1) / (n_b * var_b),
            np.nan)
        covariance = weighted_mean @ clicks_a - mean_a * mean_b
        gamma = np.where((var_a > 0.0) & varies_b,
                         covariance / np.sqrt(var_a * var_b), np.nan)
        denom = (n_a - 1) * (n_b - 1) * (q_a + 1.0) * (q_b + 1.0)
        gamma_cl_max = np.where(denom != 0.0,
                                np.sqrt(np.abs(n_a * n_b * q_a * q_b / denom)), np.nan)

    # solve only the (distribution, condition) pairs that are supported and,
    # given bounds, can hold the minimum, at the moment orders up to k, the
    # highest column of arm B with probability in any member (see the
    # docstring)
    cols = cb.nonzero()[-1]
    order = min(int(clicks_b[cols.max()]) if cols.size else 0, n_b // 2)
    solve = supported
    if bounds is not None:
        solve = supported & ~_above_minimum(moments, bounds(order), order)
    smallest = jacobi_eigh(moments[solve][:, _hankel(order)])[:, 0]
    eigenvalues = np.where(supported, np.inf, np.nan)
    eigenvalues[solve] = smallest if order == n_b // 2 else np.minimum(smallest, 0.0)

    values = {
        "summed_click_mean": mean_a + mean_b,
        "q_a": q_a,
        "q_b": q_b,
        "kappa": kappa,
        "kappa_cl_max": kappa_cl_max,
        "kappa_margin": kappa - kappa_cl_max,
        "gamma": gamma,
        "gamma_cl_max": gamma_cl_max,
        "gamma_margin": np.abs(gamma) - gamma_cl_max,
        # fmin passes over the NaN of unsupported conditions
        "frak_n": np.fmin.reduce(eigenvalues, axis=-1),
    }
    return StackStatistics(values=values, moments=moments, eigenvalues=eigenvalues)


def statistic(jcd: JointClickDistribution, name: str) -> float:
    """One statistic of one distribution; raises UndefinedStatisticError where
    stack_statistics gives NaN."""
    value = float(stack_statistics(jcd.probs).values[name])
    if math.isnan(value):
        raise UndefinedStatisticError(f"{name}: {WHY_UNDEFINED[name]}")
    return value


def conditional_nonclassicality_number(jcd: JointClickDistribution) -> float:
    """𝔑, as its public reader ``statistic(jcd, "frak_n")`` gives it. Kept
    only as a hook: the pipeline benchmark's tracer (pipebench/tracer.py)
    patches this name."""
    return statistic(jcd, "frak_n")


def moment_matrix(jcd: JointClickDistribution, a: int) -> np.ndarray:
    """Conditional moment matrix <:pi_B^(m+m'):>_|a, m, m' = 0..floor(N_B/2)."""
    if not 0 <= as_int("condition a", a) <= jcd.bins_a:
        raise ValidationError(f"condition a={a} out of range 0..{jcd.bins_a}")
    moments = stack_statistics(jcd.probs).moments[a]
    if np.isnan(moments[0]):
        raise UndefinedStatisticError(f"unsupported condition: c(a={a}) is 0 or subnormal")
    return moments[_hankel(jcd.bins_b // 2)]


def _as_estimate(value: float, err) -> Estimate:
    if math.isnan(value):
        return Estimate.undefined()
    stderr = None if err is None else err.stderr
    return Estimate(value=value, stderr=stderr, defined=err is None or stderr is not None)


def _as_verdict(margin: float, err, threshold: float) -> Verdict:
    """Margin > EXACT_MARGIN_TOL is a violation; with bootstrap errors it must
    instead exceed threshold standard errors."""
    if math.isnan(margin) or (err is not None and err.stderr is None):
        return Verdict(violated=None)
    if err is None:
        return Verdict(violated=bool(margin > EXACT_MARGIN_TOL))
    if err.stderr == 0.0:
        return Verdict(violated=bool(margin > 0.0),
                       significance_sigmas=math.inf if margin > 0.0 else 0.0)
    sig = margin / err.stderr
    return Verdict(violated=bool(sig > threshold), significance_sigmas=sig)


def check_threshold(threshold) -> float:
    """A verdict threshold, in standard errors, as the float the report's JSON
    holds: a real number (a bool is none), finite and positive."""
    value = as_real("threshold", threshold)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"threshold must be finite and > 0, got {threshold!r}")
    return value


def evaluate_all(jcd: JointClickDistribution, errors: dict | None = None,
                 threshold: float = 3.0) -> CriteriaReport:
    """Statistics, bounds, errors, and verdicts of one distribution.

    ``errors`` maps statistic names to bootstrap results (see
    clickstats.uncertainty); without it verdicts reduce to sign checks on the
    exact distribution. ``threshold``, in standard errors, must be a finite and
    positive real number; the report stores it as a float. The report's
    provenance (shots, replicates, seed, label, parameters, condition counts)
    is left at its defaults: it describes the run, not the statistics, and a
    caller attaches it with ``dataclasses.replace``.
    """
    threshold = check_threshold(threshold)
    point = stack_statistics(jcd.probs)
    values = {name: float(v) for name, v in point.values.items()}
    errors = errors or {}
    estimates = {name: _as_estimate(values[name], errors.get(name))
                 for name in CriteriaReport.STAT_FIELDS}
    return CriteriaReport(
        **estimates,
        kappa_test=_as_verdict(values["kappa_margin"], errors.get("kappa_margin"),
                               threshold),
        gamma_test=_as_verdict(values["gamma_margin"], errors.get("gamma_margin"),
                               threshold),
        frak_n_test=_as_verdict(-values["frak_n"], errors.get("frak_n"), threshold),
        bins_a=jcd.bins_a,
        bins_b=jcd.bins_b,
        threshold=threshold,
    )
