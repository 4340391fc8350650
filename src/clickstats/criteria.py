"""Nonclassicality criteria, their classical bounds, and verdicts.

Three tests are evaluated on a joint click distribution:

* conditional correlation: kappa against its classical maximum,
* joint correlation: Pearson coefficient gamma against a bound built from the
  binomial Q parameters of the two marginals,
* higher-order conditional correlation: the minimal eigenvalue of the
  conditional moment matrices (negative only for nonclassical light).

A classical state (any mixture of coherent states, any detector response)
satisfies kappa <= kappa_cl_max, |gamma| <= gamma_cl_max, and frak_n >= 0.

Every statistic is written once, in ``stack_statistics``, over a stack of
distributions: the point estimate and all bootstrap replicates run the same
code. The scalar functions are views of it for a single distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CriteriaReport, Estimate, JointClickDistribution,
                    UndefinedStatisticError, Verdict)
from .stats import (conditional_normal_moments, conditionals, covariance,
                    marginals, mean, moment_weights, summed_click_mean, variance)

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

# Every conditional moment of a valid distribution lies in [0, 1]; the report
# flags moments outside it by more than rounding.
MOMENT_TOL = 1e-12

# An exact margin (no bootstrap errors) must exceed this to count as violated:
# coherent light, on every classical bound, reads rounding and the TAIL_MASS
# cut (1e-16 to 1e-9). Below the benchmark's 1e-8 check of exact statistics.
EXACT_MARGIN_TOL = 1e-9

# The single eigen-solve of stack_statistics: ascending eigenvalues of a stack
# of symmetric matrices. stack_statistics calls it through this module-level
# name because the pipeline benchmark's tracer patches it under that name.
jacobi_eigh = np.linalg.eigvalsh


@dataclass(frozen=True)
class StackStatistics:
    """Every statistic of a stack of joint click distributions.

    ``values`` maps each name of WHY_UNDEFINED to an array of the stack's
    shape, NaN where the statistic is undefined. ``moments[..., a, m]`` is the
    conditional moment <:pi_B^m:>_|a for m = 0..2*(N_B//2), and
    ``eigenvalues[..., a]`` the smallest eigenvalue of condition a's moment
    matrix; both are NaN on unsupported conditions (c(a) = 0).
    """

    values: dict
    moments: np.ndarray
    eigenvalues: np.ndarray


def _hankel(bins_b: int) -> np.ndarray:
    """Index matrix m + m' of the moment matrix, m, m' = 0..floor(N_B/2)."""
    orders = np.arange(bins_b // 2 + 1)
    return orders[:, None] + orders[None, :]


def _binomial_q(marginal: np.ndarray, bins: int) -> np.ndarray:
    e = mean(marginal)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((e > 0.0) & (e < bins),
                        bins * variance(marginal) / (e * (bins - e)) - 1.0, np.nan)


def stack_statistics(probs) -> StackStatistics:
    """All statistics of click distributions of shape (..., N_A+1, N_B+1)."""
    probs = np.asarray(probs, dtype=float)
    n_a, n_b = probs.shape[-2] - 1, probs.shape[-1] - 1
    ca, cb = marginals(probs)
    var_a, var_b = variance(ca), variance(cb)
    q_a, q_b = _binomial_q(ca, n_a), _binomial_q(cb, n_b)

    supported = ca > 0.0
    cond = conditionals(probs)
    cond_mean, cond_var = mean(cond), variance(cond)
    moments = cond @ moment_weights(n_b, 2 * (n_b // 2)).T
    eigenvalues = np.where(supported,
                           jacobi_eigh(moments[..., _hankel(n_b)])[..., 0], np.nan)
    frak_n = np.where(supported.any(axis=-1),
                      np.where(supported, eigenvalues, np.inf).min(axis=-1), np.nan)

    with np.errstate(divide="ignore", invalid="ignore"):
        varies_b = var_b > 0.0
        kappa = np.where(varies_b, 1.0 - (ca * cond_var).sum(axis=-1) / var_b, np.nan)
        kappa_cl_max = np.where(
            varies_b,
            1.0 - (ca * cond_mean * (n_b - cond_mean)).sum(axis=-1) / (n_b * var_b),
            np.nan)
        gamma = np.where((var_a > 0.0) & varies_b,
                         covariance(probs) / np.sqrt(var_a * var_b), np.nan)
        denom = (n_a - 1) * (n_b - 1) * (q_a + 1.0) * (q_b + 1.0)
        gamma_cl_max = np.where(denom != 0.0,
                                np.sqrt(np.abs(n_a * n_b * q_a * q_b / denom)), np.nan)

    values = {
        "summed_click_mean": summed_click_mean(probs),
        "q_a": q_a,
        "q_b": q_b,
        "kappa": kappa,
        "kappa_cl_max": kappa_cl_max,
        "kappa_margin": kappa - kappa_cl_max,
        "gamma": gamma,
        "gamma_cl_max": gamma_cl_max,
        "gamma_margin": np.abs(gamma) - gamma_cl_max,
        "frak_n": frak_n,
    }
    return StackStatistics(values=values,
                           moments=np.where(supported[..., None], moments, np.nan),
                           eigenvalues=eigenvalues)


def statistic(jcd: JointClickDistribution, name: str) -> float:
    """One statistic of one distribution; raises UndefinedStatisticError where
    stack_statistics gives NaN."""
    value = float(stack_statistics(jcd.probs).values[name])
    if math.isnan(value):
        raise UndefinedStatisticError(f"{name}: {WHY_UNDEFINED[name]}")
    return value


def binomial_q(marginal: np.ndarray, bins: int) -> float:
    """Binomial Q parameter; negative means sub-binomial (nonclassical) light."""
    q = float(_binomial_q(np.asarray(marginal, dtype=float), bins))
    if math.isnan(q):
        raise UndefinedStatisticError(
            f"degenerate marginal: mean click number outside (0, {bins})")
    return q


def kappa(jcd: JointClickDistribution) -> float:
    """Conditional correlation coefficient: the fraction of B's variance
    removed by conditioning on A's outcome. Lies in [0, 1]."""
    return statistic(jcd, "kappa")


def kappa_cl_max(jcd: JointClickDistribution) -> float:
    """Classical upper bound on kappa; may be negative, in which case any
    physical kappa >= 0 already certifies nonclassicality."""
    return statistic(jcd, "kappa_cl_max")


def pearson(jcd: JointClickDistribution) -> float:
    """Pearson correlation coefficient of the joint click outcomes."""
    return statistic(jcd, "gamma")


def pearson_cl_max(jcd: JointClickDistribution) -> float:
    """Classical bound on |gamma|, expressed through the marginal binomial Q
    parameters alone."""
    return statistic(jcd, "gamma_cl_max")


def conditional_nonclassicality_number(jcd: JointClickDistribution) -> float:
    """Minimum over supported conditions of the smallest moment-matrix
    eigenvalue; negative values certify higher-order conditional
    nonclassicality."""
    return statistic(jcd, "frak_n")


def moment_matrix(jcd: JointClickDistribution, a: int) -> np.ndarray:
    """Conditional moment matrix <:pi_B^(m+m'):>_|a, m, m' = 0..floor(N_B/2)."""
    hankel = _hankel(jcd.bins_b)
    return conditional_normal_moments(jcd, a, hankel[-1, -1]).values[hankel]


def min_eigenvalue(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and unit-norm eigenvector (the optimal coefficient
    vector of the higher-order test)."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    return float(vals[0]), vecs[:, 0]


def _as_estimate(value: float, err) -> Estimate:
    if math.isnan(value):
        return Estimate.undefined()
    if err is not None and not err.defined:
        return Estimate(value=value, stderr=None, defined=False)
    return Estimate(value=value, stderr=err.stderr if err else None)


def _as_verdict(margin: float, err, threshold: float) -> Verdict:
    """Margin > EXACT_MARGIN_TOL is a violation; with bootstrap errors it must
    instead exceed threshold standard errors."""
    if math.isnan(margin):
        return Verdict(violated=None)
    if err is None:
        return Verdict(violated=bool(margin > EXACT_MARGIN_TOL))
    if not err.defined or err.stderr is None:
        return Verdict(violated=None)
    if err.stderr == 0.0:
        return Verdict(violated=bool(margin > 0.0),
                       significance_sigmas=math.inf if margin > 0.0 else 0.0)
    sig = margin / err.stderr
    return Verdict(violated=bool(sig > threshold), significance_sigmas=sig)


def evaluate_all(jcd: JointClickDistribution,
                 errors: dict | None = None,
                 threshold: float = 3.0,
                 total_shots: int | None = None,
                 bootstrap_replicates: int | None = None,
                 seed: int | None = None,
                 label: str = "",
                 parameters: dict | None = None,
                 condition_counts: tuple = ()) -> CriteriaReport:
    """Assemble the full report: statistics, bounds, errors, and verdicts.

    ``errors`` maps statistic names to bootstrap results (see
    clickstats.uncertainty); without it verdicts reduce to sign checks on the
    exact distribution.
    """
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
        total_shots=total_shots,
        bootstrap_replicates=bootstrap_replicates,
        seed=seed,
        threshold=threshold,
        label=label,
        moment_warning=bool(np.any((point.moments < -MOMENT_TOL)
                                   | (point.moments > 1.0 + MOMENT_TOL))),
        condition_counts=condition_counts,
        parameters=parameters or {},
    )
