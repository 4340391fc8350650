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
                    UndefinedStatisticError, ValidationError, Verdict)
from .stats import mean, moment_weights, variance

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


def _binomial_q(e: np.ndarray, var: np.ndarray, bins: int) -> np.ndarray:
    """Binomial Q of marginals with means ``e`` and variances ``var``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((e > 0.0) & (e < bins), bins * var / (e * (bins - e)) - 1.0, np.nan)


def stack_statistics(probs) -> StackStatistics:
    """All statistics of click distributions of shape (..., N_A+1, N_B+1).

    Conditional moments come from one table, ``c(a, b) @ W.T`` with
    W[m, b] = C(b, m) / C(N_B, m), which holds c(a) <:pi_B^m:>_|a; divided by
    c(a) it gives the moments, NaN (0/0) on unsupported conditions.
    ``c(a, b) @ b`` gives c(a) E(b|a): the conditional means, the kappa bound
    and, through ``@ a``, E(ab).

    Variances are summed centred, the marginal ones about the marginal means
    and sum_a c(a) Var(b|a) about each condition's mean: the raw form
    E(b^2) - E(b)^2 loses about 1e-7 of kappa and Q_B on a saturated
    detector. For the same reason c(a) is summed like the other marginal,
    not read from the table's m = 0 column: near saturation Q_A turns on its
    last bit, and a matrix product sums in another order.
    """
    probs = np.asarray(probs, dtype=float)
    n_a, n_b = probs.shape[-2] - 1, probs.shape[-1] - 1
    clicks_a, clicks_b = np.arange(n_a + 1.0), np.arange(n_b + 1.0)
    table = probs @ moment_weights(n_b, 2 * (n_b // 2)).T
    ca, cb = probs.sum(axis=-1), probs.sum(axis=-2)
    supported = ca > 0.0
    mean_a, mean_b = mean(ca), mean(cb)
    var_a, var_b = variance(ca), variance(cb)
    q_a, q_b = _binomial_q(mean_a, var_a, n_a), _binomial_q(mean_b, var_b, n_b)

    # c(a) E(b|a); the conditional mean is 0 on unsupported rows, which carry
    # no weight in the sums below
    weighted_mean = probs @ clicks_b
    cond_mean = weighted_mean / np.where(supported, ca, 1.0)
    # sum_a c(a) Var(b|a)
    cond_var = ((clicks_b - cond_mean[..., None]) ** 2 * probs).sum(axis=(-2, -1))

    with np.errstate(divide="ignore", invalid="ignore"):
        moments = table / ca[..., None]
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

    # solve only the (distribution, condition) pairs that are supported
    eigenvalues = np.full(supported.shape, np.nan)
    eigenvalues[supported] = jacobi_eigh(moments[supported][:, _hankel(n_b)])[:, 0]

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


def binomial_q(marginal: np.ndarray, bins: int) -> float:
    """Binomial Q parameter; negative means sub-binomial (nonclassical) light."""
    marginal = np.asarray(marginal, dtype=float)
    q = float(_binomial_q(mean(marginal), variance(marginal), bins))
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
    if not 0 <= a <= jcd.bins_a:
        raise ValidationError(f"condition a={a} out of range 0..{jcd.bins_a}")
    moments = stack_statistics(jcd.probs).moments[a]
    if np.isnan(moments[0]):
        raise UndefinedStatisticError(f"unsupported condition: c(a={a}) = 0")
    return moments[_hankel(jcd.bins_b)]


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
