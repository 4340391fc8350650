"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's occupancy-chain kernel: click
distributions are obtained by exhaustively enumerating every placement of the
photons into the detector bins and convolving exact per-bin click
probabilities, or, for coherent light, from the binomial closed form. The
criteria are written out again from their closed forms, and the descriptive
statistics of a joint distribution (marginals, conditionals, covariance,
summed click mean) from their definitions, so no code from the package is
involved.
"""
import itertools
import math

import numpy as np


def enumerate_click_kernel(n: int, bins: int, eta: float, nu: float) -> np.ndarray:
    """Click-number distribution for an n-photon input by full enumeration.

    Every one of the bins**n equally likely photon placements is enumerated,
    grouped by multiset: the multiset with k_i photons in bin i stands for
    n! / prod(k_i!) ordered placements. A bin holding k photons clicks with
    probability 1 - (1-nu)(1-eta)**k (each photon detected independently,
    plus an independent dark click). The click-number distribution is the
    exact convolution of those per-bin Bernoullis, averaged over placements;
    placements that differ by a permutation of the bins share it, so it is
    convolved once per sorted occupancy.
    """
    multisets = np.array(list(itertools.combinations_with_replacement(range(bins), n)),
                         dtype=np.int64)
    occupancies = np.zeros((multisets.shape[0], bins), dtype=np.int64)
    np.add.at(occupancies, (np.arange(multisets.shape[0])[:, None], multisets), 1)
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    weights = math.factorial(n) / factorials[occupancies].prod(axis=1) / bins ** n
    # a sorted occupancy is fixed by its largest min(n, bins) entries
    width = max(1, min(n, bins))
    top, inverse = np.unique(-np.sort(-occupancies, axis=1)[:, :width], axis=0,
                             return_inverse=True)
    weights = np.bincount(inverse.ravel(), weights=weights)
    patterns = np.zeros((top.shape[0], bins), dtype=np.int64)
    patterns[:, :width] = top
    p_click = 1.0 - (1.0 - nu) * (1.0 - eta) ** patterns
    poly = np.zeros((patterns.shape[0], bins + 1))
    poly[:, 0] = 1.0
    for i in range(bins):
        p = p_click[:, i][:, None]
        shifted = np.zeros_like(poly)
        shifted[:, 1:] = poly[:, :-1]
        poly = poly * (1.0 - p) + shifted * p
    return weights @ poly


def coherent_click_marginal(mean: float, bins: int, eta: float, nu: float) -> np.ndarray:
    """Closed-form click distribution of a coherent state: binomial over the
    bins with per-bin click probability 1 - (1-nu) exp(-eta*mean/bins)."""
    p = 1.0 - (1.0 - nu) * math.exp(-eta * mean / bins)
    return np.array([math.comb(bins, b) * p ** b * (1.0 - p) ** (bins - b)
                     for b in range(bins + 1)])


def poisson_pmf(mean: float, n_max: int) -> np.ndarray:
    """Poisson pmf for n = 0..n_max, not renormalised; with n_max well past
    the mean the missing tail is below rounding."""
    n = np.arange(n_max + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    return np.exp(n * math.log(mean) - mean - log_fact)


def _joint_probs(joint) -> np.ndarray:
    """The probability array of a JointClickDistribution or of an array."""
    return np.asarray(getattr(joint, "probs", joint), dtype=float)


def marginals(joint) -> tuple[np.ndarray, np.ndarray]:
    """Marginal click distributions (over a, over b) of one joint
    distribution or a stack of them."""
    probs = _joint_probs(joint)
    return probs.sum(axis=-1), probs.sum(axis=-2)


def conditionals(joint) -> np.ndarray:
    """Conditional distributions c(b | a) for every a; the row of an
    unsupported condition (c(a) = 0) is zero."""
    probs = _joint_probs(joint)
    ca = probs.sum(axis=-1, keepdims=True)
    return np.divide(probs, ca, out=np.zeros_like(probs), where=ca > 0.0)


def covariance(joint) -> np.ndarray:
    """Cov(a, b) = E(ab) - E(a) E(b) over the joint click outcomes."""
    probs = _joint_probs(joint)
    ca, cb = marginals(probs)
    a, b = np.arange(ca.shape[-1]), np.arange(cb.shape[-1])
    return (probs @ b) @ a - (ca @ a) * (cb @ b)


def summed_click_mean(joint) -> np.ndarray:
    """E(a + b), the summed click number."""
    ca, cb = marginals(joint)
    return ca @ np.arange(ca.shape[-1]) + cb @ np.arange(cb.shape[-1])


def random_click_distribution(rng, bins_a=8, bins_b=8):
    """A random valid joint click distribution (Dirichlet-flat)."""
    probs = rng.dirichlet(np.ones((bins_a + 1) * (bins_b + 1)))
    return probs.reshape(bins_a + 1, bins_b + 1)


def tmsv_click_distribution(lam2: float, bins: int, eta: float, nu: float,
                            n_max: int = 6) -> np.ndarray:
    """Joint click distribution of a two-mode squeezed vacuum by enumeration.

    Pair numbers n = 0..n_max carry the geometric weights lam2**n, renormalised
    over the truncation (the discarded mass is lam2**(n_max + 1)). Both arms
    see the same n photons and respond through enumerate_click_kernel.
    """
    weights = lam2 ** np.arange(n_max + 1)
    weights /= weights.sum()
    kernel = np.array([enumerate_click_kernel(n, bins, eta, nu)
                       for n in range(n_max + 1)])
    return (kernel.T * weights) @ kernel


def criterion_margins(probs: np.ndarray):
    """The three criteria of a joint click distribution, written out directly.

    Returns (gamma - gamma_cl_max, kappa - kappa_cl_max, eigenvalues), where
    eigenvalues[a] is the smallest eigenvalue of the conditional moment matrix
    <:pi_B^(m+m'):>_|a (m, m' = 0..N_B//2), solved with LAPACK. The margins
    use the closed forms
        kappa - kappa_cl_max = sum_a c(a) [e_a (N_B - e_a) / N_B - v_a] / V_B,
        gamma_cl_max = sqrt(|N_A N_B Q_A Q_B| / ((N_A-1)(N_B-1)(Q_A+1)(Q_B+1))),
    with e_a, v_a the conditional mean and variance of b given a. Every
    condition a must carry probability.
    """
    bins_a, bins_b = probs.shape[0] - 1, probs.shape[1] - 1
    a = np.arange(bins_a + 1)
    b = np.arange(bins_b + 1)
    ca, cb = probs.sum(axis=1), probs.sum(axis=0)
    mean_a, mean_b = ca @ a, cb @ b
    var_a, var_b = ca @ (a - mean_a) ** 2, cb @ (b - mean_b) ** 2
    q_a = bins_a * var_a / (mean_a * (bins_a - mean_a)) - 1.0
    q_b = bins_b * var_b / (mean_b * (bins_b - mean_b)) - 1.0
    gamma = (a @ probs @ b - mean_a * mean_b) / np.sqrt(var_a * var_b)
    gamma_cl_max = np.sqrt(abs(bins_a * bins_b * q_a * q_b) / (
        (bins_a - 1) * (bins_b - 1) * (q_a + 1.0) * (q_b + 1.0)))

    cond = probs / ca[:, None]
    e = cond @ b
    v = cond @ b ** 2 - e ** 2
    kappa_margin = ca @ (e * (bins_b - e) / bins_b - v) / var_b

    half = bins_b // 2
    weights = np.array([[math.comb(k, m) / math.comb(bins_b, m) for k in b]
                        for m in range(2 * half + 1)])
    hankel = np.add.outer(np.arange(half + 1), np.arange(half + 1))
    moments = cond @ weights.T
    eigenvalues = np.linalg.eigvalsh(moments[:, hankel])[:, 0]
    return gamma - gamma_cl_max, kappa_margin, eigenvalues
