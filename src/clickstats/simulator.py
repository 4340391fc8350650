"""Exact click distributions for the standard state families, and samplers.

The detector model is an array of N on-off bins with uniform splitting,
per-photon efficiency eta and per-bin dark-click probability nu. The click
kernel K(a|n) is an occupancy Markov chain with only non-negative terms
(Sperling, Vogel & Agarwal, PRL 109, 093601 (2012)): the dark clicks occupy a
Binomial(N, nu) number of bins, and each photon is detected with probability
eta and adds a click with probability (N - k)/N when k bins already click.
Note nu is the per-bin dark-click *probability*; a linear-response dark rate
nu' relates to it by nu' = -ln(1 - nu).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CountMatrix, DetectorConfig, JointClickDistribution,
                    JointPhotonDistribution, ValidationError)

TAIL_MASS = 1e-12


@dataclass(frozen=True)
class StateSpec:
    """Parameterization of a two-mode input state.

    variant is one of "coherent", "tmsv", "split_photon", "custom".
    """

    variant: str
    mean_a: float = 0.0
    mean_b: float = 0.0
    squeezing: float = 0.0   # lambda for tmsv, in (0, 1)
    splitting: float = 0.0   # t for split_photon, in (0, 1)
    photon_dist: JointPhotonDistribution | None = None

    @classmethod
    def coherent(cls, mean_a: float, mean_b: float) -> "StateSpec":
        if mean_a < 0 or mean_b < 0:
            raise ValidationError("coherent mean photon numbers must be >= 0")
        return cls("coherent", mean_a=mean_a, mean_b=mean_b)

    @classmethod
    def tmsv(cls, lam: float) -> "StateSpec":
        if not 0.0 < lam < 1.0:
            raise ValidationError(f"tmsv squeezing must be in (0, 1), got {lam}")
        return cls("tmsv", squeezing=lam)

    @classmethod
    def split_photon(cls, t: float) -> "StateSpec":
        if not 0.0 < t < 1.0:
            raise ValidationError(f"splitting amplitude must be in (0, 1), got {t}")
        return cls("split_photon", splitting=t)

    @classmethod
    def custom(cls, dist: JointPhotonDistribution) -> "StateSpec":
        return cls("custom", photon_dist=dist)


def _poisson_truncated(mean: float) -> np.ndarray:
    """Poisson pmf truncated so that the discarded tail mass is < TAIL_MASS."""
    if mean == 0.0:
        return np.array([1.0])
    terms = [math.exp(-mean)]
    cum = terms[0]
    n = 0
    while 1.0 - cum > TAIL_MASS:
        n += 1
        terms.append(terms[-1] * mean / n)
        cum += terms[-1]
    p = np.array(terms)
    return p / p.sum()


def build_photon_distribution(spec: StateSpec) -> JointPhotonDistribution:
    """Joint photon-number probabilities for a state spec, truncated and
    renormalized."""
    if spec.variant == "coherent":
        pa = _poisson_truncated(spec.mean_a)
        pb = _poisson_truncated(spec.mean_b)
        return JointPhotonDistribution(np.outer(pa, pb),
                                       label=f"coherent({spec.mean_a}, {spec.mean_b})")
    if spec.variant == "tmsv":
        lam2 = spec.squeezing ** 2
        # geometric tail: mass beyond n_max is lam2^(n_max+1)
        n_max = max(1, math.ceil(math.log(TAIL_MASS) / math.log(lam2)))
        weights = (1.0 - lam2) * lam2 ** np.arange(n_max + 1)
        probs = np.diag(weights / weights.sum())
        return JointPhotonDistribution(probs, label=f"tmsv({spec.squeezing})")
    if spec.variant == "split_photon":
        t2 = spec.splitting ** 2
        probs = np.zeros((2, 2))
        probs[1, 0] = t2
        probs[0, 1] = 1.0 - t2
        return JointPhotonDistribution(probs, label=f"split_photon({spec.splitting})")
    if spec.variant == "custom":
        if spec.photon_dist is None:
            raise ValidationError("custom state requires a photon distribution")
        return spec.photon_dist
    raise ValidationError(f"unknown state variant: {spec.variant!r}")


def click_kernel_matrix(n_max: int, cfg: DetectorConfig) -> np.ndarray:
    """Click-number distributions K(a|n) for n = 0..n_max photons, shape
    (n_max+1, N+1), from one pass of the occupancy chain.

    Row 0 is the dark-click occupancy, Binomial(N, nu); each further photon
    moves the chain from k to k+1 clicking bins with probability eta (N-k)/N.
    """
    if n_max < 0:
        raise ValidationError("photon number must be >= 0")
    big_n, nu = cfg.bins, cfg.dark_click
    k = np.arange(big_n + 1)
    # C(N, k) <= C(128, 64) ~ 2.4e37 times powers in [0, 1]: no overflow or NaN
    comb = np.array([math.comb(big_n, j) for j in range(big_n + 1)], dtype=float)
    state = comb * nu ** k * (1.0 - nu) ** (big_n - k)
    step = cfg.efficiency * (big_n - k) / big_n
    rows = np.empty((n_max + 1, big_n + 1))
    for n in range(n_max + 1):
        rows[n] = state
        # step <= 1 keeps state >= 0; step[N] = 0 keeps every click count <= N
        moved = state * step
        state -= moved
        state[1:] += moved[:-1]
    return rows


def fock_click_kernel(n: int, cfg: DetectorConfig) -> np.ndarray:
    """Click-number distribution K(a|n) for an n-photon Fock input."""
    return click_kernel_matrix(n, cfg)[n]


def joint_click_distribution(jpd: JointPhotonDistribution,
                             cfg_a: DetectorConfig,
                             cfg_b: DetectorConfig) -> JointClickDistribution:
    """Exact joint click statistics: both arms measured independently,
    c(a,b) = sum_n p(n_A, n_B) K_A(a|n_A) K_B(b|n_B). Every term is
    non-negative and kernel rows sum to 1, so c is normalised to rounding."""
    k_a = click_kernel_matrix(jpd.max_a, cfg_a)
    k_b = click_kernel_matrix(jpd.max_b, cfg_b)
    return JointClickDistribution(k_a.T @ jpd.probs @ k_b)


def sample_counts(jcd: JointClickDistribution, shots: int, seed: int) -> CountMatrix:
    """Multinomial draw of `shots` outcomes from the exact distribution."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    flat = rng.multinomial(shots, jcd.probs.ravel() / jcd.probs.sum())
    return CountMatrix(flat.reshape(jcd.probs.shape))


def sample_counts_physical(jpd: JointPhotonDistribution,
                           cfg_a: DetectorConfig,
                           cfg_b: DetectorConfig,
                           shots: int,
                           seed: int) -> CountMatrix:
    """Brute-force stochastic detector model, vectorised over shots.

    Independent oracle for the analytic kernel: photons are thinned by the
    efficiency, placed uniformly into bins, and bins dark-click independently.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    pflat = jpd.probs.ravel() / jpd.probs.sum()
    rng = np.random.default_rng(seed)
    n_a, n_b = np.divmod(rng.choice(pflat.size, size=shots, p=pflat),
                         jpd.probs.shape[1])

    def arm_clicks(n, cfg):
        detected = rng.binomial(n, cfg.efficiency)
        # spread the detected photons uniformly over the bins, then count
        # occupied bins; dark clicks fire independently on every bin
        clicking = rng.multinomial(detected, np.full(cfg.bins, 1.0 / cfg.bins)) > 0
        if cfg.dark_click > 0.0:
            clicking |= rng.random(size=(shots, cfg.bins)) < cfg.dark_click
        return clicking.sum(axis=1)

    a = arm_clicks(n_a, cfg_a)
    b = arm_clicks(n_b, cfg_b)
    joint = np.ravel_multi_index((a, b), (cfg_a.bins + 1, cfg_b.bins + 1))
    counts = np.bincount(joint, minlength=(cfg_a.bins + 1) * (cfg_b.bins + 1))
    return CountMatrix(counts.reshape(cfg_a.bins + 1, cfg_b.bins + 1))
