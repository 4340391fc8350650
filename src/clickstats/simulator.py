"""Exact click distributions for the standard state families, and the
finite-shot sampler.

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

from .model import (INT64_MAX, CountMatrix, DetectorConfig, JointClickDistribution,
                    JointPhotonDistribution, ValidationError, as_int, as_real)

TAIL_MASS = 1e-12
# Largest coherent mean photon number: exp(-mean), the vacuum weight the
# Poisson series starts from, stays a normal double (it turns subnormal near
# 708 and underflows to 0 near 745, where the series never reaches its tail).
MAX_COHERENT_MEAN = 700.0
# Largest TMSV photon cut: the photon matrix is dense, (cut+1)^2 doubles, which
# is 134 MB at the bound. lambda^2 = 0.99 cuts at 2750; above about 0.99328 the
# cut exceeds the bound and the state is rejected before anything is allocated.
MAX_TMSV_CUT = 4096


@dataclass(frozen=True)
class StateSpec:
    """Parameterization of a two-mode input state.

    variant is one of "coherent", "tmsv", "split_photon"; each checks its own
    parameters on construction.
    """

    variant: str
    mean_a: float = 0.0
    mean_b: float = 0.0
    squeezing: float = 0.0   # lambda for tmsv, in (0, 1)
    splitting: float = 0.0   # t for split_photon, in (0, 1)

    def __post_init__(self) -> None:
        for name in ("mean_a", "mean_b", "squeezing", "splitting"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.variant == "coherent":
            if not all(0.0 <= m <= MAX_COHERENT_MEAN for m in (self.mean_a, self.mean_b)):
                raise ValidationError(
                    f"coherent mean photon numbers must be finite and in [0, "
                    f"{MAX_COHERENT_MEAN}], got {self.mean_a}, {self.mean_b}")
        elif self.variant == "tmsv":
            if not 0.0 < self.squeezing < 1.0:
                raise ValidationError(
                    f"tmsv squeezing must be in (0, 1), got {self.squeezing}")
            if (cut := _tmsv_cut(self.squeezing)) > MAX_TMSV_CUT:
                raise ValidationError(
                    f"tmsv photon cut {cut} exceeds {MAX_TMSV_CUT}: "
                    f"lambda^2 = {self.squeezing ** 2!r} is too close to 1")
        elif self.variant == "split_photon":
            if not 0.0 < self.splitting < 1.0:
                raise ValidationError(
                    f"splitting amplitude must be in (0, 1), got {self.splitting}")
        else:
            raise ValidationError(f"unknown state variant: {self.variant!r}")

    @classmethod
    def coherent(cls, mean_a: float, mean_b: float) -> "StateSpec":
        return cls("coherent", mean_a=mean_a, mean_b=mean_b)

    @classmethod
    def tmsv(cls, lam: float) -> "StateSpec":
        return cls("tmsv", squeezing=lam)

    @classmethod
    def split_photon(cls, t: float) -> "StateSpec":
        return cls("split_photon", splitting=t)


def _tmsv_cut(lam: float) -> int:
    """Largest photon number kept of a TMSV: the geometric tail beyond it,
    lambda^(2 (n_max+1)), is at most TAIL_MASS. lambda^2 underflows to 0 only
    on a state that is vacuum to rounding."""
    lam2 = lam ** 2
    return 1 if lam2 == 0.0 else max(1, math.ceil(math.log(TAIL_MASS) / math.log(lam2)))


def _poisson_truncated(mean: float) -> np.ndarray:
    """Poisson pmf truncated so that the discarded tail mass is < TAIL_MASS."""
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
        weights = (1.0 - lam2) * lam2 ** np.arange(_tmsv_cut(spec.squeezing) + 1)
        probs = np.diag(weights / weights.sum())
        return JointPhotonDistribution(probs, label=f"tmsv({spec.squeezing})")
    t2 = spec.splitting ** 2
    probs = np.zeros((2, 2))
    probs[1, 0] = t2
    probs[0, 1] = 1.0 - t2
    return JointPhotonDistribution(probs, label=f"split_photon({spec.splitting})")


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


def joint_click_distribution(jpd: JointPhotonDistribution,
                             cfg_a: DetectorConfig,
                             cfg_b: DetectorConfig) -> JointClickDistribution:
    """Exact joint click statistics: both arms measured independently,
    c(a,b) = sum_n p(n_A, n_B) K_A(a|n_A) K_B(b|n_B). Every term is
    non-negative and kernel rows sum to 1, so c is normalised to rounding.

    Arms with equal configs (compared by value) read their kernels from one
    chain, run to the larger photon cut and cut to each arm's own: the chain
    is sequential, so a shorter chain's rows are a prefix of a longer one's,
    bit for bit. Distinct configs run one chain each."""
    n_a, n_b = jpd.max_a, jpd.max_b
    if cfg_a == cfg_b:
        k_a = k_b = click_kernel_matrix(max(n_a, n_b), cfg_a)
    else:
        k_a, k_b = click_kernel_matrix(n_a, cfg_a), click_kernel_matrix(n_b, cfg_b)
    return JointClickDistribution(k_a[:n_a + 1].T @ jpd.probs @ k_b[:n_b + 1])


def check_sampling(shots: int, seed: int) -> None:
    """1 to 2^63 - 1 shots (the bounds of CountMatrix.total) and a seed >= 0,
    both integers."""
    shots, seed = as_int("shots", shots), as_int("seed", seed)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if shots > INT64_MAX:
        raise ValidationError(f"shots {shots} exceeds 2^63 - 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def sample_counts(jcd: JointClickDistribution, shots: int, seed: int) -> CountMatrix:
    """Multinomial draw of `shots` outcomes from the exact distribution."""
    check_sampling(shots, seed)
    rng = np.random.default_rng(seed)
    flat = rng.multinomial(shots, jcd.probs.ravel() / jcd.probs.sum())
    return CountMatrix(flat.reshape(jcd.probs.shape))

