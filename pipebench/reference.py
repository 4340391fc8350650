"""Reference computations for the pipeline benchmark, made apart from clickstats.

Nothing here imports the package. Photon distributions are written in closed
form, the click kernel is a positive-term occupancy chain, the statistics
follow their definitions (moment-matrix eigenvalues from LAPACK through
``np.linalg.eigvalsh``), and the bootstrap replays the random stream that
``clickstats.uncertainty.bootstrap`` documents, scoring all replicates at once.
"""
import math

import numpy as np

# Photon distributions are truncated as clickstats specifies for
# build_photon_distribution: the discarded tail carries less than this mass and
# the rest is renormalised. Far click rows hold mass of this order, and the
# moment-matrix minimum reads them, so the reference keeps the same state.
TAIL_MASS = 1e-12

STATISTICS = ("summed_click_mean", "q_a", "q_b", "kappa", "kappa_cl_max",
              "kappa_margin", "gamma", "gamma_cl_max", "gamma_margin", "frak_n")
REPORTED = ("summed_click_mean", "q_a", "q_b", "kappa", "kappa_cl_max",
            "gamma", "gamma_cl_max", "frak_n")
# verdict name -> (statistic whose bootstrap error scales it, sign of margin)
VERDICTS = {"kappa_test": ("kappa_margin", 1.0),
            "gamma_test": ("gamma_margin", 1.0),
            "frak_n_test": ("frak_n", -1.0)}
MAX_DROP_FRACTION = 0.5
# the occupancy chain against the closed form of coherent light
KERNEL_TOL = 1e-13


def poisson(mean):
    """Poisson pmf, cut where the tail mass falls to TAIL_MASS, renormalised."""
    if mean == 0.0:
        return np.array([1.0])
    terms = [math.exp(-mean)]
    while 1.0 - sum(terms) > TAIL_MASS:
        n = len(terms)
        terms.append(math.exp(n * math.log(mean) - mean - math.lgamma(n + 1)))
    p = np.array(terms)
    return p / p.sum()


def photon_distribution(state):
    """Joint photon-number distribution p(n_A, n_B) of a state tuple:
    ("coherent", mean_a, mean_b), ("tmsv", lambda^2) or ("split", t^2)."""
    kind = state[0]
    if kind == "coherent":
        return np.outer(poisson(state[1]), poisson(state[2]))
    if kind == "tmsv":
        lam2 = state[1]
        # tail beyond n_max is lam2^(n_max + 1)
        n_max = max(1, math.ceil(math.log(TAIL_MASS) / math.log(lam2)))
        weights = (1.0 - lam2) * lam2 ** np.arange(n_max + 1)
        return np.diag(weights / weights.sum())
    if kind == "split":
        t2 = state[1]
        return np.array([[0.0, 1.0 - t2], [t2, 0.0]])
    raise ValueError(f"unknown state {state!r}")


def occupancy_kernel(n_max, bins, eta, nu):
    """K[n, a]: probability of a clicks from n photons, n = 0..n_max.

    Each photon is detected with probability eta and lands in an empty bin
    with probability (N - k)/N when k bins are occupied; every empty bin then
    dark-clicks with probability nu. All terms are non-negative.
    """
    k = np.arange(bins + 1)
    step = eta * (bins - k) / bins
    occupied = np.zeros((n_max + 1, bins + 1))
    state = np.zeros(bins + 1)
    state[0] = 1.0
    for n in range(n_max + 1):
        occupied[n] = state
        nxt = state * (1.0 - step)
        nxt[1:] += state[:-1] * step[:-1]
        state = nxt
    dark = np.zeros((bins + 1, bins + 1))
    for occ in range(bins + 1):
        for a in range(occ, bins + 1):
            dark[occ, a] = (math.comb(bins - occ, a - occ) * nu ** (a - occ)
                            * (1.0 - nu) ** (bins - a))
    return occupied @ dark


def coherent_marginal(mean, bins, eta, nu):
    """Binomial click distribution of a coherent state with the given mean."""
    p = 1.0 - (1.0 - nu) * math.exp(-eta * mean / bins)
    return np.array([math.comb(bins, a) * p ** a * (1.0 - p) ** (bins - a)
                     for a in range(bins + 1)])


def chain_closed_form_error(bins, eta=0.5, nu=1e-4, mean=0.5):
    """Largest difference between the occupancy chain averaged over a Poisson
    photon number and the binomial closed form of coherent light."""
    n = np.arange(80)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    poisson_pmf = np.exp(n * math.log(mean) - mean - log_fact)
    chain = poisson_pmf @ occupancy_kernel(n[-1], bins, eta, nu)
    return float(np.abs(chain - coherent_marginal(mean, bins, eta, nu)).max())


def joint_clicks(state, bins, eta, nu):
    """Exact joint click distribution, both arms with the same detector."""
    p = photon_distribution(state)
    kernel = occupancy_kernel(max(p.shape) - 1, bins, eta, nu)
    return kernel[:p.shape[0]].T @ p @ kernel[:p.shape[1]]


def moment_weights(bins, m_max):
    """W[m, b] = C(b, m) / C(N, m)."""
    return np.array([[math.comb(b, m) / math.comb(bins, m) for b in range(bins + 1)]
                     for m in range(m_max + 1)])


def statistics(c):
    """Every statistic of a stack of joint click distributions.

    ``c`` has shape (..., N_A+1, N_B+1); each result has shape (...). A value
    is NaN where the statistic is undefined (degenerate marginal, zero
    variance, no supported condition).
    """
    c = np.asarray(c, dtype=float)
    na, nb = c.shape[-2] - 1, c.shape[-1] - 1
    a = np.arange(na + 1.0)
    b = np.arange(nb + 1.0)
    ca, cb = c.sum(axis=-1), c.sum(axis=-2)
    ea, eb = ca @ a, cb @ b
    va = ((a - ea[..., None]) ** 2 * ca).sum(axis=-1)
    vb = ((b - eb[..., None]) ** 2 * cb).sum(axis=-1)
    nan = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        q_a = np.where((ea > 0) & (ea < na), na * va / (ea * (na - ea)) - 1.0, nan)
        q_b = np.where((eb > 0) & (eb < nb), nb * vb / (eb * (nb - eb)) - 1.0, nan)
        e_ab = np.einsum("...ij,i,j->...", c, a, b)
        gamma = np.where((va > 0) & (vb > 0), (e_ab - ea * eb) / np.sqrt(va * vb), nan)
        denom = (na - 1) * (nb - 1) * (q_a + 1.0) * (q_b + 1.0)
        gamma_cl_max = np.where(denom != 0.0,
                                np.sqrt(np.abs(na * nb * q_a * q_b / denom)), nan)

        supported = ca > 0.0
        cond = np.where(supported[..., None], c / ca[..., None], 0.0)
        e = cond @ b
        v = ((b - e[..., None]) ** 2 * cond).sum(axis=-1)
        kappa = np.where(vb > 0, 1.0 - (ca * v).sum(axis=-1) / vb, nan)
        kappa_cl_max = np.where(vb > 0, 1.0 - (ca * e * (nb - e)).sum(axis=-1)
                                / (nb * vb), nan)

        half = nb // 2
        moments = cond @ moment_weights(nb, 2 * half).T
        hankel = np.add.outer(np.arange(half + 1), np.arange(half + 1))
        smallest = np.linalg.eigvalsh(moments[..., hankel])[..., 0]
        smallest = np.where(supported, smallest, np.inf).min(axis=-1)
        frak_n = np.where(supported.any(axis=-1), smallest, nan)
    return {"summed_click_mean": ea + eb, "q_a": q_a, "q_b": q_b,
            "kappa": kappa, "kappa_cl_max": kappa_cl_max,
            "kappa_margin": kappa - kappa_cl_max,
            "gamma": gamma, "gamma_cl_max": gamma_cl_max,
            "gamma_margin": np.abs(gamma) - gamma_cl_max, "frak_n": frak_n}


def verdict_margin(stats, verdict):
    """The margin a verdict tests (positive means the bound is violated)."""
    name, sign = VERDICTS[verdict]
    return sign * stats[name]


def bootstrap_replicates(counts, replicates, seed):
    """Replicate distributions, drawn as clickstats.uncertainty.bootstrap
    documents: one generator per SeedSequence(seed).spawn child, one
    multinomial draw of the full shot count each."""
    total = int(counts.sum())
    pflat = counts.ravel() / total
    draws = np.stack([np.random.default_rng(child).multinomial(total, pflat)
                      for child in np.random.SeedSequence(seed).spawn(replicates)])
    return draws.reshape(replicates, *counts.shape) / total


def bootstrap_stderr(counts, replicates, seed):
    """name -> (standard error or None when undefined, drop fraction)."""
    out = {}
    for name, values in statistics(bootstrap_replicates(counts, replicates, seed)).items():
        kept = values[~np.isnan(values)]
        drop = 1.0 - kept.size / replicates
        if drop > MAX_DROP_FRACTION or kept.size < 2:
            out[name] = (None, drop)
        else:
            out[name] = (float(np.std(kept, ddof=1)), drop)
    return out


def parse_counts(text):
    """Parse a counts CSV: '# bins_a=<NA> bins_b=<NB>' and NA+1 integer rows."""
    lines = text.split("\n")
    fields = dict(tok.split("=") for tok in lines[0].lstrip("#").split())
    rows = [[int(v) for v in line.split(",")] for line in lines[1:] if line]
    counts = np.array(rows, dtype=np.int64)
    if counts.shape != (int(fields["bins_a"]) + 1, int(fields["bins_b"]) + 1):
        raise ValueError(f"counts shape {counts.shape} disagrees with the header")
    return counts
