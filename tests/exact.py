"""Exact click distributions of the test states.

This is the one test module that builds exact distributions through the
photon path, ``joint_click_distribution(build_photon_distribution(spec),
cfg_a, cfg_b)``. Tests that only need an exact distribution take it from
here; tests of the photon path itself name it directly.
"""
import numpy as np

import clickstats as cs


def exact_jcd(state, cfg_a, cfg_b=None):
    """The exact click distribution of ``state``, a ``StateSpec`` or a matrix
    of joint photon-number probabilities, measured by ``cfg_a`` on arm A and
    ``cfg_b`` (by default ``cfg_a``) on arm B."""
    jpd = (cs.build_photon_distribution(state) if isinstance(state, cs.StateSpec)
           else cs.JointPhotonDistribution(state))
    return cs.joint_click_distribution(jpd, cfg_a, cfg_a if cfg_b is None else cfg_b)


def ideal_split_photon_jcd():
    """A single photon split 50:50, on ideal 8-bin detectors."""
    return exact_jcd(cs.StateSpec.split_photon(2 ** -0.5), cs.DetectorConfig(8, 1.0, 0.0))


def coherent_product_jcd(mean_a=0.6, mean_b=1.1, eta=0.8, nu=0.0):
    return exact_jcd(cs.StateSpec.coherent(mean_a, mean_b), cs.DetectorConfig(8, eta, nu))


def tmsv_jcd(lam2=0.1, eta=0.5, nu=0.0):
    return exact_jcd(cs.StateSpec.tmsv(np.sqrt(lam2)), cs.DetectorConfig(8, eta, nu))


def coherent_mixture(rng, weights, cfg):
    """A classical state: one coherent product per weight, its two means drawn
    from ``rng`` uniform in [0, 2) (arm A first), mixed by ``weights``."""
    probs = np.zeros((cfg.bins + 1, cfg.bins + 1))
    for w in weights:
        spec = cs.StateSpec.coherent(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        probs += w * exact_jcd(spec, cfg).probs
    return cs.JointClickDistribution(probs / probs.sum())
