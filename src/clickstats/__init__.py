"""Simulation and nonclassicality analysis of two-mode click-counting data."""

from .model import (ClickStatsError, CountMatrix, CriteriaReport, DetectorConfig,
                    Estimate, JointClickDistribution, JointPhotonDistribution,
                    UndefinedStatisticError, ValidationError, Verdict, normalize,
                    validate_distribution)
from .simulator import (StateSpec, build_photon_distribution, fock_click_kernel,
                        joint_click_distribution, sample_counts,
                        sample_counts_physical)
from .criteria import (binomial_q, conditional_nonclassicality_number,
                       evaluate_all, kappa, kappa_cl_max, min_eigenvalue,
                       moment_matrix, pearson, pearson_cl_max)
from .uncertainty import BootstrapConfig, bootstrap

__all__ = [
    "ClickStatsError", "ValidationError", "UndefinedStatisticError",
    "DetectorConfig", "JointPhotonDistribution", "JointClickDistribution",
    "CountMatrix", "CriteriaReport", "Estimate", "Verdict",
    "normalize", "validate_distribution",
    "StateSpec", "build_photon_distribution", "fock_click_kernel",
    "joint_click_distribution", "sample_counts", "sample_counts_physical",
    "binomial_q", "kappa", "kappa_cl_max", "pearson", "pearson_cl_max",
    "moment_matrix", "min_eigenvalue", "conditional_nonclassicality_number",
    "evaluate_all",
    "BootstrapConfig", "bootstrap",
]

__version__ = "0.1.0"
