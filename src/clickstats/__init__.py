"""Simulation and nonclassicality analysis of two-mode click-counting data."""

from .model import (ClickStatsError, CountMatrix, CriteriaReport, DetectorConfig,
                    Estimate, JointClickDistribution, JointPhotonDistribution,
                    UndefinedStatisticError, ValidationError, Verdict, normalize)
from .simulator import (StateSpec, build_photon_distribution,
                        joint_click_distribution, sample_counts)
from .criteria import (binomial_q, conditional_nonclassicality_number,
                       evaluate_all, moment_matrix, statistic)
from .uncertainty import BootstrapConfig, bootstrap

__all__ = [
    "ClickStatsError", "ValidationError", "UndefinedStatisticError",
    "DetectorConfig", "JointPhotonDistribution", "JointClickDistribution",
    "CountMatrix", "CriteriaReport", "Estimate", "Verdict",
    "normalize",
    "StateSpec", "build_photon_distribution",
    "joint_click_distribution", "sample_counts",
    "statistic", "binomial_q", "moment_matrix",
    "conditional_nonclassicality_number", "evaluate_all",
    "BootstrapConfig", "bootstrap",
]

__version__ = "0.1.0"
