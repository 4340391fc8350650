"""Simulation and nonclassicality analysis of two-mode click-counting data."""

from .model import (ClickStatsError, CountMatrix, CriteriaReport, DetectorConfig,
                    Estimate, JointClickDistribution, JointPhotonDistribution,
                    UndefinedStatisticError, ValidationError, Verdict, normalize)
from .simulator import (StateSpec, build_photon_distribution,
                        joint_click_distribution, sample_counts)
from .criteria import evaluate_all, moment_matrix, statistic
from .uncertainty import BootstrapConfig, bootstrap

__all__ = [
    "ClickStatsError", "ValidationError", "UndefinedStatisticError",
    "DetectorConfig", "JointPhotonDistribution", "JointClickDistribution",
    "CountMatrix", "CriteriaReport", "Estimate", "Verdict",
    "normalize",
    "StateSpec", "build_photon_distribution",
    "joint_click_distribution", "sample_counts",
    "statistic", "moment_matrix", "evaluate_all",
    "BootstrapConfig", "bootstrap",
]

__version__ = "0.1.0"
