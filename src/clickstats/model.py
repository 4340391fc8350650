"""Domain types shared by the simulator, statistics, and criteria layers.

All types are immutable after construction and validate their invariants in
``__post_init__``; downstream code can assume a valid object everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-9
# Largest bin count per arm. The statistics gather a (64, N+1, N/2+1, N/2+1)
# moment-matrix stack per bootstrap chunk: 279 MB at 128 bins, 2.2 GB at 256.
MAX_BINS = 128


class ClickStatsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClickStatsError):
    """Input data violates a structural invariant (shape, sign, normalization)."""


class UndefinedStatisticError(ClickStatsError):
    """A statistic is undefined for the given data (degenerate marginal,
    unsupported condition, zero variance)."""


def _json_number(x: float | None) -> float | None:
    """JSON has no NaN or Infinity: non-finite numbers are written as null."""
    return x if x is None or math.isfinite(x) else None


def _check_matrix(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 2 or not all(3 <= size <= MAX_BINS + 1 for size in arr.shape):
        raise ValidationError(f"{what} must be a 2-d matrix with bins in "
                              f"[2, {MAX_BINS}] on both arms, got shape {arr.shape}")


def _as_readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DetectorConfig:
    """One arm of the measurement: N on-off bins with uniform splitting.

    ``efficiency`` is the per-photon detection probability and ``dark_click``
    the probability that a single bin clicks with no photon present.
    """

    bins: int
    efficiency: float = 1.0
    dark_click: float = 0.0

    def __post_init__(self) -> None:
        if not 2 <= self.bins <= MAX_BINS:
            raise ValidationError(f"bins must be in [2, {MAX_BINS}], got {self.bins}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_click < 1.0:
            raise ValidationError(f"dark_click must be in [0, 1), got {self.dark_click}")


@dataclass(frozen=True)
class JointPhotonDistribution:
    """Truncated joint photon-number probabilities p(n_A, n_B).

    Only the photon-number content of the state is kept: the on-off detection
    model is diagonal in photon number, so coherences never reach the click
    statistics.
    """

    probs: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValidationError("photon probabilities must be a 2-d matrix")
        if np.any(probs < 0):
            raise ValidationError("negative probability in photon distribution")
        total = probs.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"photon distribution not normalized: sum={total!r}")
        object.__setattr__(self, "probs", _as_readonly(probs, float))

    @property
    def max_a(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def max_b(self) -> int:
        return self.probs.shape[1] - 1


@dataclass(frozen=True)
class JointClickDistribution:
    """Joint click probabilities c(a, b), a = 0..N_A, b = 0..N_B."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        _check_matrix(probs, "click probabilities")
        object.__setattr__(self, "probs", _as_readonly(probs, float))
        validate_distribution(self)

    @property
    def bins_a(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def bins_b(self) -> int:
        return self.probs.shape[1] - 1


@dataclass(frozen=True)
class CountMatrix:
    """Raw coincidence counts C(a, b) from a finite number of shots."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        _check_matrix(counts, "counts")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValidationError("counts must be integers")
        if np.any(counts < 0):
            raise ValidationError("negative count")
        object.__setattr__(self, "counts", _as_readonly(counts, np.int64))

    @property
    def bins_a(self) -> int:
        return self.counts.shape[0] - 1

    @property
    def bins_b(self) -> int:
        return self.counts.shape[1] - 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def normalize(counts: CountMatrix) -> JointClickDistribution:
    """Normalize raw counts to the joint click probabilities C(a,b)/M."""
    total = counts.total
    if total < 1:
        raise ValidationError("empty dataset: total count is zero")
    return JointClickDistribution(counts.counts / total)


def validate_distribution(d: JointClickDistribution) -> None:
    """Check non-negativity and unit normalization of a click distribution."""
    probs = np.asarray(d.probs, dtype=float)
    if np.any(probs < 0):
        raise ValidationError("negative probability in click distribution")
    total = probs.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"click distribution not normalized: sum={total!r}")


@dataclass(frozen=True, slots=True)
class Estimate:
    """A reported statistic: point value, bootstrap standard error, validity flag."""

    value: float
    stderr: float | None = None
    defined: bool = True

    def to_dict(self) -> dict:
        return {"value": _json_number(self.value),
                "stderr": _json_number(self.stderr), "defined": self.defined}

    @classmethod
    def undefined(cls) -> "Estimate":
        return cls(value=float("nan"), stderr=None, defined=False)

    @classmethod
    def from_dict(cls, d: dict) -> "Estimate":
        value = d["value"]
        return cls(value=float("nan") if value is None else float(value),
                   stderr=d.get("stderr"), defined=bool(d.get("defined", True)))


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one nonclassicality test.

    ``violated`` is None when the underlying statistic was undefined
    (test undetermined rather than failed).
    """

    violated: bool | None
    significance_sigmas: float | None = None

    def to_dict(self) -> dict:
        return {"violated": self.violated,
                "significance_sigmas": _json_number(self.significance_sigmas)}

    @classmethod
    def from_dict(cls, d: dict) -> "Verdict":
        return cls(violated=d["violated"],
                   significance_sigmas=d.get("significance_sigmas"))


@dataclass(frozen=True, slots=True)
class CriteriaReport:
    """Every statistic, classical bound, and verdict for one dataset."""

    summed_click_mean: Estimate
    q_a: Estimate
    q_b: Estimate
    kappa: Estimate
    kappa_cl_max: Estimate
    gamma: Estimate
    gamma_cl_max: Estimate
    frak_n: Estimate
    kappa_test: Verdict
    gamma_test: Verdict
    frak_n_test: Verdict
    bins_a: int
    bins_b: int
    total_shots: int | None = None
    bootstrap_replicates: int | None = None
    seed: int | None = None
    threshold: float = 3.0
    label: str = ""
    moment_warning: bool = False
    condition_counts: tuple = ()
    parameters: dict = field(default_factory=dict)

    STAT_FIELDS = ("summed_click_mean", "q_a", "q_b", "kappa", "kappa_cl_max",
                   "gamma", "gamma_cl_max", "frak_n")
    VERDICT_FIELDS = ("kappa_test", "gamma_test", "frak_n_test")

    def to_dict(self) -> dict:
        out: dict = {"schema_version": 1, "label": self.label}
        for name in self.STAT_FIELDS:
            out[name] = getattr(self, name).to_dict()
        for name in self.VERDICT_FIELDS:
            out[name] = getattr(self, name).to_dict()
        out["provenance"] = {
            "bins_a": self.bins_a,
            "bins_b": self.bins_b,
            "shots": self.total_shots,
            "bootstrap_replicates": self.bootstrap_replicates,
            "seed": self.seed,
            "threshold": self.threshold,
            "moment_warning": self.moment_warning,
            "condition_counts": list(self.condition_counts),
            "parameters": self.parameters,
        }
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CriteriaReport":
        if d.get("schema_version") != 1:
            raise ValidationError(
                f"unsupported report schema version: {d.get('schema_version')!r}")
        prov = d.get("provenance", {})
        kwargs = {name: Estimate.from_dict(d[name]) for name in cls.STAT_FIELDS}
        kwargs.update({name: Verdict.from_dict(d[name]) for name in cls.VERDICT_FIELDS})
        return cls(
            bins_a=prov["bins_a"],
            bins_b=prov["bins_b"],
            total_shots=prov.get("shots"),
            bootstrap_replicates=prov.get("bootstrap_replicates"),
            seed=prov.get("seed"),
            threshold=prov.get("threshold", 3.0),
            label=d.get("label", ""),
            moment_warning=prov.get("moment_warning", False),
            condition_counts=tuple(prov.get("condition_counts", ())),
            parameters=prov.get("parameters", {}),
            **kwargs,
        )
