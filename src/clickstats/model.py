"""Domain types shared by the simulator, statistics, and criteria layers.

All types are immutable after construction and validate their invariants in
``__post_init__``; downstream code can assume a valid object everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import NoneType

import numpy as np

NORMALIZATION_TOL = 1e-9
# Largest bin count per arm. A bootstrap chunk gathers a (k, R, N/2+1, N/2+1)
# moment-matrix stack on the R populated rows, with k = 64 (N+1) // R, so
# k R <= 64 (N+1) bounds it at the full grid's: 279 MB at 128 bins, 2.2 GB
# at 256.
MAX_BINS = 128
INT64_MAX = np.iinfo(np.int64).max


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


def _typed(d: dict, key: str, *kinds: type):
    """``d[key]`` if its type is one of ``kinds`` exactly (a bool is no int),
    else TypeError; an int comes back as a float where float is allowed."""
    value = d[key]
    if type(value) not in kinds:
        raise TypeError(f"{key} must be {' or '.join(k.__name__ for k in kinds)}, "
                        f"got {type(value).__name__}")
    return float(value) if type(value) is int and float in kinds else value


def _check_matrix(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 2 or not all(3 <= size <= MAX_BINS + 1 for size in arr.shape):
        raise ValidationError(f"{what} must be a 2-d matrix with bins in "
                              f"[2, {MAX_BINS}] on both arms, got shape {arr.shape}")


def _check_distribution(probs: np.ndarray, what: str) -> None:
    """Non-negative entries summing to 1; NaN and infinities fail both tests."""
    if np.any(probs < 0):
        raise ValidationError(f"negative probability in {what} distribution")
    total = probs.sum()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise ValidationError(f"{what} distribution not normalized: sum={total!r}")


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
        _check_distribution(probs, "photon")
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
        _check_distribution(probs, "click")
        object.__setattr__(self, "probs", _as_readonly(probs, float))

    @property
    def bins_a(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def bins_b(self) -> int:
        return self.probs.shape[1] - 1


@dataclass(frozen=True)
class CountMatrix:
    """Raw coincidence counts C(a, b) and their ``total``, in [1, 2^63 - 1]."""

    counts: np.ndarray
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        _check_matrix(counts, "counts")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"counts must be an integer array, got {counts.dtype}")
        if np.any(counts < 0):
            raise ValidationError("negative count")
        # summed in Python ints, before the int64 cast: an int64 sum and the
        # cast of a uint64 cell wrap silently; no cell exceeds the total
        object.__setattr__(self, "total", sum(counts.ravel().tolist()))
        if self.total == 0:
            raise ValidationError("empty dataset: total count is zero")
        if self.total > INT64_MAX:
            raise ValidationError(f"total count {self.total} exceeds 2^63 - 1")
        object.__setattr__(self, "counts", _as_readonly(counts, np.int64))

    @property
    def bins_a(self) -> int:
        return self.counts.shape[0] - 1

    @property
    def bins_b(self) -> int:
        return self.counts.shape[1] - 1


def normalize(counts: CountMatrix) -> JointClickDistribution:
    """Normalize raw counts to the joint click probabilities C(a,b)/M."""
    return JointClickDistribution(counts.counts / counts.total)


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
        value = _typed(d, "value", int, float, NoneType)
        return cls(value=math.nan if value is None else value,
                   stderr=_typed(d, "stderr", int, float, NoneType),
                   defined=_typed(d, "defined", bool))


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
        return cls(violated=_typed(d, "violated", bool, NoneType),
                   significance_sigmas=_typed(d, "significance_sigmas",
                                              int, float, NoneType))


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
            # a schema v1 key: conditional moments always lie in [0, 1]
            "moment_warning": False,
            "condition_counts": list(self.condition_counts),
            "parameters": self.parameters,
        }
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CriteriaReport":
        if not isinstance(d, dict):
            raise ValidationError("report must be a JSON object")
        if type(d.get("schema_version")) is not int or d["schema_version"] != 1:
            raise ValidationError(
                f"unsupported report schema version: {d.get('schema_version')!r}")
        try:
            prov = _typed(d, "provenance", dict)
            if any(type(n) is not int for n in _typed(prov, "condition_counts", list)):
                raise TypeError("condition_counts must hold ints")
            return cls(
                bins_a=_typed(prov, "bins_a", int),
                bins_b=_typed(prov, "bins_b", int),
                total_shots=_typed(prov, "shots", int, NoneType),
                bootstrap_replicates=_typed(prov, "bootstrap_replicates", int, NoneType),
                seed=_typed(prov, "seed", int, NoneType),
                threshold=_typed(prov, "threshold", int, float),
                label=_typed(d, "label", str),
                condition_counts=tuple(prov["condition_counts"]),
                parameters=_typed(prov, "parameters", dict),
                **{name: Estimate.from_dict(_typed(d, name, dict))
                   for name in cls.STAT_FIELDS},
                **{name: Verdict.from_dict(_typed(d, name, dict))
                   for name in cls.VERDICT_FIELDS},
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(f"malformed report: {exc!r}") from exc
