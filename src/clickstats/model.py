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
# float64 moment-matrix stack on the R populated rows, with k the most
# replicates that fit in uncertainty.CHUNK_BYTES (4 MiB), and at least 1. So
# the stack holds at most 4 MiB or one full-grid replicate, 8 (N+1)(N/2+1)^2
# bytes: 4.4 MB at 128 bins, 34 MB at 256.
MAX_BINS = 128
INT64_MAX = np.iinfo(np.int64).max


class ClickStatsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ClickStatsError):
    """Input data violates a structural invariant (shape, sign, normalization)."""


class UndefinedStatisticError(ClickStatsError):
    """A statistic is undefined for the given data (degenerate marginal,
    unsupported condition, zero variance)."""


def _json_number(x):
    """JSON has no NaN or Infinity: a non-finite float is written as null."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _typed(d: dict, key: str, *kinds: type):
    """``d[key]`` if its type is one of ``kinds`` exactly (a bool is no int),
    else TypeError; an int comes back as a float where float is allowed."""
    value = d[key]
    if type(value) not in kinds:
        raise TypeError(f"{key} must be {' or '.join(k.__name__ for k in kinds)}, "
                        f"got {type(value).__name__}")
    return float(value) if type(value) is int and float in kinds else value


def as_int(name: str, value) -> int:
    """``value`` as a Python int if it is an int or a numpy integer (a bool is
    no integer), else ValidationError: a float would be truncated or fail later."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """``value`` as a Python float if it is an int or a float, Python's or numpy's
    (a bool is neither), else ValidationError; an int past the float range is ±inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    out = np.array(arr, dtype=dtype, order="C")  # a copy: the caller's array stays as it was
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
        object.__setattr__(self, "bins", as_int("bins", self.bins))
        for name in ("efficiency", "dark_click"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
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

    @classmethod
    def undefined(cls) -> "Estimate":
        return cls(value=float("nan"), stderr=None, defined=False)


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of one nonclassicality test.

    ``violated`` is None when the underlying statistic was undefined
    (test undetermined rather than failed).
    """

    violated: bool | None
    significance_sigmas: float | None = None


# The schema-v1 report layout, which CriteriaReport.to_dict and from_dict walk
_NUMBER = (int, float, NoneType)
_OBJECT_KEYS = {Estimate: {"value": _NUMBER, "stderr": _NUMBER, "defined": (bool,)},
                Verdict: {"violated": (bool, NoneType), "significance_sigmas": _NUMBER}}
_PROVENANCE_KEYS = {  # each provenance key: the field it holds, its JSON types
    "bins_a": ("bins_a", (int,)),
    "bins_b": ("bins_b", (int,)),
    "shots": ("total_shots", (int, NoneType)),
    "bootstrap_replicates": ("bootstrap_replicates", (int, NoneType)),
    "seed": ("seed", (int, NoneType)),
    "threshold": ("threshold", (int, float)),
    "moment_warning": (None, (bool,)),  # false in v1: moments lie in [0, 1]
    "condition_counts": ("condition_counts", (list,)),
    "parameters": ("parameters", (dict,)),
}


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
        for name in self.STAT_FIELDS + self.VERDICT_FIELDS:
            obj = getattr(self, name)
            out[name] = {key: _json_number(getattr(obj, key))
                         for key in _OBJECT_KEYS[type(obj)]}
        out["provenance"] = {key: False if name is None else getattr(self, name)
                             for key, (name, _) in _PROVENANCE_KEYS.items()}
        out["provenance"]["condition_counts"] = list(self.condition_counts)
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
            fields = {name: _typed(prov, key, *kinds)
                      for key, (name, kinds) in _PROVENANCE_KEYS.items() if name}
            if any(type(n) is not int for n in fields["condition_counts"]):
                raise TypeError("condition_counts must hold ints")
            fields["condition_counts"] = tuple(fields["condition_counts"])
            fields["label"] = _typed(d, "label", str)
            for name in cls.STAT_FIELDS + cls.VERDICT_FIELDS:
                kind = Estimate if name in cls.STAT_FIELDS else Verdict
                obj = _typed(d, name, dict)
                values = {key: _typed(obj, key, *kinds)
                          for key, kinds in _OBJECT_KEYS[kind].items()}
                if kind is Estimate and values["value"] is None:
                    values["value"] = math.nan  # an undefined estimate
                fields[name] = kind(**values)
            return cls(**fields)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(f"malformed report: {exc!r}") from exc
