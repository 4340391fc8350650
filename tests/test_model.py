import dataclasses
import json
import math
import re

import numpy as np
import pytest

import clickstats as cs
from clickstats.model import MAX_BINS, ValidationError
from clickstats.uncertainty import BootstrapStat

from exact import exact_jcd, ideal_split_photon_jcd, tmsv_jcd


def test_detector_config_validation():
    cs.DetectorConfig(bins=2)
    with pytest.raises(ValidationError):
        cs.DetectorConfig(bins=1)
    with pytest.raises(ValidationError):
        cs.DetectorConfig(bins=8, efficiency=1.2)
    with pytest.raises(ValidationError):
        cs.DetectorConfig(bins=8, dark_click=1.0)
    # a float or bool bin count is no integer; a numpy integer is one
    for bins in (8.0, True, np.float64(8)):
        message = re.escape(f"bins must be an integer, got {bins!r}")
        with pytest.raises(ValidationError, match=message):
            cs.DetectorConfig(bins=bins)
    assert type(cs.DetectorConfig(bins=np.int64(8)).bins) is int
    # a bool, a string or None is no real number; an int or a numpy float is one
    for name, value in (("efficiency", True), ("efficiency", "0.5"), ("dark_click", None)):
        message = re.escape(f"{name} must be a real number, got {value!r}")
        with pytest.raises(ValidationError, match=message):
            cs.DetectorConfig(8, **{name: value})
    cfg = cs.DetectorConfig(8, 1, np.float32(0.5))
    assert (type(cfg.efficiency), type(cfg.dark_click)) == (float, float)


def test_bins_bounded_by_max_bins():
    cs.DetectorConfig(bins=MAX_BINS)
    with pytest.raises(ValidationError):
        cs.DetectorConfig(bins=MAX_BINS + 1)
    with pytest.raises(ValidationError):
        cs.CountMatrix(np.ones((MAX_BINS + 2, 3), dtype=np.int64))
    with pytest.raises(ValidationError):
        cs.JointClickDistribution(np.full((3, MAX_BINS + 2), 1.0 / (3 * (MAX_BINS + 2))))


def test_normalize_rejects_single_bin_matrix():
    with pytest.raises(ValidationError):
        cs.CountMatrix(np.array([[1]]))


def test_normalize_uniform():
    counts = cs.CountMatrix(np.ones((3, 3), dtype=np.int64))
    jcd = cs.normalize(counts)
    assert np.allclose(jcd.probs, 1.0 / 9.0)


def test_normalize_two_point():
    counts = np.zeros((3, 3), dtype=np.int64)
    counts[0, 1] = counts[1, 0] = 500_000
    jcd = cs.normalize(cs.CountMatrix(counts))
    assert jcd.probs[0, 1] == 0.5
    assert jcd.probs[1, 0] == 0.5
    assert jcd.probs.sum() == 1.0


def test_normalize_empty_dataset():
    with pytest.raises(ValidationError, match="empty dataset"):
        cs.normalize(cs.CountMatrix(np.zeros((3, 3), dtype=np.int64)))


def test_normalize_scale_invariant():
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 100, size=(9, 9))
    a = cs.normalize(cs.CountMatrix(counts))
    b = cs.normalize(cs.CountMatrix(counts * 7))
    assert np.array_equal(a.probs, b.probs)


def test_validate_distribution():
    probs = np.full((3, 3), 1.0 / 9.0)
    cs.JointClickDistribution(probs)
    bad = probs.copy()
    bad[0, 0] = -1e-3
    with pytest.raises(ValidationError, match="negative"):
        cs.JointClickDistribution(bad)
    with pytest.raises(ValidationError, match="not normalized"):
        cs.JointClickDistribution(probs * 0.9)
    with pytest.raises(ValidationError, match="photon probabilities must be a 2-d"):
        cs.JointPhotonDistribution(np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distributions_reject_non_finite(bad):
    with pytest.raises(ValidationError, match="not normalized"):
        cs.JointClickDistribution(np.full((3, 3), bad))
    with pytest.raises(ValidationError, match="not normalized"):
        cs.JointPhotonDistribution(np.full((2, 2), bad))
    probs = np.full((3, 3), 1.0 / 8.0)
    probs[1, 1] = bad
    probs[2, 2] = 0.0
    with pytest.raises(ValidationError, match="not normalized"):
        cs.JointClickDistribution(probs)
    with pytest.raises(ValidationError, match="negative"):
        cs.JointPhotonDistribution(-np.full((2, 2), math.inf))


def _cells(dtype, corner):
    counts = np.zeros((3, 3), dtype=dtype)
    counts[0, 0], counts[2, 2] = corner, 1
    return counts


@pytest.mark.parametrize("counts, message", [
    (_cells(float, 1.0), "counts must be an integer array, got float64"),
    # a cast to int64 would turn 1e30 and inf into -2^63
    (_cells(float, 1e30), "counts must be an integer array, got float64"),
    (_cells(float, math.inf), "counts must be an integer array, got float64"),
    (_cells(bool, True), "counts must be an integer array, got bool"),
    (_cells(object, 2**70), "counts must be an integer array, got object"),
    # and 2^63 in a uint64 cell into -2^63
    (_cells(np.uint64, 2**63), "total count 9223372036854775809 exceeds 2^63 - 1"),
], ids=["float", "float-beyond-int64", "float-inf", "bool", "object",
        "uint64-beyond-int64"])
def test_count_matrix_rejects_what_is_no_int64_count(counts, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        cs.CountMatrix(counts)


def test_count_matrix_accepts_every_integer_dtype():
    for dtype in (np.uint8, np.int16, np.int32, np.uint64):
        counts = cs.CountMatrix(_cells(dtype, 7))
        assert counts.counts.dtype == np.int64 and counts.total == 8
    assert cs.CountMatrix(_cells(np.uint64, 2**63 - 2)).total == 2**63 - 1


def test_types_are_immutable():
    jcd = cs.JointClickDistribution(np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValueError):
        jcd.probs[0, 0] = 0.5


@pytest.mark.parametrize("build, data, field", [
    (cs.JointPhotonDistribution, lambda: np.full((3, 3), 1.0 / 9.0), "probs"),
    (cs.JointClickDistribution, lambda: np.full((3, 3), 1.0 / 9.0), "probs"),
    (cs.CountMatrix, lambda: np.ones((3, 3), dtype=np.int64), "counts"),
], ids=["photon", "click", "counts"])
def test_types_copy_the_callers_array(build, data, field):
    # each type holds a read-only copy: the caller's array, given as it is or
    # as a view, stays writable, and a write through either leaves the
    # validated object as it was (sharing it, a distribution read 1.79 summed)
    for as_given in (lambda a: a, lambda a: a[:]):
        array = data()
        view = as_given(array)
        obj = build(view)
        kept = getattr(obj, field).copy()
        array[0, 0] = view[1, 1] = 9
        assert array.flags.writeable and view.flags.writeable
        assert not np.shares_memory(getattr(obj, field), array)
        assert np.array_equal(getattr(obj, field), kept)
        assert not getattr(obj, field).flags.writeable


def test_sampling_l1_convergence_rate():
    # L1 distance between empirical and generating distribution should shrink
    # like M^(-1/2); check the log-log slope over three decades
    jcd = tmsv_jcd(0.1, eta=0.5)
    shots = [10**3, 10**4, 10**5, 10**6]
    l1 = []
    for m in shots:
        dists = []
        for seed in (11, 12, 13, 14):
            emp = cs.normalize(cs.sample_counts(jcd, m, seed))
            dists.append(np.abs(emp.probs - jcd.probs).sum())
        l1.append(np.mean(dists))
    slope = np.polyfit(np.log(shots), np.log(l1), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_report_layout_key_order():
    # the schema-v1 key order, moment_warning included, and the field each
    # provenance key holds
    jcd = exact_jcd(cs.StateSpec.tmsv(0.3), cs.DetectorConfig(4, 0.5, 1e-4))
    report = dataclasses.replace(cs.evaluate_all(jcd), total_shots=1000,
                                 bootstrap_replicates=7, seed=3,
                                 condition_counts=(1, 2, 3, 4, 5), parameters={"a": 1})
    data = report.to_dict()
    assert list(data) == ["schema_version", "label", *cs.CriteriaReport.STAT_FIELDS,
                          *cs.CriteriaReport.VERDICT_FIELDS, "provenance"]
    assert [list(data[name]) for name in cs.CriteriaReport.STAT_FIELDS] == [
        ["value", "stderr", "defined"]] * 8
    assert [list(data[name]) for name in cs.CriteriaReport.VERDICT_FIELDS] == [
        ["violated", "significance_sigmas"]] * 3
    assert list(data["provenance"].items()) == [
        ("bins_a", 4), ("bins_b", 4), ("shots", 1000), ("bootstrap_replicates", 7),
        ("seed", 3), ("threshold", 3.0), ("moment_warning", False),
        ("condition_counts", [1, 2, 3, 4, 5]), ("parameters", {"a": 1})]


def test_report_round_trip():
    # an undefined estimate, an infinite significance, no seed or shots, and
    # nested parameters; the infinite significance is written as null and
    # reads back as None, an undefined value reads back as NaN
    jcd = ideal_split_photon_jcd()
    errors = {"kappa_margin": BootstrapStat(stderr=0.0, drop_fraction=0.0)}
    report = dataclasses.replace(
        cs.evaluate_all(jcd, errors=errors, threshold=2.5),
        q_b=cs.Estimate.undefined(), total_shots=None, bootstrap_replicates=7,
        seed=None, label="sp", condition_counts=(3, 0, 5, 1, 0, 0, 0, 0, 2),
        parameters={"detector": {"eta": [1.0, 0.5], "bins": 8}, "note": None})
    assert report.kappa_test.significance_sigmas == math.inf
    again = cs.CriteriaReport.from_dict(json.loads(json.dumps(report.to_dict())))
    expected = dataclasses.replace(report, kappa_test=cs.Verdict(violated=True))
    for f in dataclasses.fields(report):
        assert repr(getattr(again, f.name)) == repr(getattr(expected, f.name)), f.name
    assert type(again.condition_counts) is tuple
    assert math.isnan(again.q_b.value) and again.q_b.defined is False


def test_report_dict_is_strict_json():
    # a violation with zero bootstrap error has infinite significance, and an
    # undefined statistic has no value; JSON has neither Infinity nor NaN
    jcd = ideal_split_photon_jcd()
    errors = {"kappa_margin": BootstrapStat(stderr=0.0, drop_fraction=0.0)}
    report = cs.evaluate_all(jcd, errors=errors)
    assert report.kappa_test.significance_sigmas == math.inf
    undefined = dataclasses.replace(report, q_a=cs.Estimate.undefined())
    data = undefined.to_dict()
    assert data["kappa_test"] == {"violated": True, "significance_sigmas": None}
    assert data["q_a"]["value"] is None
    json.dumps(data, allow_nan=False)
    again = cs.CriteriaReport.from_dict(data)
    assert math.isnan(again.q_a.value) and again.q_a.defined is False
