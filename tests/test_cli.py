import argparse
import copy
import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import clickstats as cs
from clickstats import cli
from clickstats.cli import (main, read_counts_csv, render_report_table,
                            write_counts_csv)
from clickstats.model import ValidationError

from exact import exact_jcd


def run(args):
    return main([str(a) for a in args])


def simulate_sp(tmp_path, shots=20000, seed=7, eta=0.45):
    counts = tmp_path / "sp.csv"
    code = run(["simulate", "--state", "split-photon", "--t2", 0.5,
                "--eta", eta, "--nu", 1e-4, "--bins", 8,
                "--shots", shots, "--seed", seed,
                "--counts-out", counts, "--exact-out", tmp_path / "sp_exact.csv"])
    assert code == 0
    return counts


def test_simulate_writes_counts_and_sidecar(tmp_path):
    counts_path = simulate_sp(tmp_path)
    counts = read_counts_csv(counts_path)
    assert counts.total == 20000
    assert counts.bins_a == 8 and counts.bins_b == 8
    meta = json.loads((tmp_path / "sp.csv.meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["detector_a"]["eta"] == 0.45


def test_simulate_arm_b_overrides(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["simulate", "--state", "tmsv", "--lambda2", 0.1, "--bins", 8,
                "--eta", 0.5, "--nu", 1e-4, "--bins-b", 4, "--eta-b", 0.9,
                "--nu-b", 1e-3, "--shots", 1000, "--seed", 1, "--counts-out", out])
    assert code == 0
    assert read_counts_csv(out).counts.shape == (9, 5)
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["detector_a"] == {"bins": 8, "eta": 0.5, "nu": 1e-4}
    assert meta["detector_b"] == {"bins": 4, "eta": 0.9, "nu": 1e-3}


def test_simulate_coherent_vacuum(tmp_path):
    out = tmp_path / "vac.csv"
    code = run(["simulate", "--state", "coherent", "--mean-a", 0, "--mean-b", 0,
                "--nu", 0, "--bins", 8, "--shots", 500, "--seed", 1,
                "--counts-out", out])
    assert code == 0
    counts = read_counts_csv(out)
    assert counts.counts[0, 0] == 500


def test_simulate_tmsv_click_window(tmp_path):
    out = tmp_path / "tmsv.csv"
    code = run(["simulate", "--state", "tmsv", "--lambda2", 0.25, "--eta", 0.05,
                "--nu", 1e-4, "--bins", 8, "--shots", 10**5, "--seed", 2,
                "--counts-out", out])
    assert code == 0
    jcd = cs.normalize(read_counts_csv(out))
    ca, cb = jcd.probs.sum(axis=1), jcd.probs.sum(axis=0)
    summed = float(np.arange(9) @ ca + np.arange(9) @ cb)
    assert 0.03 <= summed <= 0.11


def test_counts_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    counts = cs.CountMatrix(rng.integers(0, 50, size=(9, 9)))
    path = tmp_path / "c.csv"
    with open(path, "w") as fh:
        write_counts_csv(fh, counts)
    assert np.array_equal(read_counts_csv(path).counts, counts.counts)


def test_exact_out_round_trip(tmp_path):
    # the exact distribution, in the counts layout, reads back bit for bit
    exact = tmp_path / "exact.csv"
    assert run(["simulate", "--state", "tmsv", "--lambda2", 0.3, "--eta", 0.5,
                "--nu", 1e-4, "--bins", 8, "--bins-b", 4, "--shots", 100, "--seed", 1,
                "--counts-out", tmp_path / "c.csv", "--exact-out", exact]) == 0
    header, *rows = exact.read_text().splitlines()
    assert header == "# bins_a=8 bins_b=4"
    probs = np.array([[float(v) for v in row.split(",")] for row in rows])
    spec = cs.StateSpec.tmsv(float(np.sqrt(0.3)))
    expected = exact_jcd(spec, cs.DetectorConfig(8, 0.5, 1e-4), cs.DetectorConfig(4, 0.5, 1e-4))
    assert probs.tobytes() == expected.probs.tobytes()


def _counts_file(tmp_path):
    path = tmp_path / "c.csv"
    with open(path, "w") as fh:
        write_counts_csv(fh, cs.CountMatrix(np.array([[5, 1, 0], [1, 2, 0], [0, 0, 1]])))
    return path


def _report_file(tmp_path, edit):
    jcd = exact_jcd(cs.StateSpec.tmsv(0.3), cs.DetectorConfig(8, 0.5, 1e-4))
    data = cs.evaluate_all(jcd).to_dict()
    path = tmp_path / "r.json"
    path.write_text(json.dumps(edit(data)))
    return ["report", path]


def _write(path, content):
    """Write ``content``, a str as UTF-8 or bytes as they are, and return the path."""
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def _analyze(tmp_path, *flags):
    return ["analyze", "--counts", _counts_file(tmp_path), *flags,
            "--report-out", tmp_path / "r.json"]


def _sidecar_text(tmp_path, text):
    argv = _analyze(tmp_path, "--replicates", 10, "--seed", 1)
    _write(tmp_path / "c.csv.meta.json", text)
    return argv


def _nested_sidecar(lists):
    """The JSON text of a sidecar {"x": [[...]]} holding ``lists`` nested lists,
    too deep for hypothesis to print as a value."""
    return '{"x": ' + "[" * lists + "]" * lists + "}"


def _counts_text(tmp_path, text):
    return ["analyze", "--counts", _write(tmp_path / "c.csv", text),
            "--report-out", tmp_path / "r.json"]


def _report_literal(tmp_path, path, literal):
    """A valid report with the value at ``path`` written as the JSON text
    ``literal``, such as a number json.dumps cannot produce."""
    argv = _report_file(tmp_path, lambda d: _set(d, path, "<literal>"))
    argv[1].write_text(argv[1].read_text().replace('"<literal>"', literal))
    return argv


def _simulate(tmp_path, *flags):
    return ["simulate", *flags, "--seed", 1, "--counts-out", tmp_path / "c.csv"]


def _report_text(tmp_path, text):
    return ["report", _write(tmp_path / "r.json", text)]


def _without(data, key):
    del data[key]
    return data


def _without_bins_a(data):
    del data["provenance"]["bins_a"]
    return data


def _set(data, path, value):
    _value_at(data, path[:-1])[path[-1]] = value
    return data


_OUTPUT_FLAGS = ("--counts-out", "--exact-out", "--report-out", "--plot-data", "--out")


def _outputs(argv):
    """The files ``argv`` names for the CLI to write, and a sidecar beside each."""
    named = [Path(value) for flag, value in zip(argv, argv[1:]) if flag in _OUTPUT_FLAGS]
    return named + [Path(f"{path}.meta.json") for path in named]


def _files(paths):
    return {path: path.read_bytes() for path in paths if path.is_file()}


def _assert_error(argv, code, message, capsys):
    """README's promise for every error: exit ``code``, a stderr that starts
    with argparse's usage (1) or `error: ` (2), names the cause and holds no
    traceback or temporary's name, and every output path as it was: no new
    file, and an existing one, such as an input named as an output,
    byte-identical."""
    before = _files(_outputs(argv))
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith({1: "usage: ", 2: "error: "}[code]) and message in err
    assert "Traceback" not in err and ".clickstats." not in err
    assert _files(_outputs(argv)) == before


def _must_not_run(name):
    def ran(*args, **kwargs):
        raise AssertionError(f"cli.{name} ran on input that fails a check")
    return ran


def _sidecar_path_is_directory(tmp_path):
    (tmp_path / "c.csv.meta.json").mkdir()
    return _simulate(tmp_path, "--state", "tmsv", "--lambda2", 0.1, "--shots", 100,
                     "--exact-out", tmp_path / "x.csv")


def _counts_out_is_directory(tmp_path):
    # the move onto it, after the work, was the first step to fail
    (tmp_path / "c.csv").mkdir()
    return _simulate(tmp_path, "--state", "tmsv", "--lambda2", 0.1, "--shots", 100)


def _report_out_links_to_counts(tmp_path):
    argv = _analyze(tmp_path, "--replicates", 10, "--seed", 1)
    argv[-1].symlink_to(tmp_path / "c.csv")
    return argv


# Every data error README lists, as {id: (argv builder, message)}; a message
# that holds a row's own path is a function of the test's directory
_DATA_ERRORS = {
    "non-utf8-counts": (lambda p: _counts_text(p, b"# bins_a=2 bins_b=2\n\xff\xfe,0,0\n"
                                                  b"0,0,0\n0,0,1\n"), "not UTF-8"),
    "sidecar-list": (lambda p: _sidecar_text(p, "[1, 2]"), "sidecar must be a JSON object"),
    "report-missing-field": (lambda p: _report_file(p, lambda d: _without(d, "frak_n")),
                             "malformed report"),
    "report-list": (lambda p: _report_file(p, lambda d: [d]), "report must be a JSON object"),
    "provenance-without-bins_a": (lambda p: _report_file(p, _without_bins_a),
                                  "malformed report"),
    "estimate-is-string": (lambda p: _report_file(p, lambda d: {**d, "kappa": "0.5"}),
                           "malformed report"),
    "stderr-is-string": (lambda p: _report_file(
        p, lambda d: {**d, "frak_n": {"value": 1.0, "stderr": "x"}}), "malformed report"),
    "count-beyond-int64": (lambda p: _counts_text(
        p, "# bins_a=2 bins_b=2\n" + "9" * 30 + ",0,0\n0,0,0\n0,0,1\n"),
        "malformed counts row"),
    "report-value-beyond-float": (lambda p: _report_file(
        p, lambda d: {**d, "kappa": {**d["kappa"], "value": 10**400}}), "malformed report"),
    "report-integer-beyond-digit-limit": (lambda p: _report_text(p, "1" * 5000), "not JSON"),
    "report-nested-too-deep": (lambda p: _report_text(p, "[" * 10**5), "not JSON"),
    # five cells of 2^62 wrapped to a sum of 2^62 and read "not normalized"
    "count-sum-beyond-int64": (lambda p: _counts_text(
        p, f"# bins_a=2 bins_b=2\n{2**62},{2**62},0\n{2**62},{2**62},0\n0,0,{2**62}\n"),
        "total count 23058430092136939520 exceeds 2^63 - 1"),
    "negative-count": (lambda p: _counts_text(p, "# bins_a=2 bins_b=2\n1,0,0\n0,-1,0\n0,0,1\n"),
                       "negative count"),
    "zero-shots": (lambda p: _simulate(p, "--state", "coherent", "--mean-a", 0.5, "--shots", 0),
                   "shots must be >= 1"),
    "tmsv-without-lambda2": (lambda p: _simulate(p, "--state", "tmsv", "--shots", 10),
                             "tmsv requires --lambda2"),
    # a string "false" rendered as a violation
    "verdict-is-string": (lambda p: _report_file(
        p, lambda d: _set(d, ("kappa_test", "violated"), "false")),
        "violated must be bool or NoneType, got str"),
    "bins_a-is-string": (lambda p: _report_file(
        p, lambda d: _set(d, ("provenance", "bins_a"), "eight")),
        "bins_a must be int, got str"),
    "seed-is-bool": (lambda p: _report_file(p, lambda d: _set(d, ("provenance", "seed"), True)),
                     "seed must be int or NoneType, got bool"),
    "schema-version-is-bool": (lambda p: _report_file(
        p, lambda d: {**d, "schema_version": True}), "unsupported report schema version: True"),
    "condition-count-is-float": (lambda p: _report_file(
        p, lambda d: _set(d, ("provenance", "condition_counts"), [1.5] * 9)),
        "condition_counts must hold ints"),
    # strict JSON has no NaN or Infinity, and the program never writes them
    "sidecar-seed-is-nan": (lambda p: _sidecar_text(p, '{"seed": NaN}'),
                            "NaN is not strict JSON"),
    "report-threshold-is-nan": (lambda p: _report_file(
        p, lambda d: _set(d, ("provenance", "threshold"), math.nan)), "NaN is not strict JSON"),
    "report-value-is-infinite": (lambda p: _report_file(
        p, lambda d: _set(d, ("kappa", "value"), -math.inf)), "-Infinity is not strict JSON"),
    # a 2.8e14-photon cut died allocating the photon matrix
    "tmsv-cut-beyond-bound": (lambda p: _simulate(p, "--state", "tmsv", "--lambda2",
                                                  "0.9999999999999", "--shots", 10),
                              "photon cut"),
    # rng.multinomial overflowed
    "shots-beyond-int64": (lambda p: _simulate(p, "--state", "coherent", "--mean-a", 0.5,
                                               "--shots", 2**63),
                           "shots 9223372036854775808 exceeds 2^63 - 1"),
    # a number beyond the float range was read as inf: a sidecar's gave a
    # report that `clickstats report` rejects, and a report's rendered as inf
    "sidecar-number-beyond-float": (lambda p: _sidecar_text(p, '{"gain": 1e999}'),
                                    "1e999 is not strict JSON"),
    "report-number-beyond-float": (lambda p: _report_literal(p, ("frak_n", "value"), "1e999"),
                                   "1e999 is not strict JSON"),
    # a label that is not a string was written into a report `clickstats
    # report` rejects
    "sidecar-label-is-int": (lambda p: _sidecar_text(p, '{"label": 5}'),
                             "label, if any, is a string"),
    "sidecar-label-is-list": (lambda p: _sidecar_text(p, '{"label": ["a"]}'),
                              "label, if any, is a string"),
    "sidecar-label-is-object": (lambda p: _sidecar_text(p, '{"label": {"x": 1}}'),
                                "label, if any, is a string"),
    "zero-total-counts": (lambda p: _counts_text(
        p, "# bins_a=2 bins_b=2\n0,0,0\n0,0,0\n0,0,0\n"), "empty dataset: total count is zero"),
    # the report holds the sidecar two levels deeper, where the JSON decoder's
    # recursion limit, which depends on the caller's stack, may reject it
    "sidecar-nested-too-deep": (lambda p: _sidecar_text(
        p, _nested_sidecar(cli.MAX_SIDECAR_DEPTH)),
        f"sidecar nests deeper than {cli.MAX_SIDECAR_DEPTH} arrays and objects"),
    "counts-file-missing": (lambda p: ["analyze", "--counts", p / "c.csv",
                                       "--report-out", p / "r.json"], "No such file or directory"),
    "counts-without-header": (lambda p: _counts_text(p, "1,2\n3,4\n"),
                              "missing '# bins_a=... bins_b=...' header"),
    "counts-shape-mismatch": (lambda p: _counts_text(p, "# bins_a=8 bins_b=8\n1,2,3\n"),
                              "expected 9x9 matrix, got (1, 3)"),
    "simulate-bins-beyond-max": (lambda p: _simulate(p, "--state", "coherent", "--mean-a", 0.5,
                                                     "--bins", 129, "--shots", 10), "[2, 128]"),
    # a well-formed 130 x 3 matrix, so only the bin bound can reject it
    "counts-bins-beyond-max": (lambda p: _counts_text(
        p, "# bins_a=129 bins_b=2\n" + "1,0,0\n" * 130), "[2, 128]"),
    **{f"coherent-mean-{value}": (lambda p, value=value: _simulate(
        p, "--state", "coherent", "--mean-a", value, "--shots", 10), "finite")
       for value in ["nan", "inf"]},
    "coherent-mean-beyond-bound": (lambda p: _simulate(
        p, "--state", "coherent", "--mean-a", 800, "--mean-b", 0.1, "--shots", 10), "700"),
    "negative-seed": (lambda p: ["simulate", "--state", "coherent", "--mean-a", 0.5,
                                 "--shots", 10, "--seed", -1, "--counts-out", p / "c.csv"],
                      "seed must be >= 0, got -1"),
    "simulate-negative-seed": (lambda p: ["simulate", "--state", "coherent", "--mean-a", 0.5,
                                          "--shots", 10, "--seed", -3,
                                          "--counts-out", p / "out.csv"], "seed must be >= 0"),
    "analyze-negative-seed": (lambda p: _analyze(p, "--replicates", 10, "--seed", -1),
                              "seed must be >= 0"),
    # NaN and inf were written as non-strict JSON, NaN left a 7-sigma kappa
    # violation unflagged and -3 flagged every verdict
    **{f"threshold-{value}": (lambda p, value=value: [
        "analyze", "--counts", simulate_sp(p, shots=2000), "--replicates", 10, "--seed", 1,
        "--threshold", value, "--report-out", p / "r.json"], "threshold must be finite and > 0")
       for value in ["nan", "inf", "-3", "0"]},
    # 10**14 died allocating the spawn indices and 10**20 in numpy's size check
    **{f"replicates-{n}": (lambda p, n=n: _analyze(p, "--replicates", n, "--seed", 1),
                           f"replicates must be below 2^32, got {n}")
       for n in [2**32, 10**14, 10**20]},
    "one-replicate": (lambda p: _analyze(p, "--replicates", 1, "--seed", 1),
                      "bootstrap needs at least 2 replicates"),
    # checked before the square root, which warned and then reported the NaN
    **{f"{flag[2:]}-{value}": (lambda p, state=state, flag=flag, value=value: _simulate(
        p, "--state", state, flag, value, "--shots", 10),
        f"{flag} must be in (0, 1), got {float(value)}")
       for state, flag, value in [("tmsv", "--lambda2", "-0.5"), ("tmsv", "--lambda2", "1"),
                                  ("tmsv", "--lambda2", "nan"),
                                  ("split-photon", "--t2", "-0.5"),
                                  ("split-photon", "--t2", "1.5")]},
    "split-photon-without-t2": (lambda p: _simulate(
        p, "--state", "split-photon", "--shots", 10), "split-photon requires --t2"),
    "non-utf8-sidecar": (lambda p: _sidecar_text(p, b"\xff"), "not UTF-8"),
    "non-utf8-report": (lambda p: _report_text(p, b"\xff"), "not UTF-8"),
    "report-schema-mismatch": (lambda p: _report_text(p, json.dumps({"schema_version": 99})),
                               "unsupported report schema version: 99"),
    # analyze opens its report before the bootstrap, which took 2.9 s at 1000
    # replicates of 64-bin counts before this path failed; the error named
    # the report's temporary, not the path given
    "report-out-in-missing-directory": (lambda p: [
        "analyze", "--counts", _counts_file(p), "--replicates", 10, "--seed", 1,
        "--report-out", p / "missing" / "r.json"],
        lambda p: f"No such file or directory: '{p / 'missing' / 'r.json'}'"),
    # simulate opens every output before the exact distribution is built; the
    # counts file stayed behind without its sidecar, and a later analyze
    # reported empty parameters
    "exact-out-in-missing-directory": (lambda p: _simulate(
        p, "--state", "tmsv", "--lambda2", 0.1, "--shots", 100,
        "--exact-out", p / "missing" / "x.csv"),
        lambda p: f"No such file or directory: '{p / 'missing' / 'x.csv'}'"),
    "sidecar-path-is-directory": (_sidecar_path_is_directory, "an output must be a regular file"),
    "counts-out-is-directory": (_counts_out_is_directory, "an output must be a regular file"),
    # the exact distribution replaced the counts, which analyze then rejected
    "exact-out-is-counts-out": (lambda p: _simulate(
        p, "--state", "tmsv", "--lambda2", 0.1, "--shots", 100, "--exact-out", p / "c.csv"),
        "names the same file as"),
    # the sidecar replaced the exact distribution
    "exact-out-is-sidecar": (lambda p: _simulate(
        p, "--state", "tmsv", "--lambda2", 0.1, "--shots", 100,
        "--exact-out", p / "c.csv.meta.json"), "names the same file as"),
    # the report replaced the counts it was computed from
    "report-out-is-counts": (lambda p: [
        "analyze", "--counts", _counts_file(p), "--replicates", 10, "--seed", 1,
        "--report-out", p / "c.csv"], "names the same file as"),
    "report-out-is-sidecar": (lambda p: [
        *_sidecar_text(p, '{"label": "x"}')[:-1], p / "c.csv.meta.json"],
        "names the same file as"),
    "report-out-links-to-counts": (_report_out_links_to_counts, "names the same file as"),
    # an empty --counts-out ended in a traceback, an empty --exact-out was
    # skipped with exit 0, and an empty --report-out read as the directory
    "counts-out-empty": (lambda p: ["simulate", "--state", "tmsv", "--lambda2", 0.1,
                                    "--shots", 100, "--seed", 1, "--counts-out", ""],
                         "an output path must not be empty"),
    "exact-out-empty": (lambda p: _simulate(p, "--state", "tmsv", "--lambda2", 0.1,
                                            "--shots", 100, "--exact-out", ""),
                        "an output path must not be empty"),
    "report-out-empty": (lambda p: [*_analyze(p, "--replicates", 10, "--seed", 1)[:-1], ""],
                         "an output path must not be empty"),
    # a NUL byte, which only an in-process caller can pass, ended in a
    # ValueError traceback, or for a report read "not JSON"
    "counts-out-holds-nul": (lambda p: ["simulate", "--state", "tmsv", "--lambda2", 0.1,
                                        "--shots", 100, "--seed", 1, "--counts-out", p / "c\0"],
                             lambda p: repr(str(p / "c\0")) + ": embedded null byte"),
    "counts-path-holds-nul": (lambda p: ["analyze", "--counts", p / "c\0", "--replicates", 10,
                                         "--seed", 1, "--report-out", p / "r.json"],
                              lambda p: repr(str(p / "c\0")) + ": embedded null byte"),
    "report-path-holds-nul": (lambda p: ["report", p / "r\0"],
                              lambda p: repr(str(p / "r\0")) + ": embedded null byte"),
}


@pytest.mark.parametrize("make_argv, message", _DATA_ERRORS.values(), ids=_DATA_ERRORS)
def test_malformed_input_is_data_error(tmp_path, capsys, monkeypatch, deadline, make_argv,
                                       message):
    # every cause is caught before the exact distribution is built and before
    # the bootstrap runs; the row's own inputs are built first
    argv = make_argv(tmp_path)
    for name in ("build_photon_distribution", "bootstrap"):
        monkeypatch.setattr(cli, name, _must_not_run(name))
    _assert_error(argv, 2, message(tmp_path) if callable(message) else message, capsys)


@pytest.mark.parametrize("shots, message", [
    (0, "shots must be >= 1"),
    (2**63, "shots 9223372036854775808 exceeds 2^63 - 1"),
], ids=["zero-shots", "shots-beyond-int64"])
def test_sampling_is_checked_before_the_exact_distribution(tmp_path, capsys, monkeypatch,
                                                           shots, message):
    # each reached build_photon_distribution and the click kernel first; with
    # --exact-out asked for, the exact file is not written either
    monkeypatch.setattr(cli, "build_photon_distribution",
                        _must_not_run("build_photon_distribution"))
    argv = _simulate(tmp_path, "--state", "coherent", "--mean-a", 0.5, "--shots", shots,
                     "--exact-out", tmp_path / "x.csv")
    _assert_error(argv, 2, message, capsys)


# Every usage error README lists, as {id: (argv builder, argparse's message)}
_USAGE_ERRORS = {
    "unknown-command": (lambda p: ["frobnicate"], "argument command: invalid choice"),
    # report prints its table to stdout only, and analyze writes one report
    "report-out": (lambda p: [*_report_file(p, lambda d: d), "--out", p / "t.txt"],
                   "unrecognized arguments: --out"),
    "analyze-plot-data": (lambda p: _analyze(p, "--replicates", 10, "--plot-data", p / "p.csv"),
                          "unrecognized arguments: --plot-data"),
    "simulate-unknown-option": (lambda p: _simulate(p, "--state", "coherent", "--shots", 10,
                                                    "--bogus"),
                                "unrecognized arguments: --bogus"),
    "missing-shots": (lambda p: ["simulate", "--state", "coherent", "--seed", 1,
                                 "--counts-out", p / "c.csv"], "required: --shots"),
    "report-without-file": (lambda p: ["report"], "required: reports"),
    "shots-not-int": (lambda p: _simulate(p, "--state", "coherent", "--shots", "ten"),
                      "invalid int value: 'ten'"),
    "unknown-state": (lambda p: _simulate(p, "--state", "nonsense", "--shots", 10),
                      "invalid choice: 'nonsense'"),
}


@pytest.mark.parametrize("make_argv, message", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
def test_usage_error_exit_code(tmp_path, capsys, make_argv, message):
    _assert_error(make_argv(tmp_path), 1, message, capsys)


@pytest.mark.parametrize("columns", [40, 200])
def test_each_command_prints_what_the_full_parser_prints(tmp_path, capsys, monkeypatch,
                                                         columns):
    # main builds the arguments of the command it runs only, and reads the
    # terminal's width once; usage, help and every usage error must read as
    # the parser of all commands prints them with argparse's own formatter,
    # except a word the named command does not take: its own parser, the
    # full parser's subparser, reports it under the command's usage line
    monkeypatch.setenv("COLUMNS", str(columns))
    helps = [["--help"], *([command, "--help"] for command in cli.COMMANDS)]
    for argv, message in [([], None), *((h, None) for h in helps),
                          *((make(tmp_path), m) for make, m in _USAGE_ERRORS.values())]:
        argv = [str(a) for a in argv]
        code = main(argv)
        printed = capsys.readouterr()
        with monkeypatch.context() as patch, pytest.raises(SystemExit) as exc:
            patch.setattr(cli, "_help_formatter", lambda: argparse.HelpFormatter)
            parser, words = cli.build_parser(), argv
            if message is not None and message.startswith("unrecognized arguments"):
                parser = parser._subparsers._group_actions[0].choices[argv[0]]
                words = argv[1:]
            parser.parse_args(words)
        helped = argv in helps
        assert (code, exc.value.code) == ((cli.EXIT_OK, 0) if helped else (cli.EXIT_USAGE, 2))
        # a named command's help and errors, an unknown word included, carry
        # its own usage line
        named = argv[0] if argv and argv[0] in cli.COMMANDS else "[-h]"
        assert (printed.out if helped else printed.err).startswith(f"usage: clickstats {named}")
        assert printed == capsys.readouterr(), argv


def test_full_parser_parses_every_command(tmp_path, monkeypatch):
    # pipebench times the set-up as importing the CLI and building this parser
    parser = cli.build_parser()
    for argv, command in [(_simulate(tmp_path, "--state", "tmsv", "--shots", 10), "simulate"),
                          (_analyze(tmp_path), "analyze"), (["report", "r.json"], "report")]:
        assert parser.parse_args(map(str, argv)).func is getattr(cli, f"cmd_{command}")
        # a command is looked up when the parser is built, so that a patched
        # one runs, as pipebench's tracer patches cmd_analyze
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: 7)
        assert run(argv) == 7


def test_valid_runs_build_their_own_commands_parser_only(tmp_path, monkeypatch):
    # the parser of all three commands is built for a command line that its
    # first word does not settle; building it took a third of a simulate run
    def full_parser(*args):
        raise AssertionError("the parser of all three commands was built")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    for argv in [*_both_commands(tmp_path, 1), ["report", tmp_path / "r.json"]]:
        assert run(argv) == 0


def test_drawn_seed_is_recorded_and_reproduces(tmp_path):
    # without --seed, simulate and analyze draw a 32-bit seed and record it;
    # rerun with that seed, each writes the same bytes
    drawn, again = tmp_path / "drawn", tmp_path / "again"
    drawn.mkdir()
    again.mkdir()
    simulate = ["simulate", "--state", "tmsv", "--lambda2", 0.1, "--eta", 0.5,
                "--shots", 10000]
    assert run([*simulate, "--counts-out", drawn / "c.csv"]) == 0
    seed = json.loads((drawn / "c.csv.meta.json").read_text())["seed"]
    assert 0 <= seed < 2**32
    assert run([*simulate, "--seed", seed, "--counts-out", again / "c.csv"]) == 0
    for name in ("c.csv", "c.csv.meta.json"):
        assert (drawn / name).read_bytes() == (again / name).read_bytes()

    analyze = ["analyze", "--counts", drawn / "c.csv", "--replicates", 20]
    assert run([*analyze, "--report-out", drawn / "r.json"]) == 0
    seed = json.loads((drawn / "r.json").read_text())["provenance"]["seed"]
    assert 0 <= seed < 2**32
    assert run([*analyze, "--seed", seed, "--report-out", again / "r.json"]) == 0
    assert (drawn / "r.json").read_bytes() == (again / "r.json").read_bytes()


def test_seed_draw_loads_neither_numpy_random_nor_openssl():
    # pipebench times its set-up as importing the CLI and building the full
    # parser; drawing a seed then must not load numpy.random (about 9 ms) or
    # OpenSSL's _hashlib, which secrets imports
    code = ("import argparse, sys, clickstats.cli as cli; cli.build_parser(); "
            "seed = cli._seed(argparse.Namespace(seed=None)); assert 0 <= seed < 2**32; "
            "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          check=True)
    assert done.stdout == "[]\n"


def test_analyze_report(tmp_path):
    counts = simulate_sp(tmp_path)
    report_path = tmp_path / "report.json"
    analyze = ["analyze", "--counts", counts, "--replicates", 200, "--seed", 11]
    assert run([*analyze, "--report-out", report_path]) == 0
    data = json.loads(report_path.read_text())
    assert data["schema_version"] == 1
    assert data["kappa"]["defined"] is True
    assert data["kappa"]["stderr"] > 0
    assert data["provenance"]["shots"] == 20000
    assert data["provenance"]["seed"] == 11
    assert len(data["provenance"]["condition_counts"]) == 9
    # the report holds every value the removed --plot-data CSV held
    matrix = read_counts_csv(counts)
    expected = cs.evaluate_all(cs.normalize(matrix), errors=cs.bootstrap(
        matrix, cs.BootstrapConfig(replicates=200, seed=11)))
    for name, key in [("kappa", "value"), ("kappa_cl_max", "value"), ("kappa", "stderr"),
                      ("gamma", "value"), ("gamma_cl_max", "value"), ("gamma", "stderr"),
                      ("frak_n", "value"), ("frak_n", "stderr")]:
        assert data[name][key] == getattr(getattr(expected, name), key)


def test_byte_order_mark_is_read(tmp_path):
    """A UTF-8 byte-order mark (Notepad's "UTF-8 with BOM") on the counts file
    and on its sidecar changes no byte of the report."""
    plain = simulate_sp(tmp_path)
    marked = tmp_path / "marked.csv"
    for suffix in ("", ".meta.json"):
        Path(f"{marked}{suffix}").write_bytes(
            b"\xef\xbb\xbf" + Path(f"{plain}{suffix}").read_bytes())
    reports = []
    for counts in (plain, marked):
        reports.append(tmp_path / f"{counts.stem}.json")
        assert run(["analyze", "--counts", counts, "--replicates", 20, "--seed", 3,
                    "--report-out", reports[-1]]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_failed_analyze_leaves_the_report_as_it_was(tmp_path, capsys, monkeypatch):
    # the report is written beside its path and moved onto it when whole: a
    # run that fails after the report was opened leaves an earlier run's
    # report as it was, and no other file
    counts = simulate_sp(tmp_path)
    analyze = ["analyze", "--counts", counts, "--replicates", 10,
               "--report-out", tmp_path / "r.json"]
    assert run([*analyze, "--seed", 1]) == 0
    report = (tmp_path / "r.json").read_bytes()
    files = sorted(tmp_path.iterdir())

    def fails(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "bootstrap", fails)
    assert run([*analyze, "--seed", 2]) == 2
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert (tmp_path / "r.json").read_bytes() == report
    assert sorted(tmp_path.iterdir()) == files


def test_report_out_through_a_link_writes_the_linked_file(tmp_path):
    counts = simulate_sp(tmp_path)
    (tmp_path / "reports").mkdir()
    (tmp_path / "r.json").symlink_to(tmp_path / "reports" / "r.json")
    assert run(["analyze", "--counts", counts, "--replicates", 10, "--seed", 1,
                "--report-out", tmp_path / "r.json"]) == 0
    assert (tmp_path / "r.json").is_symlink()
    assert json.loads((tmp_path / "reports" / "r.json").read_text())["provenance"]["seed"] == 1


def _both_commands(tmp_path, seed, exact_out="x.csv"):
    """simulate's counts, sidecar and exact file, then analyze's report."""
    return (["simulate", "--state", "tmsv", "--lambda2", 0.1, "--shots", 100, "--seed", seed,
             "--counts-out", tmp_path / "c.csv", "--exact-out", tmp_path / exact_out],
            ["analyze", "--counts", tmp_path / "c.csv", "--replicates", 10, "--seed", seed,
             "--report-out", tmp_path / "r.json"])


def _tree(directory):
    return _files(sorted(directory.rglob("*")))


def _no_space():
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _write_header(fh, counts):
    fh.write(f"# bins_a={counts.bins_a} bins_b={counts.bins_b}\n")
    fh.flush()


def _write_header_then_fail(fh, counts):
    _write_header(fh, counts)
    _no_space()


def _write_exact_header_then_fail(fh, matrix, write_csv=cli._write_csv):
    # the counts go through the same writer as the exact distribution
    if matrix.dtype.kind != "f":
        return write_csv(fh, matrix)
    fh.write(f"# bins_a={matrix.shape[0] - 1} bins_b={matrix.shape[1] - 1}\n")
    fh.flush()
    _no_space()


def _write_counts_whose_close_fails(fh, counts, write_counts_csv=cli.write_counts_csv):
    # as a close whose flush finds the disk full: the file is closed, then
    # the error is raised
    write_counts_csv(fh, counts)
    close = fh.close

    def close_then_fail():
        close()
        _no_space()
    fh.close = close_then_fail


def _dump_first_line_then_fail(obj, fh, **kwargs):
    fh.write("{\n")
    _no_space()


@pytest.mark.parametrize("command, exact_out, patch, message", [
    (0, "missing/x.csv", None, "No such file or directory: '{path}'"),
    (0, "x.csv", (cli, "write_counts_csv", _write_header_then_fail), "No space left on device"),
    (0, "x.csv", (cli, "_write_csv", _write_exact_header_then_fail), "No space left on device"),
    (0, "x.csv", (cli, "write_counts_csv", _write_counts_whose_close_fails),
     "No space left on device"),
    (1, "x.csv", (cli.json, "dump", _dump_first_line_then_fail), "No space left on device"),
], ids=["simulate-exact-out-in-missing-directory", "simulate-counts-write-fails",
        "simulate-exact-out-write-fails", "simulate-counts-close-fails",
        "analyze-report-write-fails"])
def test_failed_rerun_leaves_every_file_as_it_was(tmp_path, capsys, monkeypatch, command,
                                                  exact_out, patch, message):
    # every output is written beside its path and moved onto it once all are
    # written: a re-run that fails before its work, midway through a write
    # or in closing a file leaves the first run's files byte-identical, and
    # no other file; a failed re-run of simulate deleted the first run's
    # counts and kept their sidecar. The error names the path given, not its
    # temporary.
    for argv in _both_commands(tmp_path, 1):
        assert run(argv) == 0
    files = _tree(tmp_path)
    if patch:
        monkeypatch.setattr(*patch)
    assert run(_both_commands(tmp_path, 2, exact_out)[command]) == 2
    err = capsys.readouterr().err
    assert message.format(path=tmp_path / exact_out) in err and ".clickstats." not in err
    assert _tree(tmp_path) == files


def test_leftover_temporaries_block_no_later_run(tmp_path):
    # SIGTERM and SIGKILL skip the temporaries' removal. Named by the process
    # id and index, a killed run's leftover made a later run with the same id
    # exit 2 with "File exists"; a leftover is neither reused nor removed.
    leftovers = {tmp_path / f".clickstats.{os.getpid()}.{i}.tmp": f"run {i}\n".encode()
                 for i in range(4)}
    for path, data in leftovers.items():
        path.write_bytes(data)
    for argv in _both_commands(tmp_path, 1):
        assert run(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [path.name for path in leftovers] + ["c.csv", "c.csv.meta.json", "r.json", "x.csv"])
    assert _files(leftovers) == leftovers
    assert read_counts_csv(tmp_path / "c.csv").total == 100
    assert json.loads((tmp_path / "r.json").read_text())["provenance"]["seed"] == 1


def test_interrupted_simulate_leaves_every_file_as_it_was(tmp_path, monkeypatch):
    # an exception that is no error, such as Ctrl-C midway through a write,
    # removes the temporaries too
    simulate = _both_commands(tmp_path, 1)[0]
    assert run(simulate) == 0
    files = _tree(tmp_path)

    def interrupted(fh, counts):
        _write_header(fh, counts)
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "write_counts_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(simulate)
    assert _tree(tmp_path) == files


def test_counts_out_through_a_link_writes_the_linked_file(tmp_path):
    # the sidecar goes beside the link, where analyze reads it
    (tmp_path / "data").mkdir()
    (tmp_path / "c.csv").symlink_to(tmp_path / "data" / "c.csv")
    for argv in _both_commands(tmp_path, 1):
        assert run(argv) == 0
    assert (tmp_path / "c.csv").is_symlink()
    assert read_counts_csv(tmp_path / "data" / "c.csv").total == 100
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "c.csv", "c.csv.meta.json", "data", "r.json", "x.csv"]
    assert json.loads((tmp_path / "r.json").read_text())["provenance"]["parameters"]["seed"] == 1


def test_outputs_with_the_longest_names_the_directory_takes(tmp_path):
    # a temporary named after its output did not fit beside it
    longest = os.pathconf(tmp_path, "PC_NAME_MAX")
    counts = tmp_path / ("c" * (longest - len(".meta.json")))
    exact, report = tmp_path / ("x" * longest), tmp_path / ("r" * longest)
    assert run(["simulate", "--state", "tmsv", "--lambda2", 0.1, "--shots", 100, "--seed", 1,
                "--counts-out", counts, "--exact-out", exact]) == 0
    assert run(["analyze", "--counts", counts, "--replicates", 10, "--seed", 1,
                "--report-out", report]) == 0
    assert sorted(tmp_path.iterdir()) == sorted(
        [counts, Path(f"{counts}.meta.json"), exact, report])


def test_analyze_reproducible(tmp_path):
    counts = simulate_sp(tmp_path)
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert run(["analyze", "--counts", counts, "--replicates", 100,
                    "--seed", 5, "--report-out", p]) == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_json_files_keep_their_layout(tmp_path):
    """The sidecar and the report are indented by two spaces, keep their key
    order and end without a newline."""
    counts = simulate_sp(tmp_path)
    report = tmp_path / "report.json"
    assert run(["analyze", "--counts", counts, "--replicates", 20, "--seed", 3,
                "--report-out", report]) == 0
    for path in (Path(f"{counts}.meta.json"), report):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2)


def test_report_table(tmp_path, capsys):
    # one line per dataset: a label's non-printable characters print as their
    # escapes, and a printable non-ASCII label as it is
    counts = simulate_sp(tmp_path)
    shown = {"SP-demo": "SP-demo", "two\nlines\tand tab": r"two\nlines\tand tab",
             "Größe": "Größe"}
    reports = [tmp_path / f"report{i}.json" for i in range(len(shown))]
    for label, report_path in zip(shown, reports):
        run(["analyze", "--counts", counts, "--replicates", 200, "--seed", 11,
             "--label", label, "--report-out", report_path])
    capsys.readouterr()
    assert run(["report", *reports]) == 0
    table = capsys.readouterr().out
    rows = table.splitlines()[2:]
    assert len(rows) == len(shown)
    assert all(row.startswith(text) for row, text in zip(rows, shown.values()))
    assert "✓" in table or "✗" in table


def test_report_single_row(tmp_path):
    counts = simulate_sp(tmp_path, shots=5000)
    report_path = tmp_path / "r.json"
    run(["analyze", "--counts", counts, "--replicates", 100, "--seed", 1,
         "--report-out", report_path])
    report = cs.CriteriaReport.from_dict(json.loads(report_path.read_text()))
    table = render_report_table([report])
    assert len(table.strip().splitlines()) == 3  # header, rule, one row
    undefined = dataclasses.replace(report, frak_n=cs.Estimate.undefined())
    assert render_report_table([undefined]).splitlines()[2].endswith("  n/a")


def test_report_under_an_ascii_locale(tmp_path):
    # the command under the C locale: printing the table raised
    # UnicodeEncodeError on the verdict symbols and exited 1
    report_path = _report_file(tmp_path, lambda d: d)[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "clickstats.cli", "report", report_path],
                          env=env, capture_output=True, check=False)
    assert done.returncode == 0, done.stderr
    table = render_report_table(
        [cs.CriteriaReport.from_dict(json.loads(report_path.read_text()))])
    assert "✓" in table or "✗" in table
    assert done.stdout == table.encode("ascii", "backslashreplace") + b"\n"


def test_degenerate_counts_give_strict_json(tmp_path):
    # every shot in cell (0, 0): Q, kappa and gamma are undefined, and the
    # bootstrap error of frak_n is zero
    counts = np.zeros((9, 9), dtype=np.int64)
    counts[0, 0] = 1000
    counts_path = tmp_path / "vacuum.csv"
    with open(counts_path, "w") as fh:
        write_counts_csv(fh, cs.CountMatrix(counts))
    report_path = tmp_path / "vacuum.json"
    assert run(["analyze", "--counts", counts_path, "--replicates", 50, "--seed", 1,
                "--report-out", report_path]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    data = json.loads(report_path.read_text(), parse_constant=reject)
    assert data["q_a"] == {"value": None, "stderr": None, "defined": False}
    assert data["kappa_test"]["violated"] is None
    assert run(["report", report_path]) == 0


# Integers past int64 and past the largest float. Hypothesis draws small
# integers far more often than these, and the first entries of a sampled list
# more often than the last, so the float-overflowing ones come first.
_HUGE_INTS = st.sampled_from([10**400, -10**400, 10**30, 2**63, -2**63 - 1])

# Counts files: a valid or mangled header, then a rectangular block of
# integers, rows of integer-like cells or text, or arbitrary text.
_HEADERS = st.one_of(st.just("# bins_a=2 bins_b=2"),
                     st.text(max_size=24).map("#".__add__), st.text(max_size=24))
_INTS = st.one_of(st.integers(min_value=-2), _HUGE_INTS).map(str)
_BLOCK = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(_INTS, min_size=width, max_size=width), max_size=4))
_ROWS = st.lists(st.lists(_INTS | st.text(max_size=3), min_size=1, max_size=4), max_size=4)
_BODIES = st.one_of(_BLOCK, _ROWS).map(lambda rows: "\n".join(map(",".join, rows)))


@given(header=_HEADERS, body=_BODIES | st.text())
@example(header="# bins_a=2 bins_b=2", body="9" * 30 + ",0,0\n0,0,0\n0,0,1")
def test_read_counts_csv_fuzz(header, body):
    # the reader raises nothing but ValidationError, and the CLI exits 2 on
    # every file it rejects
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        path.write_text(header + "\n" + body, encoding="utf-8")
        try:
            read_counts_csv(path)
            rejected = False
        except ValidationError:
            rejected = True
        code = run(["analyze", "--counts", path, "--replicates", 2, "--seed", 1,
                    "--report-out", Path(tmp) / "r.json"])
    assert code == 2 if rejected else code in (0, 2)


def _valid_report() -> dict:
    jcd = exact_jcd(cs.StateSpec.tmsv(0.3), cs.DetectorConfig(4, 0.5, 1e-4))
    return cs.evaluate_all(jcd).to_dict()


def _paths(data, prefix=()):
    """Every key path into a nested report dict, intermediate ones included."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _value_at(data, path):
    for key in path:
        data = data[key]
    return data


_REPORT = _valid_report()
_PATHS = sorted(_paths(_REPORT))
_NUMBER_PATHS = [path for path in _PATHS
                 if isinstance(_value_at(_REPORT, path), (int, float, type(None)))]
_NUMBERS = _HUGE_INTS | st.floats() | st.integers()
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


# Sidecars: JSON objects with any JSON value under "label" and other keys,
# integers past int64 and past the largest float included
_SIDECARS = st.builds(lambda extra, label: {**extra, **label},
                      st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
                      st.fixed_dictionaries({}, optional={"label": _JSON}))


@given(sidecar=_SIDECARS)
@example(sidecar={"label": 5})
@example(sidecar={"label": None, "gain": 10**400})
@example(sidecar={"label": "tmsv", "shots": 2**63, "eta": math.nan})
@example(sidecar=_nested_sidecar(cli.MAX_SIDECAR_DEPTH - 1))
# read by analyze, while the report, two levels deeper, exceeded the JSON
# decoder's recursion limit when run from a shallow stack
@example(sidecar=_nested_sidecar(990))
def test_sidecar_fuzz(sidecar):
    # analyze either exits 2 and writes nothing, or writes a report that
    # `clickstats report` reads; an example may give the sidecar as JSON text
    text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    with tempfile.TemporaryDirectory() as tmp:
        counts, report = _counts_file(Path(tmp)), Path(tmp) / "r.json"
        Path(tmp, "c.csv.meta.json").write_text(text)
        code = run(["analyze", "--counts", counts, "--replicates", 2, "--seed", 1,
                    "--report-out", report])
        assert (code == 2 and not report.exists()
                or code == 0 and run(["report", report]) == 0)


def _assert_typed(obj):
    """Every field of a report, and of its estimates and verdicts, holds
    exactly a type its annotation names (so a bool is no int)."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        assert type(value) in (typing.get_args(hints[f.name]) or (hints[f.name],)), f.name
        if dataclasses.is_dataclass(value):
            _assert_typed(value)


# half of the splices put a number where the report holds a number or null,
# the fields from_dict converts; the rest put any JSON value anywhere
@given(splice=st.tuples(st.sampled_from(_NUMBER_PATHS), _NUMBERS)
       | st.tuples(st.sampled_from(_PATHS), _JSON))
@example(splice=(("kappa", "value"), 10**400))
@example(splice=(("kappa_test", "violated"), "false"))
@example(splice=(("provenance", "bins_a"), "eight"))
def test_report_from_dict_fuzz(splice):
    # from_dict raises nothing but ValidationError, `clickstats report` exits 2
    # exactly then, and an accepted report holds its declared types and
    # renders its verdicts as the values the file holds
    data = copy.deepcopy(_REPORT)
    path, value = splice
    _set(data, path, value)
    try:
        report = cs.CriteriaReport.from_dict(data)
        rejected = False
    except ValidationError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "r.json"
        report_path.write_text(json.dumps(data))
        assert run(["report", report_path]) == (2 if rejected else 0)
    if not rejected:
        _assert_typed(report)
        assert all(type(count) is int for count in report.condition_counts)
        row = render_report_table([dataclasses.replace(report, label="-")]).splitlines()[2]
        symbols = {True: "✓", False: "✗", None: "?"}
        assert row.split()[2:5] == [symbols[data[name]["violated"]]
                                    for name in cs.CriteriaReport.VERDICT_FIELDS]
