import json

import numpy as np
import pytest

import clickstats as cs
from clickstats.cli import (main, read_counts_csv, render_report_table,
                            write_counts_csv)


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
    write_counts_csv(path, counts)
    assert np.array_equal(read_counts_csv(path).counts, counts.counts)


def test_read_counts_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n")
    assert run(["analyze", "--counts", path, "--report-out", tmp_path / "r.json"]) == 2


def test_read_counts_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# bins_a=8 bins_b=8\n1,2,3\n")
    assert run(["analyze", "--counts", path, "--report-out", tmp_path / "r.json"]) == 2


def test_simulate_beyond_max_bins_is_data_error(tmp_path, capsys):
    code = run(["simulate", "--state", "coherent", "--mean-a", 0.5, "--bins", 129,
                "--shots", 10, "--seed", 1, "--counts-out", tmp_path / "c.csv"])
    assert code == 2
    assert "[2, 128]" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_counts_beyond_max_bins_is_data_error(tmp_path, capsys):
    # a well-formed 130 x 3 matrix, so only the bin bound can reject it
    path = tmp_path / "wide.csv"
    path.write_text("# bins_a=129 bins_b=2\n" + "1,0,0\n" * 130)
    assert run(["analyze", "--counts", path, "--report-out", tmp_path / "r.json"]) == 2
    assert "[2, 128]" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert run(["simulate", "--state", "nonsense"]) == 1


def test_analyze_report(tmp_path):
    counts = simulate_sp(tmp_path)
    report_path = tmp_path / "report.json"
    plot_path = tmp_path / "plot.csv"
    code = run(["analyze", "--counts", counts, "--replicates", 200, "--seed", 11,
                "--report-out", report_path, "--plot-data", plot_path])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["schema_version"] == 1
    assert data["kappa"]["defined"] is True
    assert data["kappa"]["stderr"] > 0
    assert data["provenance"]["shots"] == 20000
    assert data["provenance"]["seed"] == 11
    assert len(data["provenance"]["condition_counts"]) == 9
    lines = plot_path.read_text().strip().splitlines()
    assert lines[0] == "criterion,value,bound,stderr"
    assert len(lines) == 4
    assert lines[1].startswith("kappa,")


def test_analyze_reproducible(tmp_path):
    counts = simulate_sp(tmp_path)
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert run(["analyze", "--counts", counts, "--replicates", 100,
                    "--seed", 5, "--report-out", p]) == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_report_table(tmp_path):
    counts = simulate_sp(tmp_path)
    report_path = tmp_path / "report.json"
    run(["analyze", "--counts", counts, "--replicates", 200, "--seed", 11,
         "--label", "SP-demo", "--report-out", report_path])
    out = tmp_path / "table.txt"
    assert run(["report", report_path, "--out", out]) == 0
    table = out.read_text()
    assert "SP-demo" in table
    assert "✓" in table or "✗" in table


def test_report_single_row(tmp_path):
    counts = simulate_sp(tmp_path, shots=5000)
    report_path = tmp_path / "r.json"
    run(["analyze", "--counts", counts, "--replicates", 100, "--seed", 1,
         "--report-out", report_path])
    report = cs.CriteriaReport.from_dict(json.loads(report_path.read_text()))
    table = render_report_table([report])
    assert len(table.strip().splitlines()) == 3  # header, rule, one row


def test_report_empty_input(tmp_path):
    assert run(["report"]) == 2


def test_report_schema_mismatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    assert run(["report", bad]) == 2


def test_degenerate_counts_give_strict_json(tmp_path):
    # every shot in cell (0, 0): Q, kappa and gamma are undefined, and the
    # bootstrap error of frak_n is zero
    counts = np.zeros((9, 9), dtype=np.int64)
    counts[0, 0] = 1000
    counts_path = tmp_path / "vacuum.csv"
    write_counts_csv(counts_path, cs.CountMatrix(counts))
    report_path = tmp_path / "vacuum.json"
    assert run(["analyze", "--counts", counts_path, "--replicates", 50, "--seed", 1,
                "--report-out", report_path]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    data = json.loads(report_path.read_text(), parse_constant=reject)
    assert data["q_a"] == {"value": None, "stderr": None, "defined": False}
    assert data["kappa_test"]["violated"] is None
    assert run(["report", report_path]) == 0

