"""Acceptance suite: one test per criterion, each printing a pass/fail line."""
import json
import math
import time

import numpy as np
import pytest

import clickstats as cs
from clickstats.cli import main
from clickstats.criteria import marginal_statistics, moment_matrix, moment_weights
from clickstats.simulator import click_kernel_matrix
from clickstats.uncertainty import BootstrapConfig, bootstrap

from exact import (coherent_mixture, coherent_product_jcd, exact_jcd, ideal_split_photon_jcd,
                   tmsv_jcd)
from oracles import (covariance, criterion_margins, enumerate_click_kernel, marginals,
                     min_eigenvalue, random_click_distribution, tmsv_click_distribution)

SP_FRAK_N = (1.0 - math.sqrt(17.0 / 16.0)) / 2.0


def _report(number, description, ok):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}")
    return ok


def test_criterion_1_kernel_enumeration_oracle():
    start = time.monotonic()
    worst = 0.0
    for bins in (2, 4, 8):
        for n in range(7):
            for eta in (0.3, 0.7, 1.0):
                for nu in (0.0, 0.01):
                    oracle = enumerate_click_kernel(n, bins, eta, nu)
                    kernel = click_kernel_matrix(n, cs.DetectorConfig(bins, eta, nu))[n]
                    worst = max(worst, float(np.max(np.abs(kernel - oracle))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report(1, f"kernel vs enumeration, max err {worst:.2e}, "
                      f"{elapsed:.1f}s", ok)


def test_criterion_2_moment_identities():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        ca, cb = marginals(jcd)
        for dist, n in ((ca, 8), (cb, 8)):
            clicks = np.arange(n + 1)
            e, v = dist @ clicks, marginal_statistics(dist, clicks)[1]
            moments = moment_weights(n, 2) @ dist   # <:pi^m:>, m = 0..2
            lhs = moments[2] - moments[1] ** 2
            rhs = (n * v - e * (n - e)) / (n**2 * (n - 1))
            worst = max(worst, abs(lhs - rhs))
        # <:pi_A pi_B:> = E(ab) / (N_A N_B)
        joint = float(np.arange(9) @ jcd.probs @ np.arange(9)) / 64
        lhs = 64 * (joint - (moment_weights(8, 1) @ ca)[1]
                    * (moment_weights(8, 1) @ cb)[1])
        worst = max(worst, abs(lhs - covariance(jcd)))
    ok = worst <= 1e-12
    assert _report(2, f"variance/covariance identities, max err {worst:.2e}", ok)


def test_criterion_3_ideal_split_photon():
    jcd = ideal_split_photon_jcd()
    checks = {
        "kappa": (cs.statistic(jcd, "kappa"), 1.0),
        "kappa_cl_max": (cs.statistic(jcd, "kappa_cl_max"), -0.75),
        "gamma": (cs.statistic(jcd, "gamma"), -1.0),
        "gamma_cl_max": (cs.statistic(jcd, "gamma_cl_max"), 1.0),
        "frak_n": (cs.statistic(jcd, "frak_n"), SP_FRAK_N),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst <= 1e-10
    assert _report(3, f"ideal split photon exact values, max err {worst:.2e}", ok)


def test_criterion_4_coherent_tightness():
    jcd = coherent_product_jcd(0.4, 0.7, eta=0.9)
    deviations = [
        abs(cs.statistic(jcd, "q_a")),
        abs(cs.statistic(jcd, "q_b")),
        abs(cs.statistic(jcd, "kappa") - cs.statistic(jcd, "kappa_cl_max")),
        abs(cs.statistic(jcd, "gamma")),
        abs(cs.statistic(jcd, "frak_n")),
    ]
    worst = max(deviations)
    ok = worst <= 1e-10
    assert _report(4, f"coherent-product bound tightness, max dev {worst:.2e}", ok)


def test_criterion_5_tmsv_exact_pattern():
    # Exact TMSV: pair-correlated photon numbers make a click in arm A herald
    # a nearly vacuum-free state in arm B (conditional Q about -0.41), so all
    # three criteria fire. Expected values come from the enumeration oracle,
    # cut at the package's 12 pair photons so that it holds the same state;
    # the photon numbers 8..12 populate row a = 8, where frak_n's minimum sits
    # (c(8) ~ 1.7e-13). Package and oracle agree to 1e-12.
    jcd = tmsv_jcd(0.1, eta=0.5, nu=1e-4)
    gamma_margin = cs.statistic(jcd, "gamma") - cs.statistic(jcd, "gamma_cl_max")
    kappa_margin = cs.statistic(jcd, "kappa") - cs.statistic(jcd, "kappa_cl_max")
    eig_1 = min_eigenvalue(moment_matrix(jcd, 1))[0]
    frak_n = cs.statistic(jcd, "frak_n")
    oracle_gamma, oracle_kappa, oracle_eigs = criterion_margins(
        tmsv_click_distribution(0.1, 8, 0.5, 1e-4, n_max=12))
    tmsv_ok = (gamma_margin > 0.0
               and abs(gamma_margin - oracle_gamma) <= 1e-12
               and abs(kappa_margin - oracle_kappa) <= 1e-12
               and abs(eig_1 - oracle_eigs[1]) <= 1e-12
               and frak_n < 0.0
               and abs(frak_n - oracle_eigs.min()) <= 1e-12)

    # Joint but not conditional: weak PDC pairs at low efficiency violate the
    # gamma bound but not the kappa bound, in the oracle and in the package.
    pdc = []
    for lam2 in (0.25, 0.30):
        jcd = tmsv_jcd(lam2, eta=0.05, nu=1e-4)
        pdc.append((cs.statistic(jcd, "gamma") - cs.statistic(jcd, "gamma_cl_max"),
                    cs.statistic(jcd, "kappa") - cs.statistic(jcd, "kappa_cl_max"),
                    *criterion_margins(
                        tmsv_click_distribution(lam2, 8, 0.05, 1e-4))[:2]))
    pdc_ok = all(g > 0.0 and k <= 0.0 and oracle_g > 0.0 and oracle_k <= 0.0
                 for g, k, oracle_g, oracle_k in pdc)
    ok = tmsv_ok and pdc_ok
    assert _report(
        5, f"TMSV exact: gamma margin {gamma_margin:.3g}, kappa margin "
           f"{kappa_margin:.6f} (oracle {oracle_kappa:.6f}), a=1 eigenvalue "
           f"{eig_1:.4e} (oracle {oracle_eigs[1]:.4e}), frak_n {frak_n:.6f} "
           f"(oracle {oracle_eigs.min():.6f}); "
           "PDC gamma/kappa margins "
           + ", ".join(f"{g:+.4f}/{k:+.4f}" for g, k, _, _ in pdc), ok)


def test_criterion_6_lossy_split_photon_sampled():
    start = time.monotonic()
    jcd = exact_jcd(cs.StateSpec.split_photon(np.sqrt(0.5)), cs.DetectorConfig(8, 0.45, 1e-4))
    counts = cs.sample_counts(jcd, 10**6, seed=12345)
    errors = bootstrap(counts, BootstrapConfig(replicates=1000, seed=1))
    report = cs.evaluate_all(cs.normalize(counts), errors=errors, threshold=3.0)
    elapsed = time.monotonic() - start
    ok = (report.frak_n_test.violated is True
          and report.gamma_test.violated is False
          and elapsed < 60.0)
    assert _report(
        6, f"lossy SP at 1e6 shots: frak_n sig "
           f"{report.frak_n_test.significance_sigmas:.1f} sigma, gamma "
           f"{'not violated' if report.gamma_test.violated is False else 'violated'}, "
           f"{elapsed:.1f}s", ok)


DEMO_DATASETS = [
    # label, state flags, eta, shots, sim seed, analyze seed
    ("coherent", ["--state", "coherent", "--mean-a", "0.05", "--mean-b", "0.05"],
     0.8, 10**6, 101, 201),
    ("tmsv1", ["--state", "tmsv", "--lambda2", "0.25"], 0.05, 10**5, 111, 211),
    ("tmsv2", ["--state", "tmsv", "--lambda2", "0.30"], 0.05, 10**5, 112, 212),
    ("sp1", ["--state", "split-photon", "--t2", "0.5"], 0.035, 10**6, 121, 221),
    ("sp2", ["--state", "split-photon", "--t2", "0.5"], 0.07, 10**6, 122, 222),
    ("sp3", ["--state", "split-photon", "--t2", "0.5"], 0.09, 10**6, 123, 223),
]


def test_criterion_7_pipeline_demo(tmp_path, capsys):
    reports = {}
    report_paths = []
    for label, flags, eta, shots, sim_seed, ana_seed in DEMO_DATASETS:
        counts = tmp_path / f"{label}.csv"
        report = tmp_path / f"{label}.json"
        assert main(["simulate", *flags, "--bins", "8", "--eta", str(eta),
                     "--nu", "1e-4", "--shots", str(shots),
                     "--seed", str(sim_seed), "--counts-out", str(counts)]) == 0
        assert main(["analyze", "--counts", str(counts), "--replicates", "1000",
                     "--seed", str(ana_seed), "--label", label,
                     "--report-out", str(report)]) == 0
        reports[label] = cs.CriteriaReport.from_dict(
            json.loads(report.read_text()))
        report_paths.append(str(report))
    capsys.readouterr()
    assert main(["report", *report_paths]) == 0
    table = capsys.readouterr().out
    assert len(table.strip().splitlines()) == 8  # header + rule + 6 rows

    def pattern(label):
        r = reports[label]
        return (r.kappa_test.violated, r.gamma_test.violated,
                r.frak_n_test.violated)

    in_window = all(0.03 <= reports[l].summed_click_mean.value <= 0.11
                    for l in ("tmsv1", "tmsv2", "sp1", "sp2", "sp3"))
    coherent_ok = pattern("coherent") == (False, False, False)
    tmsv_ok = all(pattern(l) == (False, True, False) for l in ("tmsv1", "tmsv2"))
    sp_ok = all(pattern(l)[1] is False and pattern(l)[2] is True
                for l in ("sp1", "sp2", "sp3"))
    ok = in_window and coherent_ok and tmsv_ok and sp_ok
    assert _report(
        7, "pipeline demo verdict pattern: "
           f"coherent {pattern('coherent')}, tmsv {pattern('tmsv1')}/"
           f"{pattern('tmsv2')}, sp {pattern('sp1')}/{pattern('sp2')}/"
           f"{pattern('sp3')}, brightness window "
           f"{'ok' if in_window else 'BAD'}", ok)


def test_criterion_8_bootstrap_scaling():
    cfg = cs.DetectorConfig(8, 0.8, 0.0)
    jcd = exact_jcd(cs.StateSpec.coherent(0.5, 0.5), cfg)
    bcfg = BootstrapConfig(replicates=400, seed=8, statistics=("gamma",))
    small = bootstrap(cs.sample_counts(jcd, 10**4, 81), bcfg)["gamma"].stderr
    large = bootstrap(cs.sample_counts(jcd, 10**6, 82), bcfg)["gamma"].stderr
    ratio = small / large
    ok = abs(ratio - 10.0) <= 3.0
    assert _report(8, f"sigma(gamma) ratio 1e4 vs 1e6 shots: {ratio:.2f}", ok)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(909)
    cases = 0
    ok = True
    for _ in range(500):
        jcd = cs.JointClickDistribution(random_click_distribution(rng))
        ok &= -1e-12 <= cs.statistic(jcd, "kappa") <= 1.0 + 1e-12
        ok &= abs(cs.statistic(jcd, "gamma")) <= 1.0 + 1e-12
        ok &= abs(jcd.probs.sum() - 1.0) <= 1e-9
        cases += 1
    for _ in range(400):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim))
        m = (a + a.T) / 2
        val, vec = min_eigenvalue(m)
        ok &= np.linalg.norm(m @ vec - val * vec) <= 1e-10
        cases += 1
    cfg = cs.DetectorConfig(8, 0.7, 0.0)
    for _ in range(150):
        mixture = coherent_mixture(rng, rng.dirichlet(np.ones(int(rng.integers(1, 4)))), cfg)
        ok &= cs.statistic(mixture, "frak_n") >= -1e-10
        cases += 1
    ok = ok and cases >= 1000
    assert _report(9, f"property suites on {cases} randomized cases", bool(ok))
