"""The benchmark's three workloads and the checks of their outputs.

A workload runs in whole passes; every pass performs the same operations on
the same inputs, so the share of failed operations does not depend on how
many passes fit in a run. Each operation is checked against ``reference``,
which shares no code with clickstats.
"""
import json
import math
import time
from pathlib import Path

import numpy as np

import reference as ref
from clickstats import cli, criteria, simulator
from clickstats.model import CountMatrix, DetectorConfig
from clickstats.simulator import StateSpec
from clickstats.uncertainty import BootstrapConfig, bootstrap
from tracer import Tracer

NU = 1e-4
REPLICATES = 1000
THRESHOLD = 3.0
# simulate takes milliseconds against analyze's seconds; it is repeated (same
# seed, same output) so that its fastest time rests on more than a few calls
SIMULATE_REPEATS = 5

# label, state, efficiency, shots
DEMO_B8 = [
    ("coherent", ("coherent", 0.05, 0.05), 0.8, 10**6),
    ("tmsv-0.25", ("tmsv", 0.25), 0.05, 10**5),
    ("tmsv-0.30", ("tmsv", 0.30), 0.05, 10**5),
    ("split-0.035", ("split", 0.5), 0.035, 10**6),
    ("split-0.07", ("split", 0.5), 0.07, 10**6),
    ("split-0.09", ("split", 0.5), 0.09, 10**6),
]
WIDE_B16 = [
    ("coherent", ("coherent", 0.5, 0.5), 0.8, 10**6),
    ("tmsv-0.1", ("tmsv", 0.1), 0.5, 10**6),
    ("tmsv-0.25", ("tmsv", 0.25), 0.05, 10**6),
    ("split-0.45", ("split", 0.5), 0.45, 10**6),
]
SWEEP_STATES = [("coherent", 0.5, 0.5), ("tmsv", 0.1), ("tmsv", 0.25), ("split", 0.5)]
SWEEP_ETAS = (0.05, 0.2, 0.5, 0.9)
SWEEP_BINS = (8, 16)
# exact-sweep's traced run times the layers off its path on this dataset
PROBE = [("probe", ("tmsv", 0.1), 0.5, 10**5)]
PROBE_REPLICATES = 100
OFF_PATH = ("simulator.sample_counts_s", "model.normalize_s", "uncertainty.bootstrap_s",
            "uncertainty.replicate_ms", "uncertainty.frak_n_share",
            "uncertainty.kept_fraction", "cli.write_counts_s", "cli.read_counts_s",
            "cli.write_report_s")

# Point estimates from one counts file: the program and the reference do the
# same arithmetic, so they agree to rounding.
POINT_TOL = 1e-12
# Bootstrap errors: the same draws, Jacobi against LAPACK eigenvalues.
STDERR_RTOL = 1e-9
# Exact distributions: a correct double-precision kernel and statistics agree
# with the reference to about 1e-12; the tolerance leaves four decades.
EXACT_TOL = 1e-8
# A finite-shot verdict is compared with the exact margin only where the two
# cannot disagree by chance: the margin lies this many standard errors beyond
# the threshold (a flip would take a 6-sigma fluctuation).
DECISIVE_SIGMAS = THRESHOLD + 6.0
# Only kappa and gamma estimate their exact values from finite counts. The
# moment-matrix minimum of counts is taken over the rows that drew counts, and
# sparse rows pull it below zero, so its exact value is no target for it.
PHYSICS_VERDICTS = ("kappa_test", "gamma_test")
# The sampled summed click mean lies within this many standard errors of the
# exact one.
SAMPLING_SIGMAS = 8.0


def state_flags(state):
    if state[0] == "coherent":
        return ["--state", "coherent", "--mean-a", repr(state[1]), "--mean-b", repr(state[2])]
    if state[0] == "tmsv":
        return ["--state", "tmsv", "--lambda2", repr(state[1])]
    return ["--state", "split-photon", "--t2", repr(state[1])]


def state_spec(state):
    if state[0] == "coherent":
        return StateSpec.coherent(state[1], state[2])
    if state[0] == "tmsv":
        return StateSpec.tmsv(math.sqrt(state[1]))
    return StateSpec.split_photon(math.sqrt(state[1]))


def close(value, expected, tol):
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def negative_mass(state, bins, eta):
    """Negative probability in k_A^T p k_B, built from the program's kernel
    matrix before joint_click_distribution clips it."""
    cfg = DetectorConfig(bins, eta, NU)
    p = simulator.build_photon_distribution(state_spec(state)).probs
    k_a = simulator.click_kernel_matrix(p.shape[0] - 1, cfg)
    k_b = simulator.click_kernel_matrix(p.shape[1] - 1, cfg)
    c = k_a.T @ p @ k_b
    return float(-c[c < 0.0].sum())


class Sampling:
    """simulate -> analyze -> report through cli.main, one dataset per
    operation. Simulation and bootstrap seeds derive from the run seed."""

    def __init__(self, bins, datasets, seed, outdir, replicates=REPLICATES):
        self.bins = bins
        self.replicates = replicates
        self.outdir = Path(outdir)
        self.items = []
        for i, (label, state, eta, shots) in enumerate(datasets):
            sim_seed, ana_seed = (int(v) for v in
                                  np.random.SeedSequence([seed, i]).generate_state(2))
            self.items.append(dict(label=label, state=state, eta=eta, shots=shots,
                                   sim_seed=sim_seed, ana_seed=ana_seed,
                                   counts=self.outdir / f"{label}.csv",
                                   report=self.outdir / f"{label}.json"))
        self._expected = {}

    def simulate_argv(self, item):
        return ["simulate", *state_flags(item["state"]), "--bins", str(self.bins),
                "--eta", repr(item["eta"]), "--nu", repr(NU),
                "--shots", str(item["shots"]), "--seed", str(item["sim_seed"]),
                "--counts-out", str(item["counts"])]

    def analyze_argv(self, item, replicates=None):
        return ["analyze", "--counts", str(item["counts"]),
                "--replicates", str(replicates or self.replicates),
                "--seed", str(item["ana_seed"]), "--threshold", repr(THRESHOLD),
                "--label", item["label"], "--report-out", str(item["report"])]

    def warm_up(self):
        for item in self.items:
            cli.main(self.simulate_argv(item))
            cli.main(self.analyze_argv(item, replicates=2))

    def run_pass(self, between=None, traced=False):
        """One pass. Returns the (simulate, analyze) seconds of each operation
        and the outputs to check; ``between`` runs between operations. A
        traced pass simulates each dataset once, so that per-layer figures
        count one pipeline."""
        times, codes = [], []
        for item in self.items:
            if between is not None:
                between()
            simulate_s = []
            for _ in range(1 if traced else SIMULATE_REPEATS):
                t0 = time.perf_counter()
                code_sim = cli.main(self.simulate_argv(item))
                simulate_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            code_ana = cli.main(self.analyze_argv(item))
            times.append((min(simulate_s), time.perf_counter() - t0))
            codes.append((code_sim, code_ana))
        outputs = [(code, item["counts"].read_text(), item["report"].read_text())
                   for code, item in zip(codes, self.items)]
        return times, outputs

    def expected(self, item, counts_text):
        """Reference statistics, bootstrap errors and exact margins for one
        counts file; cached per file content."""
        key = (item["label"], counts_text)
        if key not in self._expected:
            counts = ref.parse_counts(counts_text)
            point = {k: float(v) for k, v in ref.statistics(counts / counts.sum()).items()}
            errors = ref.bootstrap_stderr(counts, self.replicates, item["ana_seed"])
            exact = {k: float(v) for k, v in ref.statistics(
                ref.joint_clicks(item["state"], self.bins, item["eta"], NU)).items()}
            self._expected[key] = (counts, point, errors, exact)
        return self._expected[key]

    def check(self, outputs):
        """Failure messages per operation (an empty list when it passed)."""
        return [self._check_one(item, *out) for item, out in zip(self.items, outputs)]

    def _check_one(self, item, codes, counts_text, report_text):
        if codes != (0, 0):
            return [f"exit codes {codes}"]
        problems = []

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")
        try:
            report = json.loads(report_text, parse_constant=strict)
        except ValueError as exc:
            return [f"report is not strict JSON: {exc}"]
        counts, point, errors, exact = self.expected(item, counts_text)
        if counts.shape != (self.bins + 1, self.bins + 1) or counts.sum() != item["shots"]:
            problems.append(f"counts shape {counts.shape}, total {counts.sum()}")
        for name in ref.REPORTED:
            entry = report[name]
            stderr, _ = errors[name]
            if math.isnan(point[name]):
                if entry["defined"]:
                    problems.append(f"{name} reported defined, reference undefined")
                continue
            if not close(entry["value"], point[name], POINT_TOL):
                problems.append(f"{name} {entry['value']!r} against {point[name]!r}")
            if stderr is None or entry["stderr"] is None:
                if (stderr is None) != (entry["stderr"] is None):
                    problems.append(f"{name} stderr {entry['stderr']!r}, reference {stderr!r}")
            elif abs(entry["stderr"] - stderr) > STDERR_RTOL * abs(stderr):
                problems.append(f"{name} stderr {entry['stderr']!r}, reference {stderr!r}")
        for verdict, (error_name, _) in ref.VERDICTS.items():
            got = report[verdict]
            margin = ref.verdict_margin(point, verdict)
            stderr, _ = errors[error_name]
            if stderr is None or stderr == 0.0 or math.isnan(margin):
                continue
            sigmas = margin / stderr
            if got["violated"] != bool(sigmas > THRESHOLD):
                problems.append(f"{verdict} violated={got['violated']}, "
                                f"reference {sigmas:.3f} sigma")
            elif not close(got["significance_sigmas"], sigmas, 1e-8):
                problems.append(f"{verdict} at {got['significance_sigmas']!r} sigma, "
                                f"reference {sigmas!r}")
            exact_margin = ref.verdict_margin(exact, verdict)
            if (verdict in PHYSICS_VERDICTS
                    and abs(exact_margin) >= DECISIVE_SIGMAS * stderr
                    and got["violated"] != bool(exact_margin > 0.0)):
                problems.append(f"{verdict} violated={got['violated']} against exact "
                                f"margin {exact_margin:.4g}")
        sampling_error = errors["summed_click_mean"][0]
        if abs(point["summed_click_mean"] - exact["summed_click_mean"]) > \
                SAMPLING_SIGMAS * sampling_error:
            problems.append(f"summed click mean {point['summed_click_mean']!r} is "
                            f"far from exact {exact['summed_click_mean']!r}")
        return problems

    def draw_ms(self):
        """Per-replicate cost of a bootstrap of summed_click_mean alone: the
        floor set by drawing and constructing each replicate."""
        elapsed = 0.0
        for item in self.items:
            counts = CountMatrix(ref.parse_counts(item["counts"].read_text()))
            cfg = BootstrapConfig(REPLICATES, item["ana_seed"], ("summed_click_mean",))
            t0 = time.perf_counter()
            bootstrap(counts, cfg)
            elapsed += time.perf_counter() - t0
        return 1e3 * elapsed / (REPLICATES * len(self.items))

    def negative_mass(self):
        return sum(negative_mass(item["state"], self.bins, item["eta"])
                   for item in self.items)

    def labels(self):
        return [item["label"] for item in self.items]

    def reference_ok(self):
        return ref.chain_closed_form_error(self.bins) <= ref.KERNEL_TOL

    def probe_layers(self):
        """Per-layer figures measured apart from the traced passes."""
        return {"uncertainty.draw_ms": self.draw_ms(),
                "simulator.negative_mass": self.negative_mass()}


class ExactSweep:
    """build_photon_distribution -> joint_click_distribution -> evaluate_all
    on a fixed grid, one grid point per operation. Exact distributions take
    nothing from the seed, which only seeds the probe of probe_layers."""

    def __init__(self, seed, outdir):
        self.seed = seed
        self.points = [(bins, state, eta) for bins in SWEEP_BINS
                       for state in SWEEP_STATES for eta in SWEEP_ETAS]
        self.outdir = Path(outdir)
        self.reference = [{k: float(v) for k, v in
                           ref.statistics(ref.joint_clicks(state, bins, eta, NU)).items()}
                          for bins, state, eta in self.points]

    def warm_up(self):
        for bins, state, eta in self.points[:2]:
            cfg = DetectorConfig(bins, eta, NU)
            criteria.evaluate_all(simulator.joint_click_distribution(
                simulator.build_photon_distribution(state_spec(state)), cfg, cfg))

    def run_pass(self, between=None, traced=False):
        times, reports = [], []
        for bins, state, eta in self.points:
            if between is not None:
                between()
            cfg = DetectorConfig(bins, eta, NU)
            t0 = time.perf_counter()
            jpd = simulator.build_photon_distribution(state_spec(state))
            jcd = simulator.joint_click_distribution(jpd, cfg, cfg)
            t1 = time.perf_counter()
            reports.append(criteria.evaluate_all(jcd))
            t2 = time.perf_counter()
            times.append((t1 - t0, t2 - t1))
        return times, reports

    def check(self, reports):
        return [self._check_one(point, expected, report) for point, expected, report
                in zip(self.points, self.reference, reports)]

    def _check_one(self, point, expected, report):
        problems = []
        for name in ref.REPORTED:
            got = getattr(report, name)
            if not got.defined or not close(got.value, expected[name], EXACT_TOL):
                problems.append(f"{name} {float(got.value):.10g} against {expected[name]:.10g}")
        for verdict in ref.VERDICTS:
            # without errors a verdict is the sign of its margin; where the
            # exact margin is zero to within the tolerance (coherent light sits
            # on every classical bound) the sign is rounding and goes unchecked
            margin = ref.verdict_margin(expected, verdict)
            violated = getattr(report, verdict).violated
            if abs(margin) > EXACT_TOL and violated != bool(margin > 0.0):
                problems.append(f"{verdict} violated={violated}, exact margin {margin:.4g}")
        if point[1][0] == "coherent":
            bounds = {"kappa": report.kappa.value - report.kappa_cl_max.value,
                      "gamma": abs(report.gamma.value) - report.gamma_cl_max.value,
                      "frak_n": -report.frak_n.value}
            problems += [f"coherent light beyond the classical {name} bound by {excess:.4g}"
                         for name, excess in bounds.items() if excess > EXACT_TOL]
        return problems

    def reference_ok(self):
        return all(ref.chain_closed_form_error(bins) <= ref.KERNEL_TOL for bins in SWEEP_BINS)

    def labels(self):
        return [f"bins={bins} {state[0]}{state[1:]} eta={eta}"
                for bins, state, eta in self.points]

    def negative_mass(self):
        return sum(negative_mass(state, bins, eta) for bins, state, eta in self.points)

    def probe_layers(self):
        """Per-layer figures measured apart from the traced passes. The sweep
        never samples, bootstraps or touches files, so those layers are
        timed on a small CLI probe of one sweep state instead."""
        probe = Sampling(16, PROBE, self.seed, self.outdir, replicates=PROBE_REPLICATES)
        tracer = Tracer()
        tracer.install()
        try:
            probe.run_pass(traced=True)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        out = {name: layers[name] for name in OFF_PATH}
        out["uncertainty.draw_ms"] = probe.draw_ms()
        out["simulator.negative_mass"] = self.negative_mass()
        return out


def build(name, seed, outdir):
    if name == "demo-b8":
        return Sampling(8, DEMO_B8, seed, outdir)
    if name == "wide-b16":
        return Sampling(16, WIDE_B16, seed, outdir)
    return ExactSweep(seed, outdir)


WORKLOADS = ("demo-b8", "wide-b16", "exact-sweep")
