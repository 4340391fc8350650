"""Pipeline benchmark for clickstats.

Run from the repository root:

    python3 pipebench/run.py --workload demo-b8 --seed 1 --seconds 30 --trace 0

A run repeats whole passes over the workload until ``--seconds`` have gone,
checks every output against the reference computations in this directory and
prints one JSON line: end-to-end metrics with ``--trace 0``, per-layer
metrics from spans around calls into clickstats with ``--trace 1``. See
README.md in this directory.
"""
import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, no added threads: hold BLAS to one thread before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 12
SETUP_CODE = "import clickstats.cli as cli; cli.build_parser()"
# A small shared virtual machine (measured on 2 vCPUs of a 2.1 GHz Xeon)
# changes speed by up to 40 % for stretches of a fraction of a second to
# minutes, in wall and in CPU time alike. Every time is therefore scaled by the
# speed of a fixed calibration loop timed just before and just after it.
CALIBRATION_SWEEPS = 1000
CALIBRATION_REFERENCE_S = 0.01


def import_package():
    """Import clickstats from this checkout's src/ and nowhere else."""
    if not (SRC / "clickstats" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no clickstats package under {SRC}")
    sys.path.insert(0, str(SRC))
    import clickstats
    if Path(clickstats.__file__).resolve().parent != SRC / "clickstats":
        raise SystemExit(f"benchmark: clickstats imported from {clickstats.__file__}")


def calibration_loop():
    """Seconds taken by fixed pure-Python arithmetic (Givens rotations of a
    6x6 list matrix). It shares no code with clickstats, so its time follows
    the machine alone."""
    m = [[1.0 / (i + j + 1) for j in range(6)] for i in range(6)]
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_SWEEPS):
        for p in range(5):
            for q in range(p + 1, 6):
                for row in m:
                    a, b = row[p], row[q]
                    row[p] = 0.8 * a - 0.6 * b
                    row[q] = 0.6 * a + 0.8 * b
    return time.perf_counter() - t0


class Clock:
    """Machine speed around every operation, and set-up samples.

    ``mark`` runs before each operation and after the last one of a pass. It
    times the calibration loop, and now and then a fresh interpreter that
    imports clickstats.cli and builds its parser (the set-up), bracketed by
    calibrations of its own. ``scale`` turns a time measured between two
    marks into reference seconds: seconds at the speed at which the
    calibration loop takes CALIBRATION_REFERENCE_S.
    """

    def __init__(self, seconds, setup):
        self.setup_interval = seconds / SETUP_SAMPLES if setup else None
        self.setup_s = []
        self.last_setup = -float("inf")
        self.after = []     # calibration at each mark, closing the operation before
        self.before = []    # calibration at each mark, opening the operation after
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _setup(self, calibration):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT,
                       check=True)
        self.last_setup = time.perf_counter()
        closing = calibration_loop()
        self.setup_s.append((self.last_setup - t0) * CALIBRATION_REFERENCE_S
                            / ((calibration + closing) / 2))
        return closing

    def mark(self):
        calibration = calibration_loop()
        self.after.append(calibration)
        if (self.setup_interval is not None
                and time.perf_counter() - self.last_setup >= self.setup_interval):
            calibration = self._setup(calibration)
        self.before.append(calibration)

    def scale(self, first_mark, stages):
        """Scale the stage times of the operation between mark ``first_mark``
        and the next. The first stage, short and right after the opening
        calibration, is scaled by that one; the rest by both."""
        opening = self.before[first_mark]
        around = (opening + self.after[first_mark + 1]) / 2
        first, *rest = stages
        return (first * CALIBRATION_REFERENCE_S / opening,
                *(t * CALIBRATION_REFERENCE_S / around for t in rest))

    def setup_median(self):
        while len(self.setup_s) < SETUP_SAMPLES // 2:
            self._setup(calibration_loop())
        return statistics.median(self.setup_s)


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    work = workloads.build(args.workload, args.seed, outdir)
    clock = Clock(args.seconds, setup=not args.trace)
    # the CLI reports progress on stdout; keep stdout for the result line
    with contextlib.redirect_stdout(sys.stderr):
        work.warm_up()
        attempted, failed, metrics = measure(work, args.seconds, args.trace, outdir, clock)
        if not args.trace:
            metrics["setup_s"] = clock.setup_median()
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                      / 1024)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"benchmark: measured {sorted(metrics)}, declared {sorted(units)}")
    result = {"correct": work.reference_ok(), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))


def per_operation(passes, stage):
    """Each operation's median scaled time over the passes."""
    return [statistics.median(times[op][stage] for times in passes)
            for op in range(len(passes[0]))]


def measure(work, seconds, trace, outdir, clock):
    """Whole passes until ``seconds`` have gone; with ``trace``, untraced and
    traced passes alternate. Operation times are scaled by ``clock``.
    Returns (attempted, failed, metrics)."""
    from tracer import Tracer
    tracer = Tracer() if trace else None
    passes, traced_passes, layers, outputs = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(traced_passes)
        if traced:
            tracer.reset()
            tracer.install()
        first_mark = len(clock.before)
        try:
            times, out = work.run_pass(clock.mark, traced)
        finally:
            if traced:
                tracer.uninstall()
        clock.mark()
        scaled = [clock.scale(first_mark + op, stages) for op, stages in enumerate(times)]
        (traced_passes if traced else passes).append(scaled)
        outputs.append(out)
        print(f"pass {len(outputs)}{' traced' if traced else ''}: "
              f"simulate {sum(t[0] for t in times):.3f} s, "
              f"analyze {sum(t[1] for t in times):.3f} s "
              f"({' '.join(f'{t[1]:.3f}' for t in times)}); "
              f"{sum(map(sum, scaled)):.3f} reference s", file=sys.stderr)
        if traced:
            layers.append(tracer.layer_metrics())
            (outdir / "trace.json").write_text(json.dumps(tracer.dump(), indent=1))
        if time.perf_counter() - start >= seconds and (tracer is None or traced_passes):
            break

    problems = [work.check(out) for out in outputs]
    attempted = sum(len(per_pass) for per_pass in problems)
    failed = sum(bool(p) for per_pass in problems for p in per_pass)
    for label, problem in zip(work.labels(), problems[0]):
        if problem:
            print(f"FAILED {label}: " + "; ".join(problem), file=sys.stderr)

    simulate, analyze = per_operation(passes, 0), per_operation(passes, 1)
    if tracer is None:
        pipeline_s = sum(simulate) + sum(analyze)
        return attempted, failed, {
            "pipeline_s": pipeline_s,
            "simulate_s": statistics.fmean(simulate),
            "analyze_s": statistics.fmean(analyze),
            "points_per_s": len(simulate) / pipeline_s,
        }
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics.update(work.probe_layers())
    traced_s = sum(per_operation(traced_passes, 0)) + sum(per_operation(traced_passes, 1))
    metrics["trace.overhead_s"] = traced_s - sum(simulate) - sum(analyze)
    return attempted, failed, metrics


if __name__ == "__main__":
    main()
