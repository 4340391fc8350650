"""Spans around calls into clickstats, recorded from outside the package.

``Tracer.install`` replaces public functions (and the module globals through
which the package calls them) with timing wrappers; ``uninstall`` puts the
originals back. Spans are aggregated as they close: total seconds and calls
per name, and per (name, enclosing span name) pair, so that shares such as
"frak_n inside the bootstrap" are measured where the work happens.
"""
import json
import time
import types
from collections import defaultdict

from reference import STATISTICS


class Tracer:
    def __init__(self):
        self.stack = []
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.kept_fraction = []
        self._undo = []

    def reset(self):
        self.seconds.clear()
        self.calls.clear()
        self.counters.clear()
        self.kept_fraction.clear()

    def _record(self, name, seconds):
        self.seconds[name] += seconds
        self.calls[name] += 1
        for outer in self.stack:
            self.seconds[(name, outer)] += seconds
            self.calls[(name, outer)] += 1

    def wrap(self, fn, name, on_call=None, on_return=None):
        """A timing wrapper; ``name`` is a string or a function of the call's
        positional arguments."""
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if on_call is not None:
                on_call(args)
            self.stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self._record(span, elapsed)
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def patch(self, owner, attr, name, **hooks):
        """Replace owner.attr (or owner[attr] for a dict) by a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, **hooks)
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, **hooks))
            self._undo.append(lambda: setattr(owner, attr, original))

    def install(self):
        from clickstats import cli, criteria, model, simulator, uncertainty

        def count_rows(args):
            self.counters["simulator.kernel_rows"] += args[0] + 1

        def count_matrix(args):
            self.counters["criteria.moment_matrices"] += 1

        def note_bootstrap(args, result):
            self.counters["uncertainty.replicates"] += args[1].replicates
            self.kept_fraction.append(min(1.0 - s.drop_fraction for s in result.values()))

        for owner in (simulator, cli):
            self.patch(owner, "build_photon_distribution", "simulator.photon_dist")
            self.patch(owner, "joint_click_distribution", "simulator.joint_dist")
            self.patch(owner, "sample_counts", "simulator.sample_counts")
        self.patch(simulator, "click_kernel_matrix", "simulator.kernel_matrix",
                   on_call=count_rows)
        for owner in (model, cli):
            self.patch(owner, "normalize", "model.normalize")
        for owner in (uncertainty, cli):
            self.patch(owner, "bootstrap", "uncertainty.bootstrap",
                       on_return=note_bootstrap)
        for key in list(uncertainty.STATISTICS):
            self.patch(uncertainty.STATISTICS, key, "stat." + key)
        # evaluate_all computes each statistic through _estimate / _verdict,
        # whose fourth argument is the statistic's name
        for helper in ("_estimate", "_verdict"):
            if hasattr(criteria, helper):
                self.patch(criteria, helper, lambda args: "stat." + args[3])
        self.patch(criteria, "evaluate_all", "criteria.evaluate_all")
        self.patch(criteria, "conditional_nonclassicality_number", "criteria.frak_n_call")
        self.patch(criteria, "moment_matrix", "criteria.moment_matrix",
                   on_call=count_matrix)
        self.patch(criteria, "jacobi_eigh", "kernels.jacobi")
        self.patch(cli, "write_counts_csv", "cli.write_counts")
        self.patch(cli, "read_counts_csv", "cli.read_counts")
        self.patch(cli, "cmd_analyze", "cli.analyze")
        # cli writes the report with json.dump; give cli its own json module
        # whose dump is timed
        timed_json = types.ModuleType("json")
        timed_json.__dict__.update(json.__dict__)
        timed_json.dump = self.wrap(json.dump, "cli.json_dump")
        original_json = cli.json
        cli.json = timed_json
        self._undo.append(lambda: setattr(cli, "json", original_json))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def layer_metrics(self):
        """Per-layer figures for the spans recorded since the last reset."""
        s, n, c = self.seconds, self.calls, self.counters
        boot = s["uncertainty.bootstrap"]
        replicates = c["uncertainty.replicates"]
        out = {
            "simulator.photon_dist_s": s["simulator.photon_dist"],
            "simulator.kernel_matrix_s": s["simulator.kernel_matrix"],
            "simulator.kernel_rows": c["simulator.kernel_rows"],
            "simulator.joint_dist_s": s["simulator.joint_dist"],
            "simulator.sample_counts_s": s["simulator.sample_counts"],
            "model.normalize_s": s["model.normalize"],
            "criteria.moment_matrices": c["criteria.moment_matrices"],
            "kernels.jacobi_s": s["kernels.jacobi"],
            "criteria.evaluate_all_s": s["criteria.evaluate_all"],
            "criteria.evaluate_all_frak_n_calls":
                n[("criteria.frak_n_call", "criteria.evaluate_all")]
                / max(n["criteria.evaluate_all"], 1),
            "uncertainty.bootstrap_s": boot,
            "uncertainty.replicate_ms": 1e3 * boot / replicates if replicates else 0.0,
            "uncertainty.frak_n_share":
                s[("stat.frak_n", "uncertainty.bootstrap")] / boot if boot else 0.0,
            "uncertainty.kept_fraction": min(self.kept_fraction, default=0.0),
            "cli.write_counts_s": s["cli.write_counts"],
            "cli.read_counts_s": s["cli.read_counts"],
            "cli.write_report_s": s[("cli.json_dump", "cli.analyze")],
        }
        for key in STATISTICS:
            layer = "stats" if key == "summed_click_mean" else "criteria"
            out[f"{layer}.{key}_s"] = s["stat." + key]
        return out

    def dump(self):
        """Every aggregate, as JSON-ready rows."""
        def label(key):
            return key if isinstance(key, str) else f"{key[0]} < {key[1]}"
        return {"seconds": {label(k): v for k, v in self.seconds.items()},
                "calls": {label(k): v for k, v in self.calls.items()},
                "counters": dict(self.counters)}
