"""Command-line interface: simulate datasets, analyze counts, compare reports.

File formats
------------
Counts CSV: a header line ``# bins_a=<N_A> bins_b=<N_B>`` followed by
N_A+1 rows of N_B+1 comma-separated non-negative integers (row index a,
column index b). Exact distributions use the same layout with floats.

Report JSON: flat object with ``schema_version``, one ``{value, stderr,
defined}`` object per statistic, ``{violated, significance_sigmas}`` per
verdict, and full provenance (seed, shots, parameters); model.py declares
this schema-v1 layout once.

Exit codes: 0 success, 1 usage error, 2 data error (malformed or invalid
input). README's CLI section lists the causes of each.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import criteria
from .model import CountMatrix, CriteriaReport, DetectorConfig, ValidationError, normalize
from .simulator import (StateSpec, build_photon_distribution, check_sampling,
                        joint_click_distribution, sample_counts)
from .uncertainty import BootstrapConfig, bootstrap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# Verdict.violated -> table cell; None is an undetermined test
VERDICT_SYMBOLS = {True: "✓", False: "✗", None: "?"}
# The report holds the sidecar two levels down (provenance.parameters). The
# JSON decoder's depth limit depends on the caller's stack, so a fixed bound
# far below it keeps every report analyze writes readable by `report`.
MAX_SIDECAR_DEPTH = 100


def _write_csv(path, matrix: np.ndarray) -> None:
    """The counts CSV layout, for int counts or float probabilities."""
    with open(path, "w") as fh:
        fh.write(f"# bins_a={matrix.shape[0] - 1} bins_b={matrix.shape[1] - 1}\n")
        for row in matrix.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def write_counts_csv(path, counts: CountMatrix) -> None:
    _write_csv(path, counts.counts)


def _parse_header(line: str, path) -> tuple[int, int]:
    try:
        fields = dict(tok.split("=") for tok in line.lstrip("#").split())
        return int(fields["bins_a"]), int(fields["bins_b"])
    except (ValueError, KeyError) as exc:
        raise ValidationError(f"{path}: malformed header line {line!r}") from exc


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text") from exc


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not strict JSON")
    return value


def _read_json(path):
    """The file's JSON value; JSON's non-standard NaN and Infinity, and a
    number beyond the float range, are errors."""
    try:
        return json.loads(_read_text(path), parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: not JSON: {exc}") from exc


def _depth(value) -> int:
    """How many arrays and objects deep a JSON value nests (0 for a scalar);
    counted level by level, since recursion is what the bound guards."""
    depth, level = 0, [value]
    while level := [v for v in level if isinstance(v, (list, dict))]:
        depth += 1
        level = [c for v in level for c in (v.values() if isinstance(v, dict) else v)]
    return depth


def read_counts_csv(path) -> CountMatrix:
    lines = _read_text(path).strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValidationError(f"{path}: missing '# bins_a=... bins_b=...' header")
    bins_a, bins_b = _parse_header(lines[0], path)
    try:
        rows = [[int(v) for v in line.split(",")] for line in lines[1:] if line.strip()]
        counts = np.array(rows, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed counts row") from exc
    if counts.shape != (bins_a + 1, bins_b + 1):
        raise ValidationError(
            f"{path}: expected {bins_a + 1}x{bins_b + 1} matrix, got {counts.shape}")
    return CountMatrix(counts)


def _seed(args) -> int:
    """The --seed given, or a fresh 32-bit one. ``secrets`` loads OpenSSL
    (about 3.5 MB), so it is imported only when a seed must be drawn."""
    if args.seed is not None:
        return args.seed
    import secrets
    return secrets.randbits(32)


def _squared_amplitude(args, flag: str) -> float:
    """The amplitude whose square ``--<flag>`` gives, checked before the root
    is taken."""
    value = getattr(args, flag)
    if value is None:
        raise ValidationError(f"{args.state} requires --{flag}")
    if not 0.0 < value < 1.0:
        raise ValidationError(f"--{flag} must be in (0, 1), got {value}")
    return float(np.sqrt(value))


def _state_spec(args) -> StateSpec:
    if args.state == "coherent":
        return StateSpec.coherent(args.mean_a, args.mean_b)
    if args.state == "tmsv":
        return StateSpec.tmsv(_squared_amplitude(args, "lambda2"))
    return StateSpec.split_photon(_squared_amplitude(args, "t2"))


@contextlib.contextmanager
def _outputs(paths, inputs=()):
    """A temporary beside each of ``paths`` for the command to write, moved
    onto its path once all are written. Entered after the input checks, so
    that an output that cannot be written, or that names an input or another
    output, fails before the work, with an OS error that names the path
    given. A symbolic link is followed, so that the move replaces the file it
    names; a temporary is named by a random token alone, so that it fits
    wherever its path does and no leftover of a killed run blocks it. On any
    error only the temporaries are removed: every output path is left as it
    was."""
    named = {os.path.realpath(path): path for path in inputs}
    moves = []
    try:
        for path in paths:
            target = os.path.realpath(path)
            if target in named:
                raise ValidationError(f"{path}: names the same file as {named[target]}")
            if os.path.exists(target) and not os.path.isfile(target):
                raise ValidationError(f"{path}: an output must be a regular file")
            named[target] = path
            temporary = f"{os.path.dirname(target)}/.clickstats.{os.urandom(8).hex()}.tmp"
            try:
                open(temporary, "x").close()
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            moves.append((temporary, target))
        yield [temporary for temporary, _ in moves]
        for temporary, target in moves:
            os.replace(temporary, target)
    except BaseException:
        for temporary, _ in moves:
            Path(temporary).unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    seed = _seed(args)
    check_sampling(args.shots, seed)
    spec = _state_spec(args)
    cfg_a = DetectorConfig(bins=args.bins, efficiency=args.eta, dark_click=args.nu)
    cfg_b = DetectorConfig(
        bins=args.bins_b if args.bins_b is not None else args.bins,
        efficiency=args.eta_b if args.eta_b is not None else args.eta,
        dark_click=args.nu_b if args.nu_b is not None else args.nu)

    outputs = [args.counts_out, f"{args.counts_out}.meta.json", args.exact_out]
    with _outputs([path for path in outputs if path]) as (counts_out, sidecar, *exact_out):
        jpd = build_photon_distribution(spec)
        jcd = joint_click_distribution(jpd, cfg_a, cfg_b)
        counts = sample_counts(jcd, args.shots, seed)
        write_counts_csv(counts_out, counts)
        for path in exact_out:
            _write_csv(path, jcd.probs)
        meta = {"state": args.state, "label": jpd.label, "seed": seed, "shots": args.shots}
        for arm, cfg in (("a", cfg_a), ("b", cfg_b)):
            meta[f"detector_{arm}"] = {"bins": cfg.bins, "eta": cfg.efficiency,
                                       "nu": cfg.dark_click}
        Path(sidecar).write_text(json.dumps(meta, indent=2, allow_nan=False))
    print(f"wrote {args.counts_out} ({args.shots} shots, seed {seed})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    criteria.check_threshold(args.threshold)
    config = BootstrapConfig(replicates=args.replicates, seed=_seed(args))
    counts = read_counts_csv(args.counts)
    meta_path = Path(str(args.counts) + ".meta.json")
    parameters = _read_json(meta_path) if meta_path.exists() else {}
    if not isinstance(parameters, dict) or type(parameters.get("label", "")) is not str:
        raise ValidationError(f"{meta_path}: sidecar must be a JSON object whose "
                              f"label, if any, is a string")
    if _depth(parameters) > MAX_SIDECAR_DEPTH:
        raise ValidationError(f"{meta_path}: sidecar nests deeper than "
                              f"{MAX_SIDECAR_DEPTH} arrays and objects")
    with _outputs([args.report_out], inputs=[args.counts, meta_path]) as [report_out]:
        jcd = normalize(counts)
        errors = bootstrap(counts, config)
        report = dataclasses.replace(
            criteria.evaluate_all(jcd, errors=errors, threshold=args.threshold),
            total_shots=counts.total, bootstrap_replicates=config.replicates,
            seed=config.seed, parameters=parameters,
            label=args.label or parameters.get("label") or Path(args.counts).stem,
            condition_counts=tuple(int(v) for v in counts.counts.sum(axis=1)))
        with open(report_out, "w") as fh:
            # json.dump, not one write of json.dumps: pipebench times it as
            # cli.write_report_s
            json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
    print(f"wrote {args.report_out}")
    return EXIT_OK


def render_report_table(reports: list[CriteriaReport]) -> str:
    header = ("dataset", "E(a+b)", "kappa>bound", "|gamma|>bound", "N<0",
              "frak_n (rel err)")
    rows = [header]
    for r in reports:
        e = r.summed_click_mean
        e_txt = f"{e.value:.5f}" if e.defined else "n/a"
        n = r.frak_n
        if n.defined and n.stderr and n.value != 0.0:
            n_txt = f"{n.value:.3e} (1±{abs(n.stderr / n.value) * 100:.1f}%)"
        elif n.defined:
            n_txt = f"{n.value:.3e}"
        else:
            n_txt = "n/a"
        label = "".join(c if c.isprintable() else repr(c)[1:-1] for c in r.label or "-")
        rows.append((label, e_txt,
                     VERDICT_SYMBOLS[r.kappa_test.violated],
                     VERDICT_SYMBOLS[r.gamma_test.violated],
                     VERDICT_SYMBOLS[r.frak_n_test.violated],
                     n_txt))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def cmd_report(args) -> int:
    reports = [CriteriaReport.from_dict(_read_json(path)) for path in args.reports]
    table = render_report_table(reports)
    # a stdout that cannot encode the verdict symbols gets their escapes
    encoding = sys.stdout.encoding or "utf-8"
    print(table.encode(encoding, "backslashreplace").decode(encoding))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickstats",
        description="Simulate and analyze two-mode click-counting statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a simulated counts file")
    sim.add_argument("--state", required=True,
                     choices=["coherent", "tmsv", "split-photon"])
    sim.add_argument("--mean-a", type=float, default=0.0,
                     help="coherent mean photon number, arm A")
    sim.add_argument("--mean-b", type=float, default=0.0)
    sim.add_argument("--lambda2", type=float, help="TMSV pair probability lambda^2")
    sim.add_argument("--t2", type=float, help="split-photon weight t^2 on arm A")
    sim.add_argument("--bins", type=int, default=8)
    sim.add_argument("--eta", type=float, default=1.0)
    sim.add_argument("--nu", type=float, default=0.0)
    sim.add_argument("--bins-b", type=int, help="override arm-B bin count")
    sim.add_argument("--eta-b", type=float, help="override arm-B efficiency")
    sim.add_argument("--nu-b", type=float, help="override arm-B dark-click prob")
    sim.add_argument("--shots", type=int, required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--counts-out", required=True)
    sim.add_argument("--exact-out", help="also write the exact distribution CSV")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="run all criteria on a counts file")
    ana.add_argument("--counts", required=True)
    ana.add_argument("--replicates", type=int, default=1000)
    ana.add_argument("--threshold", type=float, default=3.0,
                     help="significance threshold in standard errors")
    ana.add_argument("--seed", type=int, help="bootstrap seed")
    ana.add_argument("--label", help="dataset label for the report table")
    ana.add_argument("--report-out", required=True)
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("report", help="render a comparison table from reports")
    rep.add_argument("reports", nargs="+")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
