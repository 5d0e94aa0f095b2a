"""Command-line interface.

Subcommands: solve, verify, enumerate, classify, simulate, analyze,
thresholds.  All reports are printed as JSON with sorted keys so repeated
invocations with the same inputs and seed are byte-identical.  Exit codes:
0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, equilibria, session_io, structure, verifier
from .dynamics import batch_run
from .errors import LqnetError
from .model import get_treatment

_WINDOW_HELP = "analysis window: 'full', 'last10', or 'start:end' (1-based, inclusive)"


def _parse_window(text: str):
    if text in ("full", "last10"):
        return text
    if ":" in text:
        a, b = text.split(":", 1)
        return (int(a), int(b))
    raise argparse.ArgumentTypeError(f"bad window {text!r}; {_WINDOW_HELP}")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(obj) -> None:
    try:  # flush here, so that a reader who closed the pipe fails here, not at exit
        print(json.dumps(obj, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _clean(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _cmd_solve(args) -> int:
    treatment = get_treatment(args.treatment)
    params = treatment.params
    network = session_io.load_network(args.network, n=params.n)
    solution = (
        equilibria.efficient_efforts(params, network)
        if args.efficient
        else equilibria.nash_efforts(params, network)
    )
    report = equilibria.equilibrium_payoffs(params, network, solution.efforts)
    _emit(
        _clean(
            {
                "treatment": treatment.name,
                "objective": "efficient" if args.efficient else "nash",
                "efforts": solution.efforts.efforts,
                "per_agent_payoffs": report.per_agent,
                "group_average": report.group_average,
                "capped": solution.capped,
                "converged": solution.converged,
                "residual": solution.residual,
            }
        )
    )
    return 0


def _cmd_verify(args) -> int:
    treatment = get_treatment(args.treatment)
    profile = session_io.profile_from_obj(session_io.read_json(args.profile, "profile"))
    report = verifier.verify_nash(treatment.params, profile)
    worst = None
    if report.worst_deviation is not None:
        d = report.worst_deviation
        worst = {
            "agent": d.agent + 1,
            "targets": [t + 1 for t in d.targets],
            "effort": d.effort,
            "gain": d.gain,
        }
    _emit(
        _clean(
            {
                "treatment": treatment.name,
                "is_nash": report.is_nash,
                "worst_deviation": worst,
                "checked_deviations": report.checked_deviations,
            }
        )
    )
    return 0


def _cmd_enumerate(args) -> int:
    treatment = get_treatment(args.treatment)
    reports = verifier.enumerate_ne_networks(treatment.params)
    entries = []
    for rep in reports:
        entry = {
            "edges": session_io.network_to_obj(rep.network)["edges"],
            "links": rep.network.link_count(),
            "label": structure.classify(rep.network).label,
            "supportable": rep.supportable,
            "orientations_tried": rep.orientations_tried,
        }
        if rep.witness is not None:
            entry["witness"] = session_io.profile_to_obj(rep.witness)
        entries.append(entry)
    supportable = sorted(
        {e["label"] for e in entries if e["supportable"]}
    )
    _emit(
        _clean(
            {
                "treatment": treatment.name,
                "candidates": entries,
                "supportable_labels": supportable,
            }
        )
    )
    return 0


def _cmd_classify(args) -> int:
    network = session_io.load_network(args.network, n=args.n)
    label = structure.classify(network)
    _emit(
        _clean(
            {
                "label": label.label,
                "nested_split": structure.is_nested_split(network),
                "core": sorted(v + 1 for v in label.core) if label.core is not None else None,
                "periphery": sorted(v + 1 for v in label.periphery)
                if label.periphery is not None
                else None,
                "stats": dataclasses.asdict(structure.stats(network)),
            }
        )
    )
    return 0


def _cmd_simulate(args) -> int:
    for flag, value in (("--periods", args.periods), ("--reps", args.reps)):
        if value < 1:
            return _usage_error(f"{flag} must be at least 1, got {value}")
    treatment = get_treatment(args.treatment)
    params = treatment.params
    policies = session_io.load_policies(args.policy, params.n)
    records = batch_run(params, policies, args.periods, args.reps, args.seed)
    out_dir = Path(args.out)
    paths = [session_io.write_record(rec, out_dir) for rec in records]
    _emit(
        {
            "treatment": treatment.name,
            "periods": args.periods,
            "replications": args.reps,
            "base_seed": args.seed,
            "written": [str(p) for p in paths],
        }
    )
    return 0


def _cmd_analyze(args) -> int:
    treatment = get_treatment(args.treatment)
    records = session_io.read_records(args.in_dir)
    window = args.window
    eff = analysis.efficiency_report(records, treatment, window)
    freq = analysis.frequency_report(records, window)
    diags = [analysis.link_diagnostics(rec, window) for rec in records]
    summary = analysis.treatment_summary(records, treatment, window)
    csv_path = Path(args.csv) if args.csv else Path(args.in_dir) / session_io.SUMMARY_CSV
    _write_summary_csv(summary, csv_path)
    _emit(
        _clean(
            {
                "treatment": treatment.name,
                "window": list(summary.window),
                "efficiency": {
                    "avg_effort": eff.avg_effort,
                    "avg_payoff": eff.avg_payoff,
                    "relative_efficiency": eff.relative_efficiency,
                },
                "frequency": {
                    name: {"exact": f.exact, "within_two": f.within_two}
                    for name, f in freq.per_architecture.items()
                },
                "link_diagnostics": {
                    f.name: float(np.mean([getattr(d, f.name) for d in diags]))
                    for f in dataclasses.fields(analysis.LinkDiagnostics)
                    if f.name != "window"
                },
                "summary": {
                    "overall_means": summary.overall_means,
                    "overall_stds": summary.overall_stds,
                },
                "csv": str(csv_path),
            }
        )
    )
    return 0


def _write_summary_csv(summary: analysis.TreatmentSummary, path: Path) -> None:
    import csv as _csv

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["group"] + [f"{f}_{s}" for f in analysis.SUMMARY_FIELDS for s in ("mean", "std")])
        for group in summary.per_group:
            writer.writerow(
                [group.session_id]
                + [
                    repr(v)
                    for f in analysis.SUMMARY_FIELDS
                    for v in (group.means[f], group.stds[f])
                ]
            )
        writer.writerow(
            ["overall"]
            + [
                repr(v)
                for f in analysis.SUMMARY_FIELDS
                for v in (summary.overall_means[f], summary.overall_stds[f])
            ]
        )


def _cmd_thresholds(args) -> int:
    if args.grid_points < 2:
        return _usage_error(f"--grid-points must be at least 2, got {args.grid_points}")
    treatment = get_treatment(args.treatment)
    result = equilibria.cost_thresholds(
        treatment.params, grid_points=args.grid_points
    )
    _emit(
        _clean(
            {
                "treatment": treatment.name,
                "kappa1": result.kappa1,
                "kappa2": result.kappa2,
                "method_notes": result.method_notes,
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqnet",
        description="Linear-quadratic network-game toolkit: solvers, verification, simulation, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium or efficient efforts and payoffs on a network")
    p.add_argument("--treatment", required=True)
    p.add_argument("--network", required=True, help="'empty', 'star', 'complete' or a JSON file")
    p.add_argument("--efficient", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="exhaustive Nash check of a strategy profile")
    p.add_argument("--treatment", required=True)
    p.add_argument("--profile", required=True, help="JSON profile file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="equilibrium-supportable candidate networks")
    p.add_argument("--treatment", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="architecture label, nested-split verdict and stats")
    p.add_argument("--network", required=True, help="JSON network file, or a named architecture with --n")
    p.add_argument("--n", type=int, default=None, help="group size for named architectures")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run seeded behavioral sessions and write records")
    p.add_argument("--treatment", required=True)
    p.add_argument("--policy", required=True, help="policy file (YAML or JSON)")
    p.add_argument("--periods", type=int, default=30)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="aggregate metrics over recorded sessions")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--window", type=_parse_window, default="full", help=_WINDOW_HELP)
    p.add_argument("--csv", default=None, help="summary CSV path (default: <in>/summary.csv)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("thresholds", help="linking-cost cutoffs for equilibrium support")
    p.add_argument("--treatment", required=True)
    p.add_argument("--grid-points", type=int, default=161)
    p.set_defaults(func=_cmd_thresholds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LqnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
