"""Command-line interface.

Subcommands: solve, verify, enumerate, classify, simulate, analyze,
thresholds.  Each ``_cmd_*`` returns its report, and `main` alone prints it, as
JSON with sorted keys so repeated invocations with the same inputs and seed are
byte-identical, and picks the exit code: 0 on success, 1 on domain errors
(a failed read or write among them) and 2 on usage errors.
"""

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, equilibria, files, session_io, structure, verifier
from .errors import LqnetError
from .model import get_treatment

_WINDOW_HELP = "analysis window: 'full', 'last10', or 'start:end' (1-based, inclusive)"


def _parse_window(text: str):
    if text in ("full", "last10"):
        return text
    a, _, b = text.partition(":")
    try:
        return (int(a), int(b))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; {_WINDOW_HELP}") from None


class _UsageError(Exception):
    """A flag value the command refuses: one ``error:`` line and exit code 2."""


def _emit(obj) -> bool:
    """Print ``obj`` as JSON; False when the reader has closed the pipe."""
    try:  # flush here, so that a reader who closed the pipe fails here, not at exit
        print(json.dumps(obj, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _clean(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _ids(indices):
    """0-based agent indices as sorted 1-based IDs; None stays None."""
    return None if indices is None else sorted(i + 1 for i in indices)


def _cmd_solve(args) -> dict:
    treatment = get_treatment(args.treatment)
    params = treatment.params
    network = files.load_network(args.network, n=params.n)
    solve = equilibria.efficient_efforts if args.efficient else equilibria.nash_efforts
    solution = solve(params, network)
    report = equilibria.equilibrium_payoffs(params, network, solution.efforts)
    return {
        "treatment": treatment.name,
        "objective": "efficient" if args.efficient else "nash",
        "efforts": solution.efforts.efforts,
        "per_agent_payoffs": report.per_agent,
        "group_average": report.group_average,
        "capped": solution.capped,
        "converged": solution.converged,
        "residual": solution.residual,
    }


def _cmd_verify(args) -> dict:
    treatment = get_treatment(args.treatment)
    profile = files.profile_from_obj(files.read_json(args.profile, "profile"))
    report = verifier.verify_nash(treatment.params, profile)
    d = report.worst_deviation
    return {
        "treatment": treatment.name,
        "is_nash": report.is_nash,
        "worst_deviation": None if d is None else {
            "agent": d.agent + 1, "targets": _ids(d.targets), "effort": d.effort, "gain": d.gain,
        },
        "checked_deviations": report.checked_deviations,
    }


def _cmd_enumerate(args) -> dict:
    treatment = get_treatment(args.treatment)
    entries = []
    for rep in verifier.enumerate_ne_networks(treatment.params):
        entry = {
            "edges": files.network_to_obj(rep.network)["edges"],
            "links": rep.network.link_count(),
            "label": structure.classify(rep.network).label,
            "supportable": rep.supportable,
            "orientations_tried": rep.orientations_tried,
        }
        if rep.witness is not None:
            entry["witness"] = files.profile_to_obj(rep.witness)
        entries.append(entry)
    return {
        "treatment": treatment.name,
        "candidates": entries,
        "supportable_labels": sorted({e["label"] for e in entries if e["supportable"]}),
    }


def _cmd_classify(args) -> dict:
    network = files.load_network(args.network, n=args.n)
    label = structure.classify(network)
    return {
        "label": label.label,
        "nested_split": label.label != "NonNestedSplit",
        "core": _ids(label.core),
        "periphery": _ids(label.periphery),
        "stats": structure.stats(network)._asdict(),
    }


def _cmd_simulate(args) -> dict:
    for flag, value in (("--periods", args.periods), ("--reps", args.reps)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    treatment = get_treatment(args.treatment)
    params = treatment.params
    policies = session_io.load_policies(args.policy, params.n)
    records = dynamics.batch_run(params, policies, args.periods, args.reps, args.seed)
    paths = [Path(args.out) / f"{rec.session_id}{ext}" for rec in records for ext in (".csv", ".json")]
    if taken := next((path for path in paths if path.exists()), None):
        raise LqnetError(f"{taken}: already exists; simulate does not replace a record")
    return {
        "treatment": treatment.name,
        "periods": args.periods,
        "replications": args.reps,
        "base_seed": args.seed,
        "written": [str(session_io.write_record(rec, args.out)) for rec in records],
    }


def _cmd_analyze(args) -> dict:
    treatment = get_treatment(args.treatment)
    records = session_io.read_records(args.in_dir, treatment.params)
    csv_path = Path(args.csv) if args.csv else Path(args.in_dir) / session_io.SUMMARY_CSV
    if any(csv_path.resolve() == (Path(args.in_dir) / f"{rec.session_id}{ext}").resolve()
           for rec in records for ext in (".csv", ".json")):
        raise LqnetError(f"{csv_path}: is a session record that analyze reads; --csv would replace it")
    window = args.window
    freq = analysis.frequency_report(records, window)
    diags = [analysis.link_diagnostics(rec, window) for rec in records]
    summary = analysis.treatment_summary(records, treatment.params, window)
    _write_summary_csv(summary, csv_path)
    return {
        "treatment": treatment.name,
        "window": list(summary.window),
        "efficiency": {f: summary.overall_means[f]
                       for f in ("avg_effort", "avg_payoff", "relative_efficiency")},
        "frequency": {
            name: {"exact": f.exact, "within_two": f.within_two}
            for name, f in freq.per_architecture.items()
        },
        "link_diagnostics": {
            name: float(np.mean([getattr(d, name) for d in diags]))
            for name in analysis.LinkDiagnostics._fields
            if name != "window"
        },
        "summary": {
            "overall_means": summary.overall_means,
            "overall_stds": summary.overall_stds,
        },
        "csv": str(csv_path),
    }


def _write_summary_csv(summary: "analysis.TreatmentSummary", path: Path) -> None:
    """One row per group and an ``overall`` row: each field's mean and std, as ``repr``."""
    import csv

    fields = analysis.SUMMARY_FIELDS
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["group"] + [f"{f}_{s}" for f in fields for s in ("mean", "std")])
    for name, means, stds in [*summary.per_group,
                              ("overall", summary.overall_means, summary.overall_stds)]:
        writer.writerow([name] + [repr(v) for f in fields for v in (means[f], stds[f])])
    files.write_text(path, out.getvalue(), "summary CSV", newline="")


def _cmd_thresholds(args) -> dict:
    treatment = get_treatment(args.treatment)
    result = equilibria.cost_thresholds(treatment.params)
    return {
        "treatment": treatment.name,
        "kappa1": result.kappa1,
        "kappa2": result.kappa2,
        "method_notes": result.method_notes,
    }


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

    p = sub.add_parser("verify", help="exact Nash check of a strategy profile")
    p.add_argument("--treatment", required=True)
    p.add_argument(
        "--profile",
        required=True,
        help="JSON profile file; its n must equal the treatment's group size",
    )
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
    p.set_defaults(func=_cmd_thresholds)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: print its report and return 0, or print one ``error:``
    line and return 2 for a refused flag value and 1 for a domain error; a
    reader who closed the pipe also ends in 1."""
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except (_UsageError, LqnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0 if _emit(_clean(report)) else 1


if __name__ == "__main__":
    sys.exit(main())
