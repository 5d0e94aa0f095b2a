"""Aggregate metrics over session records, mirroring the outcome tables.

Includes realized-efficiency reporting against the complete-network
equilibrium benchmark, equilibrium-architecture frequency with a two-link
slack, per-period link-profitability diagnostics, pooled least-squares
estimation of the effort-adjustment rule, and a per-group summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import SessionRecord
from .equilibria import equilibrium_payoffs, nash_efforts
from .errors import LqnetError, RankDeficientDataError
from .model import GameParams, Network, Treatment, best_response
from .structure import ARCHITECTURES, architecture_distances, period_stats

Window = tuple[int, int]


@dataclass(frozen=True)
class EfficiencyReport:
    avg_effort: float
    avg_payoff: float
    relative_efficiency: float
    window: Window


@dataclass(frozen=True)
class ArchitectureFrequency:
    exact: float
    within_two: float


@dataclass(frozen=True)
class FrequencyReport:
    per_architecture: dict[str, ArchitectureFrequency]
    window: Window


@dataclass(frozen=True)
class LinkDiagnostics:
    avg_profitable_missing: float
    profitable_missing_share: float
    avg_unprofitable_existing: float
    unprofitable_existing_share: float
    reciprocated_share: float
    window: Window


@dataclass(frozen=True)
class FitResult:
    b0: float
    b1: float
    b2: float
    residual_sum_squares: float
    observation_count: int


@dataclass(frozen=True)
class GroupSummary:
    session_id: str
    means: dict[str, float]
    stds: dict[str, float]


@dataclass(frozen=True)
class TreatmentSummary:
    treatment: str
    window: Window
    per_group: list[GroupSummary]
    overall_means: dict[str, float]
    overall_stds: dict[str, float]


SUMMARY_FIELDS = (
    "link_count",
    "link_fraction",
    "avg_degree",
    "min_degree",
    "max_degree",
    "clustering",
    "avg_effort",
    "avg_payoff",
    "relative_efficiency",
    "nash_effort_on_network",
)


def resolve_window(window, T: int) -> Window:
    """Normalize a window spec ("full", "last10", or a 1-based (start, end))."""
    if window == "full" or window is None:
        return (1, T)
    if window == "last10":
        return (max(1, T - 9), T)
    start, end = int(window[0]), int(window[1])
    if not (1 <= start <= end <= T):
        raise LqnetError(f"window {window} invalid for a {T}-period record")
    return (start, end)


def _windows(records: list[SessionRecord], window) -> list[Window]:
    """Each record's resolved window, in record order."""
    if not records:
        raise LqnetError("no records supplied")
    return [resolve_window(window, rec.T) for rec in records]


def _params_of(treatment: Treatment | GameParams) -> GameParams:
    return treatment.params if isinstance(treatment, Treatment) else treatment


@lru_cache(maxsize=32)
def complete_equilibrium_average(params: GameParams) -> float:
    """Group-average equilibrium payoff on the complete network (the
    relative-efficiency denominator)."""
    complete = Network.complete(params.n)
    efforts = nash_efforts(params, complete).efforts
    return equilibrium_payoffs(params, complete, efforts).group_average


def efficiency_report(
    records: list[SessionRecord],
    treatment: Treatment | GameParams,
    window="full",
) -> EfficiencyReport:
    """Realized average effort and payoff, and their ratio to the
    complete-network equilibrium payoff."""
    params = _params_of(treatment)
    windows = _windows(records, window)
    pairs = list(zip(records, windows))
    avg_effort = float(np.mean([rec.efforts[s - 1 : e].mean() for rec, (s, e) in pairs]))
    avg_payoff = float(np.mean([rec.payoffs[s - 1 : e, :, 4].mean() for rec, (s, e) in pairs]))
    return EfficiencyReport(
        avg_effort=avg_effort,
        avg_payoff=avg_payoff,
        relative_efficiency=avg_payoff / complete_equilibrium_average(params),
        window=windows[-1],
    )


def frequency_report(
    records: list[SessionRecord],
    window="full",
    architectures=ARCHITECTURES,
) -> FrequencyReport:
    """Share of record-periods matching each architecture exactly and
    within two links."""
    windows = _windows(records, window)
    distances: dict[str, list[np.ndarray]] = {a: [] for a in architectures}
    for rec, (start, end) in zip(records, windows):
        degrees = rec.networks[start - 1 : end].sum(axis=2)
        for a in architectures:
            distances[a].append(architecture_distances(degrees, a))
    per_architecture = {}
    for a in architectures:
        d = np.concatenate(distances[a])
        per_architecture[a] = ArchitectureFrequency(
            exact=np.count_nonzero(d == 0) / d.size,
            within_two=np.count_nonzero(d <= 2) / d.size,
        )
    return FrequencyReport(per_architecture=per_architecture, window=windows[-1])


def link_diagnostics(record: SessionRecord, window="full") -> LinkDiagnostics:
    """Profitability of linking decisions at each period's realized efforts.

    A missing pair is profitable when its bilinear benefit exceeds the
    linking cost; an existing link is unprofitable for whoever sponsors it
    when the benefit falls short.  Per-agent counts average over agents
    and then over periods; shares are per-period ratios averaged over the
    periods where their denominator is positive.
    """
    params = record.params
    n = record.n
    start, end = resolve_window(window, record.T)
    x = record.efforts[start - 1 : end]
    adj = record.networks[start - 1 : end]
    m = record.intents[start - 1 : end]
    benefit = params.lam * (x[:, :, None] * x[:, None, :]) - params.kappa
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    missing = upper & ~adj
    existing = upper & adj

    def count(mask: np.ndarray) -> np.ndarray:
        return mask.sum(axis=(1, 2))

    def share(part: np.ndarray, whole: np.ndarray) -> float:
        keep = whole > 0
        return float(np.mean(part[keep] / whole[keep])) if keep.any() else 0.0

    prof_missing = count(missing & (benefit > 0))
    return LinkDiagnostics(
        avg_profitable_missing=float(np.mean(2 * prof_missing / n)),
        profitable_missing_share=share(prof_missing, count(missing)),
        avg_unprofitable_existing=float(np.mean(count(m & (benefit < 0)) / n)),
        unprofitable_existing_share=share(count(existing & (benefit < 0)), count(existing)),
        reciprocated_share=share(count(m & m.transpose(0, 2, 1) & upper), count(existing)),
        window=(start, end),
    )


def _fit_rows(record: SessionRecord) -> tuple[np.ndarray, np.ndarray]:
    """The effort rule's regressors and target for every agent-period after the first."""
    rows = []
    for prev_adj, prev_x in zip(record.networks[:-1], record.efforts[:-1]):
        neighbor_sums = prev_adj @ prev_x
        non_neighbor_sums = prev_x.sum() - prev_x - neighbor_sums
        rows.append(np.column_stack(
            [prev_x, best_response(record.params, neighbor_sums), non_neighbor_sums]
        ))
    return np.vstack(rows), record.efforts[1:].ravel()


def fit_effort_model(records: list[SessionRecord]) -> FitResult:
    """Pooled no-intercept least squares of effort on its three regressors.

    Regressors per agent-period: own lagged effort, the best response to
    neighbors' lagged efforts, and the summed lagged effort of
    non-neighbors.  Solved by the 3x3 normal equations.
    """
    if not records:
        raise LqnetError("no records supplied")
    blocks = [_fit_rows(rec) for rec in records if rec.T >= 2]
    if not blocks:
        raise LqnetError("records must span at least 2 periods to build lags")
    x = np.vstack([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    if x.shape[0] < 3:
        raise LqnetError(
            f"need at least 3 agent-period observations, got {x.shape[0]} "
            "(records must span at least 2 periods)"
        )
    gram = x.T @ x
    if np.linalg.matrix_rank(gram, tol=1e-8 * max(1.0, float(np.trace(gram)))) < 3:
        raise RankDeficientDataError(
            "regressor matrix is rank deficient (e.g. frozen identical play)"
        )
    coef = np.linalg.solve(gram, x.T @ y)
    resid = y - x @ coef
    return FitResult(
        b0=float(coef[0]),
        b1=float(coef[1]),
        b2=float(coef[2]),
        residual_sum_squares=float(resid @ resid),
        observation_count=int(x.shape[0]),
    )


def treatment_summary(
    records: list[SessionRecord],
    treatment: Treatment | GameParams,
    window="full",
) -> TreatmentSummary:
    """Per-group means and standard deviations of network statistics,
    effort, payoff, relative efficiency, and the equilibrium-effort
    benchmark recomputed on each period's realized network.

    Standard deviations are population-style across periods within a
    group, and across group means in the overall row.
    """
    params = _params_of(treatment)
    windows = _windows(records, window)
    denominator = complete_equilibrium_average(params)
    # realized networks repeat across periods and groups: one Nash solve each
    index: dict[bytes, int] = {}
    solved: list[np.ndarray] = []
    for rec, (start, end) in zip(records, windows):
        for adj in rec.networks[start - 1 : end]:
            key = adj.tobytes()
            if key not in index:
                index[key] = len(solved)
                solved.append(nash_efforts(params, Network(adj)).efforts.efforts)
    nash_means = np.array(solved).mean(axis=1)
    groups = []
    for rec, (start, end) in zip(records, windows):
        networks = rec.networks[start - 1 : end]
        payoff = np.ascontiguousarray(rec.payoffs[start - 1 : end, :, 4]).mean(axis=1)
        series = period_stats(networks)
        series["avg_effort"] = rec.efforts[start - 1 : end].mean(axis=1)
        series["avg_payoff"] = payoff
        series["relative_efficiency"] = payoff / denominator
        series["nash_effort_on_network"] = nash_means[[index[a.tobytes()] for a in networks]]
        table = np.array([series[f] for f in SUMMARY_FIELDS], dtype=float)
        groups.append(
            GroupSummary(
                session_id=rec.session_id,
                means=dict(zip(SUMMARY_FIELDS, table.mean(axis=1).tolist())),
                stds=dict(zip(SUMMARY_FIELDS, table.std(axis=1).tolist())),
            )
        )
    name = treatment.name if isinstance(treatment, Treatment) else "custom"
    return TreatmentSummary(
        treatment=name,
        window=windows[-1],
        per_group=groups,
        overall_means={
            f: float(np.mean([g.means[f] for g in groups])) for f in SUMMARY_FIELDS
        },
        overall_stds={
            f: float(np.std([g.means[f] for g in groups])) for f in SUMMARY_FIELDS
        },
    )
