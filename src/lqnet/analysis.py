"""Aggregate metrics over session records, mirroring the outcome tables.

Includes realized-efficiency reporting against the complete-network
equilibrium benchmark, equilibrium-architecture frequency with a two-link
slack, per-period link-profitability diagnostics, pooled least-squares
estimation of the effort-adjustment rule, and a per-group summary table whose
Nash benchmark is one `kernels.br_iteration` call on the batch's distinct
networks.  Records come from `session_io`; only the effort fit runs `dynamics`.
The reducers given a treatment's params refuse records of others, and a batch's
records must share their window's periods, as one window labels the batch.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import LqnetError, RankDeficientDataError
from .kernels import br_iteration
from .model import GameParams, Network, br_payoff, check_params, link_benefit, neighbor_sums
from .session_io import SessionRecord
from .structure import ARCHITECTURES, architecture_distances, period_stats

Window = tuple[int, int]


class EfficiencyReport(NamedTuple):
    avg_effort: float
    avg_payoff: float
    relative_efficiency: float
    window: Window


class ArchitectureFrequency(NamedTuple):
    exact: float
    within_two: float


class FrequencyReport(NamedTuple):
    per_architecture: dict[str, ArchitectureFrequency]
    window: Window


class LinkDiagnostics(NamedTuple):
    avg_profitable_missing: float
    profitable_missing_share: float
    avg_unprofitable_existing: float
    unprofitable_existing_share: float
    reciprocated_share: float
    window: Window


class FitResult(NamedTuple):
    b0: float
    b1: float
    b2: float
    residual_sum_squares: float
    observation_count: int


class GroupSummary(NamedTuple):
    session_id: str
    means: dict[str, float]
    stds: dict[str, float]


class TreatmentSummary(NamedTuple):
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


def _window(records: list[SessionRecord], window, params: GameParams | None = None) -> Window:
    """The window of every record, which labels the batch; a record not of ``params``,
    or whose window covers other periods than the first record's, is refused."""
    if not records:
        raise LqnetError("no records supplied")
    for rec in records:
        check_params(rec.params, params, f"session {rec.session_id}")
    batch = resolve_window(window, records[0].T)
    for rec in records[1:]:
        if (own := resolve_window(window, rec.T)) != batch:
            raise LqnetError(f"session {rec.session_id}: window {window} covers periods {own[0]}-{own[1]}, "
                             f"not {batch[0]}-{batch[1]} as in session {records[0].session_id}")
    return batch


@lru_cache(maxsize=32)
def complete_equilibrium_average(params: GameParams) -> float:
    """Group-average equilibrium payoff on the complete network (the
    relative-efficiency denominator).

    Its n(n-1)/2 links cost each agent kappa (n-1)/2 on average, whoever
    sponsors them, so the average needs no sponsorship."""
    complete = Network.complete(params.n)
    x = br_iteration(complete.adjacency, params)[0]
    gross = br_payoff(params, x, neighbor_sums(complete.adjacency, x))
    return float(gross.mean()) - params.kappa * (params.n - 1) / 2


def _welfare_series(record: SessionRecord, window: Window) -> dict[str, np.ndarray]:
    """Per-period average effort, average payoff and relative efficiency in a window."""
    start, end = window
    payoff = np.ascontiguousarray(record.payoffs[start - 1 : end, :, 4]).mean(axis=1)
    return {
        "avg_effort": record.efforts[start - 1 : end].mean(axis=1),
        "avg_payoff": payoff,
        "relative_efficiency": payoff / complete_equilibrium_average(record.params),
    }


def efficiency_report(
    records: list[SessionRecord],
    params: GameParams,
    window="full",
) -> EfficiencyReport:
    """Realized average effort and payoff, and their ratio to the
    complete-network equilibrium payoff.

    Each is a per-period mean over agents, averaged over the window and
    then over records: the reduction behind `treatment_summary`'s overall
    means, so both report the same bits.
    """
    window = _window(records, window, params)
    series = [_welfare_series(rec, window) for rec in records]
    means = {f: float(np.mean([s[f].mean() for s in series])) for f in series[0]}
    return EfficiencyReport(**means, window=window)


def frequency_report(records: list[SessionRecord], window="full") -> FrequencyReport:
    """Share of record-periods matching each architecture exactly and
    within two links."""
    start, end = _window(records, window)
    distances: dict[str, list[np.ndarray]] = {a: [] for a in ARCHITECTURES}
    for rec in records:
        degrees = rec.networks[start - 1 : end].sum(axis=2)
        for a in ARCHITECTURES:
            distances[a].append(architecture_distances(degrees, a))
    per_architecture = {}
    for a in ARCHITECTURES:
        d = np.concatenate(distances[a])
        per_architecture[a] = ArchitectureFrequency(
            exact=np.count_nonzero(d == 0) / d.size,
            within_two=np.count_nonzero(d <= 2) / d.size,
        )
    return FrequencyReport(per_architecture=per_architecture, window=(start, end))


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
    benefit = link_benefit(params, x[:, :, None], x[:, None, :])
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
    from . import dynamics  # registered lazily: only a fit runs the simulator module
    rows = dynamics.effort_regressors(record.params, record.efforts[:-1], record.intents[:-1])
    return rows.reshape(-1, 3), record.efforts[1:].ravel()


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
    params: GameParams,
    window="full",
) -> TreatmentSummary:
    """Per-group means and standard deviations of network statistics,
    effort, payoff, relative efficiency, and the equilibrium-effort
    benchmark recomputed on each period's realized network.

    Standard deviations are population-style across periods within a
    group, and across group means in the overall row.
    """
    window = _window(records, window, params)
    # (record, period, n, n): the records share their window
    networks = np.stack([rec.networks[window[0] - 1 : window[1]] for rec in records])
    # realized networks repeat across periods and groups: each distinct one is solved once
    stacked = networks.reshape(-1, *networks.shape[2:])
    keys = np.packbits(stacked.reshape(len(stacked), -1), axis=1)
    _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                  return_index=True, return_inverse=True)
    nash_means = br_iteration(stacked[first], params)[0].mean(axis=1)[inverse]
    groups = []
    for rec, nets, nash in zip(records, networks, nash_means.reshape(len(records), -1)):
        series = period_stats(nets) | _welfare_series(rec, window)
        series["nash_effort_on_network"] = nash
        table = np.array([series[f] for f in SUMMARY_FIELDS], dtype=float)
        groups.append(
            GroupSummary(
                session_id=rec.session_id,
                means=dict(zip(SUMMARY_FIELDS, table.mean(axis=1).tolist())),
                stds=dict(zip(SUMMARY_FIELDS, table.std(axis=1).tolist())),
            )
        )
    return TreatmentSummary(
        window=window,
        per_group=groups,
        overall_means={
            f: float(np.mean([g.means[f] for g in groups])) for f in SUMMARY_FIELDS
        },
        overall_stds={
            f: float(np.std([g.means[f] for g in groups])) for f in SUMMARY_FIELDS
        },
    )


def __getattr__(name: str):
    # lqbench's tracer test reads `nash_efforts` here; `analyze` does not run `equilibria`
    if name == "nash_efforts":
        from .equilibria import nash_efforts
        return nash_efforts
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
