"""Correctness checks for lqnet CLI outputs, computed apart from the program.

Nothing here imports ``lqnet``: the treatment table, the closed forms and
the deviation search are restated from the model so that a fault in the
program cannot also hide in its check.  Every check raises `CheckError`
with a one-line reason.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9
THRESHOLD_TOL = 1e-5
EFFICIENT_TOL = 1e-6
EFFORT_MIN = 0.0
EFFORT_MAX = 20.0


class CheckError(Exception):
    """A program output disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Params:
    theta: float
    beta: float
    lam: float
    kappa: float
    n: int


#: the published treatment table: parameters and supportable architectures
TREATMENTS = {
    "N5_LowCost": (Params(10.0, 4.0, 0.40, 1.0, 5), ("Complete",)),
    "N5_HighCost": (Params(10.0, 4.0, 0.40, 3.9, 5), ("Complete", "Empty", "Star")),
    "N9_LowCost1": (Params(10.0, 4.0, 0.25, 1.0, 9), ("Complete",)),
    "N9_LowCost2": (Params(10.0, 4.0, 0.40, 1.0, 9), ("Complete",)),
    "N9_HighCost": (Params(10.0, 4.0, 0.25, 2.5, 9), ("Complete", "Empty", "Star")),
}

#: non-isomorphic graphs on five nodes
ATLAS_5 = 34
CSV_HEADER = [
    "session_id", "period", "agent", "effort", "initiated_ids", "neighbor_ids",
    "payoff_total", "own_benefit", "effort_cost", "spillover", "link_cost",
]
ARCHITECTURES = ("Complete", "Empty", "Star")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    _require(
        abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b))),
        f"{what}: got {a!r}, expected {b!r}",
    )


# --------------------------------------------------------------------------
# model restated
# --------------------------------------------------------------------------

def br_value(p: Params, s):
    """Best-response payoff against neighbour effort total ``s`` (clipped effort)."""
    x = np.clip((p.theta + p.lam * np.asarray(s, dtype=float)) / p.beta, EFFORT_MIN, EFFORT_MAX)
    return p.theta * x - 0.5 * p.beta * x * x + p.lam * x * s


def adjacency(n: int, edges) -> np.ndarray:
    """Symmetric boolean adjacency from 1-based undirected pairs."""
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = True
    return a


def intent_matrix(n: int, pairs) -> np.ndarray:
    """Directed boolean intent matrix from 1-based (initiator, target) pairs."""
    m = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        m[i - 1, j - 1] = True
    return m


def nash_solve(p: Params, adj: np.ndarray) -> np.ndarray:
    """Interior Nash efforts: (I - (lam/beta) A) x = (theta/beta) 1."""
    a = np.eye(p.n) - (p.lam / p.beta) * adj.astype(float)
    return np.linalg.solve(a, np.full(p.n, p.theta / p.beta))


def payoff_at(p: Params, x_i, s):
    """Gross payoff of effort ``x_i`` against neighbour effort total ``s``."""
    return p.theta * x_i - 0.5 * p.beta * x_i * x_i + p.lam * x_i * s


def best_deviation_gain(p: Params, efforts: np.ndarray, intents: np.ndarray) -> float:
    """Largest unilateral gain over every agent and every intent subset.

    For each agent all 2**(n-1) target sets are tried; effort re-optimises
    to the clipped best response, which dominates any other effort level.
    """
    n = p.n
    x = np.asarray(efforts, dtype=float)
    adj = intents | intents.T
    subsets = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1 == 1
    sizes = subsets.sum(axis=1)
    worst = -np.inf
    for i in range(n):
        others = np.array([j for j in range(n) if j != i])
        current = payoff_at(p, x[i], x[adj[i]].sum()) - p.kappa * intents[i].sum()
        realized = subsets | intents[others, i][None, :]
        s = realized.astype(float) @ x[others]
        gains = br_value(p, s) - p.kappa * sizes - current
        worst = max(worst, float(gains.max()))
    return worst


def clustering(adj: np.ndarray) -> float:
    deg = adj.sum(axis=1)
    a = adj.astype(float)
    triangles = np.diag(a @ a @ a) / 2.0
    pairs = deg * (deg - 1) / 2.0
    local = np.divide(triangles, pairs, out=np.zeros(len(deg)), where=pairs > 0)
    return float(local.mean())


def architecture_distances(adj: np.ndarray) -> dict[str, int]:
    """Link distance to each architecture; Star takes the highest-degree centre."""
    n = adj.shape[0]
    links = int(adj.sum()) // 2
    return {
        "Empty": links,
        "Complete": n * (n - 1) // 2 - links,
        "Star": links + n - 1 - 2 * int(adj.sum(axis=1).max()),
    }


def named_network(name: str, n: int) -> np.ndarray:
    if name == "empty":
        return np.zeros((n, n), dtype=bool)
    if name == "complete":
        return ~np.eye(n, dtype=bool)
    a = np.zeros((n, n), dtype=bool)
    a[0, 1:] = a[1:, 0] = True
    return a


# --------------------------------------------------------------------------
# certification commands
# --------------------------------------------------------------------------

def check_thresholds(doc: dict, treatment: str) -> None:
    """kappa1, kappa2 and the one-link margin against their closed forms."""
    p, _ = TREATMENTS[treatment]
    n, th, b, lam = p.n, p.theta, p.beta, p.lam
    kappa1 = th**2 * lam * (2 * b + (n - 1) * lam) / (2 * b**3)
    x_star = th / (b - lam * (n - 1))
    s = (n - 1) / 2
    kappa2 = (br_value(p, (n - 1) * x_star) - br_value(p, (n - 1 - s) * x_star)) / s
    one_link = ((th + lam * th / b) ** 2 - th**2) / (2 * b)
    _require(doc.get("treatment") == treatment, f"thresholds: treatment {doc.get('treatment')!r}")
    _close(doc["kappa1"], kappa1, THRESHOLD_TOL, "thresholds kappa1")
    _close(doc["kappa2"], float(kappa2), THRESHOLD_TOL, "thresholds kappa2")
    notes = doc["method_notes"]
    _close(notes["empty_single_link_threshold"], one_link, THRESHOLD_TOL,
           "thresholds empty_single_link_threshold")
    stars = [a for a in notes["architectures"] if a["label"] == "Star"]
    _require(len(stars) == 1, f"thresholds: {len(stars)} Star entries")
    onset = stars[0]["onset"]
    _require(onset != "inf" and float(onset) < p.kappa,
             f"thresholds: Star onset {onset!r} not below kappa {p.kappa}")


def check_witness(p: Params, edges, witness: dict) -> None:
    """A witness realizes its network, solves the Nash system, and admits no gain."""
    n = p.n
    _require(witness["n"] == n, f"witness n={witness['n']}")
    adj = adjacency(n, edges)
    m = intent_matrix(n, witness["intents"])
    _require(np.array_equal(m | m.T, adj), f"witness does not realize its network {edges}")
    x = np.asarray(witness["efforts"], dtype=float)
    lhs = (np.eye(n) - (p.lam / p.beta) * adj) @ x
    _require(np.max(np.abs(lhs - p.theta / p.beta)) <= TOL,
             f"witness efforts do not solve the Nash system on {edges}")
    gain = best_deviation_gain(p, x, m)
    _require(gain <= TOL, f"witness on {edges} has a deviation gaining {gain:.3e}")


def check_enumerate(doc: dict, treatment: str) -> list[dict]:
    """Published supportable set, atlas size and every witness; returns the
    supportable candidates."""
    p, published = TREATMENTS[treatment]
    _require(doc.get("treatment") == treatment, f"enumerate: treatment {doc.get('treatment')!r}")
    cands = doc["candidates"]
    if p.n == 5:
        _require(len(cands) == ATLAS_5, f"enumerate: {len(cands)} candidates, expected {ATLAS_5}")
    labels = sorted(doc["supportable_labels"])
    _require(labels == sorted(published),
             f"enumerate {treatment}: supportable {labels}, published {sorted(published)}")
    supportable = [c for c in cands if c["supportable"]]
    _require(sorted({c["label"] for c in supportable}) == labels,
             "enumerate: supportable_labels disagree with the candidates")
    for c in cands:
        _require(c["links"] == len(c["edges"]), f"enumerate: link count of {c['edges']}")
        _require(c["supportable"] == ("witness" in c), "enumerate: witness without support")
    for c in supportable:
        check_witness(p, c["edges"], c["witness"])
    return supportable


def check_solve(doc: dict, treatment: str, network: str, efficient: bool) -> None:
    """Closed-form efforts on empty/star/complete, and the payoff total."""
    p, _ = TREATMENTS[treatment]
    n, th, b, lam = p.n, p.theta, p.beta, p.lam
    if network == "empty":
        expect = np.full(n, th / b)
    elif network == "complete":
        if efficient:
            denom = b - 2 * lam * (n - 1)
            value = EFFORT_MAX if denom <= 0 or th / denom > EFFORT_MAX else th / denom
        else:
            value = th / (b - lam * (n - 1))
        expect = np.full(n, value)
    else:
        if efficient:
            center = th * (b + 2 * lam * (n - 1)) / (b**2 - 4 * lam**2 * (n - 1))
            periphery = (th + 2 * lam * center) / b
        else:
            center = th * (b + lam * (n - 1)) / (b**2 - lam**2 * (n - 1))
            periphery = (th + lam * center) / b
        expect = np.full(n, periphery)
        expect[0] = center
    tol = EFFICIENT_TOL if efficient else TOL
    x = np.asarray(doc["efforts"], dtype=float)
    _require(x.shape == (n,), f"solve {network}: {len(x)} efforts")
    for k in range(n):
        _close(x[k], expect[k], tol, f"solve {network} efficient={efficient} effort[{k + 1}]")
    _require(doc["objective"] == ("efficient" if efficient else "nash"), "solve: objective")
    _require(doc["converged"] is True, f"solve {network}: not converged")
    adj = named_network(network, n)
    links = int(adj.sum()) // 2
    welfare = float(payoff_at(p, x, adj @ x).sum()) - p.kappa * links
    pay = np.asarray(doc["per_agent_payoffs"], dtype=float)
    _close(pay.sum(), welfare, TOL, f"solve {network}: payoff total")
    _close(doc["group_average"], welfare / n, TOL, f"solve {network}: group_average")


def check_verify(doc: dict, treatment: str, profile: dict) -> None:
    p, _ = TREATMENTS[treatment]
    _require(doc["is_nash"] is True, f"verify: witness reported not Nash: {doc['worst_deviation']}")
    _require(doc["worst_deviation"] is None, "verify: worst_deviation on a Nash profile")
    _require(doc["checked_deviations"] == p.n * (1 << (p.n - 1)), "verify: checked_deviations")
    m = intent_matrix(p.n, profile["intents"])
    gain = best_deviation_gain(p, np.asarray(profile["efforts"]), m)
    _require(gain <= TOL, f"verify: profile has a deviation gaining {gain:.3e}")


def check_classify(doc: dict, label: str, net: dict, center: int | None) -> None:
    n = net["n"]
    adj = adjacency(n, net["edges"])
    deg = adj.sum(axis=1)
    links = len(net["edges"])
    _require(doc["label"] == label, f"classify: label {doc['label']!r}, expected {label!r}")
    _require(doc["nested_split"] is True, "classify: nested_split")
    st = doc["stats"]
    _require(st["link_count"] == links, "classify: link_count")
    _close(st["link_fraction"], links / (n * (n - 1) / 2), TOL, "classify link_fraction")
    _close(st["avg_degree"], 2 * links / n, TOL, "classify avg_degree")
    _require(st["min_degree"] == deg.min() and st["max_degree"] == deg.max(), "classify: degrees")
    _close(st["clustering"], clustering(adj), TOL, "classify clustering")
    core = {"Empty": [], "Complete": list(range(1, n + 1)), "Star": [center]}[label]
    _require(doc["core"] == core, f"classify: core {doc['core']}, expected {core}")


# --------------------------------------------------------------------------
# sessions
# --------------------------------------------------------------------------

@dataclass
class Records:
    """Session records parsed by the benchmark: arrays [rep, period, agent(, agent)]."""

    efforts: np.ndarray
    intents: np.ndarray
    payoffs: np.ndarray  # total, own_benefit, effort_cost, spillover, link_cost


def _ids(text: str) -> list[int]:
    return [int(v) - 1 for v in text.split(":")] if text else []


def check_records(directory: Path, doc: dict, treatment: str, periods: int, reps: int,
                  seed: int) -> Records:
    """Parse every written CSV and recompute each payoff cell from its own columns."""
    p, _ = TREATMENTS[treatment]
    n = p.n
    written = [Path(w) for w in doc["written"]]
    expect_ids = [f"s{seed + r}" for r in range(reps)]
    _require([w.stem for w in written] == expect_ids, f"simulate: wrote {[w.name for w in written]}")
    efforts = np.zeros((reps, periods, n))
    intents = np.zeros((reps, periods, n, n), dtype=bool)
    neighbors = np.zeros((reps, periods, n, n), dtype=bool)
    payoffs = np.zeros((reps, periods, n, 5))
    for r, sid in enumerate(expect_ids):
        path = directory / f"{sid}.csv"
        meta = json.loads(path.with_suffix(".json").read_text())
        _require(meta["periods"] == periods and meta["seed"] == seed + r,
                 f"simulate: sidecar of {sid}")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == CSV_HEADER, f"simulate: header of {path.name}")
        _require(len(rows) == 1 + periods * n, f"simulate: {len(rows) - 1} rows in {path.name}")
        for row in rows[1:]:
            t, i = int(row[1]) - 1, int(row[2]) - 1
            _require(row[0] == sid, f"simulate: session_id {row[0]!r} in {path.name}")
            efforts[r, t, i] = float(row[3])
            intents[r, t, i, _ids(row[4])] = True
            neighbors[r, t, i, _ids(row[5])] = True
            payoffs[r, t, i] = [float(v) for v in row[6:11]]
    _require(np.all((efforts >= EFFORT_MIN) & (efforts <= EFFORT_MAX)), "simulate: effort outside box")
    realized = intents | intents.transpose(0, 1, 3, 2)
    _require(np.array_equal(neighbors, realized), "simulate: neighbor_ids differ from realized intents")
    s = np.einsum("rtij,rtj->rti", realized.astype(float), efforts)
    own = p.theta * efforts
    cost = 0.5 * p.beta * efforts**2
    spill = p.lam * efforts * s
    link = p.kappa * intents.sum(axis=3)
    expect = np.stack([own - cost + spill - link, own, cost, spill, link], axis=3)
    err = np.abs(payoffs - expect) / np.maximum(1.0, np.abs(expect))
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    _require(err.max() <= TOL,
             f"simulate: payoff cell rep {worst[0]} period {worst[1] + 1} agent {worst[2] + 1} "
             f"column {worst[3]} off by {err.max():.3e}")
    return Records(efforts=efforts, intents=intents, payoffs=payoffs)


def check_analyze(doc: dict, records: Records, treatment: str, csv_path: Path) -> None:
    """Efficiency, frequencies and the Nash benchmark over the full window."""
    p, _ = TREATMENTS[treatment]
    n = p.n
    reps, periods = records.efforts.shape[:2]
    eff = doc["efficiency"]
    _close(eff["avg_effort"], records.efforts.mean(), TOL, "analyze avg_effort")
    avg_payoff = records.payoffs[..., 0].mean()
    _close(eff["avg_payoff"], avg_payoff, TOL, "analyze avg_payoff")
    x_c = p.theta / (p.beta - p.lam * (n - 1))
    complete_payoff = payoff_at(p, x_c, (n - 1) * x_c) - p.kappa * (n - 1) / 2
    _close(eff["relative_efficiency"], avg_payoff / complete_payoff, TOL,
           "analyze relative_efficiency")
    adj = records.intents | records.intents.transpose(0, 1, 3, 2)
    flat = adj.reshape(reps * periods, n, n)
    dists = [architecture_distances(a) for a in flat]
    for arch in ARCHITECTURES:
        d = np.array([x[arch] for x in dists])
        f = doc["frequency"][arch]
        _close(f["exact"], float(np.mean(d == 0)), TOL, f"analyze {arch} exact frequency")
        _close(f["within_two"], float(np.mean(d <= 2)), TOL, f"analyze {arch} within_two frequency")
    rho_bound = p.lam / p.beta * (n - 1)
    _require(rho_bound < 1, "analyze check assumes the interior Nash solve")
    nash = np.array([nash_solve(p, a).mean() for a in flat]).reshape(reps, periods)
    means = doc["summary"]["overall_means"]
    _close(means["nash_effort_on_network"], nash.mean(axis=1).mean(), TOL,
           "analyze nash_effort_on_network")
    _require(doc["window"] == [1, periods], f"analyze: window {doc['window']}")
    _require(doc["csv"] == str(csv_path), f"analyze: csv {doc['csv']!r}")
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) == reps + 2 and rows[-1][0] == "overall", "analyze: summary CSV rows")
