"""Equilibrium and efficient effort solvers, payoff reports, and cost cutoffs.

Nash efforts on a fixed network solve ``[I - (lam/beta) G] x = (theta/beta) 1``
(the walk-counting centrality scaled by theta/beta) when the spectral
condition holds and the solution is interior; otherwise a clipped
best-response iteration from the all-minimum profile returns the least
fixed point.  Efficient efforts maximize total gross welfare over the
effort box by cyclic coordinate ascent, which handles the capped regime
where the interior problem is unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import DimensionMismatchError, LqnetError, NonContractionError
from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    best_response,
    payoff,
    payoff_components,
    realize_network,
)

#: residual below which a solver output counts as converged
SOLVER_TOL = 1e-9
#: per-sweep change threshold for the iterative solvers
SWEEP_TOL = 1e-12
MAX_ITER = 10_000


@dataclass(frozen=True)
class EffortSolution:
    efforts: EffortProfile
    converged: bool
    iterations: int
    residual: float
    capped: bool


@dataclass(frozen=True)
class EquilibriumPayoffReport:
    per_agent: np.ndarray
    group_average: float
    sponsorship: IntentProfile


@dataclass(frozen=True)
class CostThresholds:
    kappa1: float
    kappa2: float
    method_notes: dict = field(default_factory=dict)


def spectral_radius(adjacency: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric adjacency matrix, floored at 0."""
    return max(float(np.linalg.eigvalsh(adjacency.astype(float))[-1]), 0.0)


def _check_network(params: GameParams, network: Network) -> None:
    if network.n != params.n:
        raise DimensionMismatchError(
            f"network has n={network.n}, params expect n={params.n}"
        )


def _at_bounds(params: GameParams, x: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(
        np.any(x <= params.effort_min + tol) or np.any(x >= params.effort_max - tol)
    )


def _br_residual(params: GameParams, adj: np.ndarray, x: np.ndarray) -> float:
    return float(np.max(np.abs(x - best_response(params, adj @ x))))


def nash_efforts(params: GameParams, network: Network) -> EffortSolution:
    """Nash equilibrium effort vector on a fixed network."""
    _check_network(params, network)
    adj = network.adjacency
    rho = spectral_radius(adj)
    ratio = params.lam / params.beta * rho
    if ratio < 1.0 - 1e-12:
        a = np.eye(params.n) - (params.lam / params.beta) * adj.astype(float)
        x = np.linalg.solve(a, np.full(params.n, params.theta / params.beta))
        if np.all(x >= params.effort_min - 1e-12) and np.all(x <= params.effort_max + 1e-12):
            x = np.clip(x, params.effort_min, params.effort_max)
            residual = _br_residual(params, adj, x)
            return EffortSolution(
                efforts=EffortProfile(x),
                converged=residual <= SOLVER_TOL,
                iterations=0,
                residual=residual,
                capped=_at_bounds(params, x),
            )
    x0 = np.full(params.n, params.effort_min, dtype=float)
    x, iters, change = kernels.br_iteration(adj, x0, params, tol=SWEEP_TOL, max_iter=MAX_ITER)
    residual = _br_residual(params, adj, x)
    if change >= SWEEP_TOL and residual > SOLVER_TOL:
        raise NonContractionError(
            f"best-response iteration did not converge in {MAX_ITER} steps "
            f"(last change {change:.3e}, residual {residual:.3e})"
        )
    return EffortSolution(
        efforts=EffortProfile(x),
        converged=residual <= SOLVER_TOL,
        iterations=iters,
        residual=residual,
        capped=_at_bounds(params, x),
    )


def gross_welfare(params: GameParams, efforts: np.ndarray, network: Network) -> float:
    """Total welfare excluding link costs (which are fixed once the network is)."""
    x = np.asarray(efforts, dtype=float)
    adj = network.adjacency.astype(float)
    return float(
        params.theta * x.sum()
        - 0.5 * params.beta * (x**2).sum()
        + params.lam * x @ (adj @ x)
    )


def efficient_efforts(params: GameParams, network: Network) -> EffortSolution:
    """Effort vector maximizing total gross welfare over the effort box.

    Cyclic coordinate ascent with the per-coordinate closed-form update
    ``x_i <- clip((theta + 2 lam * neighbor_sum) / beta)``.  When the
    interior problem is well-posed this matches the linear-system solution;
    when it is unbounded the ascent escalates to the upper bound.
    """
    _check_network(params, network)
    adj = network.adjacency
    n = params.n
    x = np.full(n, params.effort_min, dtype=float)
    sweeps = 0
    change = math.inf
    while sweeps < MAX_ITER:
        change = 0.0
        for i in range(n):
            s = float(x[adj[i]].sum())
            new = float(
                np.clip(
                    (params.theta + 2.0 * params.lam * s) / params.beta,
                    params.effort_min,
                    params.effort_max,
                )
            )
            change = max(change, abs(new - x[i]))
            x[i] = new
        sweeps += 1
        if change < 1e-10:
            break
    target = np.clip(
        (params.theta + 2.0 * params.lam * (adj @ x)) / params.beta,
        params.effort_min,
        params.effort_max,
    )
    residual = float(np.max(np.abs(x - target)))
    return EffortSolution(
        efforts=EffortProfile(x),
        converged=residual <= SOLVER_TOL,
        iterations=sweeps,
        residual=residual,
        capped=_at_bounds(params, x),
    )


# --------------------------------------------------------------------------
# sponsorship construction
# --------------------------------------------------------------------------

def _orientation_feasible(edges: list[tuple[int, int]], spare: list[int]) -> bool:
    """Can each edge be assigned to an endpoint without exceeding the spare counts?

    Bipartite b-matching feasibility by augmenting paths: an agent at
    capacity may free a slot by pushing one of its edges to the opposite
    endpoint, recursively.
    """
    load = [0] * len(spare)
    owned: list[set[int]] = [set() for _ in spare]

    def make_room(agent: int, visited: set[int]) -> bool:
        if load[agent] < spare[agent]:
            return True
        for e in list(owned[agent]):
            if e in visited:
                continue
            visited.add(e)
            i, j = edges[e]
            alt = j if agent == i else i
            if make_room(alt, visited):
                owned[agent].discard(e)
                load[agent] -= 1
                owned[alt].add(e)
                load[alt] += 1
                return True
        return False

    for e, (i, j) in enumerate(edges):
        placed = False
        for agent in (i, j):
            if make_room(agent, set()):
                owned[agent].add(e)
                load[agent] += 1
                placed = True
                break
        if not placed:
            return False
    return True


def balanced_sponsorship(network: Network) -> IntentProfile:
    """Single-sponsor intent profile minimizing the maximum initiation count.

    Among minimizers, each link prefers the endpoint with (current count,
    network degree, index) smallest - so star links are sponsored by the
    periphery, matching the payoff convention of the equilibrium tables.
    """
    n = network.n
    edges = network.edges()
    intents = np.zeros((n, n), dtype=bool)
    if not edges:
        return IntentProfile(intents)
    deg = network.degrees
    lo = (len(edges) + n - 1) // n
    cap = lo
    while not _orientation_feasible(edges, [cap] * n):
        cap += 1
    counts = [0] * n
    for idx, (i, j) in enumerate(edges):
        remaining = edges[idx + 1 :]
        placed = False
        for cand, other in sorted(
            [(i, j), (j, i)], key=lambda p: (counts[p[0]], deg[p[0]], p[0])
        ):
            counts[cand] += 1
            spare = [cap - c for c in counts]
            if min(spare) >= 0 and _orientation_feasible(remaining, spare):
                intents[cand, other] = True
                placed = True
                break
            counts[cand] -= 1
        if not placed:  # pragma: no cover - cap was verified feasible
            raise LqnetError("sponsorship assignment failed unexpectedly")
    return IntentProfile(intents)


def equilibrium_payoffs(
    params: GameParams,
    network: Network,
    efforts: EffortProfile,
    sponsorship: IntentProfile | None = None,
) -> EquilibriumPayoffReport:
    """Per-agent payoffs at the given efforts with single-sponsor link costs.

    With ``sponsorship=None`` a balanced default is constructed (see
    `balanced_sponsorship`).  A supplied sponsorship must realize exactly
    the target network with each link initiated by exactly one side.
    """
    _check_network(params, network)
    if efforts.n != params.n:
        raise DimensionMismatchError(f"efforts have n={efforts.n}, expected {params.n}")
    if sponsorship is None:
        sponsorship = balanced_sponsorship(network)
    else:
        if not np.array_equal(realize_network(sponsorship).adjacency, network.adjacency):
            raise LqnetError("sponsorship does not realize the target network")
        if (sponsorship.matrix & sponsorship.matrix.T).any():
            raise LqnetError("sponsorship must initiate each link from exactly one side")
    comps = payoff_components(params, efforts.efforts, sponsorship.matrix)
    per_agent = comps[:, 4].copy()
    per_agent.setflags(write=False)
    return EquilibriumPayoffReport(
        per_agent=per_agent,
        group_average=float(per_agent.mean()),
        sponsorship=sponsorship,
    )


# --------------------------------------------------------------------------
# linking-cost thresholds
# --------------------------------------------------------------------------

def single_link_deviation_threshold(params: GameParams, tol: float = 1e-9) -> float:
    """Linking cost at which one added link stops paying off from the empty profile.

    Everyone plays the empty-network equilibrium effort; one agent initiates
    a single link and re-optimizes effort.  The gain is strictly decreasing
    in kappa; the switch point is found by bisection through the payoff
    engine.  This is the one-link margin only - deviations adding several
    links at once stay profitable up to a higher cost (see
    `cost_thresholds` for the full-predicate switch).
    """
    def gain(kappa: float) -> float:
        p = _with_kappa(params, kappa)
        base = p.theta / p.beta
        stay = payoff(
            p,
            StrategyProfile(EffortProfile.constant(p.n, base), IntentProfile.none(p.n)),
            0,
        ).total
        efforts = np.full(p.n, base)
        efforts[0] = best_response(p, base)
        dev = payoff(
            p,
            StrategyProfile(
                EffortProfile(efforts), IntentProfile.from_pairs(p.n, [(0, 1)])
            ),
            0,
        ).total
        return dev - stay

    lo, hi = 0.0, 1.0
    while gain(hi) > 0:
        hi *= 2.0
        if hi > 1e6:  # pragma: no cover
            raise LqnetError("single-link deviation stayed profitable up to kappa=1e6")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gain(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _with_kappa(params: GameParams, kappa: float) -> GameParams:
    return replace(params, kappa=kappa)


def cost_thresholds(
    params: GameParams,
    architectures: list[Network] | None = None,
    bracket: tuple[float, float] = (0.0, 20.0),
    grid_points: int = 161,
    tol: float = 1e-6,
) -> CostThresholds:
    """Linking-cost cutoffs bounding the multiple-equilibria region.

    ``kappa1`` is the smallest cost at which any non-complete candidate
    architecture becomes equilibrium-supportable; ``kappa2`` the cost at
    which the complete network stops being supportable.  The kappa field
    of ``params`` is ignored; each architecture's switch is located on a
    grid and sharpened by bisection on the verifier's support predicate,
    asked of one `SupportSearch` per architecture.
    The empty and complete predicates are checked for monotonicity on the
    grid first; a violation raises rather than returning a silent value.
    """
    from .structure import classify
    from .verifier import SupportSearch, enumerate_candidates

    if architectures is None:
        architectures = enumerate_candidates(params.n)
    kappas = np.linspace(bracket[0], bracket[1], grid_points)

    notes: dict = {
        "bracket": bracket,
        "grid_points": grid_points,
        "architectures": [],
        "empty_single_link_threshold": single_link_deviation_threshold(params),
    }
    kappa1 = math.inf
    kappa2 = math.inf
    for network in architectures:
        label = classify(network).label
        supportable = SupportSearch(params, network).supportable
        pattern = [supportable(float(k)) for k in kappas]
        entry: dict = {
            "label": label,
            "links": network.link_count(),
            "grid_pattern": "".join("1" if b else "0" for b in pattern),
        }
        if label in ("Empty", "Complete"):
            expected_monotone = (
                all(not a or b for a, b in zip(pattern, pattern[1:]))
                if label == "Empty"
                else all(a or not b for a, b in zip(pattern, pattern[1:]))
            )
            if not expected_monotone:
                raise LqnetError(
                    f"support predicate for {label} not monotone on grid: "
                    f"{entry['grid_pattern']}"
                )
        if label == "Complete":
            if pattern[-1]:
                entry["offset"] = math.inf
            else:
                idx = pattern.index(False)
                lo = kappas[idx - 1] if idx > 0 else bracket[0]
                hi = kappas[idx]
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    if supportable(mid):
                        lo = mid
                    else:
                        hi = mid
                entry["offset"] = 0.5 * (lo + hi)
                kappa2 = min(kappa2, entry["offset"])
        else:
            if not any(pattern):
                entry["onset"] = math.inf
            else:
                idx = pattern.index(True)
                if idx == 0:
                    entry["onset"] = bracket[0]
                else:
                    lo, hi = kappas[idx - 1], kappas[idx]
                    while hi - lo > tol:
                        mid = 0.5 * (lo + hi)
                        if supportable(mid):
                            hi = mid
                        else:
                            lo = mid
                    entry["onset"] = 0.5 * (lo + hi)
            kappa1 = min(kappa1, entry["onset"])
        notes["architectures"].append(entry)
    return CostThresholds(kappa1=kappa1, kappa2=kappa2, method_notes=notes)
