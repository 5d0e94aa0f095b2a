"""Equilibrium and efficient effort solvers, payoff reports, and cost cutoffs.

Nash efforts on a fixed network are the least fixed point of the clipped best
reply: ``[I - (lam/beta) G] x = (theta/beta) 1`` (the walk-counting centrality
scaled by theta/beta) where no effort binds, else that solve over the agents left
free by those held at the box's ends.  `nash_efforts` is `kernels.br_iteration`
on one network, with a fixed-point check; `spectral_radius` is the kernels' own.
Efficient efforts are the same solve with the spillover doubled (`efficient_efforts`).
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .kernels import br_iteration, spectral_radius  # noqa: F401  (re-exported)
from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    best_response,
    br_payoff,
    br_value,
    check_size,
    neighbor_sums,
    payoff_components,
)

#: residual at or below which a solver output counts as converged
SOLVER_TOL = 1e-9


class EffortSolution(NamedTuple):
    efforts: EffortProfile
    converged: bool
    iterations: int
    residual: float
    capped: bool


class EquilibriumPayoffReport(NamedTuple):
    per_agent: np.ndarray
    group_average: float
    sponsorship: IntentProfile


class CostThresholds(NamedTuple):
    kappa1: float
    kappa2: float
    method_notes: dict


def nash_efforts(params: GameParams, network: Network) -> EffortSolution:
    """Nash efforts on a fixed network, `kernels.br_iteration`'s least fixed point;
    ``iterations`` counts its held-set changes and ``residual`` checks the fixed point."""
    adj = network.adjacency
    check_size(params, network.n, "network")
    x, stretches = br_iteration(adj, params)
    residual = float(np.max(np.abs(x - best_response(params, neighbor_sums(adj, x)))))
    capped = bool(np.any(x <= params.effort_min + 1e-12) or np.any(x >= params.effort_max - 1e-12))
    return EffortSolution(EffortProfile(x), converged=residual <= SOLVER_TOL,
                          iterations=int(stretches), residual=residual, capped=capped)


def efficient_efforts(params: GameParams, network: Network) -> EffortSolution:
    """Effort vector maximizing total gross welfare over the effort box.

    Agent i's effort enters its own payoff and, through the spillover
    ``lam x_i x_j``, each neighbor's, so the planner's first-order
    condition ``theta - beta x_i + 2 lam s_i = 0``, clipped to the box, is
    the Nash condition with the spillover doubled.  Efficient efforts are
    therefore `nash_efforts` at ``2 lam``, which hold at the upper bound the
    agents whose interior problem is unbounded.
    """
    return nash_efforts(replace(params, lam=2.0 * params.lam), network)


# --------------------------------------------------------------------------
# sponsorship construction
# --------------------------------------------------------------------------

def preferred_sponsors(network: Network) -> list[tuple[int, int]]:
    """Each link as (sponsor, other), the lower-(degree, index) endpoint sponsoring.

    Ordered by the sponsor's then the other's degree, then by their indices, so
    labels matter only among agents of equal degree.  The support search tries
    these sponsors first, in this order; `balanced_sponsorship` starts from them."""
    deg = network.degrees.tolist()
    links = [(j, i) if deg[j] < deg[i] else (i, j) for i, j in network.edges()]  # i < j
    return sorted(links, key=lambda link: (deg[link[0]], deg[link[1]], *link))


def balanced_sponsorship(network: Network) -> IntentProfile:
    """Single-sponsor intent profile minimizing the maximum initiation count.

    Starts from `preferred_sponsors`, so star links are sponsored by the
    periphery.  While the lowest-index busiest agent has a sponsored path
    (each link leading from its sponsor) to an agent sponsoring at least two
    fewer links, every link on the shortest such path turns around: the
    first count falls by one, the last rises by one.  With no such path,
    each of the R agents the busiest one reaches sponsors at least
    ``max - 1`` links, all inside R, so R holds more than ``R (max - 1)``
    links and every orientation gives one of its agents ``max`` (Hakimi 1965).
    """
    n = network.n
    intents = np.zeros((n, n), dtype=bool)
    for sponsor, other in preferred_sponsors(network):
        intents[sponsor, other] = True
    counts = intents.sum(axis=1)
    while True:
        start = int(np.argmax(counts))
        layers = [np.array([start])]  # agents by their distance from ``start``
        seen = np.arange(n) == start
        while not (slack := counts[layers[-1]] <= counts[start] - 2).any():
            reached = intents[layers[-1]].any(axis=0) & ~seen
            if not reached.any():
                return IntentProfile(intents)
            seen |= reached
            layers.append(np.flatnonzero(reached))
        end = int(layers[-1][np.argmax(slack)])
        counts[[start, end]] += (-1, 1)
        for layer in reversed(layers[:-1]):  # back along the path, one link per layer
            sponsor = int(layer[np.argmax(intents[layer, end])])
            intents[sponsor, end], intents[end, sponsor] = False, True
            end = sponsor


def equilibrium_payoffs(
    params: GameParams, network: Network, efforts: EffortProfile
) -> EquilibriumPayoffReport:
    """Per-agent payoffs at the given efforts with single-sponsor link costs.

    Each link is paid by one endpoint, as `balanced_sponsorship` assigns it.
    """
    check_size(params, network.n, "network")
    check_size(params, efforts.n, "effort profile")
    sponsorship = balanced_sponsorship(network)
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

def single_link_deviation_threshold(params: GameParams) -> float:
    """Linking cost at which one added link stops paying off from the empty profile.

    Everyone plays the empty-network effort ``b = best_response(0)``
    (``theta/beta`` clipped to the effort box); one agent initiates a single
    link and re-optimizes effort, gaining ``V(b) - br_payoff(b, 0) - kappa``
    with ``V`` the best-reply value `br_value`, so the switch is the
    kappa-free first two terms.  This is the one-link margin only -
    deviations adding several links at once stay profitable up to a higher
    cost (see `cost_thresholds` for the full-predicate switch).
    """
    base = float(best_response(params, 0.0))
    return float(br_value(params, base) - br_payoff(params, base, 0.0))


def cost_thresholds(params: GameParams) -> CostThresholds:
    """Linking-cost cutoffs bounding the multiple-equilibria region.

    Each candidate architecture (`verifier.enumerate_candidates`) reports
    the exact costs where it is equilibrium-supportable, as closed
    intervals (`SupportSearch.intervals`), with ``onset`` the first lower
    end and ``offset`` the last upper end (``inf`` and ``-inf`` when it is
    never supportable).  ``kappa1`` is the least onset of a non-complete
    architecture; ``kappa2`` is the complete network's offset.  The kappa
    field of ``params`` is ignored.
    """
    from .structure import classify
    from .verifier import SupportSearch, enumerate_candidates

    entries = []
    for network in enumerate_candidates(params.n):
        intervals = SupportSearch(params, network).intervals()
        entries.append(
            {
                "label": classify(network).label,
                "links": network.link_count(),
                "intervals": intervals,
                "onset": intervals[0][0] if intervals else math.inf,
                "offset": intervals[-1][1] if intervals else -math.inf,
            }
        )
    kappa1 = min((e["onset"] for e in entries if e["label"] != "Complete"), default=math.inf)
    kappa2 = next(e["offset"] for e in entries if e["label"] == "Complete")
    notes = {
        "architectures": entries,
        "empty_single_link_threshold": single_link_deviation_threshold(params),
    }
    return CostThresholds(kappa1=kappa1, kappa2=kappa2, method_notes=notes)
