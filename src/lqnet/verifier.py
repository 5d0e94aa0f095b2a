"""Exact Nash verification and enumeration of equilibrium-supportable networks.

Verification covers, per agent, every subset of the other agents as a
candidate intent set without visiting each one: the best-reply payoff is
convex in the neighbor-effort total, so for every number of targets the
highest- or the lowest-effort candidates are best
(`kernels.deviation_sums`, `kernels.deviation_scan`).  Effort deviations
need no grid: own payoff is strictly concave in own effort, so the
clipped best response (`model.best_response`) dominates every other
effort at any intent set, making the joint effort-plus-link deviation
search exact.  Every payoff here is `model.br_payoff` or the best-reply
value `model.br_value`, minus the link costs.

Support checks fix efforts at the network's equilibrium values and search
sponsorship orientations (one sponsor per link).  With efforts fixed, an
orientation is an equilibrium exactly when every agent's sponsored set is
stable, and each set's stability condition is affine in the linking cost,
so `_sponsor_tables` solves it once per network into a closed cost
interval per set.  Those intervals are the one stability test: they give
each agent's stable family at a cost (`_stable_sponsor_sets`), which
constrains one backtracking search over per-edge sponsor assignments
under a hard node budget, and their ends split the costs into stretches of
constant verdict (`SupportSearch.intervals`).  `verify_nash` checks a
whole profile on its own and shares only `kernels.deviation_sums` with the
search.
"""

import math
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from . import kernels
from .equilibria import nash_efforts, preferred_sponsors
from .errors import LqnetError, OrientationBudgetError
from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    br_value,
    check_size,
    effort_order,
)

#: payoff gains at or below this value count as non-improving
DEVIATION_TOL = 1e-9
ORIENTATION_BUDGET = 1 << 20
MAX_SUPPORT_N = 62  # the support search's agent-id bitmasks (`_SponsorTable.masks`) are int64
MAX_SPONSOR_DEGREE = 14  # `_sponsor_tables` builds 2**degree rows per agent: ~130 MB at n = 62


class Deviation(NamedTuple):
    agent: int
    targets: tuple[int, ...]
    effort: float
    gain: float


class DeviationReport(NamedTuple):
    """Outcome of `verify_nash`.

    ``checked_deviations`` is ``n * 2**(n-1)``, the intent subsets the
    check covers, not the ones it visits: each agent's best deviation
    is found among 2n+1 candidate sets.
    """

    is_nash: bool
    worst_deviation: Deviation | None
    checked_deviations: int


class NESupportReport(NamedTuple):
    network: Network
    supportable: bool
    witness: StrategyProfile | None
    orientations_tried: int


def verify_nash(params: GameParams, profile: StrategyProfile) -> DeviationReport:
    """Unilateral-deviation check of a full strategy profile, exact over every
    intent set and effort (see `kernels.deviation_scan`)."""
    check_size(params, profile.n, "profile")
    best_gain, best_targets, best_effort = kernels.deviation_scan(
        profile.efforts.efforts, profile.intents.matrix, params
    )
    agent = int(np.argmax(best_gain))
    gain = float(best_gain[agent])
    checked = params.n * (1 << (params.n - 1))
    if gain <= DEVIATION_TOL:
        return DeviationReport(is_nash=True, worst_deviation=None, checked_deviations=checked)
    dev = Deviation(
        agent=agent,
        targets=tuple(np.flatnonzero(best_targets[agent]).tolist()),
        effort=float(best_effort[agent]),
        gain=gain,
    )
    return DeviationReport(is_nash=False, worst_deviation=dev, checked_deviations=checked)


# --------------------------------------------------------------------------
# sponsorship-orientation search
# --------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _subset_table(m: int) -> np.ndarray:
    """0/1 membership matrix of all 2**m subsets of m slots; row r is the subset r."""
    masks = np.arange(1 << m, dtype=np.int64)
    return (masks[:, None] >> np.arange(m)) & 1


class _SponsorTable(NamedTuple):
    """One agent's sponsored-neighbor sets, each with the closed κ range where it is stable."""

    lo: np.ndarray  # least stable κ of each set
    hi: np.ndarray  # greatest stable κ (inf when unbounded)
    masks: np.ndarray  # the set as an agent-id bitmask


def _sponsor_tables(params: GameParams, x: np.ndarray, network: Network) -> list[_SponsorTable]:
    """Per agent, every sponsored-neighbor set that is stable at some κ >= 0, and where.

    With efforts fixed, an agent sponsoring a set of its links keeps the
    incoming ones and can deviate to any target set within (sponsored ∪
    non-neighbors).  The best-reply payoff is convex in the neighbor-effort
    total, so the best m-target deviation takes the m highest- or the m
    lowest-effort candidates (`kernels.deviation_sums`) and the table is
    exact.  The lowest can win where the best reply is negative, because
    the payoff then falls as neighbor effort rises.

    This is the one statement of the stability inequality: a set sponsoring
    c links is stable at κ when ``V(all) - κ·c + DEVIATION_TOL`` is at least
    every deviation's ``V(dev) - κ·c_dev``.  Each condition reads
    ``a·κ <= b``, so a set's stable κ form one closed interval ``[lo, hi]``;
    sets whose interval is empty are dropped.
    """
    adj = network.adjacency
    n = network.n
    ranked = effort_order(x)
    tables: list[_SponsorTable] = []
    for i in range(n):
        nb = np.flatnonzero(adj[i])
        order = ranked[ranked != i]
        table = _subset_table(len(nb))
        s_sums = table @ x[nb]
        all_sum = float(x[nb].sum())
        is_nb = adj[i][order]
        member = np.tile(~is_nb, (len(table), 1))
        member[:, is_nb] = table[:, np.searchsorted(nb, order[is_nb])]
        sums, dev_counts = kernels.deviation_sums(all_sum - s_sums, x[order], member)
        a = (table.sum(axis=1)[:, None] - dev_counts).astype(float)
        b = br_value(params, np.array(all_sum)) + DEVIATION_TOL - br_value(params, sums)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = b / a
        lo = np.where(a < 0, ratio, 0.0).max(axis=1)
        hi = np.where(a > 0, ratio, np.inf).min(axis=1)
        ok = (lo <= hi) & np.all((a != 0) | (b >= 0), axis=1)
        masks = table @ (np.int64(1) << nb)
        tables.append(_SponsorTable(lo[ok], hi[ok], masks[ok]))
    return tables


def _stable_sponsor_sets(tables: list[_SponsorTable], kappa: float) -> list[np.ndarray]:
    """Per agent, every sponsored-neighbor set admitting no profitable deviation at κ.

    Returns one int64 array of stable sets per agent (as agent-id
    bitmasks); an agent with no stable set gets an empty array.
    """
    return [t.masks[(t.lo <= kappa) & (kappa <= t.hi)] for t in tables]


class SupportSearch:
    """One network's κ-free support state, queried at any linking cost.

    Efforts are fixed at the network's equilibrium values, so they, each
    link's sponsor preference and the sponsor tables are built once.
    `report` searches the orientations at one κ; `intervals` gives every κ
    where the network is supportable.
    """

    def __init__(self, params: GameParams, network: Network) -> None:
        if network.n > MAX_SUPPORT_N:
            raise LqnetError(f"the support search handles up to {MAX_SUPPORT_N} agents, got {network.n}")
        if (degree := int(network.degrees.max())) > MAX_SPONSOR_DEGREE:
            raise LqnetError(
                f"the support search tabulates 2**degree sponsored sets per agent and takes "
                f"degrees up to {MAX_SPONSOR_DEGREE}, got an agent with {degree} links"
            )
        self.params = params
        self.network = network
        self.x = nash_efforts(params, network).efforts.efforts
        self.choices = preferred_sponsors(network)  # each link as (sponsor tried first, other)

    @cached_property
    def tables(self) -> list[_SponsorTable]:
        return _sponsor_tables(self.params, self.x, self.network)

    def intervals(self) -> list[tuple[float, float]]:
        """Every κ >= 0 where the network is supportable, as sorted closed intervals.

        Every agent's stable family is constant between consecutive ends of
        the sponsor tables' ranges, so one `report` at the midpoint of each
        stretch decides the whole stretch; the stretch past the last end is
        probed at κ = inf, where exactly the sets stable on all of it, those
        with no upper end, are stable.  A set stable on a stretch is stable on
        its closure, so `report` at any reported end agrees with the interval.
        Ends closer than ``DEVIATION_TOL`` count as one, so no probe lands
        on or between float-close ends: a window narrower than the
        tolerance is an artefact, not an equilibrium.  Adjacent supportable
        stretches join into one interval.
        """
        # equal ends fall in one group below, so no `np.unique`: its first call
        # imports `numpy.ma`, about 20 ms of a cold process
        ends = np.sort(np.concatenate([[0.0], *(np.r_[t.lo, t.hi] for t in self.tables)]))
        ends = ends[np.isfinite(ends)]
        groups = np.split(ends, np.flatnonzero(np.diff(ends) >= DEVIATION_TOL) + 1)
        stretches = [(float(g[-1]), float(h[0])) for g, h in zip(groups, groups[1:])]
        stretches.append((float(groups[-1][-1]), math.inf))
        out: list[tuple[float, float]] = []
        joined = False
        for lo, hi in stretches:
            supportable = self.report(0.5 * (lo + hi)).supportable
            if supportable and joined:
                out[-1] = (out[-1][0], hi)
            elif supportable:
                out.append((lo, hi))
            joined = supportable
        return out

    def report(self, kappa: float) -> NESupportReport:
        """Search for a sponsorship orientation making the network an equilibrium at κ.

        An orientation is an equilibrium exactly when each agent's sponsored
        set is in its stable family at κ (`_stable_sponsor_sets`, exact, see
        `_sponsor_tables`).  Each link in turn, in `preferred_sponsors` order,
        is assigned a sponsor, the preferred one first.  A branch is cut when
        some agent's assigned links fit none of its stable sets, or when the
        agents' spare room (links each can still sponsor within its largest
        fitting set) falls short of the links left; both are necessary
        conditions, so no stable orientation is cut and the first completed
        assignment is the witness.  ``orientations_tried`` counts the sponsor
        assignments visited: 0 when the network has no links, or when some
        agent has no stable set at all, which cuts the search before its
        first assignment.  Past ``ORIENTATION_BUDGET`` the search raises
        instead of guessing.
        """
        network, n, choices = self.network, self.network.n, self.choices
        families = _stable_sponsor_sets(self.tables, kappa)
        family_sizes = [np.bitwise_count(fam) for fam in families]
        sponsored = [0] * n
        refused = [0] * n

        def room(agent: int) -> int:
            """Most extra sponsorships this agent can still take on; -1 if no set fits.

            A stable set fits when it holds every link the agent sponsors and
            none it was refused (links its neighbors sponsor).
            """
            sp = sponsored[agent]
            sizes = family_sizes[agent][(families[agent] & (sp | refused[agent])) == sp]
            return int(sizes.max()) - sp.bit_count() if sizes.size else -1

        spare = [room(agent) for agent in range(n)]
        nodes = 0

        def feasible(assigned: int) -> bool:
            return min(spare) >= 0 and sum(spare) >= len(choices) - assigned

        def search(k: int) -> bool:
            nonlocal nodes
            if k == len(choices):
                return True
            for sponsor, other in (choices[k], choices[k][::-1]):
                nodes += 1
                if nodes > ORIENTATION_BUDGET:
                    raise OrientationBudgetError(
                        f"orientation search exceeded its budget of {ORIENTATION_BUDGET} "
                        f"assignments on a {len(choices)}-link network"
                    )
                sponsored[sponsor] |= 1 << other
                refused[other] |= 1 << sponsor
                saved = spare[sponsor], spare[other]
                spare[sponsor], spare[other] = room(sponsor), room(other)
                if feasible(k + 1) and search(k + 1):
                    return True
                sponsored[sponsor] &= ~(1 << other)
                refused[other] &= ~(1 << sponsor)
                spare[sponsor], spare[other] = saved
            return False

        # a completed assignment gives each agent exactly one of its stable sets
        if not (feasible(0) and search(0)):
            return NESupportReport(network, False, None, nodes)
        intents = (np.array(sponsored, dtype=np.int64)[:, None] >> np.arange(n)) & 1 == 1
        witness = StrategyProfile(EffortProfile(self.x), IntentProfile(intents))
        return NESupportReport(network, True, witness, nodes)


def ne_supportable(params: GameParams, network: Network) -> NESupportReport:
    """Support report of one network at ``params.kappa`` (see `SupportSearch`)."""
    return SupportSearch(params, network).report(params.kappa)


# --------------------------------------------------------------------------
# canonical forms and enumeration
# --------------------------------------------------------------------------

MAX_CANONICAL_N = 7


def _canonical_labels(n: int, bits: np.ndarray) -> np.ndarray:
    """Minimum edge bitstring of each graph in ``bits`` over all n! relabelings.

    ``moved[p, k]`` is the pair slot that pair slot ``k`` maps to under
    permutation ``p``; the relabeled strings of every graph under every
    permutation are ORed together one pair slot at a time.
    """
    i, j = np.triu_indices(n, 1)  # the pair slots, in `combinations` order
    slot = np.zeros((n, n), dtype=np.int64)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    perms = np.array(list(permutations(range(n))))
    moved = slot[perms[:, i], perms[:, j]]
    acc = np.zeros((len(bits), len(moved)), dtype=np.int64)
    bit = np.empty_like(acc)
    for k in range(len(i)):
        np.right_shift(bits[:, None], moved[:, k], out=bit)
        bit &= 1
        bit <<= k
        acc |= bit
    return acc.min(axis=1)


def _network_bits(network: Network) -> int:
    acc = 0
    for idx, (i, j) in enumerate(combinations(range(network.n), 2)):
        if network.adjacency[i, j]:
            acc |= 1 << idx
    return acc


def canonical_form(network: Network) -> int:
    """Isomorphism-invariant id: minimum edge bitstring over all relabelings."""
    if network.n > MAX_CANONICAL_N:
        raise LqnetError(
            f"canonical forms use brute-force permutation, feasible for n <= "
            f"{MAX_CANONICAL_N}; got {network.n}"
        )
    return int(_canonical_labels(network.n, np.array([_network_bits(network)]))[0])


def graph_atlas(n: int) -> list[Network]:
    """All non-isomorphic undirected graphs on n nodes (n <= 5)."""
    if n > 5:
        raise LqnetError(f"full graph atlas supported for n <= 5, got {n}")
    pairs = list(combinations(range(n), 2))
    # a set, not `np.unique`: its first call imports `numpy.ma`, about 20 ms of a cold process
    labels = set(_canonical_labels(n, np.arange(1 << len(pairs), dtype=np.int64)).tolist())
    return [
        Network.from_edges(n, [pairs[idx] for idx in range(len(pairs)) if (canon >> idx) & 1])
        for canon in sorted(labels, key=lambda c: (c.bit_count(), c))
    ]


def enumerate_candidates(n: int) -> list[Network]:
    """Candidate networks for enumeration: the full atlas for n <= 5, else
    the named architectures."""
    if n <= 5:
        return graph_atlas(n)
    return [Network.empty(n), Network.star(n), Network.complete(n)]


def enumerate_ne_networks(params: GameParams) -> list[NESupportReport]:
    """Support report of each candidate network (see `enumerate_candidates`).

    The candidates are pairwise non-isomorphic: for n <= 5 the full
    atlas, otherwise the empty, star and complete networks.
    """
    return [ne_supportable(params, net) for net in enumerate_candidates(params.n)]
