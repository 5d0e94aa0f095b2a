"""Exact Nash verification and enumeration of equilibrium-supportable networks.

Verification enumerates, per agent, every subset of the other agents as a
candidate intent set (`kernels.deviation_scan`).  Effort deviations need
no grid: own payoff is strictly concave in own effort, so the clipped
best response (`model.best_response`) dominates every other effort at
any intent set, making the joint effort-plus-link deviation search exact.
Every payoff here is `model.br_payoff` minus the link costs.

Support checks fix efforts at the network's equilibrium values and search
sponsorship orientations (one sponsor per link): greedy warm starts
first, then backtracking over per-edge sponsor assignments constrained to
each agent's stable sponsor sets, under a hard node budget.  Only the
stable-set filter depends on the linking cost, so `SupportSearch` builds
everything else once per network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np

from . import kernels
from .equilibria import balanced_sponsorship, nash_efforts
from .errors import LqnetError, OrientationBudgetError
from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    best_response,
    br_payoff,
)

#: payoff gains at or below this value count as non-improving
DEVIATION_TOL = 1e-9
ORIENTATION_BUDGET = 1 << 20
MAX_VERIFY_N = 16


@dataclass(frozen=True)
class Deviation:
    agent: int
    targets: tuple[int, ...]
    effort: float
    gain: float


@dataclass(frozen=True)
class DeviationReport:
    is_nash: bool
    worst_deviation: Deviation | None
    checked_deviations: int


@dataclass(frozen=True)
class NESupportReport:
    network: Network
    supportable: bool
    witness: StrategyProfile | None
    orientations_tried: int


def _row_masks(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    weights = (np.int64(1) << np.arange(n, dtype=np.int64))
    return (matrix.astype(np.int64) * weights).sum(axis=1).astype(np.int64)


def _mask_to_targets(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    m = int(mask)
    while m:
        if m & 1:
            out.append(j)
        m >>= 1
        j += 1
    return tuple(out)


def verify_nash(params: GameParams, profile: StrategyProfile) -> DeviationReport:
    """Exhaustive unilateral-deviation check of a full strategy profile."""
    if profile.n != params.n:
        raise LqnetError(f"profile has n={profile.n}, params expect n={params.n}")
    if params.n > MAX_VERIFY_N:
        raise LqnetError(f"verification supports n <= {MAX_VERIFY_N}, got {params.n}")
    m = profile.intents.matrix
    own = _row_masks(m)
    incoming = _row_masks(m.T)
    best_gain, best_mask, best_effort, _ = kernels.deviation_scan(
        profile.efforts.efforts, incoming, own, params
    )
    agent = int(np.argmax(best_gain))
    gain = float(best_gain[agent])
    checked = params.n * (1 << (params.n - 1))
    if gain <= DEVIATION_TOL:
        return DeviationReport(is_nash=True, worst_deviation=None, checked_deviations=checked)
    dev = Deviation(
        agent=agent,
        targets=_mask_to_targets(int(best_mask[agent])),
        effort=float(best_effort[agent]),
        gain=gain,
    )
    return DeviationReport(is_nash=False, worst_deviation=dev, checked_deviations=checked)


# --------------------------------------------------------------------------
# sponsorship-orientation search
# --------------------------------------------------------------------------

def _orientation_intents(n: int, edges, sponsors) -> np.ndarray:
    m = np.zeros((n, n), dtype=bool)
    for (i, j), s in zip(edges, sponsors):
        other = j if s == i else i
        m[s, other] = True
    return m


def _br_value(params: GameParams, neighbor_sums: np.ndarray) -> np.ndarray:
    """Gross payoff of the best response to each neighbor-effort total."""
    return br_payoff(params, best_response(params, neighbor_sums), neighbor_sums)


class _SponsorTable(NamedTuple):
    """One agent's κ-free payoffs, one row per candidate sponsored-neighbor set."""

    prefix_payoff: np.ndarray  # BR payoff at each effort-sorted deviation prefix
    prefix_counts: np.ndarray  # links that prefix sponsors
    incoming_payoff: np.ndarray  # BR payoff after withdrawing every sponsorship
    full_payoff: float  # BR payoff with every link kept
    counts: np.ndarray  # links the set sponsors
    masks: np.ndarray  # the set as an agent-id bitmask


def _sponsor_tables(params: GameParams, x: np.ndarray, network: Network) -> list[_SponsorTable]:
    """Per agent, the payoff tables `_stable_sponsor_sets` filters at each κ.

    With efforts fixed, an agent facing incoming links can deviate to any
    target set within (sponsored ∪ non-neighbors); since the best-response
    payoff is nondecreasing in the neighbor-effort total, the best m-target
    deviation takes the m highest-effort candidates, so prefix sums over
    the effort-sorted candidate pool are exact.
    """
    from .kernels import _subset_table

    adj = network.adjacency
    n = network.n
    tables: list[_SponsorTable] = []
    for i in range(n):
        nb = np.nonzero(adj[i])[0]
        others = np.array([j for j in range(n) if j != i], dtype=np.int64)
        order = others[np.lexsort((others, -x[others]))]
        x_ord = x[order]
        d = len(nb)
        table = _subset_table(d)
        s_sums = table @ x[nb] if d else np.zeros(1)
        all_sum = float(x[nb].sum()) if d else 0.0
        inc = all_sum - s_sums
        member = np.broadcast_to(~adj[i][order], (table.shape[0], len(order))).copy()
        nb_col = {int(v): t for t, v in enumerate(nb)}
        for k, node in enumerate(order):
            t = nb_col.get(int(node))
            if t is not None:
                member[:, k] = table[:, t]
        prefix_sums = inc[:, None] + np.cumsum(np.where(member, x_ord, 0.0), axis=1)
        weights = (np.int64(1) << nb.astype(np.int64)) if d else np.zeros(0, np.int64)
        tables.append(
            _SponsorTable(
                prefix_payoff=_br_value(params, prefix_sums),
                prefix_counts=np.cumsum(member, axis=1),
                incoming_payoff=_br_value(params, inc),
                full_payoff=float(_br_value(params, np.array(all_sum))),
                counts=table.sum(axis=1),
                masks=(table.astype(np.int64) @ weights).astype(np.int64),
            )
        )
    return tables


def _stable_sponsor_sets(tables: list[_SponsorTable], kappa: float) -> list[np.ndarray] | None:
    """Per agent, every sponsored-neighbor set admitting no profitable deviation.

    Returns one int64 array of stable sets per agent (as agent-id
    bitmasks), or None as soon as some agent has no stable set.
    """
    families: list[np.ndarray] = []
    for t in tables:
        dev = t.prefix_payoff - kappa * t.prefix_counts
        best = np.maximum(t.incoming_payoff, dev.max(axis=1))
        current = t.full_payoff - kappa * t.counts
        stable = current + DEVIATION_TOL >= best
        if not stable.any():
            return None
        families.append(t.masks[stable])
    return families


def _drop_all_prunes(params: GameParams, x: np.ndarray, intents: np.ndarray) -> bool:
    """True if some agent profits from withdrawing all its sponsorships."""
    current = br_payoff(params, x, (intents | intents.T) @ x) - params.kappa * intents.sum(axis=1)
    dropped = _br_value(params, intents.T @ x)  # incoming-only neighbor effort sums
    return bool(np.any(dropped - current > DEVIATION_TOL))


class SupportSearch:
    """One network's κ-free support state, queried at any linking cost.

    Efforts are fixed at the network's equilibrium values, so they, the
    two greedy warm starts (lower-degree endpoint sponsors; balanced
    assignment) and the sponsor tables are built once.  `report` searches
    the orientations at one κ; `supportable` memoizes verdicts by the
    per-agent stable families at κ.  Equal families give an equal search
    space, so a stored negative verdict is reused, while a stored witness
    is re-confirmed at the new κ and the full search runs if it fails.
    """

    def __init__(self, params: GameParams, network: Network) -> None:
        self.params = params
        self.network = network
        self.x = nash_efforts(params, network).efforts.efforts
        self.edges = edges = network.edges()
        self.deg = deg = network.degrees
        self.warm: list[tuple[int, ...]] = [()]
        if edges:
            balanced = balanced_sponsorship(network).matrix
            self.warm = [
                tuple(i if (deg[i], i) <= (deg[j], j) else j for i, j in edges),
                tuple(i if balanced[i, j] else j for i, j in edges),
            ]
        self._verdicts: dict = {}

    @cached_property
    def tables(self) -> list[_SponsorTable]:
        return _sponsor_tables(self.params, self.x, self.network)

    def _check(self, params: GameParams, intents_m: np.ndarray) -> StrategyProfile | None:
        if _drop_all_prunes(params, self.x, intents_m):
            return None
        profile = StrategyProfile(EffortProfile(self.x), IntentProfile(intents_m))
        if verify_nash(params, profile).is_nash:
            return profile
        return None

    def supportable(self, kappa: float) -> bool:
        """Memoized support verdict; every positive one is confirmed at κ."""
        families = _stable_sponsor_sets(self.tables, kappa)
        key = None if families is None else tuple(f.tobytes() for f in families)
        if key in self._verdicts:
            witness = self._verdicts[key]
            if witness is None:
                return False
            if self._check(replace(self.params, kappa=kappa), witness.intents.matrix) is not None:
                return True
        witness = self.report(kappa).witness
        self._verdicts[key] = witness
        return witness is not None

    def report(self, kappa: float, budget: int = ORIENTATION_BUDGET) -> NESupportReport:
        """Search for a sponsorship orientation making the network an equilibrium at κ.

        Warm starts come first, pruned by no-drop feasibility before the full
        deviation scan; then each link is assigned a sponsor under per-agent
        stable-set constraints (exact, see `_sponsor_tables`), so negative
        verdicts never need all 2**links orientations.  ``orientations_tried``
        counts warm starts plus search-tree assignments; past ``budget`` the
        search raises instead of guessing.
        """
        params = replace(self.params, kappa=kappa)
        network, n, edges, deg = self.network, self.network.n, self.edges, self.deg

        def check(sponsors) -> StrategyProfile | None:
            return self._check(params, _orientation_intents(n, edges, sponsors))

        tried = 0
        seen: set[tuple[int, ...]] = set()
        for sponsors in self.warm:
            if sponsors in seen:
                continue
            seen.add(sponsors)
            tried += 1
            witness = check(sponsors)
            if witness is not None:
                return NESupportReport(network, True, witness, tried)

        families = _stable_sponsor_sets(self.tables, kappa)
        if families is None:
            return NESupportReport(network, False, None, tried)
        family_sizes = [np.bitwise_count(fam) for fam in families]

        sponsored = [0] * n
        refused = [0] * n

        def feasible(agent: int) -> bool:
            fam = families[agent]
            sp = sponsored[agent]
            return bool(np.any(((fam & sp) == sp) & ((fam & refused[agent]) == 0)))

        def max_additional(agent: int) -> int:
            """Most extra sponsorships this agent can still take on."""
            fam = families[agent]
            ok = ((fam & sponsored[agent]) == sponsored[agent]) & (
                (fam & refused[agent]) == 0
            )
            if not ok.any():
                return -1
            return int(family_sizes[agent][ok].max()) - int(
                bin(sponsored[agent]).count("1")
            )

        def capacity_ok(assigned: int) -> bool:
            remaining = len(edges) - assigned
            total = 0
            for agent in range(n):
                extra = max_additional(agent)
                if extra < 0:
                    return False
                total += extra
            return total >= remaining

        nodes = 0

        def assignments(k: int):
            nonlocal nodes
            if k == len(edges):
                yield tuple(i if (sponsored[i] >> j) & 1 else j for i, j in edges)
                return
            i, j = edges[k]
            for sponsor in sorted((i, j), key=lambda v: (deg[v], v)):
                other = j if sponsor == i else i
                nodes += 1
                if nodes > budget:
                    raise OrientationBudgetError(
                        f"orientation search exceeded its budget of {budget} "
                        f"assignments on a {len(edges)}-link network"
                    )
                sponsored[sponsor] |= 1 << other
                refused[other] |= 1 << sponsor
                if feasible(sponsor) and feasible(other) and capacity_ok(k + 1):
                    yield from assignments(k + 1)
                sponsored[sponsor] &= ~(1 << other)
                refused[other] &= ~(1 << sponsor)

        if not capacity_ok(0):
            return NESupportReport(network, False, None, tried)

        # every completed assignment gives each agent exactly one of its stable
        # sets, so the confirming scan can only fail on a float knife edge; the
        # generator then simply continues
        for sponsors in assignments(0):
            if sponsors in seen:
                continue
            seen.add(sponsors)
            witness = check(sponsors)
            if witness is not None:
                return NESupportReport(network, True, witness, tried + nodes)
        return NESupportReport(network, False, None, tried + nodes)


def ne_supportable(
    params: GameParams, network: Network, budget: int = ORIENTATION_BUDGET
) -> NESupportReport:
    """Support report of one network at ``params.kappa`` (see `SupportSearch`)."""
    return SupportSearch(params, network).report(params.kappa, budget)


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
    labels = np.unique(_canonical_labels(n, np.arange(1 << len(pairs), dtype=np.int64)))
    return [
        Network.from_edges(n, [pairs[idx] for idx in range(len(pairs)) if (canon >> idx) & 1])
        for canon in sorted(labels.tolist(), key=lambda c: (bin(c).count("1"), c))
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
