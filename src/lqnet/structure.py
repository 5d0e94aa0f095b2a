"""Graph-structure predicates and statistics.

Covers the nested-split-graph test (two independent implementations that
must agree), architecture classification with an exact core-periphery
search, summary statistics, and the symmetric-difference link distance
used for near-equilibrium matching, in closed form against the named
architectures.  Statistics and architecture distances take stacks of networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .model import Network

ARCHITECTURES = ("Empty", "Star", "Complete")


@dataclass(frozen=True)
class NetworkStats:
    link_count: int
    link_fraction: float
    avg_degree: float
    min_degree: int
    max_degree: int
    clustering: float


@dataclass(frozen=True)
class ClassificationLabel:
    """Architecture label plus the core-periphery partition when one exists.

    The attached partition requires the core to be a clique, the
    periphery an independent set, and every core-periphery pair linked;
    degenerate all-core (complete) and all-periphery (empty) partitions
    are allowed.  Among valid partitions the largest core is reported.
    """

    label: str
    core: frozenset[int] | None = None
    periphery: frozenset[int] | None = None


def _nsg_quantifier(adj: np.ndarray) -> bool:
    """Literal triple-quantifier reading of the nested-split condition.

    For all i, l, k with k != i and k != l: a link i-l together with
    deg(k) >= deg(l) forces the link i-k.
    """
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    for i in range(n):
        for l in range(n):
            if not adj[i, l]:
                continue
            for k in range(n):
                if k == i or k == l:
                    continue
                if deg[k] >= deg[l] and not adj[i, k]:
                    return False
    return True


def _nsg_nesting(adj: np.ndarray) -> bool:
    """Degree-ordered neighborhood-nesting check.

    Equivalent formulation: whenever deg(k) >= deg(l), the neighborhood
    of l (apart from k itself) must be contained in the neighborhood of k.
    """
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    order = np.argsort(-deg, kind="stable")
    for a in range(n):
        k = order[a]
        for b in range(n):
            l = order[b]
            if l == k or deg[k] < deg[l]:
                continue
            extra = adj[l] & ~adj[k]
            extra[k] = False
            if extra.any():
                return False
    return True


def is_nested_split(network: Network) -> bool:
    """True iff the network is a nested-split graph.

    Runs both the quantifier check and the neighborhood-nesting check and
    insists they agree.
    """
    adj = network.adjacency
    a = _nsg_quantifier(adj)
    b = _nsg_nesting(adj)
    if a != b:  # pragma: no cover - would indicate an implementation bug
        raise AssertionError(f"nested-split implementations disagree: {a} vs {b}")
    return a


def _core_periphery(adj: np.ndarray) -> tuple[frozenset[int], frozenset[int]] | None:
    """Exact search for a core-periphery bipartition, preferring the largest core.

    Valid partition: core pairwise linked, periphery pairwise unlinked,
    and every core node linked to every periphery node.
    """
    n = adj.shape[0]
    nodes = list(range(n))
    best: tuple[frozenset[int], frozenset[int]] | None = None
    for size in range(n, -1, -1):
        for core in combinations(nodes, size):
            core_set = set(core)
            peri = [v for v in nodes if v not in core_set]
            ok = all(adj[u, v] for u, v in combinations(core, 2))
            if ok:
                ok = not any(adj[u, v] for u, v in combinations(peri, 2))
            if ok:
                ok = all(adj[u, v] for u in core for v in peri)
            if ok:
                best = (frozenset(core_set), frozenset(peri))
                break
        if best is not None:
            break
    return best


def classify(network: Network) -> ClassificationLabel:
    """Label a network as Empty, Complete, Star, OtherNestedSplit or NonNestedSplit."""
    adj = network.adjacency
    n = network.n
    deg = network.degrees
    links = network.link_count()
    if links == 0:
        label = "Empty"
    elif links == n * (n - 1) // 2:
        label = "Complete"
    elif (deg == n - 1).sum() == 1 and (deg == 1).sum() == n - 1:
        label = "Star"
    elif is_nested_split(network):
        label = "OtherNestedSplit"
    else:
        label = "NonNestedSplit"
    partition = _core_periphery(adj) if n <= 9 else None
    if partition is None:
        return ClassificationLabel(label=label)
    return ClassificationLabel(label=label, core=partition[0], periphery=partition[1])


def period_stats(adjacency: np.ndarray) -> dict[str, np.ndarray]:
    """`NetworkStats` fields by name, for each network in a ``(..., n, n)`` stack.

    A node's clustering is the fraction of linked pairs among its
    neighbors (twice its triangle count, the diagonal of the cubed
    adjacency, over deg (deg - 1)); nodes of degree < 2 contribute 0.
    """
    n = adjacency.shape[-1]
    deg = adjacency.sum(axis=-1)
    links = deg.sum(axis=-1) // 2
    a = adjacency.astype(np.int64)
    closed = ((a @ a) * a).sum(axis=-1)
    local = np.divide(closed, deg * (deg - 1), out=np.zeros(closed.shape), where=deg >= 2)
    return {
        "link_count": links,
        "link_fraction": links / (n * (n - 1) // 2),
        "avg_degree": deg.mean(axis=-1),
        "min_degree": deg.min(axis=-1),
        "max_degree": deg.max(axis=-1),
        "clustering": local.mean(axis=-1),
    }


def stats(network: Network) -> NetworkStats:
    """Link counts, degree summary, and average local clustering (see `period_stats`)."""
    return NetworkStats(**{k: v.item() for k, v in period_stats(network.adjacency).items()})


def link_distance(a: Network, b: Network) -> int:
    """Number of unordered pairs whose link status differs."""
    if a.n != b.n:
        raise DimensionMismatchError(f"networks have n={a.n} and n={b.n}")
    return int(np.triu(a.adjacency ^ b.adjacency).sum())


def architecture_distances(degrees: np.ndarray, architecture: str) -> np.ndarray:
    """Link distance to a named architecture for each degree vector in a ``(..., n)`` stack.

    With L links, Empty is L away, Complete C(n,2) - L, and the star
    centered at c is L + n - 1 - 2 deg(c) away, least at a top-degree node.
    """
    n = degrees.shape[-1]
    links = degrees.sum(axis=-1) // 2
    if architecture == "Empty":
        return links
    if architecture == "Complete":
        return n * (n - 1) // 2 - links
    if architecture == "Star":
        return links + n - 1 - 2 * degrees.max(axis=-1)
    raise ValueError(f"unknown architecture {architecture!r}")


def architecture_distance(network: Network, architecture: str) -> int:
    """Link distance to a named architecture; Star takes the best center."""
    return int(architecture_distances(network.degrees, architecture))
