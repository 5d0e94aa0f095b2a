"""Graph-structure predicates and statistics.

Covers the nested-split-graph test, architecture classification with the
core-periphery partition in closed form, and summary statistics and
link distances to the named architectures, in closed form over stacks of
networks (used for near-equilibrium matching).
"""

from typing import NamedTuple

import numpy as np

from .model import Network

ARCHITECTURES = ("Empty", "Star", "Complete")


class NetworkStats(NamedTuple):
    link_count: int
    link_fraction: float
    avg_degree: float
    min_degree: int
    max_degree: int
    clustering: float


class ClassificationLabel(NamedTuple):
    """Architecture label plus the core-periphery partition when one exists.

    The attached partition requires the core to be a clique, the
    periphery an independent set, and every core-periphery pair linked;
    degenerate all-core (complete) and all-periphery (empty) partitions
    are allowed.  Among valid partitions the largest core is reported.
    """

    label: str
    core: frozenset[int] | None = None
    periphery: frozenset[int] | None = None


def is_nested_split(network: Network) -> bool:
    """True iff the network is a nested-split graph.

    That is, whenever deg(k) >= deg(l), the neighborhood of l (apart from
    k itself) is contained in the neighborhood of k.
    """
    adj = network.adjacency
    deg = adj.sum(axis=1)
    for k in range(network.n):
        lower = deg <= deg[k]
        lower[k] = False
        outside = ~adj[k]
        outside[k] = False
        if (adj[lower] & outside).any():
            return False
    return True


def _core_periphery(adj: np.ndarray) -> tuple[frozenset[int], frozenset[int]] | None:
    """The core-periphery bipartition with the largest core, or None.

    Valid partition: core pairwise linked, periphery pairwise unlinked,
    and every core node linked to every periphery node.  A core node is
    then linked to every other node, so no core is larger than the set of
    degree-(n-1) nodes, and a periphery containing such a node is that
    node alone, which the all-core partition beats.  So the only
    candidate is that set, and it is valid iff the rest is independent.
    """
    core = adj.sum(axis=1) == adj.shape[0] - 1
    if adj[np.ix_(~core, ~core)].any():
        return None
    return frozenset(np.flatnonzero(core).tolist()), frozenset(np.flatnonzero(~core).tolist())


def classify(network: Network) -> ClassificationLabel:
    """Label a network as Empty, Complete, Star, OtherNestedSplit or NonNestedSplit."""
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
    partition = _core_periphery(network.adjacency)
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
