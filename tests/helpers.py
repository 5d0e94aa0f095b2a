"""`make_profile`, `fixed_links`, the graph atlas and the oracles shared by the test modules.

Kept out of ``conftest.py`` so that test modules import them by a name no
other test directory uses.
"""

import csv
import functools
import itertools

import numpy as np

from lqnet.dynamics import (
    EffortRule,
    LinkRule,
    _effort_ranks,
    _initial_effort,
    _normalize_policies,
    _rank_band,
)
from lqnet.model import (
    EffortProfile,
    IntentProfile,
    Network,
    StrategyProfile,
    best_response,
)
from lqnet.session_io import CSV_COLUMNS

#: the myopic best reply: each period's effort is the best response to the
#: neighbors' lagged effort total
MYOPIC = EffortRule(0.0, 1.0, 0.0)


def make_profile(efforts, intent_pairs, n):
    return StrategyProfile(
        EffortProfile(np.asarray(efforts, dtype=float)),
        IntentProfile.from_pairs(n, intent_pairs),
    )


def fixed_links(network):
    """The link rule that freezes ``network``: every agent initiates to its neighbors."""
    return LinkRule("fixed_targets", targets=[np.flatnonzero(r).tolist() for r in network.adjacency])


# ---------------------------------------------------------------------------
# closed-form oracles, independent of the solver implementations
# ---------------------------------------------------------------------------

def oracle_complete_nash(theta, beta, lam, n):
    """Symmetric fixed point of x = (theta + lam (n-1) x) / beta."""
    return theta / (beta - lam * (n - 1))


def oracle_star_nash(theta, beta, lam, n):
    """(center, periphery) solving the two-type best-response system."""
    center = theta * (beta + lam * (n - 1)) / (beta**2 - lam**2 * (n - 1))
    periphery = (theta + lam * center) / beta
    return center, periphery


def oracle_complete_efficient(theta, beta, lam, n, cap=20.0):
    denom = beta - 2.0 * lam * (n - 1)
    if denom <= 0 or theta / denom > cap:
        return cap
    return theta / denom


def oracle_star_efficient(theta, beta, lam, n):
    """(center, periphery) stationary point of total gross welfare on a star."""
    center = theta * (beta + 2.0 * lam * (n - 1)) / (
        beta**2 - 4.0 * lam**2 * (n - 1)
    )
    periphery = (theta + 2.0 * lam * center) / beta
    return center, periphery


def oracle_least_fixed_point(params, adjacency, tol=1e-9):
    """Least fixed point of the clipped best reply, by trying all 3**n splits of the
    agents into held low, free and held high.

    A split holds its low and high agents at the box's ends and solves the free
    agents' first-order conditions; its solution is a fixed point when the free
    efforts lie in the box and the held agents' replies lie beyond their ends
    (within ``tol``).  Splits whose free block is singular are skipped: the least
    fixed point's free block contracts.  The least fixed point lies below every
    other, so it is their elementwise minimum, and it must be one of them.
    """
    n = len(adjacency)
    lo, hi, c = params.effort_min, params.effort_max, params.theta / params.beta
    w = params.lam / params.beta * np.asarray(adjacency, dtype=float)
    split = np.array(list(itertools.product((0, 1, 2), repeat=n)))  # low, free, high
    free = split == 1
    a = np.eye(n) - free[:, :, None] * w
    b = np.where(free, c, np.where(split == 0, lo, hi))
    solvable = np.abs(np.linalg.det(a)) > tol
    x = np.linalg.solve(a[solvable], b[solvable][..., None])[..., 0]
    reply, split = c + x @ w.T, split[solvable]
    fixed = np.where(
        split == 1, (x >= lo - tol) & (x <= hi + tol),
        np.where(split == 0, reply <= lo + tol, reply >= hi - tol),
    ).all(axis=1)
    least = x[fixed].min(axis=0)
    assert (np.abs(x[fixed] - least) <= tol).all(axis=1).any(), "no least fixed point"
    return least


def oracle_gross_payoff(theta, beta, lam, x_own, neighbor_sum):
    return theta * x_own - 0.5 * beta * x_own**2 + lam * x_own * neighbor_sum


def oracle_gross_welfare(params, efforts, network):
    """Total payoff before link costs, which are fixed once the network is."""
    x = np.asarray(efforts, dtype=float)
    sums = network.adjacency.astype(float) @ x
    return float(sum(
        oracle_gross_payoff(params.theta, params.beta, params.lam, x[i], sums[i])
        for i in range(params.n)
    ))


def oracle_deviation_gain(params, profile, agent, targets):
    """Gain and best-reply effort of ``agent`` switching its intents to ``targets``.

    The others' efforts and intents stay fixed; the deviator plays the
    clipped best reply to its new realized neighborhood.
    """
    x = profile.efforts.efforts
    m = profile.intents.matrix

    def payoff(effort, neighbors, sponsored):
        s = float(x[sorted(neighbors)].sum())
        gross = oracle_gross_payoff(params.theta, params.beta, params.lam, effort, s)
        return gross - params.kappa * sponsored

    incoming = set(np.flatnonzero(m[:, agent]).tolist())
    current = payoff(x[agent], incoming | set(np.flatnonzero(m[agent]).tolist()), m[agent].sum())
    realized = incoming | {int(t) for t in targets}
    s = float(x[sorted(realized)].sum())
    effort = min(max((params.theta + params.lam * s) / params.beta, params.effort_min),
                 params.effort_max)
    return payoff(effort, realized, len(targets)) - current, effort


def oracle_nested_split(adj):
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


def nested_split_graphs(n):
    """The 2**(n-1) nested split (threshold) graphs on n agents, in creation-sequence labels.

    Agent k joins agents 0..k-1 either isolated or linked to all of them, as
    bit k-1 of the graph's code says.
    """
    for code in range(1 << (n - 1)):
        a = np.zeros((n, n), dtype=bool)
        for k in range(1, n):
            if code >> (k - 1) & 1:
                a[k, :k] = a[:k, k] = True
        yield Network(a)


@functools.cache
def atlas(n):
    """Adjacency matrices of the non-isomorphic graphs on ``n`` agents, built once per
    process: each class is named by its least edge bitstring over all n! labelings."""
    i, j = np.triu_indices(n, 1)
    codes = np.arange(1 << len(i))
    bits = (codes[:, None] >> np.arange(len(i)) & 1).astype(float)
    slot = np.zeros((n, n), dtype=int)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    perms = np.array(list(itertools.permutations(range(n))))
    weights = 2.0 ** slot[perms[:, i], perms[:, j]]  # a labeling's value of each pair slot
    least = np.full(len(codes), np.inf)
    for chunk in np.array_split(weights, -(-len(perms) // 60)):
        least = np.minimum(least, (bits @ chunk.T).min(axis=1))
    graphs = []
    for code in sorted(set(least.astype(int).tolist())):
        on = (code >> np.arange(len(i)) & 1).astype(bool)
        a = np.zeros((n, n), dtype=bool)
        a[i[on], j[on]] = a[j[on], i[on]] = True
        graphs.append(a)
    return graphs


def block_adjacency(n, sizes):
    """Adjacency on ``n`` agents with a complete block on each consecutive run of
    ``sizes`` agents; agents past the blocks are isolated."""
    a = np.zeros((n, n), dtype=bool)
    start = 0
    for size in sizes:
        a[start : start + size, start : start + size] = True
        start += size
    np.fill_diagonal(a, False)
    return a


def oracle_least_max_sponsorship(network):
    """Least possible largest initiation count over all orientations of the network.

    Hakimi (1965): the max over agent sets S of ceil(e(S) / |S|), e(S) the
    links inside S, here by brute force over every nonempty S.
    """
    n = network.n
    member = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    links = ((member @ network.adjacency.astype(int)) * member).sum(axis=1) // 2
    return int((-(-links // member.sum(axis=1))).max())


def oracle_link_distance(a, b):
    """Number of unordered pairs whose link status differs between two networks."""
    return int(np.triu(a.adjacency ^ b.adjacency).sum())


def oracle_spectral_radius(adjacency, rel_tol=1e-12, max_iter=1000):
    """Largest adjacency eigenvalue by power iteration from the all-ones vector.

    Iterates on G + I so the dominant eigenvalue is strictly separated in
    magnitude even for bipartite graphs, then shifts back.
    """
    a = adjacency.astype(float) + np.eye(adjacency.shape[0])
    v = np.ones(a.shape[0])
    est = 1.0
    for _ in range(max_iter):
        w = a @ v
        v = w / np.linalg.norm(w)
        new_est = float(v @ (a @ v))
        if abs(new_est - est) <= rel_tol * max(1.0, abs(est)):
            return max(new_est - 1.0, 0.0)
        est = new_est
    return max(est - 1.0, 0.0)


# ---------------------------------------------------------------------------
# per-agent simulator and row-by-row record writer, the references that the
# batched `dynamics.run_session` and whole-column `session_io.write_record`
# must match bit for bit
# ---------------------------------------------------------------------------

def _agent_effort(rule, own_lag, neighbor_lag_sum, non_neighbor_lag_sum, params, rng):
    value = (
        rule.b0 * own_lag
        + rule.b1 * float(best_response(params, neighbor_lag_sum))
        + rule.b2 * non_neighbor_lag_sum
    )
    if rule.noise_sd > 0:
        value += rng.normal(0.0, rule.noise_sd)
    return float(np.clip(value, params.effort_min, params.effort_max))


def _agent_links(rule, agent, lagged_efforts, lagged_intent_row, params, rng):
    n = params.n
    row = np.zeros(n, dtype=bool)
    x = np.asarray(lagged_efforts, dtype=float)
    if rule.kind in ("benefit_threshold", "best_response"):
        benefits = params.lam * x[agent] * x - params.kappa
        row = benefits > 0
        row[agent] = False
        return row
    if rule.kind == "rank_top":
        others = [j for j in range(n) if j != agent]
        others.sort(key=lambda j: (-x[j], j))
        for j in others[: rule.k]:
            row[j] = True
        return row
    if rule.kind == "logistic":
        c = rule.coefficients
        ranks = _effort_ranks(x)
        above_max, below_min = _rank_band(n)
        logits = (
            c.intercept
            + c.lagged_link * lagged_intent_row.astype(float)
            + c.partner_effort * x
            + c.above_median * (ranks <= above_max)
            + c.below_median * (ranks >= below_min)
        )
        probs = 1.0 / (1.0 + np.exp(-logits))
        row = rng.random(n) < probs
        row[agent] = False
        return row
    if rule.kind == "fixed_targets":
        for j in rule.targets[agent]:
            row[j] = True
        row[agent] = False
        return row
    raise AssertionError(f"unreachable link rule kind {rule.kind!r}")


def _agent_cold_start_links(rule, agent, initial_efforts, params, rng):
    n = params.n
    if rule.kind == "logistic":
        p = 1.0 / (1.0 + np.exp(-rule.coefficients.intercept))
        row = rng.random(n) < p
        row[agent] = False
        return row
    return _agent_links(rule, agent, initial_efforts, np.zeros(n, dtype=bool), params, rng)


def oracle_run_session(params, policies, T, seed):
    """(efforts, intents, payoffs) of `run_session`, one agent at a time: efforts
    by agent index, then intent rows by agent index, each from its own draw."""
    policy_list = _normalize_policies(params, policies)
    n = params.n
    rng = np.random.Generator(np.random.Philox(seed))
    intents = np.zeros((T, n, n), dtype=bool)
    efforts = np.zeros((T, n), dtype=float)
    efforts[0] = [_initial_effort(policy_list[i].effort_rule, params, rng) for i in range(n)]
    for i in range(n):
        intents[0, i] = _agent_cold_start_links(policy_list[i].link_rule, i, efforts[0], params, rng)
    for t in range(1, T):
        prev_adj = intents[t - 1] | intents[t - 1].T
        prev_x = efforts[t - 1]
        neighbor_sums = prev_adj @ prev_x
        non_neighbor_sums = prev_x.sum() - prev_x - neighbor_sums
        for i in range(n):
            efforts[t, i] = _agent_effort(
                policy_list[i].effort_rule, float(prev_x[i]), float(neighbor_sums[i]),
                float(non_neighbor_sums[i]), params, rng,
            )
        for i in range(n):
            intents[t, i] = _agent_links(policy_list[i].link_rule, i, prev_x, intents[t - 1, i], params, rng)
    payoffs = np.stack([oracle_period_payoffs(params, efforts[t], intents[t]) for t in range(T)])
    return efforts, intents, payoffs


def oracle_period_payoffs(params, x, intents):
    """(own_benefit, effort_cost, spillover, link_cost, total) of each agent in one period."""
    neighbor_sums = (intents | intents.T) @ x
    own = params.theta * x
    cost = 0.5 * params.beta * x**2
    spill = params.lam * x * neighbor_sums
    links = params.kappa * intents.sum(axis=1).astype(float)
    return np.column_stack([own, cost, spill, links, own - cost + spill - links])


def oracle_replay_payoffs(record):
    """Every period's payoff components of ``record``, recomputed from its stored decisions."""
    return np.stack(
        [oracle_period_payoffs(record.params, record.efforts[t], record.intents[t])
         for t in range(record.T)]
    )


def _ids_join(indices):
    return ":".join(str(int(j) + 1) for j in sorted(indices))


def oracle_id_cells(mask):
    """The 1-based ID-list cell of each row of a (rows, n) mask, e.g. "2:5", one
    row at a time."""
    labels = [str(j + 1) for j in range(mask.shape[1])]
    return [":".join(itertools.compress(labels, row)) for row in mask.tolist()]


def oracle_write_csv(record, path):
    """Write ``record``'s session CSV one row at a time, as `write_record` must."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for t in range(record.T):
            for i in range(record.n):
                own, cost, spill, link, total = record.payoffs[t, i]
                writer.writerow(
                    [
                        record.session_id,
                        t + 1,
                        i + 1,
                        repr(float(record.efforts[t, i])),
                        _ids_join(np.nonzero(record.intents[t, i])[0]),
                        _ids_join(np.nonzero(record.networks[t, i])[0]),
                        repr(float(total)),
                        repr(float(own)),
                        repr(float(cost)),
                        repr(float(spill)),
                        repr(float(link)),
                    ]
                )
