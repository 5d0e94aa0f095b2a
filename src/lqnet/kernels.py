"""Hot numeric kernels, in NumPy.

Two kernels dominate runtime once equilibrium enumeration or long batch
analyses run:

* `deviation_scan` - for every agent, scan all 2**(N-1) intent subsets
  and return the best unilateral deviation (effort re-optimized per
  subset).  This is the inner loop of Nash verification and of the
  sponsorship-orientation search.
* `br_iteration` - clipped best-response fixed-point iteration used when
  the direct equilibrium solve does not apply.

Both are pure functions of their arguments and state the game only
through `model.best_response` and `model.br_payoff`.  Per-layer timings
come from the benchmark harness, ``lqbench/run.py --trace 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import GameParams, best_response, br_payoff

__all__ = ["deviation_scan", "br_iteration", "backend_name"]


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


@lru_cache(maxsize=32)
def _subset_table(m: int) -> np.ndarray:
    """Boolean membership matrix of all 2**m subsets of m slots."""
    masks = np.arange(1 << m, dtype=np.int64)
    return (masks[:, None] >> np.arange(m)) & 1 == 1


def deviation_scan(
    efforts: np.ndarray,
    incoming: np.ndarray,
    own: np.ndarray,
    params: GameParams,
):
    """Best unilateral deviation per agent over all intent subsets.

    Parameters are the effort vector and per-agent bitmasks of incoming
    intents (others pointing at the agent) and of the agent's own intents;
    ``params`` gives the payoffs and the effort box.

    Returns ``(best_gain, best_mask, best_effort, current)`` where
    ``best_mask`` is the full-width intent bitmask of the best deviation
    and ``current`` the agent's payoff at the given profile.
    """
    efforts = np.ascontiguousarray(efforts, dtype=np.float64)
    incoming = np.ascontiguousarray(incoming, dtype=np.int64)
    own = np.ascontiguousarray(own, dtype=np.int64)
    n = efforts.shape[0]
    best_gain = np.empty(n, dtype=np.float64)
    best_mask = np.empty(n, dtype=np.int64)
    best_effort = np.empty(n, dtype=np.float64)
    current = np.empty(n, dtype=np.float64)
    members = _subset_table(n - 1)
    counts = members.sum(axis=1)
    bit_positions = np.arange(n)
    for i in range(n):
        others = np.concatenate([bit_positions[:i], bit_positions[i + 1 :]])
        inc_bits = (incoming[i] >> others) & 1 == 1
        realized_cur = ((own[i] | incoming[i]) >> bit_positions) & 1 == 1
        s_cur = float(efforts[realized_cur].sum())
        cur = br_payoff(params, efforts[i], s_cur) - params.kappa * int(own[i]).bit_count()
        current[i] = cur

        sums = (members | inc_bits[None, :]) @ efforts[others]
        x_dev = best_response(params, sums)
        gains = br_payoff(params, x_dev, sums) - params.kappa * counts - cur
        k = int(np.argmax(gains))
        best_gain[i] = gains[k]
        best_mask[i] = int((np.int64(1) << others[members[k]]).sum())
        best_effort[i] = x_dev[k]
    return best_gain, best_mask, best_effort, current


def br_iteration(
    adjacency: np.ndarray,
    x0: np.ndarray,
    params: GameParams,
    tol: float = 1e-12,
    max_iter: int = 10_000,
):
    """Iterate the clipped best-response map until the sweep change is below tol.

    Returns ``(x, iterations, last_change)``.  Monotone from the all-min
    start, so it converges to the least fixed point of the clipped map.
    """
    adj_f = np.ascontiguousarray(adjacency, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    change = np.inf
    it = 0
    while it < max_iter:
        new = best_response(params, adj_f @ x)
        change = float(np.max(np.abs(new - x)))
        x = new
        it += 1
        if change < tol:
            break
    return x, it, change
