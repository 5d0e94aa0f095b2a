"""Hot numeric kernels, in NumPy.

* `deviation_sums` - the one statement of the best-deviation argument.
  The best-reply value ``V(s) = max_x theta x - beta/2 x^2 + lam x s``
  (`model.br_value`) is a maximum of functions affine in the
  neighbor-effort total s, so it is convex.  Among the m-target
  deviations from a candidate pool, the neighbor total is largest for the
  m highest-effort candidates and smallest for the m lowest, so one of
  those two sets is the best; the 2**(N-1) intent subsets reduce to 2N+1
  prefix sums per agent.
* `deviation_scan` - every agent's best unilateral deviation (effort
  re-optimized per intent set), from `deviation_sums`.  This is the
  inner loop of Nash verification (`verifier.verify_nash`); the
  sponsorship-orientation search uses `deviation_sums` directly.
* `br_iteration` - clipped best-response fixed-point iteration used when
  the direct equilibrium solve does not apply.

All are pure functions of their arguments and state the game only
through `model`: `best_response` and `neighbor_sums` for the best reply,
`br_value` for its payoff ``V(s)``, `payoff_components` for an agent's
current net payoff, and `effort_order` for the candidates' order.
Per-layer timings come from the benchmark harness, ``lqbench/run.py --trace 1``.
"""

import numpy as np

from .model import (GameParams, best_response, br_value, effort_order, neighbor_sums,
                    payoff_components)

__all__ = ["deviation_sums", "deviation_scan", "br_iteration", "backend_name"]

#: per-sweep change below which `br_iteration` stops, and its sweep budget
SWEEP_TOL = 1e-12
MAX_ITER = 10_000


def backend_name() -> str:
    """Name of the array library the kernels run on."""
    return "numpy"


def deviation_sums(base: np.ndarray, x_sorted: np.ndarray, member: np.ndarray):
    """Neighbor totals and target counts of every deviation that can be best.

    ``x_sorted`` holds k candidate efforts, highest first; ``member[r]``
    marks the candidates row r may target, on top of the neighbor total
    ``base[r]`` it keeps.  Returns ``(sums, counts)``, each of shape
    (rows, 2k+1): column 0 targets nothing, column c in 1..k the row's
    members among the first c candidates (a top-m set) and column k+c its
    members among the last c (a bottom-m set).  By convexity of the
    best-reply payoff (see the module docstring) one of these columns is
    a best deviation for each row.
    """
    picked = np.where(member, x_sorted, 0.0)
    sums = np.hstack([np.zeros((len(base), 1)), picked.cumsum(1), picked[:, ::-1].cumsum(1)])
    counts = np.hstack(
        [np.zeros((len(base), 1), np.int64), member.cumsum(1), member[:, ::-1].cumsum(1)]
    )
    return base[:, None] + sums, counts


def deviation_scan(efforts: np.ndarray, intents: np.ndarray, params: GameParams):
    """Best unilateral deviation per agent over all intent sets.

    ``intents[i, j]`` is True when agent i sponsors a link to j;
    ``params`` gives the payoffs and the effort box.  An agent keeps the
    links others sponsor to it and may target anyone else; targeting an
    agent that already links to it only adds a cost, so the candidate
    pool leaves those out.  Ties in gain go to the fewest targets, then to
    the top-m set over the bottom-m set, with candidates ordered by higher
    effort, then lower index.

    Returns ``(best_gain, best_targets, best_effort)``: ``best_targets[i]``
    is agent i's best intent set as a boolean row and ``best_effort`` the
    clipped best reply to it.
    """
    x = np.asarray(efforts, dtype=np.float64)
    intents = np.asarray(intents, dtype=bool)
    n = len(x)
    rows = np.arange(n)
    current = payoff_components(params, x, intents)[:, 4]
    order = effort_order(x)
    member = (order[None, :] != rows[:, None]) & ~intents[order].T
    sums, counts = deviation_sums(intents.T @ x, x[order], member)
    gains = br_value(params, sums) - params.kappa * counts - current[:, None]
    best = gains.max(axis=1)
    pick = np.argmin(np.where(gains == best[:, None], counts, n), axis=1)
    c = pick[:, None]
    best_targets = np.zeros((n, n), dtype=bool)
    best_targets[rows[:, None], order] = member & np.where(c <= n, rows < c, rows >= 2 * n - c)
    return best, best_targets, best_response(params, sums[rows, pick])


def br_iteration(adjacency: np.ndarray, params: GameParams):
    """Iterate the clipped best-response map from the all-``effort_min`` profile
    until a sweep changes no effort by `SWEEP_TOL` or more, for at most `MAX_ITER`
    sweeps.

    Returns ``(x, iterations, last_change)``.  Monotone from the all-min
    start, so it converges to the least fixed point of the clipped map.
    """
    adj_f = np.ascontiguousarray(adjacency, dtype=np.float64)
    x = np.full(len(adj_f), params.effort_min)
    change = np.inf
    it = 0
    while it < MAX_ITER:
        new = best_response(params, neighbor_sums(adj_f, x))
        change = float(np.max(np.abs(new - x)))
        x = new
        it += 1
        if change < SWEEP_TOL:
            break
    return x, it, change
