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
* `br_iteration` - the exact least fixed point of the clipped best reply on
  one network or a stack, which is every Nash effort solve: one network in
  `equilibria.nash_efforts`, a batch's distinct networks in
  `analysis.treatment_summary`.  Its contraction test is `spectral_radius`.

All are pure functions of their arguments.  The deviation kernels state the
game only through `model`: `best_response` for the best reply, `br_value` for
its payoff ``V(s)``, `payoff_components` for an agent's current net payoff, and
`effort_order` for the candidates' order.  `br_iteration` needs the best reply
in matrix form, ``theta/beta + (lam/beta) G x`` before clipping, and
`nash_efforts` checks its result against `model.best_response`.
Per-layer timings come from the benchmark harness, ``lqbench/run.py --trace 1``.
"""

import numpy as np

from .model import GameParams, best_response, br_value, effort_order, payoff_components

__all__ = ["deviation_sums", "deviation_scan", "spectral_radius", "br_iteration", "backend_name"]


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


def spectral_radius(adjacency: np.ndarray):
    """Largest eigenvalue of a symmetric matrix, floored at 0; one per matrix of a stack."""
    return np.linalg.eigvalsh(np.asarray(adjacency, dtype=np.float64)).max(axis=-1, initial=0.0)


def _contracts(params: GameParams, adjacency: np.ndarray):
    """Whether the sweep map among these free agents contracts, per matrix of a stack."""
    return params.lam / params.beta * spectral_radius(adjacency) < 1.0 - 1e-12


def br_iteration(adjacency: np.ndarray, params: GameParams):
    """The least fixed point of the clipped best reply on each network, exactly.

    Sweeps from the all-``effort_min`` profile rise, and each agent's reply
    ``y_i = theta/beta + (lam/beta) (G x)_i`` moves from held low (``y_i <= effort_min``)
    through free to held high (``y_i >= effort_max``): at most 2n held-set changes
    (Belhaj, Bramoullé & Deroïan 2014).  While the sets stay, a sweep is an affine
    map ``x -> P x + S``.  If it contracts (``lam/beta rho(G_free) < 1 - 1e-12``), its
    fixed point is solved once and returned when no sweep from it changes a set.
    Else binary lifting finds the first sweep that changes one: square the map,
    ``(P, S) -> (P P, P S + S)``, then step back down through those powers.  An
    overflowed power counts as a change, one that reaches 0 ends at the stretch's
    limit, and where rounding stalls the sweeps short of a change, the nearest
    power past it, clipped, starts the next stretch.

    ``adjacency`` is one network or a ``(..., n, n)`` stack: the first stretch of the
    networks whose agents all start free is one stacked test, solve and stay check,
    and the rest run the held-set loop one at a time.  Returns ``(x, stretches)``,
    shaped ``(..., n)`` and ``(...)``: the efforts and the number of held-set changes.
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    nets = adj.reshape(-1, *adj.shape[-2:])
    n, lo, hi, c = nets.shape[-1], params.effort_min, params.effort_max, params.theta / params.beta
    w = (params.lam / params.beta) * nets
    x, stretches = np.full(nets.shape[:-1], lo), np.zeros(len(nets), dtype=np.int64)
    y = c + w @ x[..., None]
    settled = ((y > lo) & (y < hi)).all(axis=(1, 2))
    settled[settled] = _contracts(params, nets[settled])
    x[settled] = np.linalg.solve(np.eye(n) - w[settled], np.full((n, 1), c))[..., 0]
    settled[settled] = (c + w[settled] @ x[settled, :, None] < hi).all(axis=(1, 2))
    for r in np.flatnonzero(~settled):
        x[r], stretches[r] = _held_sets(nets[r], params)
    return x.reshape(adj.shape[:-1]), stretches.reshape(adj.shape[:-2])


def _held_sets(adj: np.ndarray, params: GameParams):
    """`br_iteration` on one network, stretch by stretch from the all-``effort_min`` profile."""
    lo, hi, c = params.effort_min, params.effort_max, params.theta / params.beta
    w = (params.lam / params.beta) * adj
    x, high = np.full(len(adj), lo), np.zeros(len(adj), dtype=bool)
    y, low, stretches = c + w @ x, ~high, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            high, low = high | (y >= hi), low & (y <= lo)
            free = ~(high | low)
            held = np.where(low, lo, hi)
            # each set's largest reply; a NaN reply exceeds every one
            ceiling = np.where(low, lo, np.where(high, np.inf, np.nextafter(hi, -np.inf)))

            def stays(z):  # the sweep from z changes no set
                return (c + w @ z <= ceiling).all()

            sub = np.ix_(free, free)
            if _contracts(params, adj[sub]):
                z = held.copy()
                z[free] = np.linalg.solve(np.eye(free.sum()) - w[sub],
                                          c + w[np.ix_(free, ~free)] @ held[~free])
                if stays(z):
                    return z, stretches
            powers = [(free[:, None] * w, np.where(free, c, held))]
            while stays(leave := powers[-1][0] @ x + powers[-1][1]):
                p, s = powers[-1]
                if not p.any():
                    return leave, stretches
                powers.append((p @ p, p @ s + s))
            for p, s in reversed(powers[:-1]):  # the last staying sweep, and the nearest leaving one
                x, leave = (z, leave) if stays(z := p @ x + s) else (x, z)
            z = leave if stays(z := powers[0][0] @ x + powers[0][1]) else z
            y, x, stretches = c + w @ z, np.minimum(z, hi), stretches + 1
