"""The NumPy kernels against brute-force and linear-algebra oracles."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from helpers import atlas, oracle_gross_payoff, oracle_least_fixed_point
from lqnet import kernels
from lqnet.model import GameParams, get_treatment


def random_inputs(rng, n, low, high, grid=None):
    efforts = rng.uniform(low, high, n)
    if grid is not None:
        efforts = np.round(efforts / grid) * grid  # many tied efforts
    m = rng.random((n, n)) < 0.4
    np.fill_diagonal(m, False)
    return efforts, m


def oracle_scan(p, efforts, m, i):
    """(gain, targets mask, effort) of every intent set of agent i."""
    n = len(efforts)
    incoming = {j for j in range(n) if m[j, i]}
    current_nb = incoming | {j for j in range(n) if m[i, j]}
    s_cur = sum(efforts[j] for j in current_nb)
    current = oracle_gross_payoff(p.theta, p.beta, p.lam, efforts[i], s_cur) - p.kappa * m[i].sum()
    others = [j for j in range(n) if j != i]
    options = []
    for size in range(n):
        for targets in combinations(others, size):
            s = sum(efforts[j] for j in incoming | set(targets))
            x = min(max((p.theta + p.lam * s) / p.beta, p.effort_min), p.effort_max)
            payoff = oracle_gross_payoff(p.theta, p.beta, p.lam, x, s) - p.kappa * size
            options.append((payoff - current, sum(1 << j for j in targets), x))
    return options


#: (effort box, lam, range efforts are drawn from, rounding grid); boxes
#: below zero make the best-reply payoff fall in the neighbor total, so a
#: bottom-m set can be the best deviation
SCAN_CASES = [
    ((0.0, 20.0), 0.25, (0.0, 20.0), None),
    ((0.0, 20.0), 0.25, (-4.0, 24.0), None),
    ((-5.0, 20.0), 0.25, (-5.0, 20.0), 2.5),
    ((-20.0, 3.0), 1.5, (-23.0, 5.0), None),
    ((-20.0, 3.0), 1.5, (-20.0, 3.0), 4.0),
    ((-8.0, -1.0), 0.6, (-10.0, 1.0), None),
    ((-8.0, -1.0), 0.6, (-8.0, -1.0), 1.0),
]


def test_deviation_scan_matches_brute_force():
    rng = np.random.default_rng(12)
    base = get_treatment("N9_HighCost").params
    for (low, high), lam, draw, grid in SCAN_CASES:
        p = replace(base, effort_min=low, effort_max=high, lam=lam)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            efforts, m = random_inputs(rng, n, *draw, grid)
            gain, targets, effort = kernels.deviation_scan(efforts, m, p)
            for i in range(n):
                options = oracle_scan(p, efforts, m, i)
                best = max(g for g, _, _ in options)
                assert gain[i] == pytest.approx(best, abs=1e-10)
                assert not targets[i, i]
                chosen = {tmask: (g, x) for g, tmask, x in options}[
                    sum(1 << int(j) for j in np.flatnonzero(targets[i]))
                ]
                assert chosen[0] == pytest.approx(best, abs=1e-10)
                s = efforts @ (targets[i] | m[:, i])
                reply = min(max((p.theta + p.lam * s) / p.beta, low), high)
                assert effort[i] == pytest.approx(reply, abs=1e-10)
                assert effort[i] == pytest.approx(chosen[1], abs=1e-10)


def test_br_iteration_matches_linear_solve():
    rng = np.random.default_rng(13)
    p = GameParams(theta=10.0, beta=4.0, lam=0.3, kappa=1.0, n=9)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = m | m.T
        # lam / beta * (n - 1) < 1 keeps the solution interior and unique: the first
        # stretch's solve holds, with the bits of the linear solve
        exact = np.linalg.solve(np.eye(n) - p.lam / p.beta * adj, np.full(n, p.theta / p.beta))
        x, stretches = kernels.br_iteration(adj, p)
        assert np.array_equal(x, exact)
        assert stretches == 0


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_br_iteration_matches_split_search_on_the_atlas(ratio):
    # every graph on 2..6 agents at lam (n - 1) / beta = ratio
    for n in range(2, 7):
        for adj in atlas(n):
            p = GameParams(theta=10.0, beta=4.0, lam=ratio * 4.0 / (n - 1), kappa=1.0, n=n)
            x, _ = kernels.br_iteration(adj, p)
            assert np.allclose(x, oracle_least_fixed_point(p, adj), rtol=0, atol=1e-12)


@pytest.mark.parametrize("effort_min", [-3.0, 4.0])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_br_iteration_matches_split_search_off_zero(effort_min, ratio):
    # a negative floor lets replies fall to it; one above theta/beta holds agents
    # there until their neighbors lift them
    for n in range(2, 5):
        for adj in atlas(n):
            p = GameParams(theta=10.0, beta=4.0, lam=ratio * 4.0 / (n - 1), kappa=1.0, n=n,
                           effort_min=effort_min)
            x, _ = kernels.br_iteration(adj, p)
            assert np.allclose(x, oracle_least_fixed_point(p, adj), rtol=0, atol=1e-12)


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"
