"""The NumPy kernels against brute-force and linear-algebra oracles."""

from itertools import combinations

import numpy as np
import pytest

from helpers import oracle_gross_payoff
from lqnet import kernels
from lqnet.model import GameParams, get_treatment


def random_inputs(rng, n):
    efforts = rng.uniform(0.0, 20.0, n)
    m = rng.random((n, n)) < 0.4
    np.fill_diagonal(m, False)
    weights = np.int64(1) << np.arange(n)
    own = (m.astype(np.int64) * weights).sum(axis=1)
    incoming = (m.T.astype(np.int64) * weights).sum(axis=1)
    return efforts, incoming, own, m


def oracle_scan(p, efforts, m, i):
    """Agent i's current payoff and (gain, targets mask, effort) of every intent set."""
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
    return current, options


def test_deviation_scan_matches_brute_force():
    rng = np.random.default_rng(12)
    p = get_treatment("N9_HighCost").params
    for _ in range(30):
        n = int(rng.integers(2, 10))
        efforts, incoming, own, m = random_inputs(rng, n)
        gain, mask, effort, current = kernels.deviation_scan(efforts, incoming, own, p)
        for i in range(n):
            cur, options = oracle_scan(p, efforts, m, i)
            assert current[i] == pytest.approx(cur, abs=1e-10)
            best = max(g for g, _, _ in options)
            assert gain[i] == pytest.approx(best, abs=1e-10)
            tied = {(tmask, x) for g, tmask, x in options if g >= best - 1e-12}
            assert any(mask[i] == tmask and effort[i] == pytest.approx(x, abs=1e-10)
                       for tmask, x in tied)


def test_br_iteration_matches_linear_solve():
    rng = np.random.default_rng(13)
    p = GameParams(theta=10.0, beta=4.0, lam=0.3, kappa=1.0, n=9)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = m | m.T
        # lam / beta * (n - 1) < 1 keeps the solution interior and unique
        exact = np.linalg.solve(np.eye(n) - p.lam / p.beta * adj, np.full(n, p.theta / p.beta))
        x, iterations, change = kernels.br_iteration(adj, np.zeros(n), p)
        assert np.allclose(x, exact, atol=1e-10)
        assert iterations > 0 and change < 1e-12


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"
