"""The NumPy kernels against brute-force and linear-algebra oracles."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from helpers import atlas, oracle_gross_payoff, oracle_least_fixed_point
from lqnet import kernels
from lqnet.model import GameParams, Network, get_treatment


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


# theta = beta = lam = 1 and an effort box of [-20, 20]: the best-reply value is
# V(s) = (1 + s)^2 / 2, exact in floats, so the gains below tie to the last bit.
# Agent 0 plays 0 with no links, so its current payoff is 0.
TIE_PARAMS = dict(theta=1.0, beta=1.0, lam=1.0, n=4, effort_min=-20.0)


def test_deviation_scan_tie_goes_to_fewest_targets():
    # agent 0's candidates, by effort: 4, 3, -7.  At kappa = 14 the top-2 set {4, 3}
    # and the bottom-1 set {-7} both gain V(7) - 28 = V(-7) - 14 = 4
    p = GameParams(kappa=14.0, **TIE_PARAMS)
    gain, targets, effort = kernels.deviation_scan(np.array([0.0, 4.0, 3.0, -7.0]),
                                                   np.zeros((4, 4), dtype=bool), p)
    assert gain[0] == 4.0
    assert np.flatnonzero(targets[0]).tolist() == [3]
    assert effort[0] == -6.0


def test_deviation_scan_tie_goes_to_top_set_over_bottom_set():
    # candidates 3, -1, -5: at kappa = 6 the top-1 set {3} and the bottom-1 set {-5}
    # both gain V(3) - 6 = V(-5) - 6 = 2
    p = GameParams(kappa=6.0, **TIE_PARAMS)
    gain, targets, effort = kernels.deviation_scan(np.array([0.0, 3.0, -1.0, -5.0]),
                                                   np.zeros((4, 4), dtype=bool), p)
    assert gain[0] == 2.0
    assert np.flatnonzero(targets[0]).tolist() == [1]
    assert effort[0] == 4.0


def test_reply_exactly_at_a_bound_holds_the_agent():
    # a reply at effort_min holds its agent low and one at effort_max holds it high,
    # so each counts one held-set change.  Star on 5 at lam/beta = 3/8 and theta/beta
    # = 1/2: the centre's first reply is 1/2 - 4 * 3/8 = -1, the floor
    p = GameParams(theta=2.0, beta=4.0, lam=1.5, kappa=1.0, n=5, effort_min=-1.0)
    adj = Network.star(5).adjacency
    x, stretches = kernels.br_iteration(adj, p)
    assert stretches == 1
    assert np.array_equal(x, np.linalg.solve(np.eye(5) - 0.375 * adj, np.full(5, 0.5)))
    # K2 at lam/beta = 1/2 and theta/beta = 3/4: the interior solution, 3/2, is the cap
    p = GameParams(theta=3.0, beta=4.0, lam=2.0, kappa=1.0, n=2, effort_max=1.5)
    x, stretches = kernels.br_iteration(Network.complete(2).adjacency, p)
    assert stretches == 1 and x.tolist() == [1.5, 1.5]


def test_networks_whose_agents_start_free_skip_the_held_set_loop(monkeypatch):
    # a stack of interior networks is one stacked test, solve and stay check
    def loop(adj, params):
        raise AssertionError("held-set loop")

    monkeypatch.setattr(kernels, "_held_sets", loop)
    p = replace(get_treatment("N9_LowCost1").params, n=5)
    x, stretches = kernels.br_iteration(np.array(atlas(5)), p)
    assert x.shape == (34, 5) and not stretches.any()


def test_contraction_margin():
    # lam/beta rho < 1 - 1e-12, strictly.  K3 at lam/beta = 1/2 has the ratio 1, and
    # eigvalsh can read rho = 2 as 2 - 4e-16: the margin keeps its singular system
    # from the solve
    k2, k3 = Network.complete(2).adjacency, Network.complete(3).adjacency
    singular = GameParams(theta=10.0, beta=4.0, lam=2.0, kappa=1.0, n=3)
    assert not kernels._contracts(singular, k3)
    x, stretches = kernels.br_iteration(k3, singular)
    assert x.tolist() == [20.0] * 3 and stretches == 1
    at = GameParams(theta=1.0, beta=1.0, lam=1.0 - 1e-12, kappa=1.0, n=2, effort_max=1e15)
    assert not kernels._contracts(at, k2)
    # just inside the margin the solve is 5e-12 from 1 / (1 - lam); squaring the
    # sweep map would land 4.6e-9 away
    inside = replace(at, lam=1.0 - 1e-11)
    assert kernels._contracts(inside, k2)
    exact = 1 / (1 - Fraction(inside.lam))
    x, stretches = kernels.br_iteration(k2, inside)
    assert stretches == 0 and all(abs(Fraction(v) / exact - 1) < 1e-10 for v in x)
