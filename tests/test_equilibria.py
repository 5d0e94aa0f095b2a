import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqnet.equilibria import (
    balanced_sponsorship,
    cost_thresholds,
    efficient_efforts,
    equilibrium_payoffs,
    nash_efforts,
    preferred_sponsors,
    single_link_deviation_threshold,
    spectral_radius,
)
from lqnet.kernels import _held_sets, br_iteration
from lqnet.model import (
    GameParams,
    Network,
    get_treatment,
    realize_network,
)
from lqnet.session_io import read_records
from lqnet.verifier import SupportSearch

from helpers import (
    block_adjacency,
    oracle_complete_nash,
    oracle_gross_welfare,
    oracle_least_max_sponsorship,
    oracle_spectral_radius,
    oracle_star_efficient,
    oracle_star_nash,
)


def random_network(rng, n, p=0.4):
    m = np.triu(rng.random((n, n)) < p, 1)
    return Network(m | m.T)


class TestSpectralRadius:
    def test_known_values(self):
        assert spectral_radius(Network.empty(5).adjacency) == pytest.approx(0.0, abs=1e-9)
        assert spectral_radius(Network.complete(5).adjacency) == pytest.approx(4.0, abs=1e-9)
        assert spectral_radius(Network.star(9).adjacency) == pytest.approx(
            math.sqrt(8), abs=1e-9
        )

    def test_matches_eigvalsh_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(2, 10)))
            exact = float(np.max(np.linalg.eigvalsh(net.adjacency.astype(float))))
            assert spectral_radius(net.adjacency) == pytest.approx(exact, abs=1e-8)

    def test_matches_power_iteration_on_random_graphs(self):
        rng = np.random.default_rng(5)
        nets = [Network.star(9), Network.empty(4)]
        nets += [random_network(rng, int(rng.integers(2, 12))) for _ in range(100)]
        for net in nets:
            oracle = oracle_spectral_radius(net.adjacency)
            assert spectral_radius(net.adjacency) == pytest.approx(oracle, abs=1e-9)


class TestNashEfforts:
    def test_empty_any_treatment(self):
        for name in ("N5_LowCost", "N9_HighCost"):
            p = get_treatment(name).params
            sol = nash_efforts(p, Network.empty(p.n))
            assert sol.converged and not sol.capped
            assert np.allclose(sol.efforts.efforts, 2.5, atol=1e-12)

    def test_complete_n5(self):
        p = get_treatment("N5_LowCost").params
        sol = nash_efforts(p, Network.complete(5))
        expected = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        assert np.allclose(sol.efforts.efforts, expected, atol=1e-10)
        assert sol.efforts.efforts[0] == pytest.approx(4.1667, abs=1e-4)

    def test_star_n9(self):
        p = get_treatment("N9_HighCost").params
        sol = nash_efforts(p, Network.star(9, center=0))
        center, periphery = oracle_star_nash(10.0, 4.0, 0.25, 9)
        assert sol.efforts.efforts[0] == pytest.approx(center, abs=1e-10)
        assert np.allclose(sol.efforts.efforts[1:], periphery, atol=1e-10)
        assert (center, periphery) == (pytest.approx(3.871, abs=1e-3), pytest.approx(2.742, abs=1e-3))

    def test_fixed_point_property_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p = GameParams(
                theta=10.0, beta=4.0, lam=float(rng.uniform(0.05, 0.45)),
                kappa=1.0, n=n,
            )
            sol = nash_efforts(p, random_network(rng, n, p=float(rng.uniform(0.1, 0.9))))
            assert sol.converged
            assert sol.residual <= 1e-8

    def test_capped_least_fixed_point(self):
        # strong complementarity: best responses escalate to the cap
        p = GameParams(theta=10.0, beta=4.0, lam=0.6, kappa=1.0, n=9)
        sol = nash_efforts(p, Network.complete(9))
        assert sol.capped
        assert np.allclose(sol.efforts.efforts, 20.0)
        assert sol.converged  # 20 is an exact fixed point of the clipped map

    def test_vertex_transitive_constant(self):
        p = get_treatment("N5_HighCost").params
        cycle = Network.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        for net in (Network.empty(5), Network.complete(5), cycle):
            x = nash_efforts(p, net).efforts.efforts
            assert np.allclose(x, x[0], atol=1e-10)

    def test_ratio_just_above_one_reaches_the_cap(self):
        # a tiny drift term at ratio 1.000008: about 2.5e5 sweeps to the cap, one set change
        p = GameParams(theta=1e-4, beta=4.0, lam=0.5000005, kappa=1.0, n=9)
        sol = nash_efforts(p, Network.complete(9))
        assert np.all(sol.efforts.efforts == 20.0)
        assert sol.capped and sol.converged and sol.iterations == 1

    @pytest.mark.parametrize(
        "theta, lam, effort_max",
        [(1e-300, 0.5, 20.0), (1e-300, 0.5000000000000006, 20.0), (10.0, 0.5, 1e300)],
        ids=["tiny-theta-ratio-1", "tiny-theta-above-1", "huge-cap-ratio-1"],
    )
    def test_extreme_drift_or_cap_is_exact_and_quick(self, theta, lam, effort_max):
        # K9 at lam (n - 1) / beta = 1 or just above: up to about 1e302 sweeps from 0 to
        # the cap, found by squaring the sweep map, with no overflow warning
        p = GameParams(theta=theta, beta=4.0, lam=lam, kappa=1.0, n=9, effort_max=effort_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                sol = nash_efforts(p, Network.complete(9))
                elapsed.append(time.perf_counter() - start)
        assert np.all(sol.efforts.efforts == effort_max)
        assert sol.capped and sol.converged
        assert min(elapsed) < 0.05


class TestStackedBrIteration:
    """`br_iteration` on a stack gives each network the bits of its own call, in both
    the efforts and the held-set changes, and its stacked first stretch the bits of
    the held-set loop run alone."""

    @staticmethod
    def assert_rows_match_one_network_calls(params, stack):
        x, stretches = br_iteration(stack, params)
        n = stack.shape[-1]
        assert x.shape == stack.shape[:-1] and stretches.shape == stack.shape[:-2]
        for adj, row, count in zip(stack.reshape(-1, n, n), x.reshape(-1, n), stretches.ravel()):
            one, one_count = br_iteration(adj, params)
            assert np.array_equal(row, one) and count == one_count
            alone, alone_count = _held_sets(adj.astype(float), params)
            assert np.array_equal(row, alone) and count == alone_count
        return stretches

    @pytest.mark.parametrize("name", ["sessions_n5", "sessions_n9"])
    def test_golden_records(self, name):
        records = read_records(Path(__file__).parent / "golden" / name / "records")
        for rec in records:
            self.assert_rows_match_one_network_calls(rec.params, rec.networks)
        # records of equal length stack once more, as (records, periods, n, n)
        stack = np.array([rec.networks for rec in records if rec.T == records[0].T])
        self.assert_rows_match_one_network_calls(records[0].params, stack)

    def test_stack_that_fails_the_spectral_and_the_box_tests(self):
        # lam/beta = 0.15: K9 fails the spectral test (8 * 0.15 > 1); K7 passes it
        # (0.9) but its interior solution, 25, lies above the box
        params = GameParams(theta=10.0, beta=4.0, lam=0.6, kappa=1.0, n=9)
        blocks = [block_adjacency(9, sizes) for sizes in ([5, 4], [9], [7, 2], [3, 3, 3])]
        stack = np.array([Network.star(9).adjacency, *blocks])
        stretches = self.assert_rows_match_one_network_calls(params, stack)
        assert stretches.tolist() == [0, 0, 1, 1, 0]
        assert br_iteration(stack, params)[0][[2, 3]].max() == params.effort_max

    @pytest.mark.parametrize(
        "box, held",
        [(dict(effort_min=3.0), [True, True, False, True, True, True]),
         (dict(effort_max=2.0), [True] * 6)],
        ids=["effort_min-above-theta-over-beta", "theta-over-beta-above-effort_max"],
    )
    def test_first_stretch_that_holds_agents(self, box, held):
        # theta/beta = 2.5: the first stretch holds low the star's leaves and every
        # agent outside a block of 5 or more, or holds every agent high
        params = GameParams(theta=10.0, beta=4.0, lam=0.2, kappa=1.0, n=9, **box)
        blocks = [block_adjacency(9, sizes) for sizes in ([5, 4], [9], [7, 2], [3, 3, 3], [1] * 9)]
        stack = np.array([Network.star(9).adjacency, *blocks])
        self.assert_rows_match_one_network_calls(params, stack)
        (bound,) = box.values()
        x = br_iteration(stack, params)[0]
        assert (x == bound).any(axis=1).tolist() == held

    def test_one_network_gives_unstacked_shapes(self):
        params = get_treatment("N9_LowCost1").params
        x, stretches = br_iteration(Network.star(9).adjacency, params)
        assert x.shape == (9,) and stretches.shape == ()
        assert np.array_equal(x, nash_efforts(params, Network.star(9)).efforts.efforts)


class TestEfficientEfforts:
    def test_complete_n5(self):
        p = get_treatment("N5_LowCost").params
        sol = efficient_efforts(p, Network.complete(5))
        # the linear solve leaves last-bit differences only
        assert np.ptp(sol.efforts.efforts) <= 1e-12
        assert np.allclose(sol.efforts.efforts, 12.5, rtol=0, atol=1e-12)
        assert not sol.capped

    def test_star_centres_exact(self):
        # planner's star: centre theta (beta + 2 lam (n-1)) / (beta^2 - 4 lam^2 (n-1)),
        # periphery (theta + 2 lam centre) / beta
        x5 = efficient_efforts(get_treatment("N5_HighCost").params, Network.star(5)).efforts.efforts
        assert x5[0] == pytest.approx(72 / 13.44, abs=1e-12)
        x9 = efficient_efforts(get_treatment("N9_HighCost").params, Network.star(9)).efforts.efforts
        assert x9[0] == pytest.approx(40 / 7, abs=1e-12)
        assert np.allclose(x9[1:], 45 / 14, rtol=0, atol=1e-12)

    def test_ratio_just_above_one_reaches_the_cap(self):
        # the Nash case of TestNashEfforts at half the spillover: the
        # planner's ratio 2 lam (n-1) / beta is just above 1
        p = GameParams(theta=1e-4, beta=4.0, lam=0.25000025, kappa=1.0, n=9)
        sol = efficient_efforts(p, Network.complete(9))
        assert np.all(sol.efforts.efforts == 20.0)
        assert sol.capped and sol.converged and sol.iterations == 1

    def test_complete_n9_cap_binds(self):
        p = get_treatment("N9_LowCost1").params
        sol = efficient_efforts(p, Network.complete(9))
        assert np.all(sol.efforts.efforts == 20.0)
        assert sol.capped

    def test_star_n5(self):
        p = get_treatment("N5_HighCost").params
        sol = efficient_efforts(p, Network.star(5, center=0))
        center, periphery = oracle_star_efficient(10.0, 4.0, 0.4, 5)
        assert sol.efforts.efforts[0] == pytest.approx(center, abs=1e-8)
        assert np.allclose(sol.efforts.efforts[1:], periphery, atol=1e-8)
        assert center == pytest.approx(5.357, abs=1e-3)
        assert periphery == pytest.approx(3.571, abs=1e-3)

    def test_matches_interior_linear_solve_when_definite(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 9))
            lam = float(rng.uniform(0.05, 0.3))
            p = GameParams(theta=10.0, beta=4.0, lam=lam, kappa=1.0, n=n, effort_max=1e9)
            net = random_network(rng, n)
            m = p.beta * np.eye(n) - 2 * lam * net.adjacency.astype(float)
            if np.min(np.linalg.eigvalsh(m)) <= 1e-6:
                continue
            direct = np.linalg.solve(m, np.full(n, p.theta))
            if np.any(direct < 0):
                continue
            sol = efficient_efforts(p, net)
            assert np.allclose(sol.efforts.efforts, direct, atol=1e-7)
            checked += 1

    def test_empty_network_equals_nash(self):
        p = get_treatment("N9_LowCost2").params
        net = Network.empty(9)
        nash = nash_efforts(p, net).efforts.efforts
        eff = efficient_efforts(p, net).efforts.efforts
        assert np.allclose(nash, p.theta / p.beta)
        assert np.allclose(eff, p.theta / p.beta)

    def test_welfare_dominates_nash_on_random_networks(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            p = GameParams(
                theta=10.0, beta=4.0, lam=float(rng.uniform(0.05, 0.45)), kappa=1.0, n=n
            )
            net = random_network(rng, n, p=float(rng.uniform(0.1, 0.9)))
            w_eff = oracle_gross_welfare(p, efficient_efforts(p, net).efforts.efforts, net)
            w_nash = oracle_gross_welfare(p, nash_efforts(p, net).efforts.efforts, net)
            assert w_eff >= w_nash - 1e-9

    def test_componentwise_dominance_on_treatment_networks(self):
        for name in ("N5_LowCost", "N5_HighCost", "N9_LowCost1", "N9_LowCost2", "N9_HighCost"):
            p = get_treatment(name).params
            for net in (Network.empty(p.n), Network.star(p.n), Network.complete(p.n)):
                nash = nash_efforts(p, net).efforts.efforts
                eff = efficient_efforts(p, net).efforts.efforts
                assert np.all(eff >= nash - 1e-9)


def brute_min_max_orientation(network):
    """Exhaustive minimum over orientations of the max initiation count."""
    edges = network.edges()
    best = network.n + 1
    for code in range(1 << len(edges)):
        counts = [0] * network.n
        for k, (i, j) in enumerate(edges):
            counts[edges[k][(code >> k) & 1]] += 1
        best = min(best, max(counts))
    return best


class TestBalancedSponsorship:
    def test_complete_n5_two_each(self):
        sp = balanced_sponsorship(Network.complete(5))
        assert list(sp.matrix.sum(axis=1)) == [2] * 5
        assert not (sp.matrix & sp.matrix.T).any()

    def test_complete_n9_four_each(self):
        sp = balanced_sponsorship(Network.complete(9))
        assert list(sp.matrix.sum(axis=1)) == [4] * 9

    def test_star_periphery_sponsors(self):
        sp = balanced_sponsorship(Network.star(5, center=0))
        counts = sp.matrix.sum(axis=1)
        assert counts[0] == 0
        assert list(counts[1:]) == [1, 1, 1, 1]

    def test_realizes_network(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            net = random_network(rng, int(rng.integers(2, 9)))
            sp = balanced_sponsorship(net)
            assert np.array_equal(realize_network(sp).adjacency, net.adjacency)
            assert not (sp.matrix & sp.matrix.T).any()

    def test_minimizes_max_count(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            net = random_network(rng, int(rng.integers(2, 7)), p=0.5)
            sp = balanced_sponsorship(net)
            if net.link_count() == 0:
                continue
            assert int(sp.matrix.sum(axis=1).max()) == brute_min_max_orientation(net)

    def test_meets_hakimi_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            net = random_network(rng, int(rng.integers(2, 12)), p=float(rng.uniform(0.1, 0.9)))
            counts = balanced_sponsorship(net).matrix.sum(axis=1)
            assert int(counts.max()) == oracle_least_max_sponsorship(net)

    def test_reverses_a_path_from_the_busiest_agent(self):
        # triangle 0-1-2 plus agent 3 on agent 2; agent 0 starts with two links and
        # agent 2 with none, so the link 0-2 turns around
        net = Network.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert preferred_sponsors(net) == [(3, 2), (0, 1), (0, 2), (1, 2)]
        assert balanced_sponsorship(net).pairs() == [(0, 1), (1, 2), (2, 0), (3, 2)]


class TestEquilibriumPayoffs:
    def test_complete_payoffs_per_treatment(self):
        expected = {
            "N5_LowCost": 32.72,
            "N5_HighCost": 26.92,
            "N9_LowCost1": 46.0,
            "N9_LowCost2": 308.5,
            "N9_HighCost": 40.0,
        }
        for name, value in expected.items():
            p = get_treatment(name).params
            net = Network.complete(p.n)
            rep = equilibrium_payoffs(p, net, nash_efforts(p, net).efforts)
            assert rep.group_average == pytest.approx(value, abs=0.01)
            assert rep.group_average == pytest.approx(float(rep.per_agent.mean()))

    def test_star_pairs(self):
        for name, (center_pay, peri_pay) in {
            "N5_HighCost": (26.58, 12.51),
            "N9_HighCost": (29.97, 12.54),
        }.items():
            p = get_treatment(name).params
            net = Network.star(p.n, center=0)
            rep = equilibrium_payoffs(p, net, nash_efforts(p, net).efforts)
            assert rep.per_agent[0] == pytest.approx(center_pay, abs=0.01)
            assert np.allclose(rep.per_agent[1:], peri_pay, atol=0.01)
            assert rep.sponsorship.matrix.sum(axis=1)[0] == 0


class TestCostThresholds:
    def test_single_link_threshold_closed_form(self):
        p = get_treatment("N5_LowCost").params
        oracle = p.theta**2 * p.lam * (2 * p.beta + p.lam) / (2 * p.beta**3)
        assert oracle == pytest.approx(2.625, abs=1e-12)
        assert single_link_deviation_threshold(p) == pytest.approx(oracle, abs=1e-12)

    def test_single_link_threshold_from_clipped_empty_effort(self):
        # theta/beta = 2.5 lies above effort_max = 2, so everyone plays 2 on
        # the empty network: V(2) - br_payoff(2, 0) = 13.6 - 12
        p = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5, effort_max=2.0)
        assert single_link_deviation_threshold(p) == pytest.approx(1.6, abs=1e-12)

    def test_named_architecture_switches(self):
        p = get_treatment("N5_LowCost").params
        empty, star, complete = (
            SupportSearch(p, net).intervals()
            for net in (Network.empty(5), Network.star(5), Network.complete(5))
        )

        # empty: the binding deviation adds all n-1 links at once
        k = p.n - 1
        empty_oracle = p.theta**2 * p.lam * (2 * p.beta + k * p.lam) / (2 * p.beta**3)
        assert empty_oracle == pytest.approx(3.0, abs=1e-12)
        assert empty[0][0] == pytest.approx(empty_oracle, abs=1e-8)

        # star onset: a peripheral agent adding the other n-2 peripherals
        xc, xp = oracle_star_nash(p.theta, p.beta, p.lam, p.n)
        x0 = (p.theta + p.lam * xc) / p.beta
        m = p.n - 2
        xm = (p.theta + p.lam * (xc + m * xp)) / p.beta
        star_oracle = 2 * (xm**2 - x0**2) / m
        assert star[0][0] == pytest.approx(star_oracle, abs=1e-8)

        # complete offset: dropping both links of a balanced orientation
        x = oracle_complete_nash(p.theta, p.beta, p.lam, p.n)
        x2 = (p.theta + p.lam * (p.n - 3) * x) / p.beta
        complete_oracle = x**2 - x2**2
        assert complete_oracle == pytest.approx(6.25, abs=1e-12)
        assert complete[-1][1] == pytest.approx(complete_oracle, abs=1e-8)

        ct = cost_thresholds(p)
        assert ct.kappa1 == pytest.approx(3.0, abs=1e-8)
        assert ct.kappa2 == pytest.approx(6.25, abs=1e-8)
        assert ct.kappa1 <= ct.kappa2

    def test_treatment_kappas_sit_in_the_right_regime(self):
        ct = cost_thresholds(get_treatment("N5_LowCost").params)
        assert 1.0 < ct.kappa1  # low-cost treatment: unique complete equilibrium
        assert ct.kappa1 < 3.9 < ct.kappa2  # high-cost treatment: multiple equilibria

    @pytest.mark.parametrize(
        "treatment", ["N5_LowCost", "N5_HighCost", "N9_LowCost1", "N9_LowCost2", "N9_HighCost"]
    )
    def test_empty_supportable_above_and_complete_below_one_cost(self, treatment):
        p = get_treatment(treatment).params
        empty = SupportSearch(p, Network.empty(p.n)).intervals()
        complete = SupportSearch(p, Network.complete(p.n)).intervals()
        assert len(empty) == 1 and empty[0][1] == math.inf
        assert len(complete) == 1 and complete[0][0] == 0.0

    def test_complete_offset_beyond_the_old_bracket(self):
        # N9_LowCost2: the complete network stays supportable up to
        # (V(8x) - V(4x)) / 4 at its Nash effort x = 12.5, past kappa = 20
        p = get_treatment("N9_LowCost2").params
        x = p.theta / (p.beta - p.lam * (p.n - 1))
        assert x == pytest.approx(12.5, abs=1e-12)

        def value(s):
            return (p.theta + p.lam * s) ** 2 / (2 * p.beta)

        oracle = (value(8 * x) - value(4 * x)) / 4
        assert oracle == pytest.approx(50.0, abs=1e-9)
        assert cost_thresholds(p).kappa2 == pytest.approx(oracle, abs=1e-6)

    def test_star_window_on_n5_high_cost(self):
        p = get_treatment("N5_HighCost").params
        [(lo, hi)] = SupportSearch(p, Network.star(5)).intervals()
        assert lo == pytest.approx(3.774685, abs=1e-6)
        assert hi == pytest.approx(3.911675, abs=1e-6)
