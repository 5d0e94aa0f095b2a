import math

import numpy as np
import pytest

from lqnet.equilibria import (
    balanced_sponsorship,
    cost_thresholds,
    efficient_efforts,
    equilibrium_payoffs,
    gross_welfare,
    nash_efforts,
    single_link_deviation_threshold,
    spectral_radius,
)
from lqnet.errors import LqnetError, NonContractionError
from lqnet.model import (
    GameParams,
    IntentProfile,
    Network,
    get_treatment,
    realize_network,
)

from helpers import (
    oracle_complete_nash,
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

    def test_non_contraction_error(self):
        # ratio just above 1 with a tiny drift term: the clipped iteration
        # cannot reach the cap within its budget
        p = GameParams(theta=1e-4, beta=4.0, lam=0.5000005, kappa=1.0, n=9)
        with pytest.raises(NonContractionError):
            nash_efforts(p, Network.complete(9))


class TestEfficientEfforts:
    def test_complete_n5(self):
        p = get_treatment("N5_LowCost").params
        sol = efficient_efforts(p, Network.complete(5))
        assert np.allclose(sol.efforts.efforts, 12.5, atol=1e-8)
        assert not sol.capped

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
            w_eff = gross_welfare(p, efficient_efforts(p, net).efforts.efforts, net)
            w_nash = gross_welfare(p, nash_efforts(p, net).efforts.efforts, net)
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
        assert list(sp.initiation_counts()) == [2] * 5
        assert not (sp.matrix & sp.matrix.T).any()

    def test_complete_n9_four_each(self):
        sp = balanced_sponsorship(Network.complete(9))
        assert list(sp.initiation_counts()) == [4] * 9

    def test_star_periphery_sponsors(self):
        sp = balanced_sponsorship(Network.star(5, center=0))
        counts = sp.initiation_counts()
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
            assert int(sp.initiation_counts().max()) == brute_min_max_orientation(net)


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
            assert rep.sponsorship.initiation_counts()[0] == 0

    def test_rejects_mismatched_sponsorship(self):
        p = get_treatment("N5_LowCost").params
        net = Network.complete(5)
        with pytest.raises(LqnetError):
            equilibrium_payoffs(
                p, net, nash_efforts(p, net).efforts, IntentProfile.none(5)
            )

    def test_rejects_double_sponsorship(self):
        p = get_treatment("N5_LowCost").params
        net = Network.from_edges(5, [(0, 1)])
        both = IntentProfile.from_pairs(5, [(0, 1), (1, 0)])
        with pytest.raises(LqnetError):
            equilibrium_payoffs(p, net, nash_efforts(p, net).efforts, both)


class TestCostThresholds:
    def test_single_link_threshold_closed_form(self):
        p = get_treatment("N5_LowCost").params
        oracle = p.theta**2 * p.lam * (2 * p.beta + p.lam) / (2 * p.beta**3)
        assert oracle == pytest.approx(2.625, abs=1e-12)
        assert single_link_deviation_threshold(p) == pytest.approx(oracle, abs=1e-6)

    def test_named_architecture_switches(self):
        p = get_treatment("N5_LowCost").params
        ct = cost_thresholds(
            p,
            architectures=[Network.empty(5), Network.star(5), Network.complete(5)],
        )
        notes = {e["label"]: e for e in ct.method_notes["architectures"]}

        # empty: the binding deviation adds all n-1 links at once
        k = p.n - 1
        empty_oracle = p.theta**2 * p.lam * (2 * p.beta + k * p.lam) / (2 * p.beta**3)
        assert empty_oracle == pytest.approx(3.0, abs=1e-12)
        assert notes["Empty"]["onset"] == pytest.approx(empty_oracle, abs=1e-5)

        # star onset: a peripheral agent adding the other n-2 peripherals
        xc, xp = oracle_star_nash(p.theta, p.beta, p.lam, p.n)
        x0 = (p.theta + p.lam * xc) / p.beta
        m = p.n - 2
        xm = (p.theta + p.lam * (xc + m * xp)) / p.beta
        star_oracle = 2 * (xm**2 - x0**2) / m
        assert notes["Star"]["onset"] == pytest.approx(star_oracle, abs=1e-5)

        # complete offset: dropping both links of a balanced orientation
        x = oracle_complete_nash(p.theta, p.beta, p.lam, p.n)
        x2 = (p.theta + p.lam * (p.n - 3) * x) / p.beta
        complete_oracle = x**2 - x2**2
        assert complete_oracle == pytest.approx(6.25, abs=1e-12)
        assert notes["Complete"]["offset"] == pytest.approx(complete_oracle, abs=1e-5)

        assert ct.kappa1 == pytest.approx(3.0, abs=1e-5)
        assert ct.kappa2 == pytest.approx(6.25, abs=1e-5)
        assert ct.kappa1 <= ct.kappa2

    def test_treatment_kappas_sit_in_the_right_regime(self):
        p = get_treatment("N5_LowCost").params
        ct = cost_thresholds(
            p,
            architectures=[Network.empty(5), Network.star(5), Network.complete(5)],
        )
        assert 1.0 < ct.kappa1  # low-cost treatment: unique complete equilibrium
        assert ct.kappa1 < 3.9 < ct.kappa2  # high-cost treatment: multiple equilibria

    def test_grid_patterns_monotone_for_empty_and_complete(self):
        p = get_treatment("N9_HighCost").params
        ct = cost_thresholds(
            p,
            architectures=[Network.empty(9), Network.complete(9)],
            grid_points=21,
        )
        for entry in ct.method_notes["architectures"]:
            pattern = entry["grid_pattern"]
            if entry["label"] == "Empty":
                assert "10" not in pattern
            else:
                assert "01" not in pattern
