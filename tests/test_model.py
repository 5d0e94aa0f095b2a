import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqnet
from lqnet.errors import ConfigError, DimensionMismatchError, LqnetError, UnknownTreatmentError
from lqnet.model import (
    PARAM_FIELDS,
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    best_response,
    br_payoff,
    br_value,
    effort_order,
    get_treatment,
    link_benefit,
    payoff,
    realize_network,
    total_welfare,
    treatments,
)
from lqnet.structure import classify
from lqnet.verifier import enumerate_ne_networks

from helpers import make_profile, oracle_complete_nash

P5 = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5)


class TestGameParams:
    def test_valid(self):
        p = GameParams(theta=1.0, beta=2.0, lam=0.1, kappa=0.0, n=2)
        assert p.effort_min == 0.0 and p.effort_max == 20.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=0.0, beta=4.0, lam=0.4, kappa=1.0, n=5),
            dict(theta=10.0, beta=0.0, lam=0.4, kappa=1.0, n=5),
            dict(theta=10.0, beta=4.0, lam=0.0, kappa=1.0, n=5),
            dict(theta=10.0, beta=4.0, lam=0.4, kappa=-0.1, n=5),
            dict(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=1),
            dict(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5, effort_min=5.0, effort_max=5.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GameParams(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(GameParams)])
    def test_every_field_refuses_a_non_number_by_its_key(self, field, bad):
        # a field added later fails here until its check names it
        key = {name: key for key, name in PARAM_FIELDS.items()}.get(field, field)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            GameParams(**{**dataclasses.asdict(P5), field: bad})

    def test_values_are_stored_as_python_numbers(self):
        p = GameParams(theta=np.float64(10.0), beta=4, lam=0.4, kappa=1.0, n=np.int64(5))
        assert type(p.n) is int and p.n == 5
        assert type(p.theta) is float and type(p.beta) is float
        assert p == P5

    def test_a_float_group_size_is_refused(self):
        with pytest.raises(ConfigError, match=r"^n: expected an integer, got 5\.0$"):
            GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5.0)

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, LqnetError)


class TestTreatments:
    def test_table_of_presets(self):
        expected = {
            "N5_LowCost": (5, 0.4, 1.0),
            "N5_HighCost": (5, 0.4, 3.9),
            "N9_LowCost1": (9, 0.25, 1.0),
            "N9_LowCost2": (9, 0.4, 1.0),
            "N9_HighCost": (9, 0.25, 2.5),
        }
        assert list(treatments()) == list(expected)
        for name, (n, lam, kappa) in expected.items():
            t = get_treatment(name)
            assert t.name == name
            assert t.params == GameParams(
                theta=10.0, beta=4.0, lam=lam, kappa=kappa, n=n,
                effort_min=0.0, effort_max=20.0,
            )

    @pytest.mark.parametrize("name", sorted(treatments()))
    def test_equilibrium_architectures(self, name):
        # the README's treatment table lists these; `lqnet enumerate` decides them
        t = get_treatment(name)
        supportable = {
            classify(rep.network).label
            for rep in enumerate_ne_networks(t.params)
            if rep.supportable
        }
        assert sorted(t.equilibrium_networks) == sorted(supportable)

    def test_unknown_name(self):
        with pytest.raises(UnknownTreatmentError):
            get_treatment("N7_Whatever")


class TestRealizeNetwork:
    def test_all_false_gives_empty(self):
        net = realize_network(IntentProfile.from_pairs(4, []))
        assert net.link_count() == 0

    def test_single_intent_gives_undirected_link(self):
        net = realize_network(IntentProfile.from_pairs(4, [(1, 2)]))
        assert net.edges() == [(1, 2)]
        assert net.adjacency[2, 1] and net.adjacency[1, 2]

    def test_reciprocated_intent_same_link(self):
        one = realize_network(IntentProfile.from_pairs(4, [(1, 2)]))
        both = realize_network(IntentProfile.from_pairs(4, [(1, 2), (2, 1)]))
        assert np.array_equal(one.adjacency, both.adjacency)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_false_diagonal_and_idempotent(self, bits):
        n = 5
        m = np.zeros((n, n), dtype=bool)
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for k, (i, j) in enumerate(offdiag):
            m[i, j] = (bits >> k) & 1
        intents = IntentProfile(m)
        net = realize_network(intents)
        assert np.array_equal(net.adjacency, net.adjacency.T)
        assert not net.adjacency.diagonal().any()
        again = realize_network(IntentProfile(m | m.T))
        assert np.array_equal(net.adjacency, again.adjacency)


def balanced_complete_intents(n):
    """Each agent initiates to the next (n-1)//2 agents cyclically (n odd)."""
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for step in range(1, (n - 1) // 2 + 1):
            m[i, (i + step) % n] = True
    return IntentProfile(m)


class TestPayoff:
    def test_complete_n5_table_value(self):
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        profile = StrategyProfile(
            EffortProfile(np.full(5, x)), balanced_complete_intents(5)
        )
        for i in range(5):
            got = payoff(P5, profile, i)
            assert got.total == pytest.approx(32.72, abs=0.01)
            assert got.link_cost == 2.0

    def test_empty_zero_effort(self):
        profile = make_profile([0.0] * 5, [], 5)
        assert payoff(P5, profile, 0).total == 0.0

    def test_empty_table_value(self):
        profile = make_profile([2.5] * 5, [], 5)
        got = payoff(P5, profile, 2)
        assert got.total == pytest.approx(12.5, abs=1e-12)
        assert got.own_benefit == pytest.approx(25.0)
        assert got.effort_cost == pytest.approx(12.5)
        assert got.spillover == 0.0
        assert got.link_cost == 0.0

    def test_spillover_ignores_sponsorship(self):
        a = make_profile([1.0, 2.0, 3.0], [(0, 1)], 3)
        b = make_profile([1.0, 2.0, 3.0], [(1, 0)], 3)
        assert payoff(P5_n(3), a, 0).spillover == payoff(P5_n(3), b, 0).spillover
        assert payoff(P5_n(3), a, 0).link_cost == 1.0
        assert payoff(P5_n(3), b, 0).link_cost == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            payoff(P5, make_profile([1.0] * 4, [], 4), 0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=2**20 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_breakdown_sums_to_total(self, efforts, bits):
        n = 5
        m = np.zeros((n, n), dtype=bool)
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for k, (i, j) in enumerate(offdiag):
            m[i, j] = (bits >> k) & 1
        profile = StrategyProfile(EffortProfile(np.array(efforts)), IntentProfile(m))
        for i in range(n):
            got = payoff(P5, profile, i)
            four_terms = got.own_benefit - got.effort_cost + got.spillover - got.link_cost
            assert got.total == pytest.approx(four_terms, abs=1e-9)


def P5_n(n):
    return GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=n)


class TestTotalWelfare:
    def test_complete_n5_sum(self):
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        profile = StrategyProfile(
            EffortProfile(np.full(5, x)), balanced_complete_intents(5)
        )
        assert total_welfare(P5, profile) == pytest.approx(5 * 32.7222, abs=0.01)

    def test_empty_zero(self):
        assert total_welfare(P5, make_profile([0.0] * 5, [], 5)) == 0.0

    def test_reciprocated_link_costs_twice(self):
        single = make_profile([2.0] * 5, [(0, 1)], 5)
        double = make_profile([2.0] * 5, [(0, 1), (1, 0)], 5)
        assert total_welfare(P5, single) - total_welfare(P5, double) == pytest.approx(
            P5.kappa
        )

    def test_sponsorship_swap_shifts_kappa_between_agents(self):
        a = make_profile([2.0, 3.0, 4.0, 5.0, 6.0], [(0, 1)], 5)
        b = make_profile([2.0, 3.0, 4.0, 5.0, 6.0], [(1, 0)], 5)
        assert payoff(P5, a, 0).total - payoff(P5, b, 0).total == pytest.approx(-P5.kappa)
        assert payoff(P5, a, 1).total - payoff(P5, b, 1).total == pytest.approx(P5.kappa)
        assert total_welfare(P5, a) == pytest.approx(total_welfare(P5, b))


class TestBestResponse:
    def test_isolated_agent(self):
        assert best_response(P5, 0.0) == pytest.approx(2.5)

    def test_complete_fixed_point(self):
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        assert best_response(P5, 4 * x) == pytest.approx(x, abs=1e-12)
        assert x == pytest.approx(4.17, abs=0.01)

    def test_cap_binds(self):
        assert best_response(P5, 200.0) == 20.0

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_neighbor_sum(self, s1, s2):
        lo, hi = sorted((s1, s2))
        assert best_response(P5, lo) <= best_response(P5, hi)

    def test_unclipped_slope_is_lam_over_beta(self):
        big = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5, effort_max=1e9)
        s = np.array([0.0, 10.0, 20.0])
        vals = np.array([best_response(big, v) for v in s])
        slopes = np.diff(vals) / np.diff(s)
        assert np.allclose(slopes, big.lam / big.beta)

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_lam(self, lam1, lam2, s):
        lo, hi = sorted((lam1, lam2))
        p_lo = GameParams(theta=10.0, beta=4.0, lam=lo, kappa=1.0, n=5)
        p_hi = GameParams(theta=10.0, beta=4.0, lam=hi, kappa=1.0, n=5)
        assert best_response(p_lo, s) <= best_response(p_hi, s)


class TestBrValue:
    @pytest.mark.parametrize("s", [0.0, 3.7, 12.5, 190.0, 250.0])
    def test_is_the_maximum_over_a_dense_grid(self, s):
        grid = np.linspace(P5.effort_min, P5.effort_max, 200_001)
        best = br_payoff(P5, grid, s).max()
        # the grid step is 1e-4, so its maximum lies within beta/2 (5e-5)^2 of V(s)
        assert best - 1e-12 <= br_value(P5, s) <= best + 1e-8

    def test_negative_best_reply_is_clipped(self):
        p = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5, effort_min=-5.0)
        grid = np.linspace(p.effort_min, p.effort_max, 250_001)
        for s in (-40.0, -100.0):
            best = br_payoff(p, grid, s).max()
            assert best - 1e-12 <= br_value(p, s) <= best + 1e-8

    def test_elementwise_on_arrays(self):
        s = np.array([[0.0, 3.7], [12.5, 250.0]])
        expect = [[br_value(P5, float(v)) for v in row] for row in s]
        assert np.array_equal(br_value(P5, s), expect)


class TestEffortOrder:
    def test_higher_effort_first_ties_to_the_lower_index(self):
        x = np.array([3.0, 5.0, 3.0, 5.0, 1.0, 3.0, -0.0, 0.0])
        assert effort_order(x).tolist() == [1, 3, 0, 2, 5, 4, 6, 7]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lexsort_row_by_row_on_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        # few distinct values, so most rows hold ties
        x = rng.integers(0, 4, size=(7, n)) * 0.5
        order = effort_order(x)
        assert order.shape == x.shape
        for row, got in zip(x, order):
            assert np.array_equal(got, np.lexsort((np.arange(n), -row)))


def test_no_other_module_restates_the_effort_order_or_the_logistic():
    # the effort order is `model.effort_order`, and the link probability is
    # one `np.exp` statement in `dynamics.step_links` for every period
    paths = sorted(Path(lqnet.__file__).parent.glob("*.py"))
    assert "model.py" in [path.name for path in paths]
    found = [
        f"{path.name}: {pattern}"
        for path in paths
        if path.name != "model.py"
        for pattern in ("lexsort(", "argsort(-", "math.exp(")
        if pattern in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_no_other_module_restates_the_nash_solve():
    # the spectral test and the linear solve of a Nash stretch are stated once, in
    # `kernels.spectral_radius` and `kernels.br_iteration`
    paths = sorted(Path(lqnet.__file__).parent.glob("*.py"))
    assert "kernels.py" in [path.name for path in paths]
    found = [
        f"{path.name}: {pattern}"
        for path in paths
        if path.name != "kernels.py"
        for pattern in ("eigvalsh(", "np.eye(")
        if pattern in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_only_cli_main_prints_or_exits():
    # one output path: each `cli._cmd_*` returns its report, and `cli.main` prints
    # it through `_emit` or prints the one error line, and picks the exit code
    found = set()
    for path in sorted(Path(lqnet.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            guard = isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'"
            owner = "__main__" if guard else getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = ast.unparse(node.func)
                    if func in ("print", "sys.exit", "_emit"):
                        found.add((path.name, owner, func))
    assert found == {
        ("cli.py", "_emit", "print"),
        ("cli.py", "main", "print"),
        ("cli.py", "main", "_emit"),
        ("cli.py", "__main__", "sys.exit"),
    }


class TestLinkBenefit:
    P9 = GameParams(theta=10.0, beta=4.0, lam=0.25, kappa=1.0, n=9)

    def test_feedback_screen_values(self):
        assert link_benefit(self.P9, 6.1, 10.6) == pytest.approx(15.16, abs=0.01)
        assert link_benefit(self.P9, 6.1, 2.1) == pytest.approx(2.20, abs=0.01)

    def test_zero_effort_costs_kappa(self):
        assert link_benefit(self.P9, 0.0, 12.0) == -self.P9.kappa

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, a, b):
        assert link_benefit(self.P9, a, b) == link_benefit(self.P9, b, a)


class TestTypes:
    def test_intents_reject_true_diagonal(self):
        m = np.zeros((3, 3), dtype=bool)
        m[1, 1] = True
        with pytest.raises(ValueError):
            IntentProfile(m)

    def test_network_rejects_asymmetry(self):
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = True
        with pytest.raises(ValueError):
            Network(m)

    def test_profile_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            StrategyProfile(EffortProfile(np.ones(4)), IntentProfile.from_pairs(5, []))

    def test_arrays_frozen(self):
        net = Network.star(5)
        with pytest.raises(ValueError):
            net.adjacency[0, 1] = False
