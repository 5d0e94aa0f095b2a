import dataclasses
import re

import numpy as np
import pytest

from lqnet.dynamics import (
    EFFORT_PRESETS,
    LINK_RULE_FIELDS,
    LOGIT_PRESETS,
    AgentPolicy,
    EffortRule,
    GroupRules,
    LinkRule,
    LogisticCoefficients,
    SessionRecord,
    batch_run,
    effort_regressors,
    run_session,
    step_effort,
    step_links,
    _effort_ranks,
    _rank_band,
)
from lqnet.equilibria import nash_efforts, spectral_radius
from lqnet.errors import ConfigError, DimensionMismatchError, LqnetError
from lqnet.model import GameParams, Network, best_response, get_treatment

from helpers import (
    MYOPIC,
    fixed_links,
    oracle_complete_nash,
    oracle_replay_payoffs,
    oracle_run_session,
)

P5 = get_treatment("N5_LowCost").params
P9 = get_treatment("N9_LowCost1").params


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def group(effort=None, links=None, n=1):
    """`GroupRules` for ``n`` agents sharing one effort and one link rule."""
    policy = AgentPolicy(
        effort or MYOPIC, links or LinkRule.best_response()
    )
    return GroupRules([policy] * n)


def lagged(efforts, intents=None):
    """One replication's previous period: (1, n) efforts and (1, n, n) intents."""
    x = np.array(efforts, dtype=float)[None]
    n = x.shape[1]
    m = np.zeros((n, n), dtype=bool) if intents is None else np.asarray(intents, dtype=bool)
    return x, m[None]


class TestStepEffort:
    def test_pure_best_response_one_step(self):
        # every agent at 10 on the complete network: best reply to a neighbor total of 40
        x, m = lagged([10.0] * 5, Network.complete(5).adjacency)
        out = step_effort(group(MYOPIC, n=5), x, m, P5, [rng_of()])
        assert out.shape == (1, 5)
        assert out[0] == pytest.approx(np.full(5, 6.5))

    def test_pure_inertia(self):
        rules = group(EffortRule(b0=1.0, b1=0.0, b2=0.0), n=5)
        x, m = lagged([7.0, 12.0, 3.0, 0.0, 1.5], Network.star(5).adjacency)
        assert np.array_equal(step_effort(rules, x, m, P5, [rng_of()]), x)

    def test_regressors_on_a_star(self):
        # agent 0 initiates the star; the regressors read the realized network
        intents = np.zeros((5, 5), dtype=bool)
        intents[0, 1:] = True
        x, m = lagged([1.0, 2.0, 3.0, 4.0, 5.0], intents)
        z = effort_regressors(P5, x, m)
        assert z.shape == (1, 5, 3)
        assert z[0, 0].tolist() == [1.0, best_response(P5, 14.0), 0.0]
        assert z[0, 1].tolist() == [2.0, best_response(P5, 1.0), 12.0]

    def test_preset_pushes_above_equilibrium_on_complete(self):
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        lag, m = lagged([x] * 5, Network.complete(5).adjacency)
        out = step_effort(group(EffortRule.from_preset("N5_LowCost"), n=5), lag, m, P5, [rng_of()])
        expected = (0.090 + 0.966) * x
        assert out[0] == pytest.approx(np.full(5, expected), abs=1e-12)
        assert out[0] == pytest.approx(np.full(5, 4.400), abs=1e-3)
        assert np.all(out > x)

    def test_clipping_to_box(self):
        # agent 0's non-neighbor total is 80 on the empty network
        rules = group(EffortRule(b0=0.0, b1=0.0, b2=1.0), n=5)
        x, m = lagged([0.0] + [P5.effort_max] * 4)
        assert step_effort(rules, x, m, P5, [rng_of()])[0, 0] == P5.effort_max

    def test_conformity_term_dominates_pointwise(self):
        # with non-negative lags, adding b2 > 0 never lowers the update
        gen = np.random.default_rng(2)
        x = gen.uniform(0.0, 20.0, (20, 5))
        m = gen.random((20, 5, 5)) < 0.3
        m[:, range(5), range(5)] = False
        rngs = [rng_of(r) for r in range(20)]
        lo = step_effort(group(EffortRule(b0=0.1, b1=0.9, b2=0.0), n=5), x, m, P5, rngs)
        hi = step_effort(group(EffortRule(b0=0.1, b1=0.9, b2=0.05), n=5), x, m, P5, rngs)
        assert np.all(hi >= lo)

    def test_each_agent_uses_its_own_rule(self):
        rules = GroupRules([
            AgentPolicy(MYOPIC, LinkRule.best_response()),
            AgentPolicy(EffortRule(b0=1.0, b1=0.0, b2=0.0), LinkRule.best_response()),
        ])
        x, m = lagged([10.0, 7.0], [[False, True], [False, False]])
        out = step_effort(rules, x, m, P5, [rng_of()])
        assert list(out[0]) == [pytest.approx((10.0 + 0.4 * 7.0) / 4.0), 7.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
    @pytest.mark.parametrize(
        "value,field",
        [(EffortRule(b0=0.1, b1=0.9, b2=0.05, noise_sd=0.5), f)
         for f in ("b0", "b1", "b2", "noise_sd")]
        + [(LOGIT_PRESETS["rank"], f.name) for f in dataclasses.fields(LogisticCoefficients)],
        ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v,
    )
    def test_every_number_refuses_a_non_number_by_its_name(self, value, field, bad):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            dataclasses.replace(value, **{field: bad})

    def test_numbers_are_stored_as_floats(self):
        rule = EffortRule(b0=np.float64(0.5), b1=1, b2=0, noise_sd=0, initial_effort="3.5")
        assert rule == EffortRule(b0=0.5, b1=1.0, b2=0.0, noise_sd=0.0, initial_effort=3.5)
        assert all(type(getattr(rule, f)) is float for f in ("b1", "b2", "noise_sd"))
        with pytest.raises(ConfigError, match="^initial_effort: expected a number, got 'middle'$"):
            EffortRule(b0=0.5, b1=1.0, b2=0.0, initial_effort="middle")

    def test_presets_match_estimates(self):
        assert EFFORT_PRESETS["N5_LowCost"] == (0.090, 0.966, 0.085)
        assert EFFORT_PRESETS["N9_LowCost2"] == (0.324, 0.376, 0.014)
        with pytest.raises(LqnetError):
            EffortRule.from_preset("N7_Whatever")


class TestStepLinks:
    def test_benefit_threshold_initiates_all_positive(self):
        p = get_treatment("N9_LowCost1").params
        x, m = lagged([6.1, 10.6, 2.1] + [0.0] * 6)
        out = step_links(group(links=LinkRule.benefit_threshold(), n=9), x, m, p, [rng_of()])
        # benefits 15.16 and 2.20 are both positive: initiate to both partners
        row = out[0, 0]
        assert row[1] and row[2]
        assert not row[3:].any() and not row[0]

    def test_benefit_threshold_all_zero_efforts(self):
        x, m = lagged(np.zeros(5))
        out = step_links(group(links=LinkRule.benefit_threshold(), n=5), x, m, P5, [rng_of()])
        assert not out.any()

    def test_rank_top_tie_breaks_to_lower_index(self):
        x, m = lagged([2.0, 5.0, 3.0, 3.0, 1.0])
        out = step_links(group(links=LinkRule.rank_top(2), n=5), x, m, P5, [rng_of()])[0]
        assert list(np.nonzero(out[0])[0]) == [1, 2]
        # agent 2 skips itself and takes the other 3.0 after the 5.0
        assert list(np.nonzero(out[2])[0]) == [1, 3]

    def test_rank_top_everyone_gives_complete(self):
        pol = AgentPolicy(MYOPIC, LinkRule.rank_top(4))
        rec = run_session(P5, pol, 6, seed=3)
        assert np.all(rec.networks.sum(axis=(1, 2)) == 5 * 4)

    def test_logistic_deterministic_given_seed(self):
        rules = group(links=LinkRule.logistic(LOGIT_PRESETS["rank"]), n=9)
        x, m = lagged(np.arange(9))
        a = step_links(rules, x, m, P9, [rng_of(5)])
        b = step_links(rules, x, m, P9, [rng_of(5)])
        assert np.array_equal(a, b)
        assert not a[0].diagonal().any()

    def test_logistic_favors_above_median_partners(self):
        rules = group(links=LinkRule.logistic(LOGIT_PRESETS["rank"]), n=9)
        x, m = lagged(np.arange(9))
        rngs = [rng_of(11)]
        hits_top = hits_bottom = 0
        trials = 4000
        for _ in range(trials):
            row = step_links(rules, x, m, P9, rngs)[0, 4]
            hits_top += row[8]
            hits_bottom += row[0]
        # logit gap: rank dummies ln(1.281) - ln(0.926) plus 8 * ln(1.047)
        assert hits_top / trials > hits_bottom / trials + 0.1

    def test_fixed_targets_freeze_network(self):
        net = Network.from_edges(5, [(0, 1), (2, 3)])
        pol = AgentPolicy(MYOPIC, fixed_links(net))
        rec = run_session(P5, pol, 4, seed=1)
        for t in range(4):
            assert np.array_equal(rec.networks[t], net.adjacency)


class TestRankHelpers:
    def test_competition_ranks(self):
        assert list(_effort_ranks(np.array([3.0, 1.0, 3.0, 5.0]))) == [2, 4, 2, 1]

    def test_bands(self):
        assert _rank_band(5) == (2, 4)
        assert _rank_band(9) == (3, 7)


class TestRunSession:
    def test_myopic_convergence_to_complete_equilibrium(self):
        pol = AgentPolicy(MYOPIC, LinkRule.rank_top(4))
        rec = run_session(P5, pol, 200, seed=0)
        target = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        assert np.max(np.abs(rec.efforts[-1] - target)) < 1e-6

    def test_geometric_contraction_bound(self):
        # on a frozen network the myopic error is multiplied by (lam/beta) G
        # each period: the 2-norm contracts by lam/beta * rho every step, and
        # regular networks contract in max-norm step by step as well
        net = Network.star(9, center=0)
        rho = spectral_radius(net.adjacency)
        rate = P9.lam / P9.beta * rho
        pol = AgentPolicy(MYOPIC, fixed_links(net))
        rec = run_session(P9, pol, 60, seed=0)
        target = nash_efforts(P9, net).efforts.efforts
        errs2 = np.linalg.norm(rec.efforts - target[None, :], axis=1)
        for t in range(1, 40):
            if errs2[t - 1] < 1e-12:
                break
            assert errs2[t] <= rate * errs2[t - 1] + 1e-12

        complete = Network.complete(9)
        rate_c = P9.lam / P9.beta * spectral_radius(complete.adjacency)
        pol_c = AgentPolicy(MYOPIC, fixed_links(complete))
        rec_c = run_session(P9, pol_c, 40, seed=0)
        target_c = nash_efforts(P9, complete).efforts.efforts
        errs_inf = np.max(np.abs(rec_c.efforts - target_c[None, :]), axis=1)
        for t in range(1, 30):
            if errs_inf[t - 1] < 1e-12:
                break
            assert errs_inf[t] <= rate_c * errs_inf[t - 1] + 1e-12

    def test_t1_is_cold_start_only(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N5_LowCost"), LinkRule.benefit_threshold()
        )
        rec = run_session(P5, pol, 1, seed=42)
        assert rec.T == 1
        assert np.allclose(rec.efforts[0], P5.theta / P5.beta)
        # initial efforts 2.5: benefit 0.4 * 6.25 - 1 = 1.5 > 0, all links initiated
        assert rec.intents[0].sum() == 5 * 4

    def test_default_start_is_clipped_to_the_box(self):
        # theta/beta = 2.5 lies above effort_max = 2: the empty-network best
        # response is the cap
        params = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=5, effort_max=2.0)
        pol = AgentPolicy(EffortRule(b0=1.0, b1=0.0, b2=0.0), LinkRule.benefit_threshold())
        rec = run_session(params, pol, 1, seed=0)
        assert list(rec.efforts[0]) == [2.0] * 5

    def test_uniform_initial_efforts(self):
        pol = AgentPolicy(
            EffortRule(b0=1.0, b1=0.0, b2=0.0, initial_effort="uniform"),
            LinkRule.benefit_threshold(),
        )
        rec = run_session(P5, pol, 1, seed=9)
        assert len(np.unique(rec.efforts[0])) == 5

    def test_same_seed_bit_identical(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N9_LowCost1", noise_sd=0.5),
            LinkRule.logistic(LOGIT_PRESETS["benefit"]),
        )
        a = run_session(P9, pol, 30, seed=77)
        b = run_session(P9, pol, 30, seed=77)
        assert np.array_equal(a.efforts, b.efforts)
        assert np.array_equal(a.intents, b.intents)
        assert np.array_equal(a.payoffs, b.payoffs)

    def test_replay_reproduces_payoffs_exactly(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N5_HighCost", noise_sd=1.0),
            LinkRule.logistic(LOGIT_PRESETS["rank"]),
        )
        rec = run_session(get_treatment("N5_HighCost").params, pol, 30, seed=13)
        assert np.array_equal(oracle_replay_payoffs(rec), rec.payoffs)

    def test_conformity_slows_decline_from_above(self):
        # starting above equilibrium on a frozen incomplete network, the
        # conformity update dominates the plain myopic one pointwise
        net = Network.star(5, center=0)
        base = AgentPolicy(
            EffortRule(b0=0.0, b1=1.0, b2=0.0, initial_effort=6.0),
            fixed_links(net),
        )
        conform = AgentPolicy(
            EffortRule(b0=0.0, b1=1.0, b2=0.05, initial_effort=6.0),
            fixed_links(net),
        )
        rec_base = run_session(P5, base, 10, seed=0)
        rec_conf = run_session(P5, conform, 10, seed=0)
        assert np.all(rec_conf.efforts[1] >= rec_base.efforts[1])
        target = nash_efforts(P5, net).efforts.efforts
        assert np.all(rec_conf.efforts[1] >= target - 1e-9)

    def test_per_agent_policies(self):
        policies = [
            AgentPolicy(EffortRule(b0=1.0, b1=0.0, b2=0.0, initial_effort=float(i + 1)),
                        LinkRule.benefit_threshold())
            for i in range(5)
        ]
        rec = run_session(P5, policies, 3, seed=0)
        assert list(rec.efforts[0]) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(rec.efforts[2]) == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("field", ["b0", "noise_sd"])
    def test_a_nan_effort_rule_is_refused_before_any_period(self, field):
        with pytest.raises(ConfigError, match=f"^{field}: must be finite, got nan$"):
            run_session(P5, AgentPolicy(
                EffortRule(**{"b0": 0.1, "b1": 0.9, "b2": 0.0, field: float("nan")}),
                LinkRule.best_response(),
            ), 3, seed=0)

    def test_rejects_bad_t(self):
        pol = AgentPolicy(MYOPIC, LinkRule.rank_top(1))
        with pytest.raises(ValueError):
            run_session(P5, pol, 0, seed=0)


class TestLinkRule:
    @pytest.mark.parametrize("k", [2.5, True, False, -1, None, "2"])
    def test_rank_top_needs_a_non_negative_integer(self, k):
        with pytest.raises(ConfigError, match="^k: rank_top needs a non-negative integer cutoff k"):
            LinkRule.rank_top(k)

    @pytest.mark.parametrize("kind", ["teleport", None, ["rank_top"]])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ConfigError, match="^kind: unknown link rule"):
            LinkRule(kind=kind)

    @pytest.mark.parametrize(
        "coefficients",
        [None, (0.0, 0.0, 0.0, 0.0, 0.0), dataclasses.asdict(LOGIT_PRESETS["rank"])],
        ids=["missing", "plain-tuple", "mapping"],
    )
    def test_logistic_needs_logistic_coefficients(self, coefficients):
        with pytest.raises(ConfigError, match="^coefficients: expected LogisticCoefficients, got "):
            LinkRule.logistic(coefficients)

    def test_nan_coefficients_are_refused(self):
        # a NaN logit would read as "never links" in `step_links`
        with pytest.raises(ConfigError, match="^intercept: must be finite, got nan$"):
            LinkRule.logistic(LogisticCoefficients(intercept=float("nan")))

    def test_coefficients_are_stored_as_floats(self):
        c = LogisticCoefficients(intercept=np.float64(-1), lagged_link=2)
        assert all(type(getattr(c, f.name)) is float for f in dataclasses.fields(c))
        assert c == LogisticCoefficients(-1.0, 2.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "targets,message",
        [
            (None, "targets: expected one row per agent, got None"),
            (((), (), (-1,), (), ()), "targets[2]: expected non-negative integers, got (-1,)"),
            (((), (-1, 7)), "targets[1]: expected non-negative integers, got (-1, 7)"),
            (((1,), (2.0,)), "targets[1]: expected non-negative integers, got (2.0,)"),
            (((1,), 3), "targets[1]: expected non-negative integers, got 3"),
            (((1,), (), (2, 0, 2)), "targets[2]: names an agent twice"),
        ],
        ids=["missing", "negative", "negative-and-past-n", "float", "row-not-a-sequence",
             "repeated"],
    )
    def test_fixed_targets_need_distinct_non_negative_integers(self, targets, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LinkRule(kind="fixed_targets", targets=targets)

    def test_targets_are_stored_as_tuples_of_ints(self):
        rule = LinkRule(kind="fixed_targets", targets=[[np.int64(1)], [], (0, np.int64(3))])
        assert rule.targets == ((1,), (), (0, 3))
        assert all(type(j) is int for row in rule.targets for j in row)

    @pytest.mark.parametrize(
        "targets",
        [
            ((), (), (1, 7), (), ()),
            ((), (), (1,)),
        ],
        ids=["past-n", "short"],
    )
    def test_group_refuses_targets_outside_the_group(self, targets):
        policies = [AgentPolicy(MYOPIC, LinkRule.best_response())] * 5
        policies[2] = policies[2]._replace(link_rule=LinkRule(kind="fixed_targets", targets=targets))
        message = f"agent 2: fixed_targets needs 5 rows of indices in 0..4, got {targets}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupRules(policies)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_session(P5, policies, 3, seed=0)

    @pytest.mark.parametrize(
        "kind,given,message",
        [
            ("best_response", {"k": -5}, "k: a best_response rule takes no k, got -5"),
            ("rank_top", {"k": 2, "targets": "junk"},
             "targets: a rank_top rule takes no targets, got 'junk'"),
            ("fixed_targets", {"targets": ((1,), (0,)), "coefficients": LOGIT_PRESETS["rank"]},
             f"coefficients: a fixed_targets rule takes no coefficients, got {LOGIT_PRESETS['rank']!r}"),
        ],
        ids=["k-on-best_response", "targets-on-rank_top", "coefficients-on-fixed_targets"],
    )
    def test_field_of_another_kind_is_refused(self, kind, given, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LinkRule(kind, **given)

    def test_rank_top_takes_numpy_integers(self):
        policy = AgentPolicy(MYOPIC, LinkRule.rank_top(np.int64(2)))
        assert GroupRules([policy] * 5).rank_k.ravel().tolist() == [2] * 5


class TestBatchRun:
    def test_seeds_offset_by_replication(self):
        pol = AgentPolicy(MYOPIC, LinkRule.rank_top(2))
        recs = batch_run(P5, pol, 5, replications=3, base_seed=100)
        assert [r.seed for r in recs] == [100, 101, 102]
        assert [r.session_id for r in recs] == ["s100", "s101", "s102"]

    def test_zero_noise_replications_identical(self):
        pol = AgentPolicy(EffortRule.from_preset("N5_LowCost"), LinkRule.rank_top(2))
        recs = batch_run(P5, pol, 10, replications=3, base_seed=5)
        for other in recs[1:]:
            assert np.array_equal(recs[0].efforts, other.efforts)
            assert np.array_equal(recs[0].intents, other.intents)

    def test_rank_top_batch_underconnected(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N9_LowCost1", noise_sd=0.5), LinkRule.rank_top(5)
        )
        recs = batch_run(P9, pol, 30, replications=10, base_seed=0)
        possible = 9 * 8 / 2
        for rec in recs:
            frac = rec.networks[-10:].sum() / 2 / (10 * possible)
            assert frac < 1.0


class TestSessionRecord:
    def test_derived_arrays_are_read_only_and_match_the_decisions(self):
        pol = AgentPolicy(EffortRule.from_preset("N5_LowCost", noise_sd=0.5), LinkRule.rank_top(2))
        rec = run_session(P5, pol, 6, seed=4)
        assert rec.T == 6
        assert np.array_equal(rec.networks, rec.intents | rec.intents.transpose(0, 2, 1))
        assert np.array_equal(rec.payoffs, oracle_replay_payoffs(rec))
        for name in ("networks", "payoffs"):
            arr = getattr(rec, name)
            assert getattr(rec, name) is arr  # derived once
            with pytest.raises(ValueError):
                arr[0, 0, 0] = arr[0, 0, 1]
            with pytest.raises(AttributeError):
                setattr(rec, name, arr.copy())

    def test_rejects_a_self_link(self):
        intents = np.zeros((2, 5, 5), dtype=bool)
        intents[1, 3, [2, 3]] = True  # period 2: agent 4 initiates to agent 3 and itself
        with pytest.raises(LqnetError, match="^period 2 agent 4: initiates a link to itself$"):
            SessionRecord(session_id="x", params=P5, seed=0, intents=intents,
                          efforts=np.full((2, 5), 2.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, 20.5])
    def test_rejects_an_effort_outside_the_box(self, value):
        efforts = np.full((3, 5), 2.0)
        efforts[2, 4] = value  # period 3 agent 5, the last such cell
        efforts[1, [1, 3]] = value  # period 2 agents 2 and 4: the first is named
        message = "period 2 agent 2: effort is not a finite number in [0.0, 20.0]"
        with pytest.raises(LqnetError, match=f"^{re.escape(message)}$"):
            SessionRecord(session_id="x", params=P5, seed=0,
                          intents=np.zeros((3, 5, 5), dtype=bool), efforts=efforts)

    @pytest.mark.parametrize("session_id", [7, None, b"s1", "a/b", "../x", "a\nb", "a\r", "a\0b"])
    def test_rejects_a_session_id_that_cannot_name_its_files(self, session_id):
        with pytest.raises(ConfigError, match="^session_id: expected text without line breaks"):
            SessionRecord(session_id=session_id, params=P5, seed=0,
                          intents=np.zeros((2, 5, 5), dtype=bool), efforts=np.full((2, 5), 2.0))

    @pytest.mark.parametrize("T_intents", [2, 4])
    def test_rejects_decisions_of_different_lengths(self, T_intents):
        with pytest.raises(DimensionMismatchError, match="intents has shape"):
            SessionRecord(
                session_id="x", params=P5, seed=0,
                intents=np.zeros((T_intents, 5, 5), dtype=bool), efforts=np.zeros((3, 5)),
            )


#: (n, T) of each seeded mix: every pairing of n in {2, 3, 5, 9, 12} and T in {1, 2, 7}
MIXES = [((2, 3, 5, 9, 12)[k % 5], (1, 2, 7)[k % 3], k) for k in range(36)]


def policy_mix(n, seed):
    """Per-agent policies: link kinds cycled from a seeded offset, noise on or off
    per agent, and uniform, constant or default starts.  Every fourth mix starts
    all agents at one constant effort without noise, so rank_top sees ties."""
    rng = np.random.default_rng(seed)
    tied = seed % 4 == 0
    offset = int(rng.integers(5))
    policies = []
    for i in range(n):
        kind = list(LINK_RULE_FIELDS)[(offset + i) % 5]
        if kind == "rank_top":
            links = LinkRule.rank_top(int(rng.integers(0, n + 1)))
        elif kind == "logistic":
            preset = LOGIT_PRESETS[("benefit", "rank")[int(rng.integers(2))]]
            links = LinkRule.logistic(preset if rng.random() < 0.5 else LogisticCoefficients(
                *rng.normal(0.0, 0.5, 5).tolist()))
        elif kind == "fixed_targets":
            links = LinkRule(kind=kind, targets=tuple(
                tuple(int(j) for j in np.flatnonzero(rng.random(n) < 0.4)) for _ in range(n)))
        else:
            links = LinkRule(kind=kind)
        if tied:
            effort = EffortRule(b0=0.2, b1=0.8, b2=0.02, initial_effort=4.0)
        else:
            effort = EffortRule(
                b0=float(rng.uniform(0.0, 0.4)), b1=float(rng.uniform(0.3, 1.0)),
                b2=float(rng.uniform(0.0, 0.1)),
                noise_sd=0.0 if rng.random() < 0.4 else float(rng.uniform(0.1, 2.0)),
                initial_effort=(None, "uniform", float(rng.uniform(-2.0, 25.0)))[int(rng.integers(3))],
            )
        policies.append(AgentPolicy(effort, links))
    return policies


def mix_params(n):
    base = get_treatment("N9_HighCost" if n >= 9 else "N5_HighCost").params
    return GameParams.from_mapping({**base.to_mapping(), "n": n})


class TestBatchedMatchesPerAgent:
    @pytest.mark.parametrize("n,T,seed", MIXES)
    def test_bit_equal_to_per_agent_loop(self, n, T, seed):
        params, policies = mix_params(n), policy_mix(n, seed)
        rec = run_session(params, policies, T, seed)
        efforts, intents, payoffs = oracle_run_session(params, policies, T, seed)
        assert np.array_equal(rec.efforts, efforts)
        assert np.array_equal(rec.intents, intents)
        assert np.array_equal(rec.payoffs, payoffs)

    @pytest.mark.parametrize("n,T,seed", MIXES)
    def test_lockstep_replications_bit_equal_to_per_agent_loop(self, n, T, seed):
        params, policies = mix_params(n), policy_mix(n, seed)
        records = batch_run(params, policies, T, replications=3, base_seed=seed)
        for r, rec in enumerate(records):
            efforts, intents, payoffs = oracle_run_session(params, policies, T, seed + r)
            assert rec.seed == seed + r
            assert np.array_equal(rec.efforts, efforts)
            assert np.array_equal(rec.intents, intents)
            assert np.array_equal(rec.payoffs, payoffs)

    @pytest.mark.parametrize("seed", [1, 6, 11, 21])
    def test_a_replication_does_not_depend_on_how_many_run(self, seed):
        params, policies = mix_params(9), policy_mix(9, seed)
        alone = [run_session(params, policies, 7, seed + r) for r in range(5)]
        for replications in (1, 2, 5):
            for rec, single in zip(batch_run(params, policies, 7, replications, seed), alone):
                assert np.array_equal(rec.efforts, single.efforts)
                assert np.array_equal(rec.intents, single.intents)

    def test_mixes_cover_every_case(self):
        kinds, starts, noise, ties = set(), set(), set(), 0
        for n, T, seed in MIXES:
            policies = policy_mix(n, seed)
            kinds |= {p.link_rule.kind for p in policies}
            starts |= {type(p.effort_rule.initial_effort) for p in policies}
            noise |= {p.effort_rule.noise_sd > 0 for p in policies}
            x0 = {p.effort_rule.initial_effort for p in policies}
            ties += x0 == {4.0} and any(p.link_rule.kind == "rank_top" for p in policies)
        assert kinds == set(LINK_RULE_FIELDS)
        assert starts == {type(None), str, float}
        assert noise == {True, False}
        assert ties >= 5
        assert {(n, T) for n, T, _ in MIXES} == {(n, T) for n in (2, 3, 5, 9, 12) for T in (1, 2, 7)}
