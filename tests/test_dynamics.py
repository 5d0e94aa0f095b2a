import numpy as np
import pytest

from lqnet.dynamics import (
    EFFORT_PRESETS,
    LINK_RULE_KINDS,
    LOGIT_PRESETS,
    AgentPolicy,
    EffortRule,
    GroupRules,
    LinkRule,
    LogisticCoefficients,
    SessionRecord,
    batch_run,
    replay_payoffs,
    run_session,
    step_effort,
    step_links,
    _effort_ranks,
    _rank_band,
)
from lqnet.equilibria import nash_efforts, spectral_radius
from lqnet.errors import LqnetError
from lqnet.model import GameParams, Network, get_treatment

from helpers import oracle_complete_nash, oracle_run_session

P5 = get_treatment("N5_LowCost").params
P9 = get_treatment("N9_LowCost1").params


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def group(effort=None, links=None, n=1):
    """`GroupRules` for ``n`` agents sharing one effort and one link rule."""
    policy = AgentPolicy(
        effort or EffortRule.myopic_best_response(), links or LinkRule.best_response()
    )
    return GroupRules([policy] * n)


def col(*values):
    return np.array(values, dtype=float)


class TestStepEffort:
    def test_pure_best_response_one_step(self):
        out = step_effort(group(EffortRule.myopic_best_response()), own_lag=col(10.0),
                          neighbor_lag_sum=col(40.0), non_neighbor_lag_sum=col(0.0), params=P5)
        assert out[0] == pytest.approx(6.5)

    def test_pure_inertia(self):
        rules = group(EffortRule(b0=1.0, b1=0.0, b2=0.0))
        assert step_effort(rules, col(7.0), col(12.0), col(3.0), P5)[0] == 7.0

    def test_preset_pushes_above_equilibrium_on_complete(self):
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        lag = np.full(5, x)
        out = step_effort(group(EffortRule.from_preset("N5_LowCost"), n=5), lag, 4 * lag,
                          np.zeros(5), P5)
        expected = (0.090 + 0.966) * x
        assert out == pytest.approx(np.full(5, expected), abs=1e-12)
        assert out == pytest.approx(np.full(5, 4.400), abs=1e-3)
        assert np.all(out > x)

    def test_clipping_to_box(self):
        rules = group(EffortRule(b0=0.0, b1=0.0, b2=1.0))
        assert step_effort(rules, col(0.0), col(0.0), col(500.0), P5)[0] == P5.effort_max

    def test_noise_requires_rng(self):
        rules = group(EffortRule(b0=1.0, b1=0.0, b2=0.0, noise_sd=1.0))
        with pytest.raises(ValueError):
            step_effort(rules, col(5.0), col(0.0), col(0.0), P5)

    def test_conformity_term_dominates_pointwise(self):
        # with non-negative lags, adding b2 > 0 never lowers the update
        own, nsum, nnsum = np.random.default_rng(2).uniform(0.0, 20.0, (3, 100))
        lo = step_effort(group(EffortRule(b0=0.1, b1=0.9, b2=0.0), n=100), own, nsum, nnsum, P5)
        hi = step_effort(group(EffortRule(b0=0.1, b1=0.9, b2=0.05), n=100), own, nsum, nnsum, P5)
        assert np.all(hi >= lo)

    def test_each_agent_uses_its_own_rule(self):
        rules = GroupRules([
            AgentPolicy(EffortRule.myopic_best_response(), LinkRule.best_response()),
            AgentPolicy(EffortRule(b0=1.0, b1=0.0, b2=0.0), LinkRule.best_response()),
        ])
        out = step_effort(rules, col(10.0, 7.0), col(40.0, 12.0), col(0.0, 3.0), P5)
        assert list(out) == [pytest.approx(6.5), 7.0]

    def test_presets_match_estimates(self):
        assert EFFORT_PRESETS["N5_LowCost"] == (0.090, 0.966, 0.085)
        assert EFFORT_PRESETS["N9_LowCost2"] == (0.324, 0.376, 0.014)
        with pytest.raises(LqnetError):
            EffortRule.from_preset("N7_Whatever")


class TestStepLinks:
    def test_benefit_threshold_initiates_all_positive(self):
        p = get_treatment("N9_LowCost1").params
        lagged = np.array([6.1, 10.6, 2.1] + [0.0] * 6)
        out = step_links(group(links=LinkRule.benefit_threshold(), n=9), lagged,
                         np.zeros((9, 9), bool), p)
        # benefits 15.16 and 2.20 are both positive: initiate to both partners
        row = out[0]
        assert row[1] and row[2]
        assert not row[3:].any() and not row[0]

    def test_benefit_threshold_all_zero_efforts(self):
        out = step_links(group(links=LinkRule.benefit_threshold(), n=5), np.zeros(5),
                         np.zeros((5, 5), bool), P5)
        assert not out.any()

    def test_rank_top_tie_breaks_to_lower_index(self):
        lagged = np.array([2.0, 5.0, 3.0, 3.0, 1.0])
        out = step_links(group(links=LinkRule.rank_top(2), n=5), lagged, np.zeros((5, 5), bool), P5)
        assert list(np.nonzero(out[0])[0]) == [1, 2]
        # agent 2 skips itself and takes the other 3.0 after the 5.0
        assert list(np.nonzero(out[2])[0]) == [1, 3]

    def test_rank_top_everyone_gives_complete(self):
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(4))
        rec = run_session(P5, pol, 6, seed=3)
        assert np.all(rec.networks.sum(axis=(1, 2)) == 5 * 4)

    def test_logistic_deterministic_given_seed(self):
        rules = group(links=LinkRule.logistic(LOGIT_PRESETS["rank"]), n=9)
        lagged = np.arange(9, dtype=float)
        a = step_links(rules, lagged, np.zeros((9, 9), bool), P9, rng_of(5))
        b = step_links(rules, lagged, np.zeros((9, 9), bool), P9, rng_of(5))
        assert np.array_equal(a, b)
        assert not a.diagonal().any()

    def test_logistic_favors_above_median_partners(self):
        rules = group(links=LinkRule.logistic(LOGIT_PRESETS["rank"]), n=9)
        lagged = np.arange(9, dtype=float)
        rng = rng_of(11)
        hits_top = hits_bottom = 0
        trials = 4000
        for _ in range(trials):
            row = step_links(rules, lagged, np.zeros((9, 9), bool), P9, rng)[4]
            hits_top += row[8]
            hits_bottom += row[0]
        # logit gap: rank dummies ln(1.281) - ln(0.926) plus 8 * ln(1.047)
        assert hits_top / trials > hits_bottom / trials + 0.1

    def test_fixed_targets_freeze_network(self):
        net = Network.from_edges(5, [(0, 1), (2, 3)])
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.fixed(net))
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
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(4))
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
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.fixed(net))
        rec = run_session(P9, pol, 60, seed=0)
        target = nash_efforts(P9, net).efforts.efforts
        errs2 = np.linalg.norm(rec.efforts - target[None, :], axis=1)
        for t in range(1, 40):
            if errs2[t - 1] < 1e-12:
                break
            assert errs2[t] <= rate * errs2[t - 1] + 1e-12

        complete = Network.complete(9)
        rate_c = P9.lam / P9.beta * spectral_radius(complete.adjacency)
        pol_c = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.fixed(complete))
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
        assert np.array_equal(replay_payoffs(rec), rec.payoffs)

    def test_conformity_slows_decline_from_above(self):
        # starting above equilibrium on a frozen incomplete network, the
        # conformity update dominates the plain myopic one pointwise
        net = Network.star(5, center=0)
        base = AgentPolicy(
            EffortRule(b0=0.0, b1=1.0, b2=0.0, initial_effort=6.0),
            LinkRule.fixed(net),
        )
        conform = AgentPolicy(
            EffortRule(b0=0.0, b1=1.0, b2=0.05, initial_effort=6.0),
            LinkRule.fixed(net),
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

    def test_rejects_bad_t(self):
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(1))
        with pytest.raises(ValueError):
            run_session(P5, pol, 0, seed=0)


class TestBatchRun:
    def test_seeds_offset_by_replication(self):
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(2))
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
    def test_rejects_inconsistent_networks(self):
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(2))
        rec = run_session(P5, pol, 3, seed=0)
        bad = rec.networks.copy()
        bad[0, 0, 1] = ~bad[0, 0, 1]
        with pytest.raises(LqnetError):
            SessionRecord(
                session_id="x", params=P5, T=3, seed=0,
                intents=rec.intents.copy(), networks=bad,
                efforts=rec.efforts.copy(), payoffs=rec.payoffs.copy(),
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
        kind = LINK_RULE_KINDS[(offset + i) % 5]
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

    def test_mixes_cover_every_case(self):
        kinds, starts, noise, ties = set(), set(), set(), 0
        for n, T, seed in MIXES:
            policies = policy_mix(n, seed)
            kinds |= {p.link_rule.kind for p in policies}
            starts |= {type(p.effort_rule.initial_effort) for p in policies}
            noise |= {p.effort_rule.noise_sd > 0 for p in policies}
            x0 = {p.effort_rule.initial_effort for p in policies}
            ties += x0 == {4.0} and any(p.link_rule.kind == "rank_top" for p in policies)
        assert kinds == set(LINK_RULE_KINDS)
        assert starts == {type(None), str, float}
        assert noise == {True, False}
        assert ties >= 5
        assert {(n, T) for n, T, _ in MIXES} == {(n, T) for n in (2, 3, 5, 9, 12) for T in (1, 2, 7)}
