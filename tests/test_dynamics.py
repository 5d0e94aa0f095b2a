import numpy as np
import pytest

from lqnet.dynamics import (
    EFFORT_PRESETS,
    LOGIT_PRESETS,
    AgentPolicy,
    EffortRule,
    LinkRule,
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
from lqnet.model import Network, get_treatment

from helpers import oracle_complete_nash

P5 = get_treatment("N5_LowCost").params
P9 = get_treatment("N9_LowCost1").params


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestStepEffort:
    def test_pure_best_response_one_step(self):
        rule = EffortRule.myopic_best_response()
        out = step_effort(rule, own_lag=10.0, neighbor_lag_sum=40.0,
                          non_neighbor_lag_sum=0.0, params=P5)
        assert out == pytest.approx(6.5)

    def test_pure_inertia(self):
        rule = EffortRule(b0=1.0, b1=0.0, b2=0.0)
        assert step_effort(rule, 7.0, 12.0, 3.0, P5) == 7.0

    def test_preset_pushes_above_equilibrium_on_complete(self):
        rule = EffortRule.from_preset("N5_LowCost")
        x = oracle_complete_nash(10.0, 4.0, 0.4, 5)
        out = step_effort(rule, x, 4 * x, 0.0, P5)
        expected = (0.090 + 0.966) * x
        assert out == pytest.approx(expected, abs=1e-12)
        assert out == pytest.approx(4.400, abs=1e-3)
        assert out > x

    def test_clipping_to_box(self):
        rule = EffortRule(b0=0.0, b1=0.0, b2=1.0)
        assert step_effort(rule, 0.0, 0.0, 500.0, P5) == P5.effort_max

    def test_noise_requires_rng(self):
        rule = EffortRule(b0=1.0, b1=0.0, b2=0.0, noise_sd=1.0)
        with pytest.raises(ValueError):
            step_effort(rule, 5.0, 0.0, 0.0, P5)

    def test_conformity_term_dominates_pointwise(self):
        # with non-negative lags, adding b2 > 0 never lowers the update
        rng = np.random.default_rng(2)
        for _ in range(100):
            own, nsum, nnsum = rng.uniform(0.0, 20.0, 3)
            lo = step_effort(EffortRule(b0=0.1, b1=0.9, b2=0.0), own, nsum, nnsum, P5)
            hi = step_effort(EffortRule(b0=0.1, b1=0.9, b2=0.05), own, nsum, nnsum, P5)
            assert hi >= lo

    def test_presets_match_estimates(self):
        assert EFFORT_PRESETS["N5_LowCost"] == (0.090, 0.966, 0.085)
        assert EFFORT_PRESETS["N9_LowCost2"] == (0.324, 0.376, 0.014)
        with pytest.raises(LqnetError):
            EffortRule.from_preset("N7_Whatever")


class TestStepLinks:
    def test_benefit_threshold_initiates_all_positive(self):
        p = get_treatment("N9_LowCost1").params
        lagged = np.array([6.1, 10.6, 2.1] + [0.0] * 6)
        row = step_links(
            LinkRule.benefit_threshold(), 0, lagged, np.zeros(9, bool), p
        )
        # benefits 15.16 and 2.20 are both positive: initiate to both partners
        assert row[1] and row[2]
        assert not row[3:].any() and not row[0]

    def test_benefit_threshold_all_zero_efforts(self):
        row = step_links(
            LinkRule.benefit_threshold(), 1, np.zeros(5), np.zeros(5, bool), P5
        )
        assert not row.any()

    def test_rank_top_tie_breaks_to_lower_index(self):
        lagged = np.array([2.0, 5.0, 3.0, 3.0, 1.0])
        row = step_links(LinkRule.rank_top(2), 0, lagged, np.zeros(5, bool), P5)
        assert list(np.nonzero(row)[0]) == [1, 2]

    def test_rank_top_everyone_gives_complete(self):
        pol = AgentPolicy(EffortRule.myopic_best_response(), LinkRule.rank_top(4))
        rec = run_session(P5, pol, 6, seed=3)
        assert np.all(rec.networks.sum(axis=(1, 2)) == 5 * 4)

    def test_logistic_deterministic_given_seed(self):
        rule = LinkRule.logistic(LOGIT_PRESETS["rank"])
        lagged = np.arange(9, dtype=float)
        a = step_links(rule, 0, lagged, np.zeros(9, bool), P9, rng_of(5))
        b = step_links(rule, 0, lagged, np.zeros(9, bool), P9, rng_of(5))
        assert np.array_equal(a, b)
        assert not a[0]

    def test_logistic_favors_above_median_partners(self):
        rule = LinkRule.logistic(LOGIT_PRESETS["rank"])
        lagged = np.arange(9, dtype=float)
        rng = rng_of(11)
        hits_top = hits_bottom = 0
        trials = 4000
        for _ in range(trials):
            row = step_links(rule, 4, lagged, np.zeros(9, bool), P9, rng)
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
