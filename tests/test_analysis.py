from pathlib import Path

import numpy as np
import pytest

from lqnet.analysis import (
    complete_equilibrium_average,
    efficiency_report,
    fit_effort_model,
    frequency_report,
    link_diagnostics,
    resolve_window,
    treatment_summary,
)
from lqnet.dynamics import (
    AgentPolicy,
    EffortRule,
    LinkRule,
    SessionRecord,
    batch_run,
    run_session,
)
from lqnet.equilibria import balanced_sponsorship, nash_efforts
from lqnet.errors import LqnetError, RankDeficientDataError
from lqnet.model import GameParams, Network, get_treatment
from lqnet.session_io import read_records

from helpers import block_adjacency

GOLDEN = Path(__file__).parent / "golden"
P5 = get_treatment("N5_LowCost").params


def record_from_play(params, efforts_by_period, intents_by_period, session_id="syn"):
    """Build a record from explicit decisions."""
    return SessionRecord(
        session_id=session_id, params=params, seed=0,
        intents=np.stack(intents_by_period), efforts=np.array(efforts_by_period, dtype=float),
    )


def complete_equilibrium_record(params, T=10):
    net = Network.complete(params.n)
    x = nash_efforts(params, net).efforts.efforts
    sp = balanced_sponsorship(net).matrix
    return record_from_play(params, [x] * T, [sp] * T)


class TestResolveWindow:
    def test_specs(self):
        assert resolve_window("full", 30) == (1, 30)
        assert resolve_window("last10", 30) == (21, 30)
        assert resolve_window("last10", 6) == (1, 6)
        assert resolve_window((5, 9), 30) == (5, 9)

    def test_invalid(self):
        with pytest.raises(LqnetError):
            resolve_window((0, 5), 30)
        with pytest.raises(LqnetError):
            resolve_window((7, 40), 30)


class TestEfficiencyReport:
    def test_equilibrium_record_ratio_one(self):
        rec = complete_equilibrium_record(P5)
        rep = efficiency_report([rec], P5, "full")
        assert rep.relative_efficiency == pytest.approx(1.0, abs=1e-12)
        assert rep.avg_payoff == pytest.approx(complete_equilibrium_average(P5))

    def test_reported_group_average_example(self):
        # symmetric effort on the balanced complete network that earns an
        # average payoff of 21.526: 10x - 0.4x^2 - 2 = 21.526 (smaller root)
        roots = np.roots([-0.4, 10.0, -2.0 - 21.526])
        x = float(min(r.real for r in roots if abs(r.imag) < 1e-12))
        net = Network.complete(5)
        sp = balanced_sponsorship(net).matrix
        rec = record_from_play(P5, [[x] * 5] * 10, [sp] * 10)
        rep = efficiency_report([rec], P5, "full")
        assert rep.avg_payoff == pytest.approx(21.526, abs=1e-9)
        assert rep.relative_efficiency == pytest.approx(0.658, abs=1e-3)

    def test_zero_play_ratio_zero(self):
        rec = record_from_play(
            P5, [[0.0] * 5] * 4, [np.zeros((5, 5), bool)] * 4
        )
        rep = efficiency_report([rec], P5, "full")
        assert rep.avg_effort == 0.0
        assert rep.relative_efficiency == 0.0

    def test_ratio_is_average_payoff_over_complete_equilibrium(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N5_LowCost", noise_sd=0.4),
            LinkRule.benefit_threshold(),
        )
        rec = run_session(P5, pol, 12, seed=3)
        rep = efficiency_report([rec], P5, "last10")
        # the report averages per-period ratios, so the two sides differ by rounding only
        ratio = rep.avg_payoff / complete_equilibrium_average(P5)
        assert rep.relative_efficiency == pytest.approx(ratio, rel=1e-14, abs=0)

    @pytest.mark.parametrize("window", ["full", "last10", (3, 8)])
    @pytest.mark.parametrize("name,treatment", [("n5", "N5_HighCost"), ("n9", "N9_HighCost")])
    def test_equals_summary_overall_means(self, name, treatment, window):
        # `analyze` prints both blocks; one reduction gives them the same bits
        records = read_records(GOLDEN / f"sessions_{name}" / "records")
        params = get_treatment(treatment).params
        rep = efficiency_report(records, params, window)
        means = treatment_summary(records, params, window).overall_means
        for field in ("avg_effort", "avg_payoff", "relative_efficiency"):
            assert getattr(rep, field) == means[field]


class TestFrequencyReport:
    def test_half_complete(self):
        net = Network.complete(5)
        sp = balanced_sponsorship(net).matrix
        x = [2.0] * 5
        periods = [sp] * 5 + [np.zeros((5, 5), bool)] * 5
        rec = record_from_play(P5, [x] * 10, periods)
        rep = frequency_report([rec], "full")
        assert rep.per_architecture["Complete"].exact == pytest.approx(0.5)
        assert rep.per_architecture["Empty"].exact == pytest.approx(0.5)

    def test_near_miss_counts_within_two(self):
        full = Network.complete(5)
        minus = Network.from_edges(5, [e for e in full.edges() if e != (0, 1)])
        sp = balanced_sponsorship(minus).matrix
        rec = record_from_play(P5, [[2.0] * 5] * 6, [sp] * 6)
        rep = frequency_report([rec], "full")
        assert rep.per_architecture["Complete"].exact == 0.0
        assert rep.per_architecture["Complete"].within_two == 1.0

    def test_empty_far_from_star_in_large_groups(self):
        p9 = get_treatment("N9_HighCost").params
        rec = record_from_play(p9, [[1.0] * 9] * 4, [np.zeros((9, 9), bool)] * 4)
        rep = frequency_report([rec], "full")
        assert rep.per_architecture["Star"].exact == 0.0
        assert rep.per_architecture["Star"].within_two == 0.0

    def test_within_two_dominates_exact(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N9_LowCost1", noise_sd=0.5), LinkRule.rank_top(5)
        )
        recs = batch_run(get_treatment("N9_LowCost1").params, pol, 15, 5, 2)
        rep = frequency_report(recs, "full")
        for arch in rep.per_architecture.values():
            assert arch.within_two >= arch.exact


class TestLinkDiagnostics:
    def test_complete_network_nothing_missing(self):
        rec = complete_equilibrium_record(P5)
        d = link_diagnostics(rec, "full")
        assert d.avg_profitable_missing == 0.0
        assert d.unprofitable_existing_share == 0.0
        assert d.reciprocated_share == 0.0

    def test_empty_network_all_missing_profitable(self):
        rec = record_from_play(P5, [[2.5] * 5] * 3, [np.zeros((5, 5), bool)] * 3)
        d = link_diagnostics(rec, "full")
        # benefit 0.4 * 2.5 * 2.5 = 2.5 > kappa = 1 on every absent pair
        assert d.profitable_missing_share == 1.0
        assert d.avg_profitable_missing == pytest.approx(4.0)
        assert d.avg_unprofitable_existing == 0.0

    def test_reciprocated_single_link(self):
        m = np.zeros((5, 5), dtype=bool)
        m[0, 1] = m[1, 0] = True
        rec = record_from_play(P5, [[2.5] * 5] * 2, [m] * 2)
        d = link_diagnostics(rec, "full")
        assert d.reciprocated_share == 1.0

    def test_unprofitable_existing_from_sponsor_side(self):
        p = get_treatment("N5_HighCost").params  # kappa 3.9
        m = np.zeros((5, 5), dtype=bool)
        m[0, 1] = True  # benefit 0.4 * 2.5 * 2.5 = 2.5 < 3.9
        rec = record_from_play(p, [[2.5] * 5] * 2, [m] * 2)
        d = link_diagnostics(rec, "full")
        assert d.avg_unprofitable_existing == pytest.approx(1 / 5)
        assert d.unprofitable_existing_share == 1.0

    def test_permutation_equivariance(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N5_HighCost", noise_sd=0.7),
            LinkRule.benefit_threshold(),
        )
        p = get_treatment("N5_HighCost").params
        rec = run_session(p, pol, 12, seed=21)
        perm = np.array([3, 0, 4, 1, 2])
        rec2 = record_from_play(
            p,
            [rec.efforts[t][perm] for t in range(rec.T)],
            [rec.intents[t][np.ix_(perm, perm)] for t in range(rec.T)],
        )
        a = link_diagnostics(rec, "full")
        b = link_diagnostics(rec2, "full")
        for f in (
            "avg_profitable_missing",
            "profitable_missing_share",
            "avg_unprofitable_existing",
            "unprofitable_existing_share",
            "reciprocated_share",
        ):
            assert getattr(a, f) == pytest.approx(getattr(b, f), abs=1e-12)


class TestFitEffortModel:
    def test_exact_recovery_of_pure_myopic(self):
        # incomplete network (rank-2 targeting) keeps the non-neighbor
        # regressor alive; varied starts keep the columns independent
        policies = [
            AgentPolicy(
                EffortRule(b0=0.0, b1=1.0, b2=0.0, initial_effort=float(2 + i)),
                LinkRule.rank_top(2),
            )
            for i in range(5)
        ]
        rec = run_session(P5, policies, 12, seed=4)
        fit = fit_effort_model([rec])
        assert fit.b0 == pytest.approx(0.0, abs=1e-8)
        assert fit.b1 == pytest.approx(1.0, abs=1e-8)
        assert fit.b2 == pytest.approx(0.0, abs=1e-8)
        assert fit.residual_sum_squares == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_general_rule_recovered(self):
        gen = EffortRule(b0=0.21, b1=0.64, b2=0.04)
        policies = [
            AgentPolicy(
                EffortRule(gen.b0, gen.b1, gen.b2, initial_effort=float(1 + 2 * i)),
                LinkRule.rank_top(2),
            )
            for i in range(5)
        ]
        rec = run_session(P5, policies, 15, seed=8)
        assert not np.any(rec.efforts <= P5.effort_min)
        assert not np.any(rec.efforts >= P5.effort_max)
        fit = fit_effort_model([rec])
        assert fit.b0 == pytest.approx(gen.b0, abs=1e-8)
        assert fit.b1 == pytest.approx(gen.b1, abs=1e-8)
        assert fit.b2 == pytest.approx(gen.b2, abs=1e-8)
        assert fit.observation_count == 5 * 14

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("sessions_n5", (0.3047670166556535, 0.6221260999557585, -0.07501456079038758,
                             170.42361062746156, 220)),
            ("sessions_n9", (0.297308039508934, 0.46146042129819786, 0.0026333559201592396,
                             278.2962181024009, 198)),
        ],
    )
    def test_golden_records_fit_to_the_bit(self, name, expected):
        assert tuple(fit_effort_model(read_records(GOLDEN / name / "records"))) == expected

    def test_constant_play_rank_deficient(self):
        rec = complete_equilibrium_record(P5, T=8)
        with pytest.raises(RankDeficientDataError):
            fit_effort_model([rec])

    def test_needs_two_periods(self):
        rec = complete_equilibrium_record(P5, T=1)
        with pytest.raises(LqnetError):
            fit_effort_model([rec])


class TestTreatmentSummary:
    def test_equilibrium_record_matches_predictions(self):
        rec = complete_equilibrium_record(P5)
        s = treatment_summary([rec], P5, "full")
        m = s.overall_means
        assert m["link_count"] == pytest.approx(10)
        assert m["link_fraction"] == pytest.approx(1.0)
        assert m["avg_degree"] == pytest.approx(4.0)
        assert m["min_degree"] == pytest.approx(4.0)
        assert m["max_degree"] == pytest.approx(4.0)
        assert m["clustering"] == pytest.approx(1.0)
        assert m["avg_effort"] == pytest.approx(10 / 2.4, abs=1e-9)
        assert m["avg_payoff"] == pytest.approx(32.7222, abs=1e-4)
        assert m["relative_efficiency"] == pytest.approx(1.0, abs=1e-12)
        assert m["nash_effort_on_network"] == pytest.approx(10 / 2.4, abs=1e-9)

    def test_fields_echo_constructed_statistics(self):
        # 13 periods with 8 links and 7 with 9 links average to the target
        # fraction of 0.835 on five nodes
        full_edges = Network.complete(5).edges()
        eight = Network.from_edges(5, full_edges[:8])
        nine = Network.from_edges(5, full_edges[:9])
        seqs = [eight] * 13 + [nine] * 7
        intents = [balanced_sponsorship(net).matrix for net in seqs]
        rec = record_from_play(P5, [[3.0] * 5] * 20, intents)
        s = treatment_summary([rec], P5, "full")
        assert s.overall_means["link_fraction"] == pytest.approx(0.835)
        assert s.overall_means["link_count"] == pytest.approx(8.35)
        assert s.overall_means["avg_degree"] == pytest.approx(2 * 8.35 / 5)

    def test_window_of_one_period_zero_std(self):
        rec = complete_equilibrium_record(P5)
        s = treatment_summary([rec], P5, (4, 4))
        assert all(v == 0.0 for v in s.per_group[0].stds.values())

    def test_stacked_benchmark_has_the_bits_of_one_network_calls(self):
        # lam/beta = 0.15 on 9 agents: K9 fails the spectral test and K7's interior
        # solution lies above the box, so both take `nash_efforts`' fallback
        params = GameParams(theta=10.0, beta=4.0, lam=0.6, kappa=1.0, n=9)
        blocks = {sizes: block_adjacency(9, sizes) for sizes in ((9,), (7, 2), (5, 4), (2,) * 4)}
        plays = [[(9,), (5, 4), (7, 2), (5, 4)], [(2,) * 4, (9,), (7, 2)]]
        records = [
            record_from_play(params, [[3.0] * 9] * len(play), [np.triu(blocks[s]) for s in play], f"g{k}")
            for k, play in enumerate(plays)
        ]
        summary = treatment_summary(records, params, "full")
        for rec, group in zip(records, summary.per_group):
            per_period = [nash_efforts(params, Network(rec.networks[t - 1])).efforts.efforts.mean()
                          for t in range(1, rec.T + 1)]
            assert group.means["nash_effort_on_network"] == np.mean(per_period)
            assert group.stds["nash_effort_on_network"] == np.std(per_period)

    def test_nash_benchmark_consistent_with_solver(self):
        pol = AgentPolicy(
            EffortRule.from_preset("N5_LowCost", noise_sd=0.4),
            LinkRule.benefit_threshold(),
        )
        rec = run_session(P5, pol, 8, seed=10)
        s = treatment_summary([rec], P5, "full")
        expected = np.mean(
            [
                nash_efforts(P5, Network(rec.networks[t - 1])).efforts.efforts.mean()
                for t in range(1, 9)
            ]
        )
        assert s.per_group[0].means["nash_effort_on_network"] == pytest.approx(
            expected, abs=1e-12
        )
