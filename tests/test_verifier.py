import json
from pathlib import Path

import numpy as np
import pytest

from lqnet.equilibria import _with_kappa, balanced_sponsorship, nash_efforts
from lqnet.errors import LqnetError, OrientationBudgetError
from lqnet.model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    get_treatment,
)
from lqnet.structure import classify, is_nested_split
from lqnet.verifier import (
    DeviationReport,
    SupportSearch,
    canonical_form,
    deviation_gain,
    enumerate_ne_networks,
    graph_atlas,
    ne_supportable,
    verify_nash,
)

from helpers import make_profile, oracle_complete_nash


def nash_profile(params, network, sponsorship=None):
    if sponsorship is None:
        sponsorship = balanced_sponsorship(network)
    return StrategyProfile(nash_efforts(params, network).efforts, sponsorship)


class TestVerifyNash:
    def test_complete_n5_low_cost_is_nash(self):
        p = get_treatment("N5_LowCost").params
        report = verify_nash(p, nash_profile(p, Network.complete(5)))
        assert report.is_nash
        assert report.worst_deviation is None
        assert report.checked_deviations == 5 * 2**4

    def test_empty_low_cost_not_nash_single_link_gain(self):
        p = get_treatment("N5_LowCost").params
        profile = make_profile([2.5] * 5, [], 5)
        report = verify_nash(p, profile)
        assert not report.is_nash
        gain, effort = deviation_gain(p, profile, 0, [1])
        assert gain == pytest.approx(15.125 - 1.0 - 12.5, abs=1e-12)
        assert effort == pytest.approx(2.75, abs=1e-12)
        # the best deviation adds every link at once
        k = p.n - 1
        best_gain_oracle = k * ((2 * p.theta + k) / 8.0 - p.kappa)
        assert best_gain_oracle == pytest.approx(8.0)
        assert report.worst_deviation.gain == pytest.approx(best_gain_oracle, abs=1e-9)
        assert set(report.worst_deviation.targets) == set(range(1, 5))

    def test_empty_high_cost_is_nash(self):
        p = get_treatment("N5_HighCost").params
        profile = make_profile([2.5] * 5, [], 5)
        report = verify_nash(p, profile)
        assert report.is_nash
        gain, _ = deviation_gain(p, profile, 2, [0])
        assert gain == pytest.approx(15.125 - 3.9 - 12.5, abs=1e-12)

    def test_effort_only_deviation_gain_closed_form(self):
        # moving one agent's effort off its best response costs (beta/2) delta^2
        rng = np.random.default_rng(1)
        p = get_treatment("N9_LowCost1").params
        for _ in range(25):
            m = np.triu(rng.random((9, 9)) < 0.4, 1)
            net = Network(m | m.T)
            profile = nash_profile(p, net)
            x = profile.efforts.efforts.copy()
            i = int(rng.integers(9))
            delta = float(rng.uniform(-2.0, 2.0))
            x[i] = np.clip(x[i] + delta, 1e-9, 19.0)
            actual_delta = x[i] - profile.efforts.efforts[i]
            bumped = StrategyProfile(EffortProfile(x), profile.intents)
            targets = np.nonzero(profile.intents.matrix[i])[0]
            gain, _ = deviation_gain(p, bumped, i, targets)
            assert gain == pytest.approx(0.5 * p.beta * actual_delta**2, abs=1e-9)

    def test_perturbed_equilibrium_rejected(self):
        p = get_treatment("N5_HighCost").params
        base = nash_profile(p, Network.star(5, center=0))
        assert verify_nash(p, base).is_nash
        for i in range(5):
            for delta in (-0.5, 0.5):
                x = base.efforts.efforts.copy()
                x[i] += delta
                if not (p.effort_min <= x[i] <= p.effort_max):
                    continue
                bumped = StrategyProfile(EffortProfile(x), base.intents)
                report = verify_nash(p, bumped)
                assert not report.is_nash
                assert report.worst_deviation.gain >= 0.5 * p.beta * 0.25 - 1e-9

    def test_rejects_oversized_group(self):
        p = GameParams(theta=10.0, beta=4.0, lam=0.01, kappa=1.0, n=17)
        with pytest.raises(LqnetError):
            verify_nash(p, make_profile([2.5] * 17, [], 17))


class TestNeSupportable:
    def test_star_high_cost_supported_by_periphery(self):
        p = get_treatment("N5_HighCost").params
        report = ne_supportable(p, Network.star(5, center=0))
        assert report.supportable
        counts = report.witness.intents.initiation_counts()
        assert counts[0] == 0 and list(counts[1:]) == [1, 1, 1, 1]
        assert verify_nash(p, report.witness).is_nash

    def test_star_low_cost_not_supportable(self):
        p = get_treatment("N5_LowCost").params
        report = ne_supportable(p, Network.star(5, center=0))
        assert not report.supportable
        assert report.witness is None

    def test_complete_n9_high_cost_supportable(self):
        p = get_treatment("N9_HighCost").params
        report = ne_supportable(p, Network.complete(9))
        assert report.supportable
        assert verify_nash(p, report.witness).is_nash

    def test_no_double_sponsorship_in_witnesses(self):
        for name in ("N5_HighCost", "N9_HighCost"):
            p = get_treatment(name).params
            for net in (Network.star(p.n), Network.complete(p.n)):
                report = ne_supportable(p, net)
                if report.supportable:
                    m = report.witness.intents.matrix
                    assert not (m & m.T).any()

    def test_budget_error_reported(self, monkeypatch):
        # the assignment search is guarded by a node budget; force it to run
        # by making every sponsor set look stable on a non-equilibrium network
        import lqnet.verifier as verifier_mod

        p = get_treatment("N5_LowCost").params
        net = Network.star(5, center=0)

        def permissive(tables, kappa):
            return [t.masks for t in tables]

        monkeypatch.setattr(verifier_mod, "_stable_sponsor_sets", permissive)
        with pytest.raises(OrientationBudgetError):
            ne_supportable(p, net, budget=2)

    def test_matches_exhaustive_orientation_search_small(self):
        # independent oracle: try every orientation through verify_nash
        rng = np.random.default_rng(5)
        p5 = get_treatment("N5_HighCost").params
        for _ in range(20):
            m = np.triu(rng.random((5, 5)) < 0.5, 1)
            net = Network(m | m.T)
            edges = net.edges()
            efforts = nash_efforts(p5, net).efforts
            brute = False
            for code in range(1 << len(edges)):
                mm = np.zeros((5, 5), dtype=bool)
                for k, (i, j) in enumerate(edges):
                    s, o = (i, j) if (code >> k) & 1 == 0 else (j, i)
                    mm[s, o] = True
                prof = StrategyProfile(efforts, IntentProfile(mm))
                if verify_nash(p5, prof).is_nash:
                    brute = True
                    break
            assert ne_supportable(p5, net).supportable == brute


def parity_kappas(treatment):
    """0, 20, every golden onset and offset +- 1e-7, and 20 seeded draws."""
    golden = Path(__file__).parent / "golden" / f"thresholds_{treatment}.json"
    entries = json.loads(golden.read_text())["method_notes"]["architectures"]
    switches = {
        e[key] for e in entries for key in ("onset", "offset") if e.get(key, "inf") != "inf"
    }
    kappas = [0.0, 20.0] + [s + d for s in sorted(switches) for d in (-1e-7, 1e-7)]
    kappas += np.random.default_rng(2).uniform(0.0, 20.0, 20).tolist()
    return [k for k in kappas if k >= 0.0]


class TestSupportSearch:
    @pytest.mark.parametrize(
        "treatment,networks",
        [
            ("N5_HighCost", graph_atlas(5)),
            ("N9_HighCost", [Network.empty(9), Network.star(9), Network.complete(9)]),
        ],
    )
    def test_memoized_verdict_matches_fresh_search(self, treatment, networks):
        p = get_treatment(treatment).params
        kappas = parity_kappas(treatment)
        assert len(kappas) >= 26
        for net in networks:
            search = SupportSearch(p, net)
            for k in kappas:
                fresh = ne_supportable(_with_kappa(p, k), net).supportable
                assert search.supportable(k) == fresh, (net.edges(), k)

    def _count_reports(self, monkeypatch):
        searched = []
        report = SupportSearch.report

        def counted(search, kappa, *args):
            searched.append(kappa)
            return report(search, kappa, *args)

        monkeypatch.setattr(SupportSearch, "report", counted)
        return searched

    def test_negative_verdict_reused(self, monkeypatch):
        p = get_treatment("N5_HighCost").params
        search = SupportSearch(p, Network.star(5))
        searched = self._count_reports(monkeypatch)
        assert not search.supportable(1.0)
        assert not search.supportable(1.0)
        assert searched == [1.0]

    def test_rejected_witness_falls_back_to_full_search(self, monkeypatch):
        import lqnet.verifier as verifier_mod

        p = get_treatment("N5_HighCost").params
        search = SupportSearch(p, Network.star(5))
        searched = self._count_reports(monkeypatch)
        assert search.supportable(3.9)
        assert searched == [3.9]

        real = verifier_mod.verify_nash
        rejected = []

        def reject_once(params, profile, backend=None):
            if not rejected:
                rejected.append(params.kappa)
                return DeviationReport(False, None, 0)
            return real(params, profile, backend=backend)

        monkeypatch.setattr(verifier_mod, "verify_nash", reject_once)
        assert search.supportable(3.9)
        assert rejected == [3.9]
        assert searched == [3.9, 3.9]


class TestEnumerate:
    def test_n5_low_cost_only_complete(self):
        p = get_treatment("N5_LowCost").params
        reports = enumerate_ne_networks(p)
        assert len(reports) == 34
        supportable = [r for r in reports if r.supportable]
        assert len(supportable) == 1
        assert classify(supportable[0].network).label == "Complete"

    def test_n5_high_cost_empty_star_complete(self):
        p = get_treatment("N5_HighCost").params
        supportable = [r for r in enumerate_ne_networks(p) if r.supportable]
        labels = sorted(classify(r.network).label for r in supportable)
        assert labels == ["Complete", "Empty", "Star"]

    def test_n9_low_cost2_restricted_only_complete(self):
        p = get_treatment("N9_LowCost2").params
        reports = enumerate_ne_networks(p)
        assert len(reports) == 3
        supportable = [r for r in reports if r.supportable]
        assert [classify(r.network).label for r in supportable] == ["Complete"]

    def test_supportable_networks_are_nested_split(self):
        for name in ("N5_LowCost", "N5_HighCost"):
            p = get_treatment(name).params
            for report in enumerate_ne_networks(p):
                if report.supportable:
                    assert is_nested_split(report.network)

    def test_caller_candidates_deduplicated(self):
        p = get_treatment("N9_HighCost").params
        extra = [Network.star(9, center=4), Network.complete(9)]
        reports = enumerate_ne_networks(p, candidates=extra)
        assert len(reports) == 3 + 1  # star relabeled is new only as exact matrix

    def test_rejects_wrong_size_candidate(self):
        p = get_treatment("N9_HighCost").params
        with pytest.raises(LqnetError):
            enumerate_ne_networks(p, candidates=[Network.star(5)])


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = np.triu(rng.random((n, n)) < 0.5, 1)
            net = Network(m | m.T)
            perm = rng.permutation(n)
            relabeled = Network(net.adjacency[np.ix_(perm, perm)])
            assert canonical_form(net) == canonical_form(relabeled)

    def test_distinguishes_non_isomorphic(self):
        path = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        star = Network.star(4)
        assert canonical_form(path) != canonical_form(star)

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 4), (4, 11), (5, 34)])
    def test_atlas_counts(self, n, count):
        assert len(graph_atlas(n)) == count

    def test_too_large_raises(self):
        with pytest.raises(LqnetError):
            canonical_form(Network.empty(8))


class TestConsistencyAcrossModules:
    def test_verify_agrees_with_support_reports(self):
        p = get_treatment("N5_HighCost").params
        for report in enumerate_ne_networks(p):
            if report.supportable:
                assert verify_nash(p, report.witness).is_nash

    def test_balanced_sponsorship_of_complete_is_nash_when_supportable(self):
        for name in ("N5_LowCost", "N9_LowCost1", "N9_LowCost2", "N9_HighCost"):
            p = get_treatment(name).params
            profile = nash_profile(p, Network.complete(p.n))
            assert verify_nash(p, profile).is_nash

    def test_complete_minus_edge_not_nash_high_cost(self):
        p = get_treatment("N5_HighCost").params
        full = Network.complete(5)
        minus = Network.from_edges(5, [e for e in full.edges() if e != (3, 4)])
        report = ne_supportable(p, minus)
        assert not report.supportable
        # hand-derived: the two degree-3 agents profit from linking up
        x = nash_efforts(p, minus).efforts.efforts
        assert x[3] == pytest.approx(3.7162, abs=1e-4)
        assert x[0] == pytest.approx(oracle_complete_nash(10, 4, 0.4, 5), abs=0.2)
