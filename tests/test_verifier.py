import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lqnet import kernels
from lqnet.equilibria import balanced_sponsorship, nash_efforts
from lqnet.errors import DimensionMismatchError, LqnetError, OrientationBudgetError
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
    DEVIATION_TOL,
    MAX_SPONSOR_DEGREE,
    SupportSearch,
    _SponsorTable,
    _sponsor_tables,
    _stable_sponsor_sets,
    canonical_form,
    enumerate_candidates,
    enumerate_ne_networks,
    graph_atlas,
    ne_supportable,
    verify_nash,
)

from helpers import make_profile, nested_split_graphs, oracle_complete_nash, oracle_deviation_gain


def nash_profile(params, network, sponsorship=None):
    if sponsorship is None:
        sponsorship = balanced_sponsorship(network)
    return StrategyProfile(nash_efforts(params, network).efforts, sponsorship)


class TestVerifyNash:
    def test_profile_of_another_size_is_a_dimension_error(self):
        p = get_treatment("N5_LowCost").params
        with pytest.raises(DimensionMismatchError, match=r"^profile has n=4, params expect n=5$"):
            verify_nash(p, make_profile([2.5] * 4, [], 4))

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
        gain, effort = oracle_deviation_gain(p, profile, 0, [1])
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
        gain, _ = oracle_deviation_gain(p, profile, 2, [0])
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
            gain, _ = oracle_deviation_gain(p, bumped, i, targets)
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

    def test_gain_at_or_below_the_tolerance_is_not_a_deviation(self, monkeypatch):
        p = get_treatment("N5_HighCost").params
        profile = nash_profile(p, Network.star(5, center=0))
        for gain, is_nash in [(DEVIATION_TOL, True), (2 * DEVIATION_TOL, False)]:
            scan = (np.array([0.0, gain, 0.0, 0.0, 0.0]), np.zeros((5, 5), dtype=bool), np.zeros(5))
            monkeypatch.setattr(kernels, "deviation_scan", lambda x, intents, params: scan)
            report = verify_nash(p, profile)
            assert report.is_nash is is_nash
            assert is_nash or report.worst_deviation == (1, (), 0.0, gain)

    def test_checks_groups_past_the_support_limit(self):
        # the deviation scan keeps no agent bitmask, so no group-size cap applies
        n = 70
        p = GameParams(theta=10.0, beta=4.0, lam=0.01, kappa=1.0, n=n)
        rng = np.random.default_rng(70)
        intents = rng.random((n, n)) < 0.1
        np.fill_diagonal(intents, False)
        profile = StrategyProfile(EffortProfile(rng.uniform(0.0, 5.0, n)), IntentProfile(intents))
        report = verify_nash(p, profile)
        assert not report.is_nash
        dev = report.worst_deviation
        gain, effort = oracle_deviation_gain(p, profile, dev.agent, dev.targets)
        assert dev.gain == pytest.approx(gain, abs=1e-9)
        assert dev.effort == pytest.approx(effort, abs=1e-12)

    def test_empty_n40_best_deviation_links_to_everyone(self):
        # from the empty network at x0 = theta/beta, the all-links deviation
        # gains ((theta + lam (n-1) x0)^2 - theta^2) / (2 beta) - kappa (n-1)
        n = 40
        p = GameParams(theta=10.0, beta=4.0, lam=0.02, kappa=0.1, n=n)
        x0 = p.theta / p.beta
        report = verify_nash(p, make_profile([x0] * n, [], n))
        expected = ((p.theta + p.lam * (n - 1) * x0) ** 2 - p.theta**2) / (2 * p.beta) - p.kappa * (n - 1)
        assert expected == pytest.approx(1.45, abs=1e-3)
        assert not report.is_nash
        dev = report.worst_deviation
        assert dev.targets == tuple(j for j in range(n) if j != dev.agent)
        assert dev.gain == pytest.approx(expected, abs=1e-9)
        assert dev.effort == pytest.approx((p.theta + p.lam * (n - 1) * x0) / p.beta, abs=1e-12)
        assert report.checked_deviations == n * 2 ** (n - 1)


class TestNeSupportable:
    def test_rejects_oversized_group(self):
        # its agent-id bitmasks are int64, so it stops short of bit 63, the sign bit
        p = GameParams(theta=10.0, beta=4.0, lam=0.01, kappa=1.0, n=63)
        with pytest.raises(LqnetError, match="up to 62 agents, got 63"):
            ne_supportable(p, Network.empty(63))
        assert ne_supportable(replace(p, n=62), Network.empty(62)).supportable  # 62 fit

    def test_rejects_oversized_tables_before_building_anything(self, monkeypatch):
        import lqnet.verifier as verifier_mod

        p = GameParams(theta=10.0, beta=4.0, lam=0.01, kappa=1.0, n=MAX_SPONSOR_DEGREE + 1)
        SupportSearch(p, Network.star(p.n))  # a centre at the limit passes

        def refuse(*args):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(verifier_mod, "nash_efforts", refuse)
        monkeypatch.setattr(verifier_mod, "_subset_table", refuse)
        # a 30-agent star's centre would need 2**29 sponsored sets, about 124 GB
        for n in (MAX_SPONSOR_DEGREE + 2, 30):
            with pytest.raises(LqnetError, match=(
                f"^the support search .* up to {MAX_SPONSOR_DEGREE}, got an agent with {n - 1} links$"
            )):
                SupportSearch(replace(p, n=n), Network.star(n))

    def test_star_high_cost_supported_by_periphery(self):
        p = get_treatment("N5_HighCost").params
        report = ne_supportable(p, Network.star(5, center=0))
        assert report.supportable
        counts = report.witness.intents.matrix.sum(axis=1)
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
        # the assignment search is guarded by a node budget; force it to branch
        # by letting each agent sponsor only all of its links, which no
        # orientation (one sponsor per link) can give every agent
        import lqnet.verifier as verifier_mod

        p = get_treatment("N5_LowCost").params
        net = Network.star(5, center=0)
        everything = [
            np.array([sum(1 << int(j) for j in np.flatnonzero(row))]) for row in net.adjacency
        ]
        monkeypatch.setattr(verifier_mod, "_stable_sponsor_sets", lambda tables, kappa: everything)
        monkeypatch.setattr(verifier_mod, "ORIENTATION_BUDGET", 1)
        with pytest.raises(OrientationBudgetError):
            ne_supportable(p, net)

    def test_budget_is_the_last_node_allowed(self, monkeypatch):
        import lqnet.verifier as verifier_mod

        p = get_treatment("N5_HighCost").params
        nodes = ne_supportable(p, Network.star(5)).orientations_tried
        monkeypatch.setattr(verifier_mod, "ORIENTATION_BUDGET", nodes)
        assert ne_supportable(p, Network.star(5)).supportable
        monkeypatch.setattr(verifier_mod, "ORIENTATION_BUDGET", nodes - 1)
        with pytest.raises(OrientationBudgetError):
            ne_supportable(p, Network.star(5))

    @pytest.mark.parametrize("treatment", ["N5_HighCost", "N9_HighCost"])
    def test_search_needs_no_balanced_sponsorship(self, monkeypatch, treatment):
        # the backtracking search is the only route to a witness
        import lqnet.equilibria as equilibria_mod
        import lqnet.verifier as verifier_mod

        def refuse(network):
            raise AssertionError("balanced_sponsorship called by the support search")

        monkeypatch.setattr(equilibria_mod, "balanced_sponsorship", refuse)
        monkeypatch.setattr(verifier_mod, "balanced_sponsorship", refuse, raising=False)
        p = get_treatment(treatment).params
        assert equilibria_mod.cost_thresholds(p).kappa2 > 0
        assert any(r.supportable for r in enumerate_ne_networks(p))

    def test_orientations_tried_counts_assignments_visited(self):
        p_low = get_treatment("N5_LowCost").params
        star = SupportSearch(p_low, Network.star(5, center=0))
        families = _stable_sponsor_sets(star.tables, 1.0)
        assert any(len(f) == 0 for f in families[1:])  # some leaf has no stable set
        assert star.report(1.0).orientations_tried == 0
        # no link to assign; the empty network is supportable at the high cost
        p_high = get_treatment("N5_HighCost").params
        empty = ne_supportable(p_high, Network.empty(5))
        assert empty.supportable and empty.orientations_tried == 0
        # the first sponsor choice of each of the 10 links completes a witness
        complete = SupportSearch(p_low, Network.complete(5)).report(1.0)
        assert complete.supportable and complete.orientations_tried == 10

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

    def test_sponsor_table_drops_a_set_that_a_same_count_swap_beats(self):
        # V(s) = (1 + s)^2 / 2 (theta = beta = lam = 1, effort box [-20, 20]).  Agent 0
        # sponsors its link to 1 (effort -3), gets one from 2 (effort 0) and may link
        # to 3.  Adding 3 or dropping 1 lowers V, so the counts alone keep {1} stable up
        # to kappa 1.5; swapping 1 for 3 (effort 3) gains V(3) - V(-3) = 6 at no cost
        p = GameParams(theta=1.0, beta=1.0, lam=1.0, kappa=1.0, n=4, effort_min=-20.0)
        net = Network.from_edges(4, [(0, 1), (0, 2)])
        table = _sponsor_tables(p, np.array([0.0, -3.0, 0.0, 3.0]), net)[0]
        assert table.masks.tolist() == [0b000, 0b100]
        # with 3 at 1.0000000005 the swap gains exactly DEVIATION_TOL, which is no gain:
        # {1} is stable up to 1.5 + DEVIATION_TOL, and {1, 2} at 0 only
        table = _sponsor_tables(p, np.array([0.0, -3.0, 0.0, 1.0000000005]), net)[0]
        assert table.masks.tolist() == [0b000, 0b010, 0b100, 0b110]
        assert table.lo.tolist() == [0.0] * 4
        assert table.hi.tolist() == [np.inf, 1.500000001, 1.000000082740371e-09, 0.0]
        # one neighbor, at -0.5, and no one else to link to: V(-0.5) < V(0), so dropping
        # the link pays at every kappa >= 0 and {1}'s range is empty
        pair = Network.from_edges(2, [(0, 1)])
        assert _sponsor_tables(replace(p, n=2), np.array([0.0, -0.5]), pair)[0].masks.tolist() == [0]

    def test_search_on_random_families_matches_every_orientation(self):
        # the search alone, on made-up stable families: a network is supportable
        # exactly when some orientation gives every agent a set from its family
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            m = np.triu(rng.random((n, n)) < 0.6, 1)
            net = Network(m | m.T)
            search = SupportSearch(replace(get_treatment("N5_HighCost").params, n=n), net)
            families = []
            for i in range(n):
                nb = np.flatnonzero(net.adjacency[i]).tolist()
                sets = [sum(1 << j for k, j in enumerate(nb) if r >> k & 1) for r in range(1 << len(nb))]
                families.append({mask for mask in sets if rng.random() < 0.4})
            search.tables = [_SponsorTable(np.zeros(len(f)), np.full(len(f), np.inf),
                                           np.array(sorted(f), dtype=np.int64)) for f in families]
            edges = net.edges()
            brute = False
            for code in range(1 << len(edges)):
                sponsored = [0] * n
                for k, (i, j) in enumerate(edges):
                    s, o = (i, j) if code >> k & 1 else (j, i)
                    sponsored[s] |= 1 << o
                brute |= all(mask in f for mask, f in zip(sponsored, families))
            report = search.report(1.0)
            assert report.supportable == brute
            if brute:
                rows = report.witness.intents.matrix
                assert all(int(rows[i] @ (1 << np.arange(n))) in families[i] for i in range(n))


def parity_kappas(treatment):
    """0, 20, every golden interval end, also +- 1e-7, and 20 seeded draws."""
    golden = Path(__file__).parent / "golden" / f"thresholds_{treatment}.json"
    entries = json.loads(golden.read_text())["method_notes"]["architectures"]
    ends = {end for e in entries for iv in e["intervals"] for end in iv if end != "inf"}
    kappas = [0.0, 20.0] + [s + d for s in sorted(ends) for d in (-1e-7, 0.0, 1e-7)]
    kappas += np.random.default_rng(2).uniform(0.0, 20.0, 20).tolist()
    return [k for k in kappas if k >= 0.0]


def in_union(kappa, intervals):
    return any(lo <= kappa <= hi for lo, hi in intervals)


TREATMENTS = ("N5_HighCost", "N5_LowCost", "N9_HighCost", "N9_LowCost1", "N9_LowCost2")
TRIANGLE_AND_TWO_ISOLATES = Network.from_edges(5, [(0, 1), (1, 2), (0, 2)])


class TestSupportSearch:
    @pytest.mark.parametrize(
        "treatment,networks",
        [
            ("N5_HighCost", graph_atlas(5)),
            ("N9_HighCost", [Network.empty(9), Network.star(9), Network.complete(9)]),
        ],
    )
    def test_memoized_verdict_matches_fresh_search(self, treatment, networks):
        # the interval union, computed once per network, against a fresh
        # search at each cost
        p = get_treatment(treatment).params
        kappas = parity_kappas(treatment)
        assert len(kappas) >= 26
        for net in networks:
            intervals = SupportSearch(p, net).intervals()
            for k in kappas:
                fresh = ne_supportable(replace(p, kappa=k), net).supportable
                assert in_union(k, intervals) == fresh, (net.edges(), k)

    def test_sweep_of_n5_atlas_matches_intervals(self):
        p = get_treatment("N5_HighCost").params
        kappas = np.round(np.arange(0.0, 7.0 + 1e-9, 0.01), 2)
        for net in graph_atlas(5):
            search = SupportSearch(p, net)
            intervals = search.intervals()
            for k in kappas:
                report = search.report(float(k))
                assert report.supportable == in_union(k, intervals), (net.edges(), k)
                if report.supportable:
                    assert verify_nash(replace(p, kappa=float(k)), report.witness).is_nash

    def test_float_close_ends_are_merged(self):
        # K9 under N9_HighCost has row ends a few ulps apart near 5.46875; a
        # probe between them once sent the orientation search past its budget
        p = get_treatment("N9_HighCost").params
        start = time.perf_counter()
        intervals = SupportSearch(p, Network.complete(9)).intervals()
        assert time.perf_counter() - start < 1.0
        assert len(intervals) == 1 and intervals[0][0] == 0.0

    def test_ends_exactly_the_tolerance_apart_stay_apart(self):
        # agent 0 may sponsor its one link on [0, DEVIATION_TOL] only, agent 1 never:
        # the link is supportable on that window, which merging its ends would lose
        search = SupportSearch(get_treatment("N5_HighCost").params, Network.from_edges(5, [(0, 1)]))
        rows = {0: ([0.0], [DEVIATION_TOL], [0b10]), 1: ([0.0], [np.inf], [0])}
        search.tables = [_SponsorTable(*map(np.array, rows.get(i, ([0.0], [np.inf], [0]))))
                         for i in range(5)]
        assert search.intervals() == [(0.0, DEVIATION_TOL)]

    def test_probe_on_an_end_leaves_intervals_unchanged(self):
        # the empty network's interval starts where the all-links deviation
        # gains exactly DEVIATION_TOL; a report placed there is supportable,
        # and probing must not change the intervals
        p = get_treatment("N5_HighCost").params
        fresh = SupportSearch(p, Network.empty(5)).intervals()
        assert fresh[0][0] == pytest.approx(3.0 - DEVIATION_TOL / 4, abs=1e-12)
        assert fresh[0][1] == np.inf and len(fresh) == 1
        search = SupportSearch(p, Network.empty(5))
        assert search.report(fresh[0][0]).supportable
        assert search.intervals() == fresh

    def test_every_interval_end_is_supportable(self, monkeypatch):
        # a report at a finite end agrees with the closed interval, and its
        # witness passes the independent deviation check there; a small
        # budget makes a regression fail fast rather than search 2**20 nodes
        import lqnet.verifier as verifier_mod

        monkeypatch.setattr(verifier_mod, "ORIENTATION_BUDGET", 1 << 12)
        checked = 0
        for treatment in TREATMENTS:
            p = get_treatment(treatment).params
            for net in enumerate_candidates(p.n):
                search = SupportSearch(p, net)
                for end in {e for iv in search.intervals() for e in iv if e != np.inf}:
                    report = search.report(end)
                    assert report.supportable, (treatment, net.edges(), end)
                    worst = verify_nash(replace(p, kappa=end), report.witness).worst_deviation
                    assert worst is None or worst.gain <= DEVIATION_TOL + 1e-12, (treatment, end)
                    checked += 1
        assert checked == 29

    def test_negative_effort_neighbors_are_bottom_m_deviations(self):
        # a triangle at effort -5 plus two isolates at 2.5: an isolate's best
        # deviation links to the three triangle members, the bottom-3 set,
        # and gains 187.5 - 3 kappa; tables of top-m sets alone miss it and
        # reported [37.5, 87.5]
        p = GameParams(theta=10.0, beta=4.0, lam=4.0, kappa=1.0, n=5, effort_min=-5.0)
        search = SupportSearch(p, TRIANGLE_AND_TWO_ISOLATES)
        assert search.x.tolist() == [-5.0, -5.0, -5.0, 2.5, 2.5]
        (lo, hi), = search.intervals()
        assert lo == pytest.approx(62.5, abs=1e-8) and hi == pytest.approx(87.5, abs=1e-8)
        assert not search.report(37.75).supportable
        assert not search.report(60.0).supportable

    @pytest.mark.parametrize("lam", [3.0, 4.0, 6.0])
    def test_sweep_with_negative_efforts_matches_intervals(self, lam):
        # 0.037 + 0.1 k keeps every probe off the exact weak-equilibrium costs
        p = GameParams(theta=10.0, beta=4.0, lam=lam, kappa=1.0, n=5, effort_min=-5.0)
        search = SupportSearch(p, TRIANGLE_AND_TWO_ISOLATES)
        intervals = search.intervals()
        assert intervals
        for k in 0.037 + 0.1 * np.arange(1600):
            assert search.report(float(k)).supportable == in_union(k, intervals), k


class TestLabelling:
    """The search takes the links in `preferred_sponsors` order, which depends on
    labels only among agents of equal degree."""

    def test_k8_plus_pendant_in_both_labellings(self):
        # K8 on agents 0-7 plus agent 8 linked to 7: taken in label order, this
        # labelling exhausted 2**20 assignments at this cost, its mirror image 2
        p = replace(get_treatment("N9_HighCost").params, kappa=4.25)
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)] + [(7, 8)]
        for label in (lambda v: v, lambda v: 8 - v):
            report = ne_supportable(p, Network.from_edges(9, [(label(i), label(j)) for i, j in edges]))
            assert (report.supportable, report.orientations_tried) == (False, 2)

    def test_nested_split_sweep_under_relabelling(self, monkeypatch):
        # every n = 9 NSG against a seeded relabelling: the same node count over
        # all probes of `intervals`, and the same intervals within the tolerance;
        # not bitwise, as LU pivoting gives twin agents efforts a last bit apart
        import lqnet.verifier as verifier_mod

        monkeypatch.setattr(verifier_mod, "ORIENTATION_BUDGET", 1 << 16)
        nodes = []
        report = SupportSearch.report

        def counted(self, kappa):
            out = report(self, kappa)
            nodes.append(out.orientations_tried)
            return out

        monkeypatch.setattr(SupportSearch, "report", counted)
        p = get_treatment("N9_HighCost").params
        rng = np.random.default_rng(9)
        for net in nested_split_graphs(9):
            perm = rng.permutation(9)
            runs = []
            for g in (net, Network(net.adjacency[np.ix_(perm, perm)])):
                nodes.clear()
                runs.append((SupportSearch(p, g).intervals(), sum(nodes)))
            (ours, our_nodes), (theirs, their_nodes) = runs
            assert our_nodes == their_nodes, net.edges()
            assert len(ours) == len(theirs)
            assert np.allclose(ours, theirs, rtol=0.0, atol=DEVIATION_TOL), net.edges()


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

    def test_candidates_pairwise_non_isomorphic(self):
        for n in range(2, 8):
            forms = [canonical_form(net) for net in enumerate_candidates(n)]
            assert len(set(forms)) == len(forms)


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
