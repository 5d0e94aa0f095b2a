import json

import numpy as np
import pytest

from lqnet.dynamics import LOGIT_PRESETS, AgentPolicy, EffortRule, LinkRule, batch_run, run_session
from lqnet.errors import ConfigError, LqnetError, SchemaVersionError, UnknownTreatmentError
from lqnet.model import GameParams, IntentProfile, Network, get_treatment
from lqnet.session_io import (
    intents_from_obj,
    intents_to_obj,
    load_network,
    load_policies,
    load_scenario,
    network_from_obj,
    network_to_obj,
    profile_from_obj,
    read_record,
    read_records,
    write_record,
)

from helpers import oracle_write_csv

P5 = get_treatment("N5_LowCost").params


def noisy_records(reps=2, T=12, seed=31):
    # rank-based targeting keeps the realized networks varied
    pol = AgentPolicy(
        EffortRule.from_preset("N5_LowCost", noise_sd=0.8),
        LinkRule.rank_top(3),
    )
    return batch_run(P5, pol, T, reps, seed)


class TestJsonObjects:
    def test_network_round_trip_one_based(self):
        net = Network.from_edges(5, [(0, 1), (2, 4)])
        obj = network_to_obj(net)
        assert obj == {"n": 5, "edges": [[1, 2], [3, 5]]}
        assert np.array_equal(network_from_obj(obj).adjacency, net.adjacency)

    def test_intents_round_trip(self):
        intents = IntentProfile.from_pairs(4, [(0, 3), (3, 0), (2, 1)])
        obj = intents_to_obj(intents)
        assert {"n": 4, "intents": [[1, 4], [3, 2], [4, 1]]} == obj
        assert np.array_equal(intents_from_obj(obj).matrix, intents.matrix)

    def test_profile_from_obj_validates_length(self):
        with pytest.raises(LqnetError):
            profile_from_obj({"n": 3, "efforts": [1.0, 2.0], "intents": []})

    def test_load_named_networks(self):
        assert load_network("complete", n=5).link_count() == 10
        assert load_network("star", n=9).degrees.max() == 8
        with pytest.raises(LqnetError):
            load_network("empty")

    def test_load_network_from_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [3, 4]]}))
        net = load_network(str(path))
        assert net.edges() == [(0, 1), (2, 3)]


class TestRecordRoundTrip:
    def test_bit_exact(self, tmp_path):
        for rec in noisy_records():
            path = write_record(rec, tmp_path)
            back = read_record(path)
            assert back.session_id == rec.session_id
            assert back.seed == rec.seed
            assert back.T == rec.T
            assert back.params == rec.params
            assert np.array_equal(back.efforts, rec.efforts)
            assert np.array_equal(back.intents, rec.intents)
            assert np.array_equal(back.networks, rec.networks)
            assert np.array_equal(back.payoffs, rec.payoffs)

    @pytest.mark.parametrize("n,T,session_id", [(5, 12, "s31"), (2, 1, "a,b"), (12, 7, 'q"x')])
    def test_csv_bytes_match_row_by_row_writer(self, tmp_path, n, T, session_id):
        params = GameParams.from_mapping({**P5.to_mapping(), "n": n})
        policies = [
            AgentPolicy(EffortRule.from_preset("N5_LowCost", noise_sd=2.0, initial_effort="uniform"),
                        (LinkRule.rank_top(i % n), LinkRule.logistic(LOGIT_PRESETS["rank"]))[i % 2])
            for i in range(n)
        ]
        rec = run_session(params, policies, T, seed=n, session_id=session_id)
        path = write_record(rec, tmp_path)
        oracle_write_csv(rec, tmp_path / "oracle.csv")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert np.array_equal(read_record(path).payoffs, rec.payoffs)

    def test_read_records_sorted(self, tmp_path):
        recs = noisy_records(reps=3)
        for rec in recs:
            write_record(rec, tmp_path)
        back = read_records(tmp_path)
        assert [r.session_id for r in back] == [r.session_id for r in recs]

    def test_truncated_csv_names_row(self, tmp_path):
        rec = noisy_records(reps=1)[0]
        path = write_record(rec, tmp_path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 3)[0]  # chop fields mid-row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LqnetError, match="row 6"):
            read_record(path)

    def test_missing_rows_detected(self, tmp_path):
        rec = noisy_records(reps=1)[0]
        path = write_record(rec, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(LqnetError, match="agent-period rows"):
            read_record(path)

    def test_sidecar_periods_checked_before_allocation(self, tmp_path):
        rec = noisy_records(reps=1)[0]
        path = write_record(rec, tmp_path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["periods"] = 10**12  # arrays of this size could not be allocated
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(LqnetError, match="agent-period rows"):
            read_record(path)

    def test_schema_version_checked(self, tmp_path):
        rec = noisy_records(reps=1)[0]
        path = write_record(rec, tmp_path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["format_version"] = 2
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionError):
            read_record(path)

    def test_tampered_neighbor_ids_detected(self, tmp_path):
        rec = noisy_records(reps=1)[0]
        path = write_record(rec, tmp_path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[5] = ""  # claim no neighbors
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LqnetError, match="neighbor_ids"):
            read_record(path)


def _write_edited(tmp_path, edit):
    """Write one record, let ``edit`` change its list of CSV data rows
    (each a list of fields), and return the CSV path and the record."""
    rec = noisy_records(reps=1)[0]
    path = write_record(rec, tmp_path)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    return path, rec


class TestNeighborIdCheck:
    """`read_record` compares every row's neighbor_ids with the realized network."""

    def test_repeated_id_detected(self, tmp_path):
        def repeat_first(rows):
            ids = rows[0][5].split(":")
            rows[0][5] = ":".join([ids[0]] + ids)

        path, _ = _write_edited(tmp_path, repeat_first)
        with pytest.raises(LqnetError, match="period 1 agent 1: neighbor_ids"):
            read_record(path)

    @pytest.mark.parametrize(
        "cell, message", [("9", "ID 9 out of range 1..5"), ("0", "ID 0 out of range"),
                          ("2:x", "bad ID 'x'"), ("1.5", "bad ID '1.5'")]
    )
    def test_bad_ids_name_the_row(self, tmp_path, cell, message):
        def put(rows):
            rows[2][5] = cell

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(LqnetError, match=f"row 4: {message}"):
            read_record(path)

    def test_first_mismatch_in_file_order_is_named(self, tmp_path):
        def tamper_two(rows):
            rows[0][5] = ""  # period 1 agent 1
            rows[-1][5] = ""  # period 12 agent 5, then moved to the top
            rows.insert(0, rows.pop())

        path, _ = _write_edited(tmp_path, tamper_two)
        with pytest.raises(LqnetError, match="period 12 agent 5: neighbor_ids"):
            read_record(path)

    def test_unsorted_ids_accepted(self, tmp_path):
        def reverse_all(rows):
            for row in rows:
                row[5] = ":".join(reversed(row[5].split(":")))

        path, rec = _write_edited(tmp_path, reverse_all)
        assert np.array_equal(read_record(path).networks, rec.networks)

    def test_self_link_detected(self, tmp_path):
        def link_to_self(rows):
            # agent 4 initiates to and lists itself, consistently in both columns
            for column in (4, 5):
                ids = {int(v) for v in rows[3][column].split(":") if v} | {4}
                rows[3][column] = ":".join(str(v) for v in sorted(ids))

        path, _ = _write_edited(tmp_path, link_to_self)
        with pytest.raises(LqnetError, match="agent 4: initiated_ids names the agent itself"):
            read_record(path)

    def test_repeated_agent_period_row_detected(self, tmp_path):
        def duplicate(rows):
            rows[1] = list(rows[0])

        path, _ = _write_edited(tmp_path, duplicate)
        with pytest.raises(LqnetError, match="row 3: period 1 agent 1 appears twice"):
            read_record(path)


class TestScenarioLoading:
    def test_treatment_resolution(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "treatment: N9_HighCost\n"
            "periods: 12\n"
            "replications: 4\n"
            "seed: 7\n"
            "out: runs/demo\n"
            "policy:\n"
            "  effort: {preset: N9_HighCost, noise_sd: 0.3}\n"
            "  links: {kind: rank_top, k: 4}\n"
        )
        cfg = load_scenario(path)
        assert cfg.params == get_treatment("N9_HighCost").params
        assert cfg.periods == 12 and cfg.replications == 4 and cfg.seed == 7
        assert cfg.treatment_name == "N9_HighCost"
        assert cfg.out_dir == "runs/demo"
        assert len(cfg.policies) == 9
        assert cfg.policies[0].effort_rule.b1 == 0.763

    def test_param_override(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text(
            "treatment: N5_LowCost\n"
            "params: {kappa: 0.0}\n"
            "policy:\n"
            "  effort: {b0: 0.0, b1: 1.0, b2: 0.0}\n"
            "  links: {kind: benefit_threshold}\n"
        )
        cfg = load_scenario(path)
        assert cfg.params.kappa == 0.0
        assert cfg.params.lam == 0.4

    def test_json_accepted(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "params": {"theta": 10, "beta": 4, "lambda": 0.3, "kappa": 1, "n": 4},
                    "policy": {
                        "effort": {"b0": 0.1, "b1": 0.8, "b2": 0.0},
                        "links": {"kind": "logistic", "preset": "benefit"},
                    },
                }
            )
        )
        cfg = load_scenario(path)
        assert cfg.params.n == 4 and cfg.treatment_name is None
        assert cfg.policies[0].link_rule.kind == "logistic"

    def test_unknown_treatment(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("treatment: N7_Whatever\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top, k: 1}\n")
        with pytest.raises(UnknownTreatmentError):
            load_scenario(path)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("params: {kappa: 1}\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top, k: 1}\n", "params.theta"),
            ("treatment: N5_LowCost\nparams: {gamma: 2}\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top, k: 1}\n", "params.gamma"),
            ("treatment: N5_LowCost\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: teleport}\n", "policy.links.kind"),
            ("treatment: N5_LowCost\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top}\n", "policy.links.k"),
            ("treatment: N5_LowCost\npolicy:\n  effort: {b0: 0, b2: 0}\n  links: {kind: rank_top, k: 1}\n", "policy.effort.b1"),
            ("treatment: N5_LowCost\nperiods: 0\npolicy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top, k: 1}\n", "periods"),
        ],
    )
    def test_errors_carry_field_paths(self, tmp_path, body, fragment):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            load_scenario(path)

    def test_per_agent_policies(self, tmp_path):
        path = tmp_path / "s.yaml"
        entries = "\n".join(
            "  - effort: {b0: 0, b1: 1, b2: 0}\n    links: {kind: rank_top, k: %d}" % k
            for k in range(1, 6)
        )
        path.write_text(f"treatment: N5_LowCost\npolicies:\n{entries}\n")
        cfg = load_scenario(path)
        assert [p.link_rule.k for p in cfg.policies] == [1, 2, 3, 4, 5]

    def test_policy_file_with_odds_ratios(self, tmp_path):
        path = tmp_path / "pol.yaml"
        path.write_text(
            "policy:\n"
            "  effort: {preset: N5_LowCost}\n"
            "  links:\n"
            "    kind: logistic\n"
            "    odds_ratios: {intercept: 0.342, lagged_link: 2.8, partner_effort: 1.083}\n"
        )
        policies = load_policies(path, 5)
        c = policies[0].link_rule.coefficients
        assert c.intercept == pytest.approx(np.log(0.342))
        assert c.lagged_link == pytest.approx(np.log(2.8))
        assert c.above_median == 0.0


class TestAnalysisAfterRoundTrip:
    def test_analysis_invariant_to_persistence(self, tmp_path):
        from lqnet.analysis import efficiency_report, fit_effort_model

        recs = noisy_records(reps=3, T=15)
        for rec in recs:
            write_record(rec, tmp_path)
        back = read_records(tmp_path)
        t = get_treatment("N5_LowCost")
        a = efficiency_report(recs, t, "last10")
        b = efficiency_report(back, t, "last10")
        assert a == b
        fa = fit_effort_model(recs)
        fb = fit_effort_model(back)
        assert fa == fb
