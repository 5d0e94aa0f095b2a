import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from lqnet.dynamics import LOGIT_PRESETS, AgentPolicy, EffortRule, LinkRule, batch_run, run_session
from lqnet.errors import ConfigError, LqnetError, SchemaVersionError
from lqnet.files import load_network, network_from_obj, network_to_obj, profile_from_obj
from lqnet.model import GameParams, Network, get_treatment
from lqnet.session_io import load_policies, read_record, read_records, write_record

from helpers import oracle_write_csv

P5 = get_treatment("N5_LowCost").params
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_numpy_group_size_writes(self, tmp_path):
        params = GameParams(**{**dataclasses.asdict(P5), "n": np.int64(5)})
        policy = AgentPolicy(EffortRule.from_preset("N5_LowCost"), LinkRule.best_response())
        back = read_record(write_record(run_session(params, policy, 3, seed=1), tmp_path))
        assert type(back.params.n) is int and back.params == P5

    @pytest.mark.parametrize(
        "n,T,session_id",
        [(5, 12, "s31"), (2, 1, "a,b"), (12, 7, 'q"x'), (3, 2, ""), (4, 3, "a\u2028b")],
    )
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
        back = read_record(path)
        assert back.session_id == session_id
        assert np.array_equal(back.payoffs, rec.payoffs)

    @pytest.mark.parametrize(
        "path", sorted(GOLDEN.glob("sessions_*/records/*.csv")),
        ids=lambda p: f"{p.parent.parent.name}-{p.stem}",
    )
    def test_crlf_and_lf_line_ends_read_alike(self, tmp_path, path):
        data = path.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") > 1  # written with CRLF
        back = {}
        for end, body in (("crlf", data), ("lf", data.replace(b"\r\n", b"\n"))):
            (tmp_path / end).mkdir()
            (tmp_path / end / path.name).write_bytes(body)
            (tmp_path / end / path.with_suffix(".json").name).write_bytes(
                path.with_suffix(".json").read_bytes())
            back[end] = read_record(tmp_path / end / path.name)
        for name in ("efforts", "intents", "payoffs"):
            assert getattr(back["crlf"], name).tobytes() == getattr(back["lf"], name).tobytes()

    def test_read_records_sorted(self, tmp_path):
        recs = noisy_records(reps=3)
        for rec in recs:
            write_record(rec, tmp_path)
        back = read_records(tmp_path)
        assert [r.session_id for r in back] == [r.session_id for r in recs]

    def test_read_records_refuses_other_params(self, tmp_path):
        recs = noisy_records(reps=2)
        for rec in recs:
            write_record(rec, tmp_path)
        assert len(read_records(tmp_path, P5)) == 2
        other = GameParams.from_mapping({**P5.to_mapping(), "kappa": 2.5, "n": 9})
        with pytest.raises(LqnetError, match=r"s31.csv: params.kappa is 1.0, but the treatment has 2.5$"):
            read_records(tmp_path, other)

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

    @pytest.mark.parametrize(
        "key,value,message",
        [("beta", 0, "params.beta: must be positive, got 0.0"),
         ("lambda", 0, "params.lambda: must be positive, got 0.0"),
         ("kappa", "nan", "params.kappa: must be finite, got 'nan'")],
        ids=["range", "range-lambda", "field"],
    )
    def test_bad_sidecar_params_named_in_full(self, tmp_path, key, value, message):
        path = write_record(noisy_records(reps=1)[0], tmp_path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["params"][key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(LqnetError, match=f"^{re.escape(f'{sidecar}: {message}')}$"):
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

    def test_repeated_initiated_id_detected(self, tmp_path):
        def repeat_first(rows):
            ids = rows[0][4].split(":")
            rows[0][4] = ":".join(ids + [ids[0]])

        path, rec = _write_edited(tmp_path, repeat_first)
        assert rec.intents[0, 0].any()
        with pytest.raises(LqnetError, match="s31.csv: period 1 agent 1: initiated_ids name an agent twice$"):
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
        with pytest.raises(LqnetError, match="s31.csv: period 1 agent 4: initiates a link to itself$"):
            read_record(path)

    def test_repeated_agent_period_row_detected(self, tmp_path):
        def duplicate(rows):
            rows[1] = list(rows[0])

        path, _ = _write_edited(tmp_path, duplicate)
        with pytest.raises(LqnetError, match="row 3: period 1 agent 1 appears twice"):
            read_record(path)

    def test_session_id_of_another_session_detected(self, tmp_path):
        records = GOLDEN / "sessions_n9" / "records"
        for suffix in (".csv", ".json"):
            (tmp_path / f"s1{suffix}").write_bytes((records / f"s1{suffix}").read_bytes())
        path = tmp_path / "s1.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[2] = b"zzz" + lines[2].removeprefix(b"s1")
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(LqnetError, match="^s1.csv row 3: session_id 'zzz' is not the sidecar's 's1'$"):
            read_record(path)


class TestRowFormat:
    """`read_record` splits each row itself: the sidecar's ID as written, then 10 plain cells."""

    @pytest.mark.parametrize(
        "column,cell,message",
        [
            (1, '"1"', """invalid literal for int() with base 10: '"1"'"""),
            (3, '"2.5"', """could not convert string to float: '"2.5"'"""),
            (8, "", "could not convert string to float: ''"),
            (2, "6", "period/agent out of range"),
            (4, "1,2", "expected 11 fields, got 12"),
        ],
        ids=["quoted-period", "quoted-effort", "empty-payoff", "agent-6", "comma-in-ids"],
    )
    def test_bad_cell_names_the_row(self, tmp_path, column, cell, message):
        def put(rows):
            rows[2][column] = cell

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(LqnetError, match=f"^s31.csv row 4: {re.escape(message)}$"):
            read_record(path)

    def test_row_checks_run_in_the_stated_order(self, tmp_path):
        def put(rows):
            rows[0][3] = "x"  # row 2: an effort that does not parse
            rows[5].append("")  # row 7: a field too many, refused first
            rows[9][0] = "zzz"  # row 11: another session's row, refused before both

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(LqnetError, match="^s31.csv row 11: session_id 'zzz'"):
            read_record(path)
        path.write_text(path.read_text().replace("zzz,", "s31,"))
        with pytest.raises(LqnetError, match="^s31.csv row 7: expected 11 fields, got 12$"):
            read_record(path)

    @pytest.mark.parametrize(
        "session_id,field,message",
        [
            ("a/b", "a/b", "{path}: session_id: expected text without line breaks, '/' or NUL, "
                           "got 'a/b'"),
            ("a\0b", "a\0b", "{path}: session_id: expected text without line breaks, '/' or NUL, "
                             "got 'a\\x00b'"),
            ("a\nb", '"a\nb"', """s31.csv row 2: session_id '"a' is not the sidecar's 'a\\nb'"""),
        ],
        ids=["slash", "nul", "line-break"],
    )
    def test_session_id_the_record_refuses(self, tmp_path, session_id, field, message):
        # each row starts with the ID as a writer that took it would write it
        path = write_record(noisy_records(reps=1)[0], tmp_path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["session_id"] = session_id
        sidecar.write_text(json.dumps(meta))
        path.write_text(path.read_text().replace("\ns31,", f"\n{field},"))
        with pytest.raises(LqnetError, match=f"^{re.escape(message.format(path=path))}$"):
            read_record(path)


def _add(cell, delta):
    return repr(float(cell) + delta)


class TestDecisionChecks:
    """`read_record` rejects efforts outside the box and payoff cells the decisions do not give."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-0.5", "20.5"])
    def test_effort_outside_box_named(self, tmp_path, cell):
        def put(rows):
            rows[7][3] = cell  # period 2 agent 3

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(
            LqnetError, match=r"period 2 agent 3: effort is not a finite number in \[0\.0, 20\.0\]"
        ):
            read_record(path)

    @pytest.mark.parametrize(
        "repeat,message",
        [(True, "period 4 agent 5: initiated_ids name an agent twice"),
         (False, "period 2 agent 3: effort is not a finite number")],
        ids=["repeated-id-first", "efforts-in-period-order"],
    )
    def test_checks_run_in_the_stated_order(self, tmp_path, repeat, message):
        def put(rows):
            rows[7][3] = "nan"  # period 2 agent 3
            rows[-1][3] = "nan"  # period 12 agent 5, then moved to the top
            rows.insert(0, rows.pop())
            if repeat:
                rows[20][4] = "1:1"  # period 4 agent 5, after both efforts in file order

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(LqnetError, match=message):
            read_record(path)

    def test_efforts_on_the_box_ends_load(self, tmp_path):
        box = (P5.effort_min, P5.effort_max)
        policies = [
            AgentPolicy(EffortRule(b0=1.0, b1=0.0, b2=0.0, initial_effort=box[i % 2]),
                        LinkRule.benefit_threshold())
            for i in range(5)
        ]
        rec = run_session(P5, policies, 3, seed=0)
        back = read_record(write_record(rec, tmp_path))
        assert set(back.efforts.ravel().tolist()) == set(box)
        assert np.array_equal(back.payoffs, rec.payoffs)

    @pytest.mark.parametrize(
        "changes",
        [{6: "1000000.0"}, {6: "nan"}, {6: 1e-3}, {6: 1.0, 7: 1.0}],
        # the last two: total != own - cost + spill - link, and a row that adds
        # up but disagrees with its effort
        ids=["total-1e6", "total-nan", "total-only", "row-adds-up"],
    )
    def test_payoff_cells_off_the_decisions_named(self, tmp_path, changes):
        def put(rows):
            for column, change in changes.items():
                cell = rows[7][column]
                rows[7][column] = change if isinstance(change, str) else _add(cell, change)

        path, _ = _write_edited(tmp_path, put)
        with pytest.raises(LqnetError, match="period 2 agent 3: payoff cells do not match"):
            read_record(path)

    def test_first_payoff_mismatch_in_file_order_is_named(self, tmp_path):
        def tamper_two(rows):
            rows[0][10] = _add(rows[0][10], 1.0)  # period 1 agent 1
            rows[-1][10] = _add(rows[-1][10], 1.0)  # period 12 agent 5, then moved to the top
            rows.insert(0, rows.pop())

        path, _ = _write_edited(tmp_path, tamper_two)
        with pytest.raises(LqnetError, match="period 12 agent 5: payoff cells"):
            read_record(path)

    def test_payoffs_within_tolerance_load(self, tmp_path):
        # another summation order moves the last bits; the record keeps its own payoffs
        def nudge(rows):
            for row in rows:
                row[6:11] = [_add(cell, 1e-12) for cell in row[6:11]]

        path, rec = _write_edited(tmp_path, nudge)
        assert np.array_equal(read_record(path).payoffs, rec.payoffs)


class TestScenarioLoading:
    """Policy files, the agents' rules that ``lqnet simulate --policy`` reads."""

    def test_json_accepted(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "policy": {
                        "effort": {"b0": 0.1, "b1": 0.8, "b2": 0.0},
                        "links": {"kind": "logistic", "preset": "benefit"},
                    },
                }
            )
        )
        policies = load_policies(path, 4)
        assert len(policies) == 4
        assert policies[0].link_rule.kind == "logistic"

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("policy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: teleport}\n", "policy.links.kind"),
            ("policy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top}\n", "policy.links.k"),
            ("policy:\n  effort: {b0: 0, b2: 0}\n  links: {kind: rank_top, k: 1}\n", "policy.effort.b1"),
            ("policy:\n  effort: {b0: 0, b1: 1, b2: 0}\n  links: {kind: rank_top, k: -1}\n",
             "policy.links.k: rank_top needs a non-negative integer"),
            ("policy:\n  effort: {preset: N5_LowCost, noise_s: 0.5}\n  links: {kind: best_response}\n",
             "policy.effort.noise_s: unknown field"),
            ("policy:\n  effort: {preset: N5_LowCost, b1: 0.5}\n  links: {kind: best_response}\n",
             "policy.effort.b1: cannot be given with policy.effort.preset"),
            ("policy:\n  effort: {preset: N5_LowCost}\n  links: {kind: best_response, k: 2}\n",
             "policy.links.k: unknown field"),
            ("policy:\n  effort: {preset: N5_LowCost}\n"
             "  links: {kind: logistic, preset: benefit, coefficients: {intercept: 0}}\n",
             "policy.links.coefficients: cannot be given with policy.links.preset"),
            ("policy:\n  effort: {preset: N5_LowCost}\n  links:\n    kind: logistic\n"
             "    coefficients: {intercept: 0}\n    odds_ratios: {intercept: 0.5}\n",
             "policy.links.odds_ratios: cannot be given with policy.links.coefficients"),
            ("policy:\n  effort: {preset: N5_LowCost}\n  links: {kind: best_response}\n"
             "policies: []\n",
             "policies: cannot be given with policy"),
            ("polices:\n  effort: {preset: N5_LowCost}\n  links: {kind: best_response}\n",
             "polices: unknown field"),
            ("policy:\n  effort: {preset: N5_Nope}\n  links: {kind: best_response}\n",
             "policy.effort.preset: unknown effort preset 'N5_Nope'"),
            ("policy:\n  effort: {preset: N5_LowCost, noise_sd: -1}\n  links: {kind: best_response}\n",
             "policy.effort.noise_sd: must be non-negative"),
            ("policy:\n  effort: {preset: N5_LowCost, initial: middle}\n  links: {kind: best_response}\n",
             "policy.effort.initial: expected a number"),
            ("policy:\n  effort: {preset: N5_LowCost}\n"
             "  links: {kind: logistic, coefficients: {intercept: .nan}}\n",
             "policy.links.coefficients.intercept: must be finite"),
            ("policy:\n  effort: {preset: N5_LowCost}\n"
             "  links: {kind: logistic, odds_ratios: {intercept: 0.5, lagged_link: 0}}\n",
             "policy.links.odds_ratios.lagged_link: must be positive"),
            ("policy:\n  effort: {preset: N5_LowCost}\n"
             "  links: {kind: logistic, coefficients: {lagged_link: 1}}\n",
             "policy.links.coefficients.intercept: required"),
            ("policy:\n  effort: {preset: N5_LowCost}\n  links: {kind: logistic}\n",
             "policy.links: logistic rule needs preset, coefficients or odds_ratios"),
            ("policy:\n  effort: {preset: N5_LowCost}\n  links: {kind: logistic, preset: nope}\n",
             "policy.links.preset: unknown preset 'nope'"),
            ("policy:\n  effort: {preset: N5_LowCost}\n"
             "  links: {kind: fixed_targets, targets: [[2], [1]]}\n",
             "policy.links.targets: fixed_targets needs a list of 5 rows"),
        ],
        ids=[
            "policy.links.kind", "policy.links.k", "policy.effort.b1", "negative-k",
            "misspelled-effort-field", "preset-and-coefficient", "field-of-another-kind",
            "logistic-preset-and-coefficients", "coefficients-and-odds-ratios",
            "policy-and-policies", "misspelled-section", "unknown-effort-preset",
            "negative-noise-sd", "initial-neither-number-nor-uniform", "nan-coefficient",
            "zero-odds-ratio", "no-intercept", "no-logistic-source", "unknown-logit-preset",
            "too-few-target-rows",
        ],
    )
    def test_errors_carry_field_paths(self, tmp_path, body, fragment):
        path = tmp_path / "bad.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            load_policies(path, 5)

    def test_every_benchmark_policy_file_loads(self, tmp_path, monkeypatch):
        # the sessions workload simulates from policy_doc(seed); a refused file
        # would fail every one of its rounds
        bench = Path(__file__).resolve().parent.parent / "lqbench"
        monkeypatch.syspath_prepend(str(bench))  # workloads imports its sibling `checks`
        spec = importlib.util.spec_from_file_location("lqbench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        for seed in range(50):
            path = workloads._write_json(tmp_path / f"policy{seed}.json", workloads.policy_doc(seed))
            assert len(load_policies(path, 9)) == 9

    def test_per_agent_policies(self, tmp_path):
        path = tmp_path / "s.yaml"
        entries = "\n".join(
            "  - effort: {b0: 0, b1: 1, b2: 0}\n    links: {kind: rank_top, k: %d}" % k
            for k in range(1, 6)
        )
        path.write_text(f"policies:\n{entries}\n")
        assert [p.link_rule.k for p in load_policies(path, 5)] == [1, 2, 3, 4, 5]

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
        params = get_treatment("N5_LowCost").params
        a = efficiency_report(recs, params, "last10")
        b = efficiency_report(back, params, "last10")
        assert a == b
        fa = fit_effort_model(recs)
        fb = fit_effort_model(back)
        assert fa == fb
