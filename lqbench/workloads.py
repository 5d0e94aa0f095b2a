"""Benchmark workloads: one round of lqnet CLI calls each, inputs made from a seed.

A workload's `round` issues its calls in a fixed order through ``call(kind,
argv)``, which returns the call's stdout (None when the call failed), and
checks each output with `checks`.  Every round issues the same calls with
the same inputs, so their outputs must repeat byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import CheckError

#: effort presets a policy file may name
EFFORT_PRESETS = ("N5_LowCost", "N5_HighCost", "N9_LowCost1", "N9_HighCost", "N9_LowCost2")
NAMED_NETWORKS = ("empty", "star", "complete")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class SupportSpec:
    treatment: str
    enumerate: tuple[str, ...]


SUPPORT = {
    "support-n5": SupportSpec("N5_HighCost", ("N5_LowCost", "N5_HighCost")),
    "support-n9": SupportSpec("N9_HighCost", ("N9_LowCost1", "N9_HighCost")),
}


class SupportWorkload:
    """thresholds, enumerate, then solve/verify/classify point queries.

    The seed relabels the agents of every witness profile and supportable
    network handed to ``verify`` and ``classify``; the answers do not
    depend on labels, so the checks hold for any seed.
    """

    setup_per_round = 3

    def __init__(self, spec: SupportSpec, seed: int, work: Path) -> None:
        self.spec = spec
        self.work = work
        n = checks.TREATMENTS[spec.treatment][0].n
        self.perm = np.random.default_rng(seed).permutation(n) + 1  # old id - 1 -> new id

    def _relabel(self, pairs) -> list[list[int]]:
        return sorted(sorted([int(self.perm[i - 1]), int(self.perm[j - 1])]) for i, j in pairs)

    def _relabel_profile(self, witness: dict) -> dict:
        efforts = [0.0] * witness["n"]
        for old, x in enumerate(witness["efforts"]):
            efforts[self.perm[old] - 1] = x
        intents = sorted([int(self.perm[i - 1]), int(self.perm[j - 1])] for i, j in witness["intents"])
        return {"n": witness["n"], "efforts": efforts, "intents": intents}

    def round(self, call) -> None:
        spec = self.spec
        out = call("thresholds", ["thresholds", "--treatment", spec.treatment])
        if out is not None:
            checks.check_thresholds(json.loads(out), spec.treatment)

        witnesses = []
        for treatment in spec.enumerate:
            out = call("enumerate", ["enumerate", "--treatment", treatment])
            if out is not None:
                for cand in checks.check_enumerate(json.loads(out), treatment):
                    witnesses.append((treatment, cand))

        for network in NAMED_NETWORKS:
            for efficient in (False, True):
                argv = ["solve", "--treatment", spec.treatment, "--network", network]
                out = call("query", argv + ["--efficient"] * efficient)
                if out is not None:
                    checks.check_solve(json.loads(out), spec.treatment, network, efficient)

        for k, (treatment, cand) in enumerate(witnesses):
            profile = self._relabel_profile(cand["witness"])
            path = _write_json(self.work / f"profile{k}.json", profile)
            out = call("query", ["verify", "--treatment", treatment, "--profile", str(path)])
            if out is not None:
                checks.check_verify(json.loads(out), treatment, profile)

        for k, (treatment, cand) in enumerate(witnesses):
            n = cand["witness"]["n"]
            net = {"n": n, "edges": self._relabel(cand["edges"])}
            path = _write_json(self.work / f"network{k}.json", net)
            center = None
            if cand["label"] == "Star":
                center = int(np.argmax(checks.adjacency(n, net["edges"]).sum(axis=1))) + 1
            out = call("query", ["classify", "--network", str(path)])
            if out is not None:
                checks.check_classify(json.loads(out), cand["label"], net, center)


def policy_doc(seed: int, n: int = 9) -> dict:
    """Per-agent policies: all five link-rule kinds, preset and explicit effort
    coefficients, noise_sd 0.5 and a uniform start, assigned by the seed."""
    rng = np.random.default_rng(seed)

    def draw(lo: float, hi: float) -> float:
        return round(float(rng.uniform(lo, hi)), 3)

    links = [
        {"kind": "benefit_threshold"},
        {"kind": "best_response"},
        {"kind": "rank_top", "k": int(rng.integers(1, n))},
        {"kind": "rank_top", "k": int(rng.integers(1, n))},
        {"kind": "logistic", "preset": "benefit"},
        {"kind": "logistic", "preset": "rank"},
        {"kind": "logistic", "odds_ratios": {
            "intercept": draw(0.3, 1.5), "lagged_link": draw(1.5, 3.0),
            "partner_effort": draw(1.0, 1.1)}},
        {"kind": "logistic", "coefficients": {
            "intercept": draw(-1.0, 0.5), "lagged_link": draw(0.5, 1.2),
            "partner_effort": draw(0.0, 0.1), "above_median": draw(0.0, 0.3),
            "below_median": draw(-0.3, 0.0)}},
        {"kind": "fixed_targets", "targets": [
            sorted(int(j) + 1 for j in rng.choice(
                [j for j in range(n) if j != i], size=int(rng.integers(0, 4)), replace=False))
            for i in range(n)]},
    ]
    order = rng.permutation(n)
    policies = []
    for slot, agent_links in enumerate(links[k] for k in order):
        if slot % 2 == 0:
            effort = {"preset": EFFORT_PRESETS[int(rng.integers(len(EFFORT_PRESETS)))]}
        else:
            effort = {"b0": draw(0.0, 0.3), "b1": draw(0.4, 1.0), "b2": draw(0.0, 0.03)}
        effort.update(noise_sd=0.5, initial="uniform")
        policies.append({"effort": effort, "links": agent_links})
    return {"policies": policies}


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class SessionsWorkload:
    """simulate a batch of seeded sessions, then analyze their records."""

    treatment = "N9_LowCost1"
    periods = 30
    reps = 50
    setup_per_round = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.policy = _write_json(work / "policy.json", policy_doc(seed))
        self.records = work / "records"
        # outside --in: a summary.csv inside the record directory is read back
        # as a session on the next analyze and fails for its missing sidecar
        self.summary = work / "summary.csv"
        self.digest: str | None = None

    def round(self, call) -> None:
        shutil.rmtree(self.records, ignore_errors=True)
        out = call("simulate", [
            "simulate", "--treatment", self.treatment, "--policy", str(self.policy),
            "--periods", str(self.periods), "--reps", str(self.reps),
            "--seed", str(self.seed), "--out", str(self.records),
        ])
        records = None
        if out is not None:
            records = checks.check_records(
                self.records, json.loads(out), self.treatment, self.periods, self.reps, self.seed)
            digest = _tree_digest(self.records)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise CheckError("simulate: a repeat with the same seed wrote different bytes")
        out = call("analyze", [
            "analyze", "--in", str(self.records), "--treatment", self.treatment,
            "--window", "full", "--csv", str(self.summary),
        ])
        if out is not None and records is not None:
            checks.check_analyze(json.loads(out), records, self.treatment, self.summary)


WORKLOADS = ("support-n5", "support-n9", "sessions-n9")


def make_workload(name: str, seed: int, work: Path):
    if name in SUPPORT:
        return SupportWorkload(SUPPORT[name], seed, work)
    if name == "sessions-n9":
        return SessionsWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
