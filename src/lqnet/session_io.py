"""File formats, scenario configuration, and record persistence.

All on-disk formats use 1-based agent IDs (matching the feedback screens
of the original interface); everything in memory is 0-based.  Session
records persist as one CSV per session (agent-period rows) plus a JSON
sidecar holding the parameters, seed, and a format version.  Floats are
written in shortest round-trip decimal form so records replay bit-exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .dynamics import (
    LOGIT_PRESETS,
    AgentPolicy,
    EffortRule,
    LinkRule,
    LogisticCoefficients,
    SessionRecord,
)
from .errors import ConfigError, LqnetError, SchemaVersionError
from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    get_treatment,
)

FORMAT_VERSION = 1
#: the analysis summary ``lqnet analyze`` writes into a record directory
SUMMARY_CSV = "summary.csv"

CSV_COLUMNS = [
    "session_id",
    "period",
    "agent",
    "effort",
    "initiated_ids",
    "neighbor_ids",
    "payoff_total",
    "own_benefit",
    "effort_cost",
    "spillover",
    "link_cost",
]

PARAM_KEYS = ("theta", "beta", "lambda", "kappa", "n", "effort_min", "effort_max")


def _fmt(x: float) -> str:
    return repr(float(x))


def _ids_join(indices) -> str:
    return ":".join(str(int(j) + 1) for j in sorted(indices))


def _ids_split(text: str, n: int, where: str) -> list[int]:
    if not text:
        return []
    out = []
    for part in text.split(":"):
        try:
            v = int(part)
        except ValueError:
            raise LqnetError(f"{where}: bad ID {part!r}") from None
        if not (1 <= v <= n):
            raise LqnetError(f"{where}: ID {v} out of range 1..{n}")
        out.append(v - 1)
    return out


# --------------------------------------------------------------------------
# network / profile JSON
# --------------------------------------------------------------------------

def network_to_obj(network: Network) -> dict:
    return {"n": network.n, "edges": [[i + 1, j + 1] for i, j in network.edges()]}


def network_from_obj(obj: dict) -> Network:
    n = int(obj["n"])
    edges = [(int(i) - 1, int(j) - 1) for i, j in obj.get("edges", [])]
    return Network.from_edges(n, edges)


def intents_to_obj(intents: IntentProfile) -> dict:
    return {"n": intents.n, "intents": [[i + 1, j + 1] for i, j in intents.pairs()]}


def intents_from_obj(obj: dict) -> IntentProfile:
    n = int(obj["n"])
    pairs = [(int(i) - 1, int(j) - 1) for i, j in obj.get("intents", [])]
    return IntentProfile.from_pairs(n, pairs)


def profile_to_obj(profile: StrategyProfile) -> dict:
    return {
        "n": profile.n,
        "efforts": [float(x) for x in profile.efforts.efforts],
        "intents": [[i + 1, j + 1] for i, j in profile.intents.pairs()],
    }


def profile_from_obj(obj: dict) -> StrategyProfile:
    n = int(obj["n"])
    efforts = np.asarray(obj["efforts"], dtype=float)
    if efforts.shape != (n,):
        raise LqnetError(f"profile efforts must have length n={n}")
    pairs = [(int(i) - 1, int(j) - 1) for i, j in obj.get("intents", [])]
    return StrategyProfile(EffortProfile(efforts), IntentProfile.from_pairs(n, pairs))


def load_network(spec: str, n: int | None = None) -> Network:
    """Resolve a network argument: a named architecture or a JSON file path."""
    name = spec.strip().lower()
    if name in ("empty", "star", "complete"):
        if n is None:
            raise LqnetError(f"named network {name!r} needs a group size")
        return getattr(Network, name)(n)
    path = Path(spec)
    if not path.exists():
        raise LqnetError(f"network file not found: {spec}")
    return network_from_obj(json.loads(path.read_text()))


# --------------------------------------------------------------------------
# scenario configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    params: GameParams
    policies: list[AgentPolicy]
    periods: int
    replications: int
    seed: int
    treatment_name: str | None = None
    out_dir: str | None = None


def _as_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _resolve_params(data: dict, treatment_name: str | None) -> GameParams:
    overrides = _as_mapping(data.get("params", {}) or {}, "params")
    for key in overrides:
        if key not in PARAM_KEYS:
            raise ConfigError(f"params.{key}: unknown field (expected one of {PARAM_KEYS})")
    merged: dict = {}
    if treatment_name is not None:
        base = get_treatment(str(treatment_name)).params
        merged = {
            "theta": base.theta,
            "beta": base.beta,
            "lambda": base.lam,
            "kappa": base.kappa,
            "n": base.n,
            "effort_min": base.effort_min,
            "effort_max": base.effort_max,
        }
    merged.update(overrides)
    for key in ("theta", "beta", "lambda", "kappa", "n"):
        if key not in merged:
            raise ConfigError(f"params.{key}: required when no treatment is named")
    try:
        return GameParams(
            theta=float(merged["theta"]),
            beta=float(merged["beta"]),
            lam=float(merged["lambda"]),
            kappa=float(merged["kappa"]),
            n=int(merged["n"]),
            effort_min=float(merged.get("effort_min", 0.0)),
            effort_max=float(merged.get("effort_max", 20.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _parse_effort_rule(obj, path: str) -> EffortRule:
    obj = _as_mapping(obj, path)
    noise_sd = float(obj.get("noise_sd", 0.0))
    initial = obj.get("initial", None)
    try:
        if "preset" in obj:
            return EffortRule.from_preset(
                str(obj["preset"]), noise_sd=noise_sd, initial_effort=initial
            )
        return EffortRule(
            b0=float(obj["b0"]),
            b1=float(obj["b1"]),
            b2=float(obj["b2"]),
            noise_sd=noise_sd,
            initial_effort=initial,
        )
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: required") from None
    except (ValueError, LqnetError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_logistic(obj: dict, path: str) -> LogisticCoefficients:
    if "preset" in obj:
        name = str(obj["preset"])
        if name not in LOGIT_PRESETS:
            raise ConfigError(
                f"{path}.preset: unknown preset {name!r} (known: {sorted(LOGIT_PRESETS)})"
            )
        return LOGIT_PRESETS[name]
    source = "coefficients" if "coefficients" in obj else "odds_ratios"
    raw = _as_mapping(obj.get(source, {}), f"{path}.{source}")
    if not raw:
        raise ConfigError(f"{path}: logistic rule needs preset, coefficients or odds_ratios")
    fields = ("intercept", "lagged_link", "partner_effort", "above_median", "below_median")
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}.{source}.{key}: unknown field")
    values = {k: float(raw.get(k, 1.0 if source == "odds_ratios" else 0.0)) for k in fields}
    if "intercept" not in raw:
        raise ConfigError(f"{path}.{source}.intercept: required")
    if source == "odds_ratios":
        values = {k: float(np.log(v)) for k, v in values.items()}
    return LogisticCoefficients(**values)


def _parse_link_rule(obj, path: str, n: int) -> LinkRule:
    obj = _as_mapping(obj, path)
    kind = obj.get("kind")
    try:
        if kind in ("benefit_threshold", "best_response"):
            return LinkRule(kind=kind)
        if kind == "rank_top":
            if "k" not in obj:
                raise ConfigError(f"{path}.k: required for rank_top")
            return LinkRule.rank_top(int(obj["k"]))
        if kind == "logistic":
            return LinkRule.logistic(_parse_logistic(obj, path))
        if kind == "fixed_targets":
            raw = obj.get("targets")
            if raw is None:
                raise ConfigError(f"{path}.targets: required for fixed_targets")
            if len(raw) != n:
                raise ConfigError(f"{path}.targets: expected {n} rows, got {len(raw)}")
            targets = tuple(
                tuple(int(j) - 1 for j in row) for row in raw
            )
            return LinkRule(kind="fixed_targets", targets=targets)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.kind: unknown link rule {kind!r} (known: {LINK_RULE_KINDS_MSG})")


LINK_RULE_KINDS_MSG = "benefit_threshold, best_response, rank_top, logistic, fixed_targets"


def _parse_policy(obj, path: str, n: int) -> AgentPolicy:
    obj = _as_mapping(obj, path)
    if "effort" not in obj or "links" not in obj:
        raise ConfigError(f"{path}: needs 'effort' and 'links' sections")
    return AgentPolicy(
        effort_rule=_parse_effort_rule(obj["effort"], f"{path}.effort"),
        link_rule=_parse_link_rule(obj["links"], f"{path}.links", n),
    )


def parse_policies(data: dict, n: int, path: str = "policy") -> list[AgentPolicy]:
    """Parse either a shared `policy` section or a per-agent `policies` list."""
    if "policies" in data:
        raw = data["policies"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError(f"policies: expected a list of {n} entries")
        return [_parse_policy(p, f"policies[{k}]", n) for k, p in enumerate(raw)]
    if "policy" in data:
        return [_parse_policy(data["policy"], path, n)] * n
    if "effort" in data and "links" in data:
        return [_parse_policy(data, path, n)] * n
    raise ConfigError("policy: missing (give 'policy' or per-agent 'policies')")


def load_policies(path: str | Path, n: int) -> list[AgentPolicy]:
    data = _load_structured(path)
    return parse_policies(data, n)


def _load_structured(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"file not found: {p}")
    try:
        data = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: malformed file: {exc}") from None
    return _as_mapping(data, str(p))


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a full scenario file (YAML, or JSON as a YAML subset)."""
    data = _load_structured(path)
    treatment_name = data.get("treatment")
    params = _resolve_params(data, treatment_name)
    policies = parse_policies(data, params.n)
    periods = int(data.get("periods", 30))
    replications = int(data.get("replications", 1))
    if periods < 1:
        raise ConfigError("periods: must be at least 1")
    if replications < 1:
        raise ConfigError("replications: must be at least 1")
    return ScenarioConfig(
        params=params,
        policies=policies,
        periods=periods,
        replications=replications,
        seed=int(data.get("seed", 0)),
        treatment_name=str(treatment_name) if treatment_name is not None else None,
        out_dir=str(data["out"]) if "out" in data else None,
    )


# --------------------------------------------------------------------------
# record persistence
# --------------------------------------------------------------------------

def _params_to_obj(params: GameParams) -> dict:
    return {
        "theta": params.theta,
        "beta": params.beta,
        "lambda": params.lam,
        "kappa": params.kappa,
        "n": params.n,
        "effort_min": params.effort_min,
        "effort_max": params.effort_max,
    }


def _params_from_obj(obj: dict) -> GameParams:
    return GameParams(
        theta=float(obj["theta"]),
        beta=float(obj["beta"]),
        lam=float(obj["lambda"]),
        kappa=float(obj["kappa"]),
        n=int(obj["n"]),
        effort_min=float(obj["effort_min"]),
        effort_max=float(obj["effort_max"]),
    )


def write_record(record: SessionRecord, directory: str | Path) -> Path:
    """Write one session as <id>.csv plus a <id>.json sidecar; returns the CSV path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{record.session_id}.csv"
    sidecar = directory / f"{record.session_id}.json"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for t in range(record.T):
            for i in range(record.n):
                own, cost, spill, link, total = record.payoffs[t, i]
                writer.writerow(
                    [
                        record.session_id,
                        t + 1,
                        i + 1,
                        _fmt(record.efforts[t, i]),
                        _ids_join(np.nonzero(record.intents[t, i])[0]),
                        _ids_join(np.nonzero(record.networks[t, i])[0]),
                        _fmt(total),
                        _fmt(own),
                        _fmt(cost),
                        _fmt(spill),
                        _fmt(link),
                    ]
                )
    sidecar.write_text(
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "session_id": record.session_id,
                "seed": record.seed,
                "periods": record.T,
                "params": _params_to_obj(record.params),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return csv_path


def read_record(csv_path: str | Path) -> SessionRecord:
    """Read a session back; the inverse of `write_record`, bit-exact."""
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    if not sidecar.exists():
        raise LqnetError(f"missing sidecar {sidecar}")
    meta = json.loads(sidecar.read_text())
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaVersionError(
            f"{sidecar}: format_version {version!r} not supported (this reader "
            f"handles {FORMAT_VERSION})"
        )
    params = _params_from_obj(meta["params"])
    T = int(meta["periods"])
    n = params.n
    intents = np.zeros((T, n, n), dtype=bool)
    efforts = np.zeros((T, n), dtype=float)
    payoffs = np.zeros((T, n, 5), dtype=float)
    neighbor_claims: dict[tuple[int, int], list[int]] = {}
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise LqnetError(f"{csv_path}: unexpected header {header}")
        seen = set()
        for rownum, row in enumerate(reader, start=2):
            where = f"{csv_path.name} row {rownum}"
            if len(row) != len(CSV_COLUMNS):
                raise LqnetError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            try:
                t = int(row[1]) - 1
                i = int(row[2]) - 1
                effort = float(row[3])
                total, own, cost, spill, link = (float(v) for v in row[6:11])
            except ValueError as exc:
                raise LqnetError(f"{where}: {exc}") from None
            if not (0 <= t < T) or not (0 <= i < n):
                raise LqnetError(f"{where}: period/agent out of range")
            seen.add((t, i))
            efforts[t, i] = effort
            for j in _ids_split(row[4], n, where):
                intents[t, i, j] = True
            neighbor_claims[(t, i)] = _ids_split(row[5], n, where)
            payoffs[t, i] = (own, cost, spill, link, total)
    if len(seen) != T * n:
        raise LqnetError(
            f"{csv_path}: expected {T * n} agent-period rows, found {len(seen)}"
        )
    networks = intents | intents.transpose(0, 2, 1)
    for (t, i), claimed in neighbor_claims.items():
        actual = np.nonzero(networks[t, i])[0].tolist()
        if sorted(claimed) != actual:
            raise LqnetError(
                f"{csv_path}: period {t + 1} agent {i + 1}: neighbor_ids do not "
                "match the realization of the stored intents"
            )
    return SessionRecord(
        session_id=str(meta["session_id"]),
        params=params,
        T=T,
        seed=int(meta["seed"]),
        intents=intents,
        networks=networks,
        efforts=efforts,
        payoffs=payoffs,
    )


def read_records(directory: str | Path) -> list[SessionRecord]:
    """Read every session CSV in a directory, sorted by file name (not `SUMMARY_CSV`)."""
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.csv") if p.name != SUMMARY_CSV)
    if not paths:
        raise LqnetError(f"no session CSV files in {directory}")
    return [read_record(p) for p in paths]
