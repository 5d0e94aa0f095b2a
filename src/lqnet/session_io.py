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
from itertools import chain
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
    PARAM_KEYS,
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    StrategyProfile,
    get_treatment,
)

FORMAT_VERSION = 1
#: largest group size a network or profile may declare; bounds the n x n arrays
MAX_FILE_N = 1000
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

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _group_size(n, what: str) -> int:
    if not _is_int(n) or not 2 <= n <= MAX_FILE_N:
        raise LqnetError(f"{what}: group size must be an integer in 2..{MAX_FILE_N}, got {n!r}")
    return n


def _id_pairs(obj: dict, key: str, n: int) -> list[tuple[int, int]]:
    """The 1-based ``[i, j]`` pairs under ``obj[key]`` as 0-based tuples."""
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        raise LqnetError(f"{key}: expected a list of [i, j] pairs, got {type(raw).__name__}")
    pairs = []
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise LqnetError(f"{key}: bad pair {pair!r}; expected two integer IDs")
        i, j = pair
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise LqnetError(f"{key}: bad pair {[i, j]} for n={n}")
        pairs.append((i - 1, j - 1))
    return pairs


def _object_size(obj, what: str) -> int:
    """Group size ``n`` of a network, intent or profile object."""
    return _group_size(_as_mapping(obj, what).get("n"), f"{what}.n")


def network_to_obj(network: Network) -> dict:
    return {"n": network.n, "edges": [[i + 1, j + 1] for i, j in network.edges()]}


def network_from_obj(obj: dict) -> Network:
    n = _object_size(obj, "network")
    return Network.from_edges(n, _id_pairs(obj, "edges", n))


def intents_to_obj(intents: IntentProfile) -> dict:
    return {"n": intents.n, "intents": [[i + 1, j + 1] for i, j in intents.pairs()]}


def intents_from_obj(obj: dict) -> IntentProfile:
    n = _object_size(obj, "intents")
    return IntentProfile.from_pairs(n, _id_pairs(obj, "intents", n))


def profile_to_obj(profile: StrategyProfile) -> dict:
    return {
        "n": profile.n,
        "efforts": [float(x) for x in profile.efforts.efforts],
        "intents": [[i + 1, j + 1] for i, j in profile.intents.pairs()],
    }


def profile_from_obj(obj: dict) -> StrategyProfile:
    n = _object_size(obj, "profile")
    try:
        efforts = np.array(obj.get("efforts"), dtype=float)
    except (TypeError, ValueError, OverflowError):
        efforts = None
    if efforts is None or efforts.shape != (n,) or not np.isfinite(efforts).all():
        raise LqnetError(f"profile efforts must be a list of n={n} finite numbers")
    intents = IntentProfile.from_pairs(n, _id_pairs(obj, "intents", n))
    return StrategyProfile(EffortProfile(efforts), intents)


def read_json(path: str, what: str):
    """Parse the JSON file at ``path``; ``what`` names the file in errors."""
    p = Path(path)
    if not p.exists():
        raise LqnetError(f"{what} file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise LqnetError(f"{path}: malformed JSON: {exc}") from None


def load_network(spec: str, n: int | None = None) -> Network:
    """Resolve a network argument: a named architecture or a JSON file path."""
    name = spec.strip().lower()
    if name in ("empty", "star", "complete"):
        if n is None:
            raise LqnetError(f"named network {name!r} needs a group size")
        return getattr(Network, name)(_group_size(n, f"network {name!r}"))
    return network_from_obj(read_json(spec, "network"))


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
    """The named treatment's parameters with the file's ``params`` overriding them."""
    overrides = _as_mapping(data.get("params", {}) or {}, "params")
    for key in overrides:
        if key not in PARAM_KEYS:
            raise ConfigError(f"params.{key}: unknown field (expected one of {PARAM_KEYS})")
    base = {} if treatment_name is None else get_treatment(str(treatment_name)).params.to_mapping()
    try:
        return GameParams.from_mapping({**base, **overrides})
    except ConfigError as exc:
        raise ConfigError(f"params.{exc}") from None


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
                "params": record.params.to_mapping(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return csv_path


def _id_mask(
    t: np.ndarray, i: np.ndarray, id_lists: list[list[int]], T: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """A (T, n, n) mask holding, for each row k, ``id_lists[k]`` at
    ``[t[k], i[k]]``, and the length of each list."""
    lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
    ids = np.fromiter(chain.from_iterable(id_lists), dtype=np.int64)
    mask = np.zeros((T, n, n), dtype=bool)
    mask[np.repeat(t, lengths), np.repeat(i, lengths), ids] = True
    return mask, lengths


def _read_sidecar(sidecar: Path) -> tuple[dict, GameParams]:
    """A record sidecar's fields, checked, and its parameters."""
    if not sidecar.exists():
        raise LqnetError(f"missing sidecar {sidecar}")
    meta = _as_mapping(read_json(str(sidecar), "sidecar"), str(sidecar))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaVersionError(
            f"{sidecar}: format_version {version!r} not supported (this reader "
            f"handles {FORMAT_VERSION})"
        )
    raw = _as_mapping(meta.get("params"), f"{sidecar}: params")
    missing = [k for k in ("session_id", "seed", "periods") if k not in meta]
    missing += [f"params.{k}" for k in PARAM_KEYS if k not in raw]
    if missing:
        raise LqnetError(f"{sidecar}: {missing[0]}: required")
    for key in ("seed", "periods"):
        if not _is_int(meta[key]) or (key == "periods" and meta[key] < 1):
            raise LqnetError(f"{sidecar}: {key}: bad value {meta[key]!r}")
    try:
        return meta, GameParams.from_mapping(raw)
    except ConfigError as exc:
        raise LqnetError(f"{sidecar}: params.{exc}") from None


def read_record(csv_path: str | Path) -> SessionRecord:
    """Read a session back; the inverse of `write_record`, bit-exact."""
    csv_path = Path(csv_path)
    meta, params = _read_sidecar(csv_path.with_suffix(".json"))
    T = meta["periods"]
    n = params.n
    seen: dict[tuple[int, int], None] = {}  # (period, agent) of each row, in file order
    values: list[tuple[float, ...]] = []  # effort, then the payoff columns in array order
    initiated: list[list[int]] = []
    claimed: list[list[int]] = []
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise LqnetError(f"{csv_path}: unexpected header {header}")
        for rownum, row in enumerate(reader, start=2):
            where = f"{csv_path.name} row {rownum}"
            if len(row) != len(CSV_COLUMNS):
                raise LqnetError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
            try:
                t = int(row[1]) - 1
                i = int(row[2]) - 1
                effort = float(row[3])
                total, own, cost, spill, link = map(float, row[6:11])
            except ValueError as exc:
                raise LqnetError(f"{where}: {exc}") from None
            if not (0 <= t < T) or not (0 <= i < n):
                raise LqnetError(f"{where}: period/agent out of range")
            if (t, i) in seen:
                raise LqnetError(f"{where}: period {t + 1} agent {i + 1} appears twice")
            seen[t, i] = None
            values.append((effort, own, cost, spill, link, total))
            initiated.append(_ids_split(row[4], n, where))
            claimed.append(_ids_split(row[5], n, where))
    if len(seen) != T * n:
        raise LqnetError(
            f"{csv_path}: expected {T * n} agent-period rows, found {len(seen)}"
        )
    t, i = np.array(list(seen), dtype=np.int64).reshape(-1, 2).T
    columns = np.array(values, dtype=float).reshape(-1, 6)
    efforts = np.zeros((T, n), dtype=float)
    efforts[t, i] = columns[:, 0]
    payoffs = np.zeros((T, n, 5), dtype=float)
    payoffs[t, i] = columns[:, 1:]
    intents, _ = _id_mask(t, i, initiated, T, n)
    self_links = intents[t, i, i]
    if self_links.any():
        k = int(np.argmax(self_links))
        raise LqnetError(
            f"{csv_path}: period {t[k] + 1} agent {i[k] + 1}: initiated_ids names the agent itself"
        )
    networks = intents | intents.transpose(0, 2, 1)
    claims, claim_counts = _id_mask(t, i, claimed, T, n)
    # a repeated ID leaves the mask equal but the count too large
    mismatch = (claims != networks).any(axis=2)[t, i] | (
        claim_counts != networks.sum(axis=2)[t, i]
    )
    if mismatch.any():
        k = int(np.argmax(mismatch))
        raise LqnetError(
            f"{csv_path}: period {t[k] + 1} agent {i[k] + 1}: neighbor_ids do not "
            "match the realization of the stored intents"
        )
    return SessionRecord(
        session_id=str(meta["session_id"]),
        params=params,
        T=T,
        seed=meta["seed"],
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
