"""Policy files and session-record persistence (network and profile files: `files`).

All on-disk formats use 1-based agent IDs (matching the feedback screens
of the original interface); everything in memory is 0-based.  Session
records persist as one CSV per session (agent-period rows) plus a JSON
sidecar holding the parameters, seed, and a format version.  Floats are
written in shortest round-trip decimal form so records replay bit-exactly.
"""

import csv
import io
import json
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from .dynamics import (
    LINK_RULE_FIELDS,
    LOGIT_FIELDS,
    LOGIT_PRESETS,
    AgentPolicy,
    EffortRule,
    LinkRule,
    LogisticCoefficients,
    SessionRecord,
)
from .errors import ConfigError, LqnetError, SchemaVersionError
from .files import _as_mapping, _fields, _read_text, read_json, write_text
from .model import PARAM_KEYS, GameParams, is_int

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
#: the CSV's payoff cells (``CSV_COLUMNS[6:]``) as columns of `SessionRecord.payoffs`
PAYOFF_CELLS = [4, 0, 1, 2, 3]
#: how far a payoff cell may sit from its derived value, relative to max(1, |value|),
#: so a record whose payoffs were summed in another order still loads
PAYOFF_TOL = 1e-9

def _id_cells(mask: np.ndarray) -> list[str]:
    """The 1-based ID-list cell of each row of a (rows, n) mask, e.g. "2:5"."""
    labels = [str(j + 1) for j in range(mask.shape[1])]
    return [":".join(compress(labels, row)) for row in mask.tolist()]


def _ids_split(text: str, n: int) -> list[int]:
    """The 0-based IDs of a 1-based ID-list cell such as "2:5"."""
    out = []
    for part in text.split(":") if text else ():
        try:
            out.append(int(part) - 1)
        except ValueError:
            raise LqnetError(f"bad ID {part!r}") from None
        if not 0 <= out[-1] < n:
            raise LqnetError(f"ID {out[-1] + 1} out of range 1..{n}")
    return out


# --------------------------------------------------------------------------
# policy files
# --------------------------------------------------------------------------

#: the fields of an effort rule, and the file keys of a link-rule kind besides its
#: `LINK_RULE_FIELDS`; a link rule gives one of its fields, so logistic has one source
EFFORT_FIELDS = ("preset", "b0", "b1", "b2", "noise_sd", "initial")
LINK_FIELDS = {"logistic": ("preset", "odds_ratios")}


def _checked(path: str, build):
    """``build()``, a type built from the file keys under ``path``; a key it reads that
    the file lacks, or the type's `ConfigError` (which starts with the field's name),
    is raised again as a `ConfigError` naming the key's path."""
    try:
        return build()
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: required") from None
    except ConfigError as exc:
        field, colon, detail = str(exc).partition(":")
        key = "initial" if field == "initial_effort" else field
        raise ConfigError(f"{path}.{key}{colon}{detail}") from None


def _parse_effort_rule(obj, path: str) -> EffortRule:
    obj = _fields(obj, path, EFFORT_FIELDS, ("preset",), ("b0", "b1", "b2"))
    given = {"noise_sd": obj.get("noise_sd", 0.0), "initial_effort": obj.get("initial")}
    if "preset" in obj:
        return _checked(path, lambda: EffortRule.from_preset(str(obj["preset"]), **given))
    return _checked(path, lambda: EffortRule(obj["b0"], obj["b1"], obj["b2"], **given))


def _parse_logistic(obj: dict, path: str) -> LogisticCoefficients:
    if "preset" in obj:
        name = str(obj["preset"])
        if name not in LOGIT_PRESETS:
            known = sorted(LOGIT_PRESETS)
            raise ConfigError(f"{path}.preset: unknown preset {name!r} (known: {known})")
        return LOGIT_PRESETS[name]
    source = "coefficients" if "coefficients" in obj else "odds_ratios"
    raw = _fields(obj.get(source, {}), f"{path}.{source}", LOGIT_FIELDS)
    if not raw:
        raise ConfigError(f"{path}: logistic rule needs preset, coefficients or odds_ratios")
    default = 1.0 if source == "odds_ratios" else 0.0
    values = _checked(f"{path}.{source}", lambda: LogisticCoefficients(
        raw["intercept"], *(raw.get(key, default) for key in LOGIT_FIELDS[1:])))
    if source == "coefficients":
        return values
    for key in LOGIT_FIELDS:  # odds ratios are positive, and their logs are the coefficients
        if not getattr(values, key) > 0:
            raise ConfigError(f"{path}.{source}.{key}: must be positive, got {raw[key]!r}")
    return LogisticCoefficients(*(float(np.log(getattr(values, key))) for key in LOGIT_FIELDS))


def _parse_link_rule(obj, path: str, n: int) -> LinkRule:
    obj = _as_mapping(obj, path)
    kind = obj.get("kind")
    fields = (*LINK_RULE_FIELDS.get(kind, ()), *LINK_FIELDS.get(kind, ())) if isinstance(kind, str) else ()
    if not fields:  # a kind without fields, or an unknown kind, which the type names first
        rule = _checked(path, lambda: LinkRule(kind))
        _fields(obj, path, ("kind",))
        return rule
    _fields(obj, path, ("kind", *fields), *((key,) for key in fields))
    if kind == "rank_top":
        return _checked(path, lambda: LinkRule.rank_top(obj.get("k")))
    if kind == "logistic":
        return LinkRule.logistic(_parse_logistic(obj, path))
    raw = obj.get("targets")  # fixed_targets, with 1-based IDs
    if not (isinstance(raw, list) and len(raw) == n):
        raise ConfigError(f"{path}.targets: fixed_targets needs a list of {n} rows, got {raw!r}")
    for k, row in enumerate(raw):
        if not (isinstance(row, list) and all(is_int(j) and 1 <= j <= n for j in row)):
            raise ConfigError(f"{path}.targets[{k}]: expected IDs in 1..{n}, got {row!r}")
    return _checked(path, lambda: LinkRule(kind, targets=[[j - 1 for j in row] for row in raw]))


def _parse_policy(obj, path: str, n: int) -> AgentPolicy:
    obj = _fields(obj, path, ("effort", "links"))
    if "effort" not in obj or "links" not in obj:
        raise ConfigError(f"{path}: needs 'effort' and 'links' sections")
    return AgentPolicy(_parse_effort_rule(obj["effort"], f"{path}.effort"),
                       _parse_link_rule(obj["links"], f"{path}.links", n))


def load_policies(path: str | Path, n: int) -> list[AgentPolicy]:
    """Agent policies for a group of ``n`` from a policy file (JSON if its name ends
    in ``.json``, else YAML): a shared `policy` section or a per-agent `policies` list."""
    p = Path(path)
    data = _policy_data(p, _read_text(p, "file", ConfigError))
    _fields(_as_mapping(data, str(p)), "", ("policy", "policies", "effort", "links"),
            ("policy",), ("policies",), ("effort", "links"))
    if "policies" in data:
        raw = data["policies"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError(f"policies: expected a list of {n} entries")
        return [_parse_policy(entry, f"policies[{k}]", n) for k, entry in enumerate(raw)]
    # a shared policy, in a `policy` section or at the top level
    return [_parse_policy(data.get("policy", data), "policy", n)] * n


def _policy_data(p: Path, text: str):
    """A policy file's text as JSON if ``p`` ends in ``.json``, else as YAML (not a JSON superset)."""
    if p.suffix.lower() == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno}, column {exc.colno}"
            raise ConfigError(f"{p}: malformed file: {where}: {exc.msg}") from None
    import yaml  # only a YAML policy pays for its import

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # PyYAML's message quotes the offending lines; keep the position and the problem
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        detail = problem or str(exc).partition("\n")[0]
        raise ConfigError(f"{p}: malformed file: {where}{detail}") from None


# --------------------------------------------------------------------------
# record persistence
# --------------------------------------------------------------------------

def write_record(record: SessionRecord, directory: str | Path) -> Path:
    """Write one session as <id>.csv plus a <id>.json sidecar; returns the CSV path."""
    directory = Path(directory)
    csv_path = directory / f"{record.session_id}.csv"
    T, n = record.T, record.n
    payoffs = record.payoffs.reshape(T * n, 5)[:, PAYOFF_CELLS].T
    floats = [map(repr, column.tolist()) for column in (record.efforts.ravel(), *payoffs)]
    rows = map(",".join, zip(
        repeat(_csv_field(record.session_id)),
        map(str, np.repeat(np.arange(1, T + 1), n).tolist()),
        map(str, np.tile(np.arange(1, n + 1), T).tolist()),
        floats[0],
        _id_cells(record.intents.reshape(T * n, n)),
        _id_cells(record.networks.reshape(T * n, n)),
        *floats[1:],
    ))
    # csv.writer's dialect: "\r\n" line ends; no other field can need quoting
    text = "\r\n".join([",".join(CSV_COLUMNS), *rows, ""])
    write_text(csv_path, text, "record file", newline="")
    sidecar = {
        "format_version": FORMAT_VERSION,
        "session_id": record.session_id,
        "seed": record.seed,
        "periods": record.T,
        "params": record.params.to_mapping(),
    }
    text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    write_text(directory / f"{record.session_id}.json", text, "sidecar file")
    return csv_path


def _csv_field(text: str) -> str:
    """``text`` as one field of a multi-field row, quoted as `csv.writer` quotes it."""
    if not text:
        return text  # the writer quotes only a lone empty field, as ""
    out = io.StringIO()
    csv.writer(out).writerow([text])
    return out.getvalue()[: -len("\r\n")]


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
        if not is_int(meta[key]) or (key == "periods" and meta[key] < 1):
            raise LqnetError(f"{sidecar}: {key}: bad value {meta[key]!r}")
    return meta, _checked(f"{sidecar}: params", lambda: GameParams.from_mapping(raw))


def _numbers(cells: tuple[str, ...], kind: type, name: str) -> np.ndarray:
    """A column of file ``name``'s cells as an array of ``kind``, int or float; the
    first cell that does not parse is an `LqnetError` naming its row."""
    try:
        return np.array(cells, dtype=kind)
    except (ValueError, OverflowError):
        for rownum, cell in enumerate(cells, start=2):  # only a failed column, cell by cell
            try:
                np.array(cell, dtype=kind)
            except (ValueError, OverflowError) as exc:
                raise LqnetError(f"{name} row {rownum}: {exc}") from None
        raise


def read_record(csv_path: str | Path) -> SessionRecord:
    """Read a session back; the inverse of `write_record`, bit-exact.

    The record is its efforts and initiated_ids, and the rest of each row is checked
    against it.  Each check names its first failing row (in file order unless noted) in
    a one-line error, and they run in this order: each row starts with the sidecar's
    session_id as `write_record` writes it, and holds 11 fields, as no other field is
    quoted; there are periods x n rows; period, agent, effort and the payoff cells parse
    as numbers (column by column); each (period, agent) is in range and appears once;
    the ID cells hold IDs in 1..n; initiated_ids repeat no ID; `SessionRecord` refuses
    an effort that is not a finite number in the box, then initiated_ids that name the
    agent itself (each in period, then agent order); the file is named session_id plus
    ``.csv``; neighbor_ids are the realization of the intents; the payoff cells match
    the record.  Lines may end in CRLF or LF."""
    csv_path = Path(csv_path)
    # the sidecar `write_record` wrote beside it, also for the session ID ""
    meta, params = _read_sidecar(csv_path.with_name(csv_path.name.removesuffix(".csv") + ".json"))
    T, n, name, session_id = meta["periods"], params.n, csv_path.name, str(meta["session_id"])
    # text mode reads CRLF as LF; only the last line end is dropped, so a blank line is a row
    header, *rows = _read_text(csv_path, "record file", LqnetError).removesuffix("\n").split("\n")
    if header != ",".join(CSV_COLUMNS):
        raise LqnetError(f"{csv_path}: unexpected header {header!r}")

    def first(bad) -> int | None:  # the first row flagged in ``bad``, rows in file order
        bad = np.asarray(bad, dtype=bool)
        return int(np.argmax(bad)) if bad.any() else None

    prefix = _csv_field(session_id) + ","
    if (k := first([not row.startswith(prefix) for row in rows])) is not None:
        cell = rows[k].split(",", 1)[0]
        raise LqnetError(f"{name} row {k + 2}: session_id {cell!r} is not the sidecar's {session_id!r}")
    cells = [row[len(prefix):].split(",") for row in rows]
    if (k := first([len(rest) != len(CSV_COLUMNS) - 1 for rest in cells])) is not None:
        got = len(cells[k]) + 1
        raise LqnetError(f"{name} row {k + 2}: expected {len(CSV_COLUMNS)} fields, got {got}")
    if len(rows) != T * n:
        raise LqnetError(f"{csv_path}: expected {T * n} agent-period rows, found {len(rows)}")
    period, agent, effort, initiated, claimed, *payoff = zip(*cells)
    t, i = _numbers(period, int, name) - 1, _numbers(agent, int, name) - 1
    columns = np.stack([_numbers(column, float, name) for column in (effort, *payoff)], axis=1)
    if (k := first((t < 0) | (t >= T) | (i < 0) | (i >= n))) is not None:
        raise LqnetError(f"{name} row {k + 2}: period/agent out of range")
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(t * n + i, return_index=True)[1]] = False  # each (period, agent)'s first row
    if (k := first(repeat)) is not None:
        raise LqnetError(f"{name} row {k + 2}: period {t[k] + 1} agent {i[k] + 1} appears twice")
    id_cells = list(chain.from_iterable(zip(initiated, claimed)))
    parsed = dict.fromkeys(id_cells)  # each distinct ID cell, in file order, parsed once
    for text in parsed:
        try:
            parsed[text] = _ids_split(text, n)
        except LqnetError as exc:
            raise LqnetError(f"{name} row {id_cells.index(text) // 2 + 2}: {exc}") from None

    def reject(bad: np.ndarray, what: str) -> None:
        if (k := first(bad)) is not None:
            raise LqnetError(f"{csv_path}: period {t[k] + 1} agent {i[k] + 1}: {what}")

    efforts = np.zeros((T, n), dtype=float)
    efforts[t, i] = columns[:, 0]
    intents, initiated_counts = _id_mask(t, i, [parsed[text] for text in initiated], T, n)
    # a repeated ID leaves the mask equal but the count too large
    reject(initiated_counts != intents.sum(axis=2)[t, i], "initiated_ids name an agent twice")
    try:
        record = SessionRecord(session_id, params, meta["seed"], intents=intents, efforts=efforts)
    except LqnetError as exc:
        raise LqnetError(f"{csv_path}: {exc}") from None
    if name != f"{session_id}.csv":  # as `write_record` names it, so no two files share an ID
        raise LqnetError(f"{csv_path}: the sidecar's session_id {session_id!r} does not name this file")
    networks = record.networks
    claims, claim_counts = _id_mask(t, i, [parsed[text] for text in claimed], T, n)
    reject(
        (claims != networks).any(axis=2)[t, i] | (claim_counts != networks.sum(axis=2)[t, i]),
        "neighbor_ids do not match the realization of the stored intents",
    )
    expect = record.payoffs[t, i][:, PAYOFF_CELLS]
    close = np.abs(columns[:, 1:] - expect) <= PAYOFF_TOL * np.maximum(1.0, np.abs(expect))
    reject(~close.all(axis=1), "payoff cells do not match the stored efforts and intents")
    return record


def read_records(directory: str | Path, params: GameParams | None = None) -> list[SessionRecord]:
    """Read every session CSV in a directory, sorted by file name (not `SUMMARY_CSV`).

    With ``params``, the first record whose sidecar parameters differ from them
    is refused, naming its file and the first differing parameter."""
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.csv") if p.name != SUMMARY_CSV)
    if not paths:
        raise LqnetError(f"no session CSV files in {directory}")
    records = []
    for path in paths:
        records.append(read_record(path))
        if params is not None and records[-1].params != params:
            have, want = records[-1].params.to_mapping(), params.to_mapping()
            key = next(k for k in PARAM_KEYS if have[k] != want[k])
            raise LqnetError(
                f"{path}: params.{key} is {have[key]!r}, but the treatment has {want[key]!r}"
            )
    return records
