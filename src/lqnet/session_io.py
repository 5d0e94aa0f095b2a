"""Session records and their files (policy files: `dynamics`; network and profile
files: `files`).  A `SessionRecord` holds one group's decisions; the reducers in
`analysis` need this module alone, not the simulator that writes the records.

All on-disk formats use 1-based agent IDs (matching the feedback screens
of the original interface); everything in memory is 0-based.  Session
records persist as one CSV per session (agent-period rows) plus a JSON
sidecar holding the parameters, seed, and a format version.  Floats are
written in shortest round-trip decimal form so records replay bit-exactly.

The ID-list cells ("2:5") of a batch repeat: a group of n has at most 2^n
distinct rows.  Both directions therefore go through a mask row packed
little-endian (`numpy.packbits`) and a bounded `functools.lru_cache`:
`write_record` formats each distinct packed row once (`_id_cell`), and
`read_record` parses each distinct (cell, n) once (`_id_row`) and unpacks all
of a record's rows in one call, so the work is shared across the records of
one command.  The caches keep no state a record depends on.
"""

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatchError, LqnetError, SchemaVersionError
from .files import _as_mapping, _checked, _read_text, read_json, write_text
from .model import PARAM_KEYS, GameParams, check_params, is_int, payoff_components, realized_adjacency

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

#: distinct entries each ID-cell cache keeps; a group of n has at most 2^n distinct rows,
#: and larger groups, whose rows rarely repeat, cannot grow the caches past this
ID_CACHE_SIZE = 4096


def _id_cells(mask: np.ndarray) -> list[str]:
    """The 1-based ID-list cell of each row of a (rows, n) mask, e.g. "2:5"."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return list(map(_id_cell, packed.view(f"V{packed.shape[1]}").ravel().tolist()))


@lru_cache(maxsize=ID_CACHE_SIZE)
def _id_cell(packed: bytes) -> str:
    """The ID-list cell of one mask row packed little-endian."""
    bits = int.from_bytes(packed, "little")
    return ":".join([str(j + 1) for j in range(bits.bit_length()) if bits >> j & 1])


@lru_cache(maxsize=ID_CACHE_SIZE)
def _id_row(text: str, n: int) -> tuple[bytes, int]:
    """A group of ``n``'s ID-list cell as its mask row, packed as `_id_cells` packs it,
    and the number of IDs it lists, which exceeds the row's when an ID repeats."""
    ids = _ids_split(text, n)
    return sum(1 << j for j in set(ids)).to_bytes((n + 7) // 8, "little"), len(ids)


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


@dataclass(frozen=True, eq=False)
class SessionRecord:
    """One group's decisions over T periods, and the outcomes they determine.

    Only the decisions are stored; ``T``, the realized ``networks`` and the
    ``payoffs`` derive from them, so a record cannot disagree with itself.
    Arrays are indexed [period, agent(, agent)] and read-only; payoff
    columns are (own_benefit, effort_cost, spillover, link_cost, total).
    A ``session_id`` that cannot name files and start one CSV line (it is not
    text, or holds a line break, ``/`` or NUL) raises `ConfigError`.  Efforts
    that are not finite numbers in the effort box, then intents with a
    self-link, are refused, naming the first such period and agent (in period,
    then agent order) 1-based, as the record files number them.
    """

    session_id: str
    params: GameParams
    seed: int
    intents: np.ndarray
    efforts: np.ndarray

    def __post_init__(self) -> None:
        sid = self.session_id
        if not isinstance(sid, str) or not set(sid).isdisjoint("\r\n/\0"):
            raise ConfigError(f"session_id: expected text without line breaks, '/' or NUL, got {sid!r}")
        n = self.params.n
        periods = self.efforts.shape[:1]  # (T,); () for a 0-d efforts array
        for name, shape in (("efforts", (*periods, n)), ("intents", (*periods, n, n))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
        lo, hi = self.params.effort_min, self.params.effort_max
        x = self.efforts  # the box ends are finite, so NaN and +-inf fall outside it
        for bad, what in (
            (~((lo <= x) & (x <= hi)), f"effort is not a finite number in [{lo!r}, {hi!r}]"),
            (self.intents.diagonal(axis1=1, axis2=2), "initiates a link to itself"),
        ):
            where = np.argwhere(bad)
            if where.size:
                t, i = where[0] + 1
                raise LqnetError(f"period {t} agent {i}: {what}")

    @property
    def T(self) -> int:
        return self.efforts.shape[0]

    @property
    def n(self) -> int:
        return self.params.n

    @cached_property
    def networks(self) -> np.ndarray:
        """Each period's realized network: a link forms when either end initiates it."""
        return _read_only(realized_adjacency(self.intents))

    @cached_property
    def payoffs(self) -> np.ndarray:
        return _read_only(payoff_components(self.params, self.efforts, self.intents))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def write_record(record: SessionRecord, directory: str | Path) -> Path:
    """Write one session as <id>.csv plus a <id>.json sidecar; returns the CSV path."""
    directory = Path(directory)
    csv_path = directory / f"{record.session_id}.csv"
    T, n = record.T, record.n
    payoffs = record.payoffs.reshape(T * n, 5)[:, PAYOFF_CELLS].T
    floats = [map(repr, column.tolist()) for column in (record.efforts.ravel(), *payoffs)]
    rows = map(",".join, zip(
        repeat(_csv_field(record.session_id)),
        _row_keys(T, n),
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


@lru_cache(maxsize=1)  # the records of one batch share their (T, n)
def _row_keys(T: int, n: int) -> tuple[str, ...]:
    """The "period,agent" cells of a record's rows, in file order."""
    return tuple(f"{t},{i}" for t in range(1, T + 1) for i in range(1, n + 1))


def _csv_field(text: str) -> str:
    """``text`` as one field of a multi-field row, quoted as `csv.writer` quotes it:
    in quotes, its own doubled, when it holds a comma or a quote (a `SessionRecord`'s
    ID holds no line break, the writer's one other reason to quote)."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


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
    twice = np.ones(len(rows), dtype=bool)
    twice[np.unique(t * n + i, return_index=True)[1]] = False  # each (period, agent)'s first row
    if (k := first(twice)) is not None:
        raise LqnetError(f"{name} row {k + 2}: period {t[k] + 1} agent {i[k] + 1} appears twice")
    try:
        packed, counts = zip(*map(_id_row, initiated + claimed, repeat(n)))
    except LqnetError:
        for k, text in enumerate(chain.from_iterable(zip(initiated, claimed))):  # in file order
            try:
                _id_row(text, n)
            except LqnetError as exc:
                raise LqnetError(f"{name} row {k // 2 + 2}: {exc}") from None
        raise
    # (column, row, agent): initiated_ids, then neighbor_ids
    ids = np.frombuffer(b"".join(packed), dtype=np.uint8).reshape(2, len(rows), -1)
    ids = np.unpackbits(ids, axis=2, count=n, bitorder="little").view(bool)
    # a repeated ID leaves the row equal but the count too large
    repeats = np.array(counts).reshape(2, len(rows)) != ids.sum(axis=2)

    def reject(bad: np.ndarray, what: str) -> None:
        if (k := first(bad)) is not None:
            raise LqnetError(f"{csv_path}: period {t[k] + 1} agent {i[k] + 1}: {what}")

    efforts = np.zeros((T, n), dtype=float)
    efforts[t, i] = columns[:, 0]
    intents = np.zeros((T, n, n), dtype=bool)
    intents[t, i] = ids[0]
    reject(repeats[0], "initiated_ids name an agent twice")
    try:
        record = SessionRecord(session_id, params, meta["seed"], intents=intents, efforts=efforts)
    except LqnetError as exc:
        raise LqnetError(f"{csv_path}: {exc}") from None
    if name != f"{session_id}.csv":  # as `write_record` names it, so no two files share an ID
        raise LqnetError(f"{csv_path}: the sidecar's session_id {session_id!r} does not name this file")
    reject(
        (ids[1] != record.networks[t, i]).any(axis=1) | repeats[1],
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
        check_params(records[-1].params, params, str(path))
    return records
