"""Network and strategy-profile JSON files (1-based agent IDs, as in `session_io`),
the text, JSON and field readers that the policy files (`dynamics`) and the record
files (`session_io`) share, and the one text writer of records and summaries."""

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, LqnetError
from .model import EffortProfile, IntentProfile, Network, StrategyProfile, is_int

#: largest group size a network or profile may declare; bounds the n x n arrays
MAX_FILE_N = 1000


def _read_text(path: str | Path, what: str, error: type[LqnetError]) -> str:
    """Text of the file at ``path``; a failed read raises one-line ``error``
    naming the file as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise error(f"{path}: cannot read {what}: not UTF-8 text") from None


def write_text(path: Path, text: str, what: str, newline: str | None = None) -> None:
    """Write ``text`` to ``path``, creating its directory; a failed write raises
    one-line `LqnetError` naming the path that failed and the file as ``what``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise LqnetError(f"{exc.filename or path}: cannot write {what}: {exc.strerror}") from None


def read_json(path: str, what: str):
    """Parse the JSON file at ``path``; ``what`` names the file in errors."""
    text = _read_text(path, f"{what} file", LqnetError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LqnetError(f"{path}: malformed JSON: {exc}") from None


def _as_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _fields(obj, path: str, known, *sources) -> dict:
    """``obj`` as a mapping whose keys are all ``known`` and that gives keys of at
    most one of the ``sources``; a `ConfigError` names the first field that is not."""
    obj = _as_mapping(obj, path)
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in known:
            name = key if isinstance(key, str) and key.isprintable() else repr(key)
            raise ConfigError(f"{prefix}{name}: unknown field (known: {', '.join(known)})")
    given = [next(k for k in obj if k in src) for src in sources if not obj.keys().isdisjoint(src)]
    given.sort(key=list(obj).index)  # the later key in the file is the one refused
    if len(given) > 1:
        raise ConfigError(f"{prefix}{given[1]}: cannot be given with {prefix}{given[0]}")
    return obj


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


def _group_size(n, what: str) -> int:
    if not is_int(n) or not 2 <= n <= MAX_FILE_N:
        raise LqnetError(f"{what}: group size must be an integer in 2..{MAX_FILE_N}, got {n!r}")
    return n


def _id_pairs(obj: dict, key: str, n: int) -> list[tuple[int, int]]:
    """The 1-based ``[i, j]`` pairs under ``obj[key]`` as 0-based tuples."""
    raw = obj.get(key, [])
    if not isinstance(raw, list):
        raise LqnetError(f"{key}: expected a list of [i, j] pairs, got {type(raw).__name__}")
    pairs = []
    for pair in raw:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_int, pair))):
            raise LqnetError(f"{key}: bad pair {pair!r}; expected two integer IDs")
        i, j = pair
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise LqnetError(f"{key}: bad pair {[i, j]} for n={n}")
        pairs.append((i - 1, j - 1))
    return pairs


def _object_size(obj, what: str, known) -> int:
    """Group size ``n`` of a network or profile object whose keys are all ``known``."""
    return _group_size(_fields(obj, what, known).get("n"), f"{what}.n")


def network_to_obj(network: Network) -> dict:
    return {"n": network.n, "edges": [[i + 1, j + 1] for i, j in network.edges()]}


def network_from_obj(obj: dict) -> Network:
    n = _object_size(obj, "network", ("n", "edges"))
    return Network.from_edges(n, _id_pairs(obj, "edges", n))


def profile_to_obj(profile: StrategyProfile) -> dict:
    return {
        "n": profile.n,
        "efforts": [float(x) for x in profile.efforts.efforts],
        "intents": [[i + 1, j + 1] for i, j in profile.intents.pairs()],
    }


def profile_from_obj(obj: dict) -> StrategyProfile:
    n = _object_size(obj, "profile", ("n", "efforts", "intents"))
    try:
        efforts = np.array(obj.get("efforts"), dtype=float)
    except (TypeError, ValueError, OverflowError):
        efforts = None
    if efforts is None or efforts.shape != (n,) or not np.isfinite(efforts).all():
        raise LqnetError(f"profile efforts must be a list of n={n} finite numbers")
    intents = IntentProfile.from_pairs(n, _id_pairs(obj, "intents", n))
    return StrategyProfile(EffortProfile(efforts), intents)


def load_network(spec: str, n: int | None = None) -> Network:
    """Resolve a network argument: a named architecture or a JSON file path."""
    name = spec.strip().lower()
    if name in ("empty", "star", "complete"):
        if n is None:
            raise LqnetError(f"named network {name!r} needs a group size")
        return getattr(Network, name)(_group_size(n, f"network {name!r}"))
    return network_from_obj(read_json(spec, "network"))
