"""Agent-based simulator of the repeated effort-and-linking game, and its policy file.

Each period every agent simultaneously picks an intent row (whom to
initiate links to) and an effort level, both as functions of the previous
period's state.  Effort follows a lagged adjustment rule

    x_t = b0 * own_lag + b1 * best_response(neighbor_lag_sum)
          + b2 * non_neighbor_lag_sum + noise

clipped to the effort box.  Linking rules range from net-benefit
thresholds to rank-based targeting and a logistic discrete-choice rule.
Sessions are deterministic given their seed: a counter-based generator is
created per session and consumed in a fixed order (efforts by agent
index, then intent rows by agent index).  Each period steps every agent at
once, and its batched draws consume the stream as one draw per agent would.
Replications step together: `step_effort` and `step_links` read the previous
period's (R, n) efforts and (R, n, n) intents of R replications, with one
generator per replication, so a session's record does not depend on how many
run beside it.  `analysis.fit_effort_model` fits the effort rule on
`effort_regressors`, the regressors `step_effort` reads.  `load_policies` reads a
policy file into these rules; a session is a `session_io.SessionRecord`.
"""

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .files import _as_mapping, _checked, _fields, _read_text
from .model import (GameParams, best_response, effort_order, finite_float, is_int,
                    link_benefit, neighbor_sums, realized_adjacency)
from .session_io import SessionRecord

#: effort-adjustment coefficients (own lag, best-response weight, conformity)
#: estimated per treatment from the experimental sessions
EFFORT_PRESETS: dict[str, tuple[float, float, float]] = {
    "N5_LowCost": (0.090, 0.966, 0.085),
    "N5_HighCost": (0.161, 0.900, 0.036),
    "N9_LowCost1": (0.089, 0.455, 0.019),
    "N9_HighCost": (0.298, 0.763, 0.018),
    "N9_LowCost2": (0.324, 0.376, 0.014),
}


@dataclass(frozen=True)
class LogisticCoefficients:
    """Log-odds coefficients of the logistic linking rule.

    Stored as natural logs of the fitted odds ratios.  The rank dummies
    compare the partner's lagged-effort rank to the group's middle band
    (the median rank for groups of five; ranks 4-6 for groups of nine).
    Each field is stored as a finite float; one that is not raises
    `ConfigError` starting with its name.
    """

    intercept: float
    lagged_link: float = 0.0
    partner_effort: float = 0.0
    above_median: float = 0.0
    below_median: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, finite_float(f.name, getattr(self, f.name)))


#: the fields of `LogisticCoefficients`, in their declared order
LOGIT_FIELDS = tuple(f.name for f in fields(LogisticCoefficients))


#: pooled logistic estimates: "benefit" regresses initiation on the lagged
#: link and the partner's lagged effort; "rank" adds the relative-position
#: dummies
LOGIT_PRESETS: dict[str, LogisticCoefficients] = {
    "benefit": LogisticCoefficients(
        intercept=math.log(0.342),
        lagged_link=math.log(2.800),
        partner_effort=math.log(1.083),
    ),
    "rank": LogisticCoefficients(
        intercept=math.log(0.687),
        lagged_link=math.log(2.794),
        partner_effort=math.log(1.047),
        above_median=math.log(1.281),
        below_median=math.log(0.926),
    ),
}

#: each kind of link rule and the fields it takes besides ``kind``
LINK_RULE_FIELDS = {"best_response": (), "benefit_threshold": (), "rank_top": ("k",),
                    "logistic": ("coefficients",), "fixed_targets": ("targets",)}


@dataclass(frozen=True)
class EffortRule:
    """Coefficients of the effort-adjustment rule plus the cold-start spec.

    ``initial_effort`` may be a number (constant start), the string
    "uniform" (uniform draw over the effort box), or None for the
    empty-network best response, theta/beta clipped to the effort box.
    The coefficients, ``noise_sd`` and a numeric ``initial_effort`` are
    stored as finite floats, and ``noise_sd`` is non-negative; a field that
    is not raises `ConfigError` starting with its name.
    """

    b0: float
    b1: float
    b2: float
    noise_sd: float = 0.0
    initial_effort: float | str | None = None

    def __post_init__(self) -> None:
        names = ["b0", "b1", "b2", "noise_sd"]
        if self.initial_effort is not None and self.initial_effort != "uniform":
            names.append("initial_effort")
        for name in names:
            object.__setattr__(self, name, finite_float(name, getattr(self, name)))
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd: must be non-negative, got {self.noise_sd}")

    @classmethod
    def from_preset(cls, name: str, noise_sd: float = 0.0,
                    initial_effort: float | str | None = None) -> "EffortRule":
        if name not in EFFORT_PRESETS:
            known = ", ".join(sorted(EFFORT_PRESETS))
            raise ConfigError(f"preset: unknown effort preset {name!r}; known: {known}")
        b0, b1, b2 = EFFORT_PRESETS[name]
        return cls(b0=b0, b1=b1, b2=b2, noise_sd=noise_sd, initial_effort=initial_effort)


@dataclass(frozen=True)
class LinkRule:
    """Linking rule: which partners an agent initiates links to each period.

    A ``rank_top`` rule needs a non-negative integer ``k``, a ``logistic`` rule
    `LogisticCoefficients`, and a ``fixed_targets`` rule a row of distinct 0-based
    agent indices per agent, stored as tuples of ints (`GroupRules` checks them against
    n); a field that is not, or one its kind does not take, raises `ConfigError`."""

    kind: str
    k: int | None = None
    coefficients: LogisticCoefficients | None = None
    targets: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in LINK_RULE_FIELDS:
            known = ", ".join(LINK_RULE_FIELDS)
            raise ConfigError(f"kind: unknown link rule {self.kind!r} (known: {known})")
        for name in ("k", "coefficients", "targets"):
            if name not in LINK_RULE_FIELDS[self.kind] and (value := getattr(self, name)) is not None:
                raise ConfigError(f"{name}: a {self.kind} rule takes no {name}, got {value!r}")
        if self.kind == "rank_top" and not (is_int(self.k) and self.k >= 0):
            raise ConfigError(f"k: rank_top needs a non-negative integer cutoff k, got {self.k!r}")
        c, targets = self.coefficients, self.targets
        if self.kind == "logistic" and not isinstance(c, LogisticCoefficients):
            raise ConfigError(f"coefficients: expected LogisticCoefficients, got {c!r}")
        if self.kind == "fixed_targets":
            if not isinstance(targets, (tuple, list)):
                raise ConfigError(f"targets: expected one row per agent, got {targets!r}")
            for i, row in enumerate(targets):
                if not (isinstance(row, (tuple, list)) and all(is_int(j) and j >= 0 for j in row)):
                    raise ConfigError(f"targets[{i}]: expected non-negative integers, got {row!r}")
                if len(set(row)) != len(row):  # no IDs: files number them from 1, Python from 0
                    raise ConfigError(f"targets[{i}]: names an agent twice")
            object.__setattr__(self, "targets", tuple(tuple(map(int, row)) for row in targets))

    @classmethod
    def benefit_threshold(cls) -> "LinkRule":
        return cls(kind="benefit_threshold")

    @classmethod
    def best_response(cls) -> "LinkRule":
        return cls(kind="best_response")

    @classmethod
    def rank_top(cls, k: int) -> "LinkRule":
        return cls(kind="rank_top", k=k)

    @classmethod
    def logistic(cls, coefficients: LogisticCoefficients) -> "LinkRule":
        return cls(kind="logistic", coefficients=coefficients)


class AgentPolicy(NamedTuple):
    effort_rule: EffortRule
    link_rule: LinkRule


#: the fields of an effort rule, and the file keys of a link-rule kind besides its
#: `LINK_RULE_FIELDS`; a link rule gives one of its fields, so logistic has one source
EFFORT_FIELDS = ("preset", "b0", "b1", "b2", "noise_sd", "initial")
LINK_FIELDS = {"logistic": ("preset", "odds_ratios")}


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
    keys = (*LINK_RULE_FIELDS.get(kind, ()), *LINK_FIELDS.get(kind, ())) if isinstance(kind, str) else ()
    if not keys:  # a kind without fields, or an unknown kind, which the type names first
        rule = _checked(path, lambda: LinkRule(kind))
        _fields(obj, path, ("kind",))
        return rule
    _fields(obj, path, ("kind", *keys), *((key,) for key in keys))
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


class GroupRules:
    """The group's effort and linking rules as per-agent arrays, built once per session.

    Agents are grouped by link-rule kind, each group in agent order, so one
    batched draw over a group consumes the generator exactly as one draw per
    agent in agent order would.  A `ValueError` names the first agent whose
    `fixed_targets` rule does not give n rows, or whose own row names an
    index of n or more; `LinkRule` has checked the rest.
    """

    def __init__(self, policies: list[AgentPolicy]) -> None:
        n = len(policies)
        effort = [p.effort_rule for p in policies]
        self.b0, self.b1, self.b2, self.noise_sd = np.array(
            [(r.b0, r.b1, r.b2, r.noise_sd) for r in effort], dtype=float).T
        self.noisy = np.flatnonzero(self.noise_sd > 0)
        links = [p.link_rule for p in policies]
        kinds = np.array([r.kind for r in links])
        self.threshold = np.flatnonzero((kinds == "benefit_threshold") | (kinds == "best_response"))
        self.rank = np.flatnonzero(kinds == "rank_top")
        self.rank_k = np.array([min(links[i].k, n) for i in self.rank], dtype=np.intp)[:, None]
        self.logistic = np.flatnonzero(kinds == "logistic")
        coefs = [[getattr(links[i].coefficients, f) for f in LOGIT_FIELDS] for i in self.logistic]
        #: the `LOGIT_FIELDS`, each as a (logistic agents, 1) column
        self.logit = np.array(coefs, dtype=float).reshape(-1, 5).T[:, :, None]
        self.fixed = np.zeros((n, n), dtype=bool)
        for i in np.flatnonzero(kinds == "fixed_targets"):
            targets = links[i].targets
            if len(targets) != n or not all(j < n for j in targets[i]):
                raise ValueError(
                    f"agent {i}: fixed_targets needs {n} rows of indices in 0..{n - 1}, got {targets}"
                )
            self.fixed[i, list(targets[i])] = True


def effort_regressors(params: GameParams, efforts: np.ndarray, intents: np.ndarray) -> np.ndarray:
    """The effort rule's regressors, (..., n, 3), on (..., n) efforts and (..., n, n)
    intents: each agent's own effort, its best response to its neighbors' effort
    total in the realized network, and its non-neighbors' effort total."""
    x = np.asarray(efforts, dtype=float)
    s = neighbor_sums(realized_adjacency(intents), x)
    others = x.sum(axis=-1, keepdims=True) - x - s
    return np.stack([x, best_response(params, s), others], axis=-1)


# The generator annotations are strings: evaluated, they would load `numpy.random`,
# which NumPy imports lazily, into every process that imports this module.
def step_effort(
    rules: GroupRules,
    lagged_efforts: np.ndarray,
    lagged_intents: np.ndarray,
    params: GameParams,
    rngs: Sequence["np.random.Generator"],
) -> np.ndarray:
    """Every agent's effort update from the previous period's (R, n) efforts and
    (R, n, n) intents, clipped to the box; each replication's noisy agents draw
    their shocks from its own generator in ``rngs`` in one draw, in agent order."""
    own, br, others = np.moveaxis(effort_regressors(params, lagged_efforts, lagged_intents), -1, 0)
    value = rules.b0 * own + rules.b1 * br + rules.b2 * others
    if rules.noisy.size:
        shocks = np.stack([g.standard_normal(rules.noisy.size) for g in rngs])
        # the draws and sums of rng.normal(0.0, sd), without its broadcasting cost
        value[..., rules.noisy] += 0.0 + rules.noise_sd[rules.noisy] * shocks
    return np.clip(value, params.effort_min, params.effort_max)


def _rank_band(n: int) -> tuple[int, int]:
    """(highest above-band rank, lowest below-band rank) around the middle band."""
    if n == 9:
        return 3, 7
    if n % 2 == 1:
        mid = (n + 1) // 2
        return mid - 1, mid + 1
    return n // 2 - 1, n // 2 + 2


def _effort_ranks(lagged_efforts: np.ndarray) -> np.ndarray:
    """Competition ranks within each group (last axis): 1 + number of strictly higher efforts."""
    x = np.asarray(lagged_efforts)
    return 1 + (x[..., None, :] > x[..., :, None]).sum(axis=-1)


def step_links(
    rules: GroupRules,
    lagged_efforts: np.ndarray,
    lagged_intents: np.ndarray | None,
    params: GameParams,
    rngs: Sequence["np.random.Generator"],
) -> np.ndarray:
    """Every agent's intent row from the previous period's (R, n) efforts and
    (R, n, n) intents; each replication's logistic agents draw their rows from
    its own generator in ``rngs`` in one uniform draw, in agent order.

    ``lagged_intents`` None is the period-1 cold start: threshold, rank and
    fixed rules read the initial efforts, and the logistic rule falls back
    to intercept-only probabilities.
    """
    n = params.n
    x = np.asarray(lagged_efforts, dtype=float)
    out = np.zeros((*x.shape, n), dtype=bool)
    cols = x[..., None, :]  # each agent's row of partner efforts
    if rules.threshold.size:
        out[..., rules.threshold, :] = link_benefit(params, x[..., rules.threshold, None], cols) > 0
    if rules.rank.size:
        # position of each agent in the order (-effort, index); agent i targets
        # the first k others in that order, skipping its own position
        pos = np.argsort(effort_order(x), axis=-1)
        own = pos[..., rules.rank, None]
        pos = pos[..., None, :]
        out[..., rules.rank, :] = pos - (own < pos) < rules.rank_k
    if rules.logistic.size:
        c = rules.logit
        # huge coefficients overflow to a saturated probability; a NaN logit never links
        with np.errstate(over="ignore", invalid="ignore"):
            logits = c[0]
            if lagged_intents is not None:
                ranks = _effort_ranks(x)[..., None, :]
                above_max, below_min = _rank_band(n)
                logits = (
                    logits
                    + c[1] * lagged_intents[..., rules.logistic, :].astype(float)
                    + c[2] * cols
                    + c[3] * (ranks <= above_max)
                    + c[4] * (ranks >= below_min)
                )
            probs = 1.0 / (1.0 + np.exp(-logits))
        draws = np.stack([g.random((rules.logistic.size, n)) for g in rngs])
        out[..., rules.logistic, :] = draws < probs
    out |= rules.fixed
    diagonal = np.arange(n)
    out[..., diagonal, diagonal] = False
    return out


def _initial_effort(rule: EffortRule, params: GameParams, rng: "np.random.Generator") -> float:
    spec = rule.initial_effort
    if spec is None:
        return float(best_response(params, 0.0))
    if spec == "uniform":
        return float(rng.uniform(params.effort_min, params.effort_max))
    return float(np.clip(spec, params.effort_min, params.effort_max))


def _normalize_policies(params: GameParams, policies) -> list[AgentPolicy]:
    if isinstance(policies, AgentPolicy):
        return [policies] * params.n
    policies = list(policies)
    if len(policies) != params.n:
        raise DimensionMismatchError(
            f"got {len(policies)} policies for n={params.n} agents"
        )
    return policies


def _lockstep(
    params: GameParams, policies, T: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Efforts (R, T, n) and intents (R, T, n, n) of one session per seed, all
    R stepped together on (R, n) efforts and (R, n, n) intents.

    Session r draws from its own ``Philox(seeds[r])`` stream in the order it
    would alone: initial efforts, cold-start links, then each period's
    effort noise and link draws.  So no session depends on the others.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    policy_list = _normalize_policies(params, policies)
    rules = GroupRules(policy_list)
    n = params.n
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]

    # period-major, so that each period's (R, ...) block is contiguous
    intents = np.zeros((T, len(rngs), n, n), dtype=bool)
    efforts = np.zeros((T, len(rngs), n), dtype=float)

    efforts[0] = [[_initial_effort(p.effort_rule, params, g) for p in policy_list] for g in rngs]
    intents[0] = step_links(rules, efforts[0], None, params, rngs)

    for t in range(1, T):
        efforts[t] = step_effort(rules, efforts[t - 1], intents[t - 1], params, rngs)
        intents[t] = step_links(rules, efforts[t - 1], intents[t - 1], params, rngs)

    # replication-major copies, so that each record's arrays are contiguous
    return tuple(np.ascontiguousarray(a.swapaxes(0, 1)) for a in (efforts, intents))


def run_session(
    params: GameParams,
    policies,
    T: int,
    seed: int,
    session_id: str | None = None,
) -> SessionRecord:
    """Simulate one group for T periods; deterministic given the seed.

    ``policies`` is either one AgentPolicy shared by all agents or a
    per-agent sequence.  Period 1 uses the cold-start rules; later periods
    apply the effort and linking rules to the previous period's state,
    simultaneously for all agents.  `batch_run` gives the same record for
    the replication that runs with this seed.
    """
    efforts, intents = _lockstep(params, policies, T, [seed])
    session_id = session_id if session_id is not None else f"s{seed}"
    return SessionRecord(session_id, params, seed, intents=intents[0], efforts=efforts[0])


def batch_run(
    params: GameParams,
    policies,
    T: int,
    replications: int,
    base_seed: int,
) -> list[SessionRecord]:
    """Independent replications, stepped in lockstep; replication r runs with
    seed base_seed + r and is the record `run_session` makes with that seed."""
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    seeds = range(base_seed, base_seed + replications)
    efforts, intents = _lockstep(params, policies, T, seeds)
    return [
        SessionRecord(f"s{seed}", params, seed, intents=intents[r], efforts=efforts[r])
        for r, seed in enumerate(seeds)
    ]
