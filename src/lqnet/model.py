"""Domain types and the payoff engine for the linear-quadratic link-formation game.

Each of N agents simultaneously picks an effort level and a set of group
members to initiate links to.  A link is realized when either endpoint
initiates it; only initiators pay the per-link cost.  Payoffs are
linear-quadratic in own effort with a bilinear spillover from realized
neighbors:

    pi_i = theta * x_i - (beta / 2) * x_i**2
           + lam * x_i * sum(x_k for k in neighbors(i))
           - kappa * (# links initiated by i)

Agent indices are 0-based throughout the package; file formats and CLI
output use 1-based IDs (see `session_io`).
"""

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError, LqnetError, UnknownTreatmentError

#: `GameParams` field behind each key of its mapping form; files spell lam "lambda"
PARAM_FIELDS = {
    "theta": "theta",
    "beta": "beta",
    "lambda": "lam",
    "kappa": "kappa",
    "n": "n",
    "effort_min": "effort_min",
    "effort_max": "effort_max",
}
PARAM_KEYS = tuple(PARAM_FIELDS)


@dataclass(frozen=True)
class GameParams:
    """Payoff parameters plus group size and the effort box.

    The theory allows unbounded effort; the box defaults to the
    experimental interface's [0, 20] and is configurable so the
    uncapped case can be approximated with a large `effort_max`.
    Every float field is stored as a finite float and ``n`` as an int; a
    field that is neither raises `ConfigError` starting with its key in
    `PARAM_KEYS` (``lambda`` for ``lam``), and so does the `ConfigError` of
    one out of range: ``lambda: must be positive, got 0.0``.
    """

    theta: float
    beta: float
    lam: float
    kappa: float
    n: int
    effort_min: float = 0.0
    effort_max: float = 20.0

    def __post_init__(self) -> None:
        for key, name in PARAM_FIELDS.items():
            raw = getattr(self, name)
            if name == "n":
                try:
                    value = operator.index(raw)
                except TypeError:
                    raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
            else:
                value = finite_float(key, raw)
            object.__setattr__(self, name, value)
        for key, valid, rule in (
            ("theta", self.theta > 0, "must be positive"),
            ("beta", self.beta > 0, "must be positive"),
            ("lambda", self.lam > 0, "must be positive"),
            ("kappa", self.kappa >= 0, "must be non-negative"),
            ("n", self.n >= 2, "must be at least 2"),
            ("effort_min", self.effort_min < self.effort_max, "must be below effort_max"),
        ):
            if not valid:
                raise ConfigError(f"{key}: {rule}, got {getattr(self, PARAM_FIELDS[key])}")

    def to_mapping(self) -> dict:
        """The parameters keyed by `PARAM_KEYS`, in that order."""
        return {key: getattr(self, name) for key, name in PARAM_FIELDS.items()}

    @classmethod
    def from_mapping(cls, obj) -> "GameParams":
        """Inverse of `to_mapping`; other keys are ignored.

        The effort box may be omitted and then takes its defaults.  Raises
        `ConfigError` whose message starts with the offending key.
        """
        if not isinstance(obj, Mapping):
            raise ConfigError(f"expected a mapping, got {type(obj).__name__}")
        for key, name in PARAM_FIELDS.items():
            if key not in obj and name not in ("effort_min", "effort_max"):
                raise ConfigError(f"{key}: required")
        return cls(**{name: obj[key] for key, name in PARAM_FIELDS.items() if key in obj})


def finite_float(key: str, raw) -> float:
    """``raw`` as a finite float; `ConfigError` starting with ``key`` otherwise."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python or NumPy, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _frozen_bool_matrix(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=bool, copy=True)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if out.shape[0] < 2:
        raise ValueError("group size must be at least 2")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class IntentProfile:
    """Directed link-initiation matrix g'; entry (i, j) means i initiates to j."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen_bool_matrix(self.matrix)
        if m.diagonal().any():
            raise ValueError("intent matrix must have a false diagonal")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "IntentProfile":
        m = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad intent pair ({i}, {j}) for n={n}")
            m[i, j] = True
        return cls(m)

    def pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.matrix))]


@dataclass(frozen=True, eq=False)
class Network:
    """Realized undirected graph: symmetric boolean adjacency, false diagonal."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen_bool_matrix(self.adjacency)
        if a.diagonal().any():
            raise ValueError("adjacency must have a false diagonal")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return [(int(a), int(b)) for a, b in zip(i, j)]

    def link_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    @classmethod
    def empty(cls, n: int) -> "Network":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "Network":
        a = np.ones((n, n), dtype=bool)
        np.fill_diagonal(a, False)
        return cls(a)

    @classmethod
    def star(cls, n: int, center: int = 0) -> "Network":
        a = np.zeros((n, n), dtype=bool)
        a[center, :] = True
        a[:, center] = True
        a[center, center] = False
        return cls(a)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Network":
        a = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j}) for n={n}")
            a[i, j] = a[j, i] = True
        return cls(a)


@dataclass(frozen=True, eq=False)
class EffortProfile:
    """Vector of effort levels, one per agent."""

    efforts: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.efforts, dtype=float, copy=True)
        if x.ndim != 1:
            raise ValueError(f"efforts must be a vector, got shape {x.shape}")
        x.setflags(write=False)
        object.__setattr__(self, "efforts", x)

    @property
    def n(self) -> int:
        return self.efforts.shape[0]


@dataclass(frozen=True)
class StrategyProfile:
    """Joint effort vector and intent profile; the object Nash quantifies over."""

    efforts: EffortProfile
    intents: IntentProfile

    def __post_init__(self) -> None:
        if self.efforts.n != self.intents.n:
            raise DimensionMismatchError(
                f"efforts have n={self.efforts.n} but intents have n={self.intents.n}"
            )

    @property
    def n(self) -> int:
        return self.efforts.n


class PayoffBreakdown(NamedTuple):
    """One agent's payoff split into its four terms."""

    own_benefit: float
    effort_cost: float
    spillover: float
    link_cost: float
    total: float


#: Bundled treatment presets, keyed by treatment name, in the mapping form of
#: `GameParams.from_mapping`:
#:
#: theta:  linear benefit coefficient of own effort
#: beta:   quadratic effort-cost coefficient
#: lambda: complementarity (spillover) coefficient
#: kappa:  cost per initiated link
#: n:      group size
#: equilibrium_networks: architectures documented as supportable as a Nash
#:   equilibrium under these parameters; `enumerate` does not read it, but
#:   decides support itself with the support search.
TREATMENT_PRESETS: dict[str, dict] = {
    "N5_LowCost": {
        "n": 5, "theta": 10.0, "beta": 4.0, "lambda": 0.4, "kappa": 1.0,
        "equilibrium_networks": ("Complete",),
    },
    "N5_HighCost": {
        "n": 5, "theta": 10.0, "beta": 4.0, "lambda": 0.4, "kappa": 3.9,
        "equilibrium_networks": ("Empty", "Star", "Complete"),
    },
    "N9_LowCost1": {
        "n": 9, "theta": 10.0, "beta": 4.0, "lambda": 0.25, "kappa": 1.0,
        "equilibrium_networks": ("Complete",),
    },
    "N9_LowCost2": {
        "n": 9, "theta": 10.0, "beta": 4.0, "lambda": 0.4, "kappa": 1.0,
        "equilibrium_networks": ("Complete",),
    },
    "N9_HighCost": {
        "n": 9, "theta": 10.0, "beta": 4.0, "lambda": 0.25, "kappa": 2.5,
        "equilibrium_networks": ("Empty", "Star", "Complete"),
    },
}


class Treatment(NamedTuple):
    """Named parameterization bundled with its equilibrium architectures."""

    name: str
    params: GameParams
    equilibrium_networks: tuple[str, ...]


@lru_cache(maxsize=1)
def treatments() -> dict[str, Treatment]:
    """`TREATMENT_PRESETS` as validated `Treatment`s, keyed by name."""
    return {
        name: Treatment(
            name=name,
            params=GameParams.from_mapping(cfg),
            equilibrium_networks=cfg["equilibrium_networks"],
        )
        for name, cfg in TREATMENT_PRESETS.items()
    }


def get_treatment(name: str) -> Treatment:
    try:
        return treatments()[name]
    except KeyError:
        known = ", ".join(sorted(treatments()))
        raise UnknownTreatmentError(f"unknown treatment {name!r}; known: {known}") from None


def realized_adjacency(intents: np.ndarray) -> np.ndarray:
    """Adjacency realized by (..., N, N) intents: a link exists if either side initiates it."""
    return intents | np.swapaxes(intents, -1, -2)


def neighbor_sums(adjacency: np.ndarray, efforts: np.ndarray) -> np.ndarray:
    """Each agent's neighbor-effort total, for (..., N, N) adjacency and (..., N) efforts."""
    return (adjacency @ efforts[..., None])[..., 0]


def realize_network(intents: IntentProfile) -> Network:
    """Realize the undirected network: a link exists if either side initiates it."""
    return Network(realized_adjacency(intents.matrix))


def best_response(params: GameParams, s):
    """Optimal own effort against neighbor-effort total(s) ``s``, clipped to the box.

    Own payoff is strictly concave in own effort, so this maximizes
    `br_payoff` over the box; it works elementwise on arrays.
    """
    return np.clip((params.theta + params.lam * s) / params.beta, params.effort_min, params.effort_max)


def br_payoff(params: GameParams, x, s):
    """Gross payoff ``theta x - beta/2 x^2 + lam x s`` of effort(s) ``x`` against
    neighbor-effort total(s) ``s``, before link costs."""
    return params.theta * x - 0.5 * params.beta * x * x + params.lam * x * s


def br_value(params: GameParams, s):
    """Best-reply value ``V(s)``: the gross payoff of `best_response` to
    neighbor-effort total(s) ``s``.  A maximum of functions affine in s, so
    convex in s; works elementwise on arrays."""
    return br_payoff(params, best_response(params, s), s)


def link_benefit(params: GameParams, x_i, x_j):
    """Net gain ``lam x_i x_j - kappa`` of link {i, j} at the given efforts, to its
    payer; works elementwise on arrays."""
    return params.lam * x_i * x_j - params.kappa


def effort_order(efforts: np.ndarray) -> np.ndarray:
    """Agent indices by higher effort, then lower index, along the last axis
    of (..., N) efforts."""
    return np.argsort(-np.asarray(efforts), axis=-1, kind="stable")


def check_size(params: GameParams, n: int, what: str) -> None:
    """`DimensionMismatchError` unless ``what``, of ``n`` agents, fits the group size."""
    if n != params.n:
        raise DimensionMismatchError(f"{what} has n={n}, params expect n={params.n}")


def check_params(have: GameParams, want: GameParams | None, where: str) -> None:
    """`LqnetError` naming the first key where ``where``'s params ``have`` differ from
    ``want``; with no ``want``, nothing to check."""
    if want is not None and have != want:
        a, b = have.to_mapping(), want.to_mapping()
        key = next(k for k in PARAM_KEYS if a[k] != b[k])
        raise LqnetError(f"{where}: params.{key} is {a[key]!r}, but the treatment has {b[key]!r}")


def payoff_components(
    params: GameParams, efforts: np.ndarray, intents_matrix: np.ndarray
) -> np.ndarray:
    """Vectorized per-agent payoff terms.

    Returns an (N, 5) array with columns
    (own_benefit, effort_cost, spillover, link_cost, total).  Stacked
    (..., N) efforts and (..., N, N) intents give (..., N, 5), each period
    with the same bits as its own call.
    """
    x = np.asarray(efforts, dtype=float)
    s = neighbor_sums(realized_adjacency(intents_matrix), x)
    own = params.theta * x
    cost = 0.5 * params.beta * x**2
    spill = params.lam * x * s
    links = params.kappa * intents_matrix.sum(axis=-1).astype(float)
    total = br_payoff(params, x, s) - links
    return np.stack([own, cost, spill, links, total], axis=-1)


def payoff(params: GameParams, profile: StrategyProfile, i: int) -> PayoffBreakdown:
    """Payoff breakdown for agent i under the realized network.

    Spillovers count all realized neighbors regardless of who sponsored the
    link; the link-cost term counts only i's own initiations.
    """
    check_size(params, profile.n, "profile")
    if not (0 <= i < params.n):
        raise IndexError(f"agent index {i} out of range for n={params.n}")
    comps = payoff_components(params, profile.efforts.efforts, profile.intents.matrix)
    own, cost, spill, links, total = (float(v) for v in comps[i])
    return PayoffBreakdown(
        own_benefit=own, effort_cost=cost, spillover=spill, link_cost=links, total=total
    )


def total_welfare(params: GameParams, profile: StrategyProfile) -> float:
    """Sum of all agents' payoffs; each link's cost enters once per initiation."""
    check_size(params, profile.n, "profile")
    comps = payoff_components(params, profile.efforts.efforts, profile.intents.matrix)
    return float(comps[:, 4].sum())
