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

from __future__ import annotations

import importlib.resources
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import yaml

from .errors import ConfigError, DimensionMismatchError, UnknownTreatmentError

#: Absolute tolerance for internal floating-point identities.
FLOAT_TOL = 1e-9
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
    """

    theta: float
    beta: float
    lam: float
    kappa: float
    n: int
    effort_min: float = 0.0
    effort_max: float = 20.0

    def __post_init__(self) -> None:
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be non-negative, got {self.kappa}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not self.effort_min < self.effort_max:
            raise ValueError("effort_min must be strictly below effort_max")

    def clip_effort(self, x: float | np.ndarray) -> float | np.ndarray:
        return np.clip(x, self.effort_min, self.effort_max)

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
        values: dict = {}
        for key, name in PARAM_FIELDS.items():
            if key not in obj:
                if name in ("effort_min", "effort_max"):
                    continue
                raise ConfigError(f"{key}: required")
            raw = obj[key]
            if name == "n":
                try:
                    values[name] = operator.index(raw)
                except TypeError:
                    raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
                continue
            values[name] = finite_float(key, raw)
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def finite_float(key: str, raw) -> float:
    """``raw`` as a finite float; `ConfigError` starting with ``key`` otherwise."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


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
    def none(cls, n: int) -> "IntentProfile":
        return cls(np.zeros((n, n), dtype=bool))

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

    def initiation_counts(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


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

    @classmethod
    def constant(cls, n: int, value: float) -> "EffortProfile":
        return cls(np.full(n, float(value)))


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


@dataclass(frozen=True)
class PayoffBreakdown:
    """One agent's payoff split into its four terms."""

    own_benefit: float
    effort_cost: float
    spillover: float
    link_cost: float
    total: float


@dataclass(frozen=True)
class Treatment:
    """Named parameterization bundled with its equilibrium architectures."""

    name: str
    params: GameParams
    equilibrium_networks: tuple[str, ...]


@lru_cache(maxsize=1)
def treatments() -> dict[str, Treatment]:
    """Bundled treatment presets, keyed by name."""
    text = (
        importlib.resources.files("lqnet.data").joinpath("treatments.yaml").read_text()
    )
    raw = yaml.safe_load(text)
    out: dict[str, Treatment] = {}
    for name, cfg in raw.items():
        out[name] = Treatment(
            name=name,
            params=GameParams.from_mapping(cfg),
            equilibrium_networks=tuple(cfg["equilibrium_networks"]),
        )
    return out


def get_treatment(name: str) -> Treatment:
    try:
        return treatments()[name]
    except KeyError:
        known = ", ".join(sorted(treatments()))
        raise UnknownTreatmentError(f"unknown treatment {name!r}; known: {known}") from None


def realize_network(intents: IntentProfile) -> Network:
    """Realize the undirected network: a link exists if either side initiates it."""
    m = intents.matrix
    return Network(m | m.T)


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


def link_benefit(params: GameParams, x_i: float, x_j: float) -> float:
    """Net gain of one endpoint from adding link {i, j} at the given efforts, to its payer."""
    return params.lam * x_i * x_j - params.kappa


def _check_dims(params: GameParams, profile: StrategyProfile) -> None:
    if profile.n != params.n:
        raise DimensionMismatchError(f"profile has n={profile.n}, params expect n={params.n}")


def payoff_components(
    params: GameParams, efforts: np.ndarray, intents_matrix: np.ndarray
) -> np.ndarray:
    """Vectorized per-agent payoff terms.

    Returns an (N, 5) array with columns
    (own_benefit, effort_cost, spillover, link_cost, total).  Stacked
    (..., N) efforts and (..., N, N) intents give (..., N, 5), each period
    with the same bits as its own call.
    """
    adjacency = intents_matrix | np.swapaxes(intents_matrix, -1, -2)
    x = np.asarray(efforts, dtype=float)
    neighbor_sums = (adjacency @ x[..., None])[..., 0]
    own = params.theta * x
    cost = 0.5 * params.beta * x**2
    spill = params.lam * x * neighbor_sums
    links = params.kappa * intents_matrix.sum(axis=-1).astype(float)
    total = own - cost + spill - links
    return np.stack([own, cost, spill, links, total], axis=-1)


def payoff(params: GameParams, profile: StrategyProfile, i: int) -> PayoffBreakdown:
    """Payoff breakdown for agent i under the realized network.

    Spillovers count all realized neighbors regardless of who sponsored the
    link; the link-cost term counts only i's own initiations.
    """
    _check_dims(params, profile)
    if not (0 <= i < params.n):
        raise IndexError(f"agent index {i} out of range for n={params.n}")
    comps = payoff_components(params, profile.efforts.efforts, profile.intents.matrix)
    own, cost, spill, links, total = (float(v) for v in comps[i])
    return PayoffBreakdown(
        own_benefit=own, effort_cost=cost, spillover=spill, link_cost=links, total=total
    )


def total_welfare(params: GameParams, profile: StrategyProfile) -> float:
    """Sum of all agents' payoffs; each link's cost enters once per initiation."""
    _check_dims(params, profile)
    comps = payoff_components(params, profile.efforts.efforts, profile.intents.matrix)
    return float(comps[:, 4].sum())
