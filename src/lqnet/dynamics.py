"""Agent-based simulator of the repeated effort-and-linking game.

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
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionMismatchError, LqnetError
from .model import GameParams, Network, best_response, payoff_components

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
    """

    intercept: float
    lagged_link: float = 0.0
    partner_effort: float = 0.0
    above_median: float = 0.0
    below_median: float = 0.0


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

LINK_RULE_KINDS = (
    "best_response",
    "benefit_threshold",
    "rank_top",
    "logistic",
    "fixed_targets",
)


@dataclass(frozen=True)
class EffortRule:
    """Coefficients of the effort-adjustment rule plus the cold-start spec.

    ``initial_effort`` may be a number (constant start), the string
    "uniform" (uniform draw over the effort box), or None for the
    empty-network best response theta/beta.
    """

    b0: float
    b1: float
    b2: float
    noise_sd: float = 0.0
    initial_effort: float | str | None = None

    def __post_init__(self) -> None:
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {self.noise_sd}")
        if isinstance(self.initial_effort, str) and self.initial_effort != "uniform":
            raise ValueError(
                f"initial_effort must be a number, 'uniform' or None, got "
                f"{self.initial_effort!r}"
            )

    @classmethod
    def from_preset(cls, name: str, noise_sd: float = 0.0,
                    initial_effort: float | str | None = None) -> "EffortRule":
        if name not in EFFORT_PRESETS:
            known = ", ".join(sorted(EFFORT_PRESETS))
            raise LqnetError(f"unknown effort preset {name!r}; known: {known}")
        b0, b1, b2 = EFFORT_PRESETS[name]
        return cls(b0=b0, b1=b1, b2=b2, noise_sd=noise_sd, initial_effort=initial_effort)

    @classmethod
    def myopic_best_response(cls, noise_sd: float = 0.0) -> "EffortRule":
        return cls(b0=0.0, b1=1.0, b2=0.0, noise_sd=noise_sd)


@dataclass(frozen=True)
class LinkRule:
    """Linking rule: which partners an agent initiates links to each period."""

    kind: str
    k: int | None = None
    coefficients: LogisticCoefficients | None = None
    targets: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in LINK_RULE_KINDS:
            raise ValueError(f"unknown link rule kind {self.kind!r}")
        if self.kind == "rank_top" and (self.k is None or self.k < 0):
            raise ValueError("rank_top needs a non-negative cutoff k")
        if self.kind == "logistic" and self.coefficients is None:
            raise ValueError("logistic rule needs coefficients")
        if self.kind == "fixed_targets" and self.targets is None:
            raise ValueError("fixed_targets rule needs per-agent targets")

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

    @classmethod
    def fixed(cls, network: Network) -> "LinkRule":
        """Freeze the realized network: every agent initiates to its neighbors."""
        targets = tuple(
            tuple(int(j) for j in np.nonzero(network.adjacency[i])[0])
            for i in range(network.n)
        )
        return cls(kind="fixed_targets", targets=targets)


@dataclass(frozen=True)
class AgentPolicy:
    effort_rule: EffortRule
    link_rule: LinkRule


@dataclass(frozen=True, eq=False)
class SessionRecord:
    """Per-period decisions and outcomes for one group over T periods.

    Arrays are indexed [period, agent(, agent)]; payoff columns are
    (own_benefit, effort_cost, spillover, link_cost, total).
    """

    session_id: str
    params: GameParams
    T: int
    seed: int
    intents: np.ndarray
    networks: np.ndarray
    efforts: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.params.n
        expect = {
            "intents": (self.T, n, n),
            "networks": (self.T, n, n),
            "efforts": (self.T, n),
            "payoffs": (self.T, n, 5),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected {shape}")
            arr.setflags(write=False)
        realized = self.intents | self.intents.transpose(0, 2, 1)
        if not np.array_equal(realized, self.networks):
            raise LqnetError("stored networks do not match realization of stored intents")

    @property
    def n(self) -> int:
        return self.params.n

    def network_at(self, period: int) -> Network:
        """1-based period accessor."""
        return Network(self.networks[period - 1])


def _logistic(z: float) -> float:
    """1 / (1 + e^-z), and 0 where e^-z overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


class GroupRules:
    """The group's effort and linking rules as per-agent arrays, built once per session.

    Agents are grouped by link-rule kind, each group in agent order, so one
    batched draw over a group consumes the generator exactly as one draw per
    agent in agent order would.
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
        coefs = [links[i].coefficients for i in self.logistic]
        #: the five `LogisticCoefficients` fields, each as a (logistic agents, 1) column
        self.logit = np.array([astuple(c) for c in coefs], dtype=float).reshape(-1, 5).T[:, :, None]
        #: period-1 intercept-only probabilities, one per logistic agent
        self.cold_p = np.array([_logistic(c.intercept) for c in coefs]).reshape(-1, 1)
        self.fixed = np.zeros((n, n), dtype=bool)
        for i in np.flatnonzero(kinds == "fixed_targets"):
            self.fixed[i, list(links[i].targets[i])] = True


def step_effort(
    rules: GroupRules,
    own_lag: np.ndarray,
    neighbor_lag_sum: np.ndarray,
    non_neighbor_lag_sum: np.ndarray,
    params: GameParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Every agent's effort update from the previous period's state, clipped to the box.

    The noisy agents' shocks come from one draw, in agent order.
    """
    value = (
        rules.b0 * own_lag
        + rules.b1 * best_response(params, neighbor_lag_sum)
        + rules.b2 * non_neighbor_lag_sum
    )
    if rules.noisy.size:
        if rng is None:
            raise ValueError("noise_sd > 0 requires a random generator")
        # the draws and sums of rng.normal(0.0, sd), without its broadcasting cost
        value[rules.noisy] += 0.0 + rules.noise_sd[rules.noisy] * rng.standard_normal(rules.noisy.size)
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
    """Competition ranks within the group: 1 + number of strictly higher efforts."""
    x = np.asarray(lagged_efforts)
    return 1 + (x[None, :] > x[:, None]).sum(axis=1)


def step_links(
    rules: GroupRules,
    lagged_efforts: np.ndarray,
    lagged_intents: np.ndarray | None,
    params: GameParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Every agent's intent row computed from the previous period's state.

    ``lagged_intents`` None is the period-1 cold start: threshold, rank and
    fixed rules read the initial efforts, and the logistic rule falls back
    to intercept-only probabilities.  The logistic agents' rows come from
    one uniform draw, in agent order.
    """
    n = params.n
    x = np.asarray(lagged_efforts, dtype=float)
    out = np.zeros((n, n), dtype=bool)
    if rules.threshold.size:
        out[rules.threshold] = np.multiply.outer(params.lam * x[rules.threshold], x) - params.kappa > 0
    if rules.rank.size:
        # position of each agent in the order (-effort, index); agent i targets
        # the first k others in that order, skipping its own position
        pos = np.empty(n, dtype=np.intp)
        pos[np.lexsort((np.arange(n), -x))] = np.arange(n)
        own = pos[rules.rank][:, None]
        out[rules.rank] = pos - (own < pos) < rules.rank_k
    if rules.logistic.size:
        if rng is None:
            raise ValueError("logistic link rule requires a random generator")
        if lagged_intents is None:
            probs = rules.cold_p
        else:
            c = rules.logit
            ranks = _effort_ranks(x)
            above_max, below_min = _rank_band(n)
            # huge coefficients overflow to a saturated probability; a NaN logit never links
            with np.errstate(over="ignore", invalid="ignore"):
                logits = (
                    c[0]
                    + c[1] * lagged_intents[rules.logistic].astype(float)
                    + c[2] * x
                    + c[3] * (ranks <= above_max)
                    + c[4] * (ranks >= below_min)
                )
                probs = 1.0 / (1.0 + np.exp(-logits))
        out[rules.logistic] = rng.random((rules.logistic.size, n)) < probs
    out |= rules.fixed
    np.fill_diagonal(out, False)
    return out


def _initial_effort(rule: EffortRule, params: GameParams, rng: np.random.Generator) -> float:
    spec = rule.initial_effort
    if spec is None:
        return params.theta / params.beta
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
    simultaneously for all agents.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    policy_list = _normalize_policies(params, policies)
    rules = GroupRules(policy_list)
    n = params.n
    rng = np.random.Generator(np.random.Philox(seed))

    intents = np.zeros((T, n, n), dtype=bool)
    efforts = np.zeros((T, n), dtype=float)

    efforts[0] = [_initial_effort(p.effort_rule, params, rng) for p in policy_list]
    intents[0] = step_links(rules, efforts[0], None, params, rng)

    for t in range(1, T):
        prev_adj = intents[t - 1] | intents[t - 1].T
        prev_x = efforts[t - 1]
        neighbor_sums = prev_adj @ prev_x
        non_neighbor_sums = prev_x.sum() - prev_x - neighbor_sums
        efforts[t] = step_effort(rules, prev_x, neighbor_sums, non_neighbor_sums, params, rng)
        intents[t] = step_links(rules, prev_x, intents[t - 1], params, rng)

    return SessionRecord(
        session_id=session_id if session_id is not None else f"s{seed}",
        params=params,
        T=T,
        seed=seed,
        intents=intents,
        networks=intents | intents.transpose(0, 2, 1),
        efforts=efforts,
        payoffs=payoff_components(params, efforts, intents),
    )


def batch_run(
    params: GameParams,
    policies,
    T: int,
    replications: int,
    base_seed: int,
) -> list[SessionRecord]:
    """Independent replications; replication r runs with seed base_seed + r."""
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    return [
        run_session(params, policies, T, base_seed + r, session_id=f"s{base_seed + r}")
        for r in range(replications)
    ]


def replay_payoffs(record: SessionRecord) -> np.ndarray:
    """Recompute every period's payoff components from the stored decisions."""
    return payoff_components(record.params, record.efforts, record.intents)
