"""Toolkit for linear-quadratic network games with unilateral link formation.

Compute equilibrium and welfare-efficient effort profiles on fixed
networks, verify and enumerate equilibrium networks by exhaustive
deviation search, simulate behavioral agents playing the repeated game,
and aggregate session records into the standard outcome metrics.
"""

from .model import (
    EffortProfile,
    GameParams,
    IntentProfile,
    Network,
    PayoffBreakdown,
    StrategyProfile,
    Treatment,
    best_response,
    get_treatment,
    link_benefit,
    payoff,
    realize_network,
    total_welfare,
    treatments,
)

__version__ = "0.1.0"

__all__ = [
    "EffortProfile",
    "GameParams",
    "IntentProfile",
    "Network",
    "PayoffBreakdown",
    "StrategyProfile",
    "Treatment",
    "best_response",
    "get_treatment",
    "link_benefit",
    "payoff",
    "realize_network",
    "total_welfare",
    "treatments",
    "__version__",
]
