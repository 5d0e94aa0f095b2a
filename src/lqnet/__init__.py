"""Toolkit for linear-quadratic network games with unilateral link formation.

Compute equilibrium and welfare-efficient effort profiles on fixed
networks, verify and enumerate equilibrium networks by exact
deviation search, simulate behavioral agents playing the repeated game,
and aggregate session records into the standard outcome metrics.

`model` and `errors` load with the package, `cli` on its own import.  The rest are lazy:
registered in ``sys.modules`` and as attributes, run when an attribute is first used, so
a command compiles only the modules it runs (a module imports ``from .x`` what it always needs).
"""

import importlib.util
import sys

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

_LAZY_SUBMODULES = ("analysis", "dynamics", "equilibria", "files", "kernels", "session_io",
                    "structure", "verifier")

for _name in _LAZY_SUBMODULES:  # a package attribute too, or ``from . import x`` runs it
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec

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
