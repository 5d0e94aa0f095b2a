"""Per-layer call counts, inclusive and self time for an in-process lqnet run.

The program has no tracing of its own, so `Tracer` wraps public functions
of its modules from outside.  A wrapper replaces the function in every
``lqnet`` module namespace that binds it (``nash_efforts`` is bound in
``equilibria``, ``verifier`` and ``analysis``), so calls made through any
of those names are seen.  Self time is a call's duration minus the time
of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

#: (module, function) pairs whose calls and self time are recorded
FUNCTIONS = (
    ("kernels", "deviation_scan"),
    ("kernels", "br_iteration"),
    ("equilibria", "nash_efforts"),
    ("equilibria", "spectral_radius"),
    ("equilibria", "balanced_sponsorship"),
    ("equilibria", "cost_thresholds"),
    ("equilibria", "efficient_efforts"),
    ("equilibria", "equilibrium_payoffs"),
    ("verifier", "ne_supportable"),
    ("verifier", "_stable_sponsor_sets"),
    ("verifier", "verify_nash"),
    ("verifier", "enumerate_ne_networks"),
    ("verifier", "graph_atlas"),
    ("verifier", "canonical_form"),
    ("dynamics", "run_session"),
    ("dynamics", "step_links"),
    ("dynamics", "step_effort"),
    ("session_io", "write_record"),
    ("session_io", "read_record"),
    ("analysis", "efficiency_report"),
    ("analysis", "frequency_report"),
    ("analysis", "link_diagnostics"),
    ("analysis", "treatment_summary"),
    ("structure", "architecture_distance"),
    ("structure", "stats"),
    ("structure", "classify"),
    ("model", "payoff_components"),
    ("cli", "main"),
)

#: counters with their units, filled from arguments and results
COUNTERS = {
    "kernels.deviation_scan.subsets": "count",
    "equilibria.nash_efforts.distinct_networks": "count",
    "equilibria.nash_efforts.br_path": "count",
    "verifier.ne_supportable.orientations": "count",
    "session_io.write_record.bytes": "bytes",
    "session_io.read_record.rows": "count",
    "model.Network.built": "count",
}


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names: dict[str, str] = {}
    for module, func in FUNCTIONS:
        names[f"{module}.{func}.calls"] = "count"
        names[f"{module}.{func}.self_s"] = "s"
    names.update(COUNTERS)
    return names


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_subsets(counts, args, kwargs, result) -> None:
    n = len(_arg(args, kwargs, 0, "efforts"))
    counts["kernels.deviation_scan.subsets"] += n * (1 << (n - 1))


class Tracer:
    """Records wrapped calls of the ``lqnet`` modules while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._networks: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def new_process(self) -> None:
        """Start a new CLI call: network repeats are counted per process."""
        self._networks = set()

    def _count_networks(self, counts, args, kwargs, result) -> None:
        p = _arg(args, kwargs, 0, "params")
        network = _arg(args, kwargs, 1, "network")
        # Nash efforts do not depend on the link cost, so kappa is not part of the key
        key = (p.theta, p.beta, p.lam, p.effort_min, p.effort_max, network.adjacency.tobytes())
        if key not in self._networks:
            self._networks.add(key)
            counts["equilibria.nash_efforts.distinct_networks"] += 1
        if result.iterations > 0:
            counts["equilibria.nash_efforts.br_path"] += 1

    def _wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "lqnet" or name.startswith("lqnet.")
        }
        hooks = {
            "kernels.deviation_scan": _count_subsets,
            "equilibria.nash_efforts": self._count_networks,
            "verifier.ne_supportable": lambda c, a, k, r: c.update(
                {"verifier.ne_supportable.orientations": r.orientations_tried}
            ),
            "session_io.write_record": lambda c, a, k, r: c.update(
                {"session_io.write_record.bytes": Path(r).stat().st_size
                 + Path(r).with_suffix(".json").stat().st_size}
            ),
            "session_io.read_record": lambda c, a, k, r: c.update(
                {"session_io.read_record.rows": r.T * r.n}
            ),
        }
        for module, func in FUNCTIONS:
            name = f"{module}.{func}"
            original = getattr(modules[f"lqnet.{module}"], func)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        network = modules["lqnet.model"].Network
        post_init = network.__post_init__

        def counted_post_init(obj) -> None:
            self.counts["model.Network.built"] += 1
            post_init(obj)

        self._restore.append((network, "__post_init__", post_init))
        network.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for one traced pass, keyed as `layer_metric_names`."""
        out: dict[str, float] = {}
        for module, func in FUNCTIONS:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = float(self.self_time[name])
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out

    def inclusive_times(self) -> dict[str, float]:
        return {f"{m}.{f}": self.inclusive[f"{m}.{f}"] for m, f in FUNCTIONS}
