"""Cold-CLI benchmark of lqnet with per-layer timings from a traced run.

Run from the root of a checkout:

    python3 lqbench/run.py --workload support-n5 --seed 1 --seconds 40 --trace 0

``--trace 0`` times each CLI call of the workload as a cold subprocess and
prints the end-to-end metrics, adjusted for the machine's speed (see
`calibrate`).  ``--trace 1`` runs one cold round for
reference, then the same calls in this process through ``lqnet.cli.main``,
untraced and traced in turn, and prints the per-layer metrics.  Every
output is checked by `checks`.  The last stdout line is the result object;
the line before it records the environment and a per-subcommand breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer
import workloads
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(".lqbench_work")
#: `calibrate`'s time at the reference speed: an end-to-end time is reported
#: in seconds on a machine where the calibration loop takes this long
CALIBRATION_REF_S = 0.030

ENV_PROBE = """
import json, platform, numpy, lqnet.cli, lqnet.kernels
try:
    import numba
    has_numba = True
except ImportError:
    has_numba = False
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "numba_importable": has_numba, "backend": lqnet.kernels.backend_name()}))
"""


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _spawn(cmd: list[str], stem: Path) -> tuple[int, bytes, float, int]:
    """Run one cold subprocess; returns (exit code, stdout, wall s, max RSS KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(Path(f"{stem}.err").read_text()[-2000:])
    return proc.returncode, Path(f"{stem}.out").read_bytes(), wall, usage.ru_maxrss


def calibrate() -> float:
    """Time a fixed pure-Python loop, as a measure of the machine's current speed.

    On a shared host the speed of every process drifts by a quarter over
    minutes, and a cold call slows with it.  The loop runs in this process and
    touches no lqnet code, so no change to the program moves it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    return time.perf_counter() - start


class Ledger:
    """Operation counts and the reference stdout every round must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: list[bytes | None] | None = None

    def compare(self, outputs: list[bytes | None], source: str) -> None:
        if self.reference is None:
            self.reference = outputs
            return
        if len(outputs) != len(self.reference):
            raise CheckError(f"{source}: {len(outputs)} calls, reference round made "
                             f"{len(self.reference)}")
        for k, (ref, out) in enumerate(zip(self.reference, outputs)):
            if ref is not None and out is not None and ref != out:
                raise CheckError(f"{source}: stdout of call {k + 1} differs from the reference round")


class Runner:
    """Issues a workload's CLI calls; subclasses decide how a call runs."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.outputs: list[bytes | None] = []

    def call(self, kind: str, argv: list[str]) -> str | None:
        self.ledger.attempted += 1
        out = self.execute(len(self.outputs), kind, argv)
        if out is None:
            self.ledger.failed += 1
        self.outputs.append(out)
        return None if out is None else out.decode()

    def round(self, workload, source: str) -> None:
        self.outputs = []
        workload.round(self.call)
        self.ledger.compare(self.outputs, source)


class ColdRunner(Runner):
    """Each call is a fresh ``python -m lqnet.cli`` process, timed from spawn to exit.

    Every process is bracketed by `calibrate` runs.  Its wall time is kept
    raw and adjusted: scaled by ``CALIBRATION_REF_S`` over the mean of the
    two calibration times around it.
    """

    def __init__(self, ledger: Ledger, work: Path) -> None:
        super().__init__(ledger)
        self.work = work
        self.walls: dict[int, list[float]] = defaultdict(list)
        self.raw_walls: dict[int, list[float]] = defaultdict(list)
        self.kinds: dict[int, str] = {}
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.calibrations = [calibrate()]
        self.max_rss_kib = 0

    def _spawn(self, cmd: list[str], stem: Path) -> tuple[int, bytes, float, float]:
        """Run one cold process; returns (exit code, stdout, raw wall s, adjusted wall s)."""
        rc, out, wall, rss = _spawn(cmd, stem)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        self.calibrations.append(calibrate())
        speed = (self.calibrations[-2] + self.calibrations[-1]) / 2
        return rc, out, wall, wall * CALIBRATION_REF_S / speed

    def execute(self, index: int, kind: str, argv: list[str]) -> bytes | None:
        rc, out, wall, adjusted = self._spawn(
            [sys.executable, "-m", "lqnet.cli", *argv], self.work / "call")
        if rc != 0:
            return None
        self.raw_walls[index].append(wall)
        self.walls[index].append(adjusted)
        self.kinds[index] = kind
        return out

    def time_setup(self) -> None:
        """One cold ``import lqnet.cli``: interpreter, numpy, yaml and lqnet imports."""
        self.ledger.attempted += 1
        rc, _, wall, adjusted = self._spawn(
            [sys.executable, "-c", "import lqnet.cli"], self.work / "setup")
        if rc != 0:
            self.ledger.failed += 1
        else:
            self.raw_setup.append(wall)
            self.setup.append(adjusted)

    def medians(self, kind: str | None = None, raw: bool = False) -> list[float]:
        walls = self.raw_walls if raw else self.walls
        return [statistics.median(w) for k, w in sorted(walls.items())
                if kind is None or self.kinds[k] == kind]


class InProcessRunner(Runner):
    """Each call is ``lqnet.cli.main(argv)`` in this process, with the
    program's caches emptied first so that it does the work of a cold call."""

    def __init__(self, ledger: Ledger) -> None:
        super().__init__(ledger)
        self.cli = importlib.import_module("lqnet.cli")
        self.caches = [
            value.cache_clear
            for name, mod in list(sys.modules.items())
            if name.startswith("lqnet")
            for value in vars(mod).values()
            if hasattr(value, "cache_clear")
        ]
        self.tracer: tracer.Tracer | None = None
        self.busy = 0.0

    def execute(self, index: int, kind: str, argv: list[str]) -> bytes | None:
        for clear in self.caches:
            clear()
        if self.tracer is not None:
            self.tracer.new_process()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed call, as it is from the shell
            traceback.print_exc()
            rc = 1
        self.busy += time.perf_counter() - start
        return buf.getvalue().encode() if rc == 0 else None


def _environment(work: Path, nproc: int) -> dict:
    rc, out, _, _ = _spawn([sys.executable, "-c", ENV_PROBE], work / "probe")
    if rc != 0:
        raise RuntimeError("cannot import lqnet from src/")
    env = json.loads(out)
    env.update(nproc=nproc, pinned_cpu=min(os.sched_getaffinity(0)), cpu=_cpu_model())
    return env


def _repeat(seconds: float, body) -> int:
    """Run ``body`` at least once, and again while another run fits in ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    count = 0
    while True:
        began = time.perf_counter()
        body()
        count += 1
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return count


def timed_run(workload, seconds: float, work: Path) -> tuple[dict, dict]:
    ledger = Ledger()
    runner = ColdRunner(ledger, work)

    def one_round() -> None:
        for _ in range(workload.setup_per_round):
            runner.time_setup()
        runner.round(workload, "cold round")

    rounds = _repeat(seconds, one_round)
    metrics = {
        "setup_s": (statistics.median(runner.setup), "s"),
        "round_s": (sum(runner.medians()), "s"),
        "peak_rss_mb": (runner.max_rss_kib / 1024, "MB"),
    }
    subcommands = {}
    for kind in ("thresholds", "enumerate", "simulate", "analyze"):
        if runner.medians(kind):
            subcommands[f"{kind}_s"] = sum(runner.medians(kind))
    queries = [w for k, ws in runner.walls.items() if runner.kinds[k] == "query" for w in ws]
    if queries:
        subcommands["query_s"] = statistics.median(queries)
    detail = {
        "rounds": rounds,
        "setup_samples": len(runner.setup),
        "subcommands_s": subcommands,
        "calibration_s": statistics.median(runner.calibrations),
        "raw_wall_s": {"setup_s": statistics.median(runner.raw_setup),
                       "round_s": sum(runner.medians(raw=True))},
    }
    return _result(ledger, metrics), detail


def traced_run(workload, seconds: float, work: Path) -> tuple[dict, dict]:
    ledger = Ledger()
    start = time.perf_counter()
    ColdRunner(ledger, work).round(workload, "cold reference round")
    sys.path.insert(0, str(SRC))
    runner = InProcessRunner(ledger)
    untraced: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    inclusive: list[dict] = []

    def one_pair() -> None:
        runner.tracer, runner.busy = None, 0.0
        runner.round(workload, "untraced in-process round")
        untraced.append(runner.busy)
        rec = tracer.Tracer()
        runner.tracer, runner.busy = rec, 0.0
        rec.install()
        try:
            runner.round(workload, "traced in-process round")
        finally:
            rec.uninstall()
        traced.append(runner.busy)
        passes.append(rec.metrics())
        inclusive.append(rec.inclusive_times())

    pairs = _repeat(seconds - (time.perf_counter() - start), one_pair)
    units = tracer.layer_metric_names()
    metrics = {}
    for name, unit in units.items():
        values = [p[name] for p in passes]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) == 1:
            metrics[name] = (values[0], unit)
        else:
            raise CheckError(f"trace: {name} differs between traced rounds: {values}")
    metrics["inprocess.untraced_s"] = (statistics.median(untraced), "s")
    metrics["inprocess.traced_s"] = (statistics.median(traced), "s")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    detail = {
        "traced_rounds": pairs,
        "trace_overhead": overhead,
        "inclusive_s": {k: statistics.median(p[k] for p in inclusive) for k in inclusive[0]},
    }
    return _result(ledger, metrics), detail


def _result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lqnet" / "cli.py").is_file():
        print(f"error: no lqnet sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # one CPU for this process and every process it starts, so that
    # `calibrate` measures the CPU the timed processes run on
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still kills its running child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = _environment(work, nproc)
        workload = workloads.make_workload(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        try:
            result, detail = run(workload, args.seconds, work)
        except CheckError as exc:
            print(f"error: output check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": env, **detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
