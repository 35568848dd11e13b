"""Operation runner shared by the workloads.

An operation is one call into phinabla whose output the benchmark checks.
A pass runs every operation of a workload once; a run repeats passes in a
closed loop (one client, one process, no threads) until its time is up.
Each operation is timed alone, with the garbage collector run before it
and its output checked after the clock stops.

A shared host changes speed by half and more within seconds, much the
same for any CPU-bound code.  So a SpeedProbe times a fixed calibration
workload, which never calls phinabla, right before and right after each
operation and, for an operation run in this process, every
CALIBRATION_TIMER_S during it (from a timer signal, its time taken out of
the operation's).  Each operation's wall time is scaled by
CALIBRATION_REF_S / (mean of those calibration times): the seconds it
would take on a host where the calibration takes CALIBRATION_REF_S.
Set-up is scaled the same way.  Raw wall times are kept beside them.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
CALIBRATION_REF_S = 0.016
CALIBRATION_WARM_ROUNDS = 2
CALIBRATION_ROUNDS = 8
CALIBRATION_STALE_S = 0.25
CALIBRATION_TIMER_S = 0.5


@dataclass
class Op:
    """One checked call.  ``run`` takes no arguments and returns the output,
    ``check`` returns True when that output is correct.  ``defect`` names a
    known defect that this operation probes; such an operation is expected
    to fail until the defect is fixed."""
    name: str
    stage: str
    run: object
    check: object
    defect: str | None = None


@dataclass
class Tally:
    times: dict = field(default_factory=dict)    # op name -> [ref. seconds]
    wall: dict = field(default_factory=dict)     # op name -> [wall seconds]
    attempted: int = 0
    failures: list = field(default_factory=list)  # (op name, defect, detail)
    passes: int = 0

    @property
    def failed(self):
        return len(self.failures)

    @property
    def unexpected_failures(self):
        return [f for f in self.failures if f[1] is None]


def rank(rows):
    """Rank of a rational matrix by plain Gauss-Jordan elimination; shares
    no code with phinabla."""
    R = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(R[0]) if R else 0):
        piv = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        r += 1
    return r


def _calibration_seconds():
    """Time of a fixed Fraction elimination, the kind of pure-Python work
    phinabla does.  Two untimed rounds first refill the caches that the
    operation before it (or a CLI child) may have emptied, so the time
    tracks the host's speed rather than the operation's memory use."""
    rng = random.Random(12345)
    matrices = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(9)] for _ in range(9)]
                for _ in range(CALIBRATION_WARM_ROUNDS + CALIBRATION_ROUNDS)]
    for M in matrices[:CALIBRATION_WARM_ROUNDS]:
        rank(M)
    start = time.perf_counter()
    for M in matrices[CALIBRATION_WARM_ROUNDS:]:
        rank(M)
    return time.perf_counter() - start


class SpeedProbe:
    """Calibration timings taken around and, when ``in_op``, during
    operations."""

    def __init__(self, in_op=True):
        self.samples = []
        self._last = None
        self._taken_at = float("-inf")
        self._in_op = in_op
        self._during = []
        self._paused = 0.0

    def fresh(self):
        self._last = _calibration_seconds()
        self._taken_at = time.perf_counter()
        self.samples.append(self._last)
        return self._last

    def level(self):
        """Calibration time now: the last sample unless it is stale."""
        if time.perf_counter() - self._taken_at > CALIBRATION_STALE_S:
            return self.fresh()
        return self._last

    def _on_timer(self, _signum, _frame):
        start = time.perf_counter()
        self._during.append(_calibration_seconds())
        self._paused += time.perf_counter() - start

    def start(self):
        """Begin sampling during an operation."""
        self._during, self._paused = [], 0.0
        if self._in_op:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_TIMER_S,
                             CALIBRATION_TIMER_S)

    def stop(self):
        """End sampling; returns (seconds the samples took, samples)."""
        if self._in_op:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += self._during
        return self._paused, self._during

    @staticmethod
    def scale(levels):
        """Wall to reference seconds, from calibration times taken around
        and during the timed interval."""
        return CALIBRATION_REF_S * len(levels) / sum(levels)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # cold calls read cached bytecode, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, timeout=120):
    """Run a Python child from the checkout root; returns CompletedProcess."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=timeout)


def child_seconds(code):
    """Seconds a fresh interpreter reports for ``code``, which must print
    one float as its last line."""
    proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace"))
    return float(proc.stdout.decode().split()[-1])


COLD_IMPORT = ("import time; t = time.perf_counter(); import phinabla, "
               "phinabla.cli; print(time.perf_counter() - t)")


def run_op(op, tally=None, tracer=None, probe=None):
    """Time one operation and check its output; returns (seconds, ok),
    in reference seconds when a probe is given.  A tracer, if given, is
    installed for the call only, not for the check."""
    before = probe.level() if probe is not None else None
    gc.collect()
    if tracer is not None:
        tracer.op = op.name
        tracer.install()
    error = None
    during = ()
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is recorded, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if probe is not None:
            paused, during = probe.stop()
            seconds -= paused
        if tracer is not None:
            tracer.remove()
    scale = (1.0 if probe is None
             else probe.scale([before, probe.level(), *during]))
    if error is None:
        try:
            if not op.check(out):
                error = "wrong output"
        except Exception as exc:  # a check that raises is a wrong output
            error = f"check raised {type(exc).__name__}: {exc}"
    if tally is not None:
        tally.times.setdefault(op.name, []).append(seconds * scale)
        tally.wall.setdefault(op.name, []).append(seconds)
        tally.attempted += 1
        if error is not None:
            tally.failures.append((op.name, op.defect, error))
    return seconds * scale, error is None


def run_pass(ops, tally, tracer=None, probe=None):
    total = 0.0
    for op in ops:
        total += run_op(op, tally, tracer, probe)[0]
    tally.passes += 1
    return total


def measure(ops, seconds, rng, probe):
    """Whole passes in seed-shuffled order for about ``seconds``: a pass
    starts only while at least half of a pass's time is left."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        run_pass(order, tally, probe=probe)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return tally


def timed_setup(build, warmup, probe):
    """Median over SETUP_REPEATS of: cold import of phinabla in a fresh
    interpreter + building the inputs + the warm-up.  Returns (ops,
    reference seconds, wall seconds)."""
    scaled, wall = [], []
    ops = None
    for _ in range(SETUP_REPEATS):
        before = probe.fresh()
        import_s = child_seconds(COLD_IMPORT)
        start = time.perf_counter()
        ops = build()
        warmup(ops)
        wall.append(import_s + time.perf_counter() - start)
        scaled.append(wall[-1] * probe.scale([before, probe.fresh()]))
    return ops, statistics.median(scaled), statistics.median(wall)


# ---------------------------------------------------------------------------
# statistics

def op_medians(times):
    """Median time of each operation over the passes of a run."""
    return {name: statistics.median(xs) for name, xs in times.items()}


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def percentile(xs, pct):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def stage_seconds(ops, medians):
    """Per-stage sum of the operations' median times."""
    out = {}
    for op in ops:
        out[op.stage] = out.get(op.stage, 0.0) + medians[op.name]
    return out


def peak_rss_mb(children=False):
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_info():
    from importlib.metadata import PackageNotFoundError, version
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0]}
    for pkg in ("sympy", "mpmath"):
        try:
            info[pkg] = version(pkg)
        except PackageNotFoundError:
            info[pkg] = None
    return info


def emit(correct, tally, metrics, units):
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
