"""Closed-loop pass runner with per-operation deadlines and failure accounting.

One client runs a workload's operations one after another.  Each operation
is timed from outside and its result is checked against an oracle outside
the timed region.  A failure is an exception, an oracle disagreement or a
missed deadline; all three count against ``attempted``.

After every operation, outside its timing, the runner also times a fixed
reference: a loop of Fraction and dict work, run in this process for
in-process operations and in a fresh interpreter, timed from outside, for
operations that start one.  The host this runs on changes speed by up to
2x, in phases from under a second to minutes (its other tenants come and
go), and the reference slows with it.  Each operation's time divided by
the reference's slowness (its time over its nominal time) varies far less
from run to run than the raw time.  On a shared 2-vCPU Xeon host, over
eight or nine 20 s windows, the spread of per-operation medians fell from
0.32-0.39 of the median to 0.02-0.05 for in-process operations, and from
0.11-0.13 to 0.03 for CLI subprocesses with the launched reference (the
in-process loop made that one worse, 0.15-0.19).  The gated times are
these normalised ones; the raw times are reported beside them.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def child_env() -> dict:
    """Environment of every child process: linfty from ``src``, string hashing pinned."""
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(REPO_DIR, "src"))


# Reference times on the nominal host that the normalised figures describe.
REFERENCE_LOOP_S = 0.02
REFERENCE_LAUNCH_S = 0.1


def reference_loop() -> float:
    """Slowness of the host: a fixed loop's time over ``REFERENCE_LOOP_S``.

    The collector is off inside, so the size of the workload's heap does
    not change the loop's time; only the speed of the host does.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 3000):
            total += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, 2)
            table[(i % 97, "x%d" % (i % 13))] = total
        return (time.perf_counter() - start) / REFERENCE_LOOP_S
    finally:
        gc.enable()


def reference_launch() -> float:
    """Slowness for operations that start an interpreter.

    A fresh interpreter runs the same loop; the launch is timed from
    outside, like such an operation, and divided by ``REFERENCE_LAUNCH_S``.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import harness; harness.reference_loop()"],
        cwd=BENCH_DIR, env=child_env(), check=True, capture_output=True, timeout=60,
    )
    return (time.perf_counter() - start) / REFERENCE_LAUNCH_S


class OpTimeout(Exception):
    """Raised inside an operation when its deadline passes."""


@dataclass
class Op:
    """One exact operation and its oracle.

    ``run(state)`` performs the timed call; ``state`` holds the results of
    earlier operations of the same pass, by name.  ``check(result, state)``
    returns ``None`` when the oracle agrees, or a message saying why not.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    reference: Callable[[], float] = reference_loop  # host slowness, timed after the operation


@dataclass
class Outcome:
    name: str
    seconds: float
    error: str | None = None  # None when the verdict was correct
    timed_out: bool = False


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)  # each operation's reference

    @property
    def batch_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def op_medians(passes: list[PassResult], normalised: bool = False) -> list[float]:
    """Each operation's median time over the passes, in pass order.

    Neighbours on a shared host slow everything for a second or so at a
    time; a per-operation median discards those phases better than the
    median of whole-pass sums, each of which usually contains one.  With
    ``normalised``, every sample is first divided by the slowness its
    reference measured right after it.
    """
    columns = zip(*(zip(p.outcomes, p.slowness) for p in passes))
    return [statistics.median(_seconds(o, r, normalised) for o, r in column) for column in columns]


def _seconds(outcome: Outcome, slowness: float, normalised: bool) -> float:
    return outcome.seconds / slowness if normalised else outcome.seconds


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(op: Op, state: dict, timeout_s: float, hook=None) -> Outcome:
    """Time one operation under a hard deadline, then check its verdict.

    ``hook``, if given, is a context-manager factory entered around the
    timed call only (the traced run uses it to switch profiling on).
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    start = time.perf_counter()
    try:
        if hook is None:
            result = op.run(state)
        else:
            with hook(op.name):
                result = op.run(state)
        seconds = time.perf_counter() - start
    except OpTimeout:
        return Outcome(op.name, time.perf_counter() - start, "timed out after %.1f s" % timeout_s, True)
    except Exception:  # any exception is a recorded failure, not a crash
        return Outcome(op.name, time.perf_counter() - start, traceback.format_exc(limit=3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    state[op.name] = result
    try:
        error = op.check(result, state)
    except Exception:
        error = "oracle raised:\n" + traceback.format_exc(limit=3)
    return Outcome(op.name, seconds, error)


def run_pass(ops: list[Op], timeout_s: float, deadline: float, hook=None) -> PassResult:
    """Run every operation once; each gets ``timeout_s`` but never past ``deadline``."""
    state: dict = {}
    result = PassResult()
    for op in ops:
        remaining = deadline - time.perf_counter()
        result.outcomes.append(run_op(op, state, min(timeout_s, remaining), hook))
        result.slowness.append(op.reference())
    return result


def run_passes(ops: list[Op], seconds: float, timeout_s: float, deadline: float) -> list[PassResult]:
    """Repeat whole passes until ``seconds`` of wall time are used (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() >= deadline:
            break
        passes.append(run_pass(ops, timeout_s, deadline))
    return passes


def summarize(passes: list[PassResult]) -> dict:
    """End-to-end figures over all passes of one run; ``*_norm_*`` are divided by the slowness."""
    samples = [(o, r) for p in passes for o, r in zip(p.outcomes, p.slowness)]
    failures = [o for o, _ in samples if o.error is not None]
    summary = {
        "passes": len(passes),
        "attempted": len(samples),
        "failed": len(failures),
        "wrong": sum(1 for o in failures if not o.timed_out),
        "timed_out": sum(1 for o in failures if o.timed_out),
        "error_rate": len(failures) / len(samples),
        "pass_batch_s": [round(p.batch_s, 4) for p in passes],
        "op_samples": len(samples),
        "slowness": statistics.median(r for _, r in samples),
        "failures": [(o.name, o.error) for o in failures[:5]],
    }
    for suffix, normalised in (("", False), ("_norm", True)):
        medians = op_medians(passes, normalised)
        latencies = sorted(1000.0 * _seconds(o, r, normalised) for o, r in samples)
        summary["batch%s_s" % suffix] = sum(medians)
        # every operation weighs the same, and no single one decides it as for the p50
        summary["op_geomean%s_ms" % suffix] = 1000.0 * statistics.geometric_mean(max(m, 1e-9) for m in medians)
        summary["op_p50%s_ms" % suffix] = statistics.median(latencies)
        # the highest decile above the median with at least ten samples beyond it
        decile = max((d for d in range(6, 10) if len(latencies) * (10 - d) >= 100), default=None)
        if decile is not None:
            summary["op_p%d%s_ms" % (10 * decile, suffix)] = statistics.quantiles(latencies, n=10)[decile - 1]
    return summary
