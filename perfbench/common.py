"""Timing, statistics and stage tracing shared by the workloads."""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# Every operation runs once per round, and its time is the fastest of
# its rounds (each workload sets ``ROUNDS``, as many as fit its run
# length).  The host switches between a fast state and one 35-60%
# slower (other tenants share its cores): fast spells last milliseconds
# to seconds, slow ones up to minutes.  A round passes over the whole
# operation list, so the rounds of one operation lie seconds apart and
# sample the host's state nearly independently; their fastest is the
# fast-state time for most operations when the host is fast for part of
# the run.  A median over the rounds would follow the fast share.

# Rounds of the staged replay, which only feeds per-layer figures.
TRACE_ROUNDS = 3


@dataclass(frozen=True)
class Failed:
    """Outcome of an operation that raised instead of answering."""

    error: str


@dataclass
class Op:
    """One user-level request.

    ``call`` is the one-call path that the timed phase measures,
    ``check`` compares its answer, or its :class:`Failed` marker, with
    one computed by the benchmark,
    and ``staged`` replays the same request stage by stage through the
    layers' public functions, reporting each stage to a tracer.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    staged: Callable[["Tracer"], Any]
    subject: Any = None


def attempt(fn, *args):
    """Seconds taken and the answer, or a :class:`Failed` marker."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as err:  # the operation failed; the run goes on
        return time.perf_counter() - t0, Failed(type(err).__name__)
    return time.perf_counter() - t0, out


@dataclass
class Measurement:
    times: list[list[float]]  # seconds of each operation, by round
    outputs: list[Any]        # answer of the last round
    failed_ops: list[bool]    # raised in some round
    attempted: int
    failed: int
    wrong: list[str]

    def per_op(self, rounds: int | None = None) -> list[float]:
        """Fastest seconds of each operation over its first ``rounds``."""
        return [min(t[:rounds]) for t in self.times]


def measure(ops: list[Op], rounds: int, before_round=None) -> Measurement:
    """Run every operation ``rounds`` times and check every outcome, a
    :class:`Failed` one too: only the checker of an operation that is
    expected to fail accepts it.  ``before_round`` is called before
    each round."""
    times: list[list[float]] = [[] for _ in ops]
    outputs: list[Any] = [None] * len(ops)
    failed_ops = [False] * len(ops)
    failed = 0
    wrong: list[str] = []
    gc.collect()
    for r in range(rounds):
        if before_round is not None:
            before_round()
        for i, op in enumerate(ops):
            seconds, out = attempt(op.call)
            times[i].append(seconds)
            if isinstance(out, Failed):
                failed += 1
                failed_ops[i] = True
            if not op.check(out):
                wrong.append(f"op {i} ({op.kind}) round {r}: {out!r:.200}")
            outputs[i] = out
    return Measurement(times, outputs, failed_ops, rounds * len(ops), failed, wrong)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(per_op: list[float], failed_ops: list[bool]) -> dict[str, float]:
    """End-to-end figures from per-operation times: the rate counts
    only operations that answered, the latencies all of them."""
    answered = sum(1 for f in failed_ops if not f)
    return {
        "ops_per_s": answered / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_p99_ms": quantile(per_op, 0.99) * 1e3,
    }


def by_kind(ops: list[Op], per_op: list[float]) -> dict[str, float]:
    """Median milliseconds per operation kind."""
    groups: dict[str, list[float]] = defaultdict(list)
    for op, t in zip(ops, per_op):
        groups[op.kind].append(t)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(groups.items())}


class Tracer:
    """Collects stage times and counts during the staged replay.

    A stage is one call into a layer's public function.  Each call
    site, identified by operation, stage name and occurrence, keeps one
    sample per replay; its time is the fastest replay, and a stage's
    figure is the median over its call sites.
    """

    def __init__(self):
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = {}
        self.counting = True
        self._op = 0
        self._seen: dict[str, int] = defaultdict(int)

    def begin(self, op_index: int) -> None:
        self._op = op_index
        self._seen.clear()

    def stage(self, name: str, fn, *args):
        k = self._seen[name]
        self._seen[name] = k + 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples[(self._op, name, k)].append(time.perf_counter() - t0)

    def count(self, name: str, n: int) -> None:
        if self.counting:
            self.counts[name] += n

    def peak(self, name: str, n: int) -> None:
        if self.counting:
            self.maxima[name] = max(self.maxima.get(name, 0), n)

    def stage_ms(self) -> dict[str, float]:
        groups: dict[str, list[float]] = defaultdict(list)
        for (_, name, _), ts in self.samples.items():
            groups[name].append(min(ts))
        return {k: statistics.median(v) * 1e3 for k, v in groups.items()}


def replay(ops: list[Op], rounds: int, tracer: Tracer):
    """Staged replay of every operation; per-op fastest seconds and the
    staged answers of the last replay."""
    times: list[list[float]] = [[] for _ in ops]
    answers: list[Any] = [None] * len(ops)
    gc.collect()
    for r in range(rounds):
        tracer.counting = r == 0
        for i, op in enumerate(ops):
            tracer.begin(i)
            seconds, answers[i] = attempt(op.staged, tracer)
            times[i].append(seconds)
    return [min(t) for t in times], answers


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; it tracks the host's speed, not the
    program's."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3
