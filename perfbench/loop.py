"""Closed-loop load: each client thread sends its next op only after
the previous one returned, for a fixed wall-clock budget."""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (DeadlockDetected, LockTimeout, ServiceError,
                          ServiceOverloaded)

from workloads import CLIENTS, Workload, execute

# Refusals that leave no effect behind: the service gave up waiting for
# a lock after its own retries, or admission shed the request. As the
# errors' documentation asks, the client backs off and sends the same
# op again; the op's latency runs from its first submission to its
# answer, so writer starvation shows in the write tail and in the
# refusal counts instead of vanishing from the percentiles. An op still
# refused after RESUBMIT_BUDGET seconds counts as failed.
RESUBMITTABLE = (LockTimeout, DeadlockDetected, ServiceOverloaded)
RESUBMIT_BUDGET = 30.0
BACKOFF_BASE, BACKOFF_MAX, BACKOFF_JITTER = 0.01, 0.25, 0.01


@dataclass
class Sample:
    kind: str
    family: str
    seconds: float
    ok: bool
    error: str = ""
    refusals: tuple[str, ...] = ()  # errors of the refused submissions


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ops_per_s(self) -> float:
        done = sum(1 for s in self.samples if s.ok)
        return done / self.elapsed

    def latencies(self, family: str) -> list[float]:
        return [s.seconds for s in self.samples
                if s.ok and s.family == family]

    def by_kind(self) -> dict[str, dict[str, int]]:
        """attempted / failed / resubmitted per fine op class, with the
        names of the errors that refused or failed a submission."""
        table: dict[str, dict[str, int]] = {}
        for s in self.samples:
            row = table.setdefault(s.kind, {"attempted": 0, "failed": 0,
                                            "resubmitted": 0})
            row["attempted"] += 1
            row["resubmitted"] += len(s.refusals)
            for error in s.refusals + ((s.error,) if not s.ok else ()):
                row[error] = row.get(error, 0) + 1
            if not s.ok:
                row["failed"] += 1
        return table

    def refusals(self) -> int:
        return sum(len(s.refusals) for s in self.samples)


def _backoff(resubmit: int, rng: random.Random, tracer) -> None:
    pause = (min(BACKOFF_BASE * 2 ** resubmit, BACKOFF_MAX)
             + rng.uniform(0.0, BACKOFF_JITTER))
    if tracer is None:
        time.sleep(pause)
        return
    with tracer.span("client.backoff", "client"):
        time.sleep(pause)


def _timed(front, op, tracer, rng: random.Random) -> Sample:
    """Run one op, resubmitting it while the service refuses it (see
    ``RESUBMITTABLE``); any other :class:`repro.errors.ServiceError`
    (cross-shard failure, replication timeout, read-only, ...) marks it
    failed, any other exception propagates."""
    request = tracer.begin_request(op) if tracer else None
    began = time.perf_counter()
    ok, error, answer = True, "", None
    refusals: list[str] = []
    while True:
        try:
            answer = execute(front, op)
        except RESUBMITTABLE as exc:
            if time.perf_counter() - began < RESUBMIT_BUDGET:
                refusals.append(type(exc).__name__)
                if tracer is not None:
                    tracer.count("client.resubmits")
                _backoff(len(refusals) - 1, rng, tracer)
                continue
            ok, error = False, type(exc).__name__
        except ServiceError as exc:
            ok, error = False, type(exc).__name__
        break
    ended = time.perf_counter()
    if request is not None:
        tracer.end_request(request, answer, error)
    return Sample(op.kind, op.family, ended - began, ok, error,
                  tuple(refusals))


def run_closed_loop(workload: Workload, front, seed: int, seconds: float,
                    *, part: int = 0, tracer=None) -> LoopResult:
    """Drive ``CLIENTS`` threads against ``front`` for ``seconds``.

    A client stops issuing once the budget is spent; the op in flight
    completes and counts, and the elapsed time runs to the last
    completion. Any exception other than a failed op aborts the run.
    """
    result = LoopResult()
    lock = threading.Lock()
    crashes: list[BaseException] = []
    start = time.perf_counter()
    stop_at = start + seconds
    finished = [start] * CLIENTS

    def client(index: int) -> None:
        mine: list[Sample] = []
        stream = workload.stream(seed, index, part)
        rng = random.Random(f"{workload.name}:{seed}:backoff:{index}:{part}")
        try:
            while time.perf_counter() < stop_at:
                mine.append(_timed(front, next(stream), tracer, rng))
            finished[index] = time.perf_counter()
        except BaseException as exc:  # surfaced by the caller
            crashes.append(exc)
        finally:
            with lock:
                result.samples.extend(mine)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 170)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if crashes:
        raise crashes[0]
    result.elapsed = max(finished) - start
    return result


def replay(workload: Workload, front, seed: int, count: int,
           tracer) -> LoopResult:
    """Single-client replay of client 0's first ``count`` ops."""
    result = LoopResult()
    rng = random.Random(f"{workload.name}:{seed}:backoff:replay")
    start = time.perf_counter()
    for op in itertools.islice(workload.stream(seed, 0), count):
        result.samples.append(_timed(front, op, tracer, rng))
    result.elapsed = time.perf_counter() - start
    return result


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
