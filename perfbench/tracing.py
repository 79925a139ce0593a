"""Spans around each layer's public entry points, for the traced run.

:func:`install` replaces every wrapped function at the module or class
attribute its callers resolve through and returns an undo callable.
A wrapper records a span (name, layer, start, end, parent, request id)
only while its thread is inside a benchmark request; outside one it is
a pass-through. Work done inside ``Replica.handle`` is folded into the
replica's own span, so primary-side layers never count replica work.
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repro.errors import (DeadlockDetected, LockTimeout, ServiceOverloaded)
from repro.fdb import evaluate, nvc, query, storage, updates, wal
from repro.fdb.transaction import Transaction
from repro.fdb.updates import UpdateSequence
from repro.fdb.wal import UpdateLog
from repro.replication import replica as replica_module
from repro.replication.group import ReplicationGroup
from repro.replication.replica import Replica
from repro.replication.shipper import WalShipper
from repro.service import service as service_module
from repro.service.admission import AdmissionGate
from repro.service.locks import LockManager
from repro.service.retry import RetryPolicy
from repro.shard.sharded import ShardedDatabaseService

from workloads import MULTI_WRITE

ROOT_LAYER = "service.other"  # request time no wrapped layer covers
REPLICA_LAYER = "replication.replica"

# Span fields, in record order.
SPAN_ID, PARENT, REQUEST, NAME, LAYER, START, END, ERROR = range(8)


class Request:
    __slots__ = ("id", "kind", "family", "root", "chains", "answers",
                 "retries")

    def __init__(self, rid: int, kind: str, family: str) -> None:
        self.id = rid
        self.kind = kind
        self.family = family
        self.root: list | None = None
        self.chains = 0
        self.answers = 0
        self.retries = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: list[Request] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()

    # -- per-thread state ----------------------------------------------------

    def state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.replica = 0
            local.retry = 0
            local.counts = Counter()
            with self._lock:
                self._counters.append(local.counts)
        return local

    def current(self) -> Request | None:
        """The thread's open request, unless it is inside a replica."""
        local = self.state()
        if local.replica:
            return None
        return local.request

    def count(self, key: str, by: float = 1) -> None:
        self.state().counts[key] += by

    def counts(self) -> Counter:
        total: Counter = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    # -- requests and spans ----------------------------------------------------

    def begin_request(self, op) -> Request:
        local = self.state()
        request = Request(next(self._ids), op.kind, op.family)
        local.request = request
        request.root = self.open(f"request.{op.kind}", ROOT_LAYER)
        return request

    def end_request(self, request: Request, answer, error: str) -> None:
        if answer is not None and not error:
            request.answers = _answers(answer)
        self.close(request.root, error)
        self.state().request = None
        self.requests.append(request)

    def open(self, name: str, layer: str) -> list | None:
        local = self.state()
        request = local.request
        if request is None or (local.replica and layer != REPLICA_LAYER):
            return None
        stack = local.stack
        record = [next(self._ids), stack[-1][SPAN_ID] if stack else None,
                  request.id, name, layer, time.perf_counter(), 0.0, ""]
        stack.append(record)
        return record

    def close(self, record: list | None, error: str = "") -> None:
        if record is None:
            return
        record[END] = time.perf_counter()
        record[ERROR] = error
        self.state().stack.pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the block; yields its record, or ``None`` when
        the thread is outside a request (nothing is recorded)."""
        record = self.open(name, layer)
        try:
            yield record
        except BaseException as exc:
            self.close(record, type(exc).__name__)
            raise
        self.close(record)

    def write(self, path: Path) -> None:
        fields = ("id", "parent", "request", "name", "layer", "start",
                  "end", "error")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(fields, record))) + "\n")


def _answers(answer) -> int:
    """Useful answers a read returned: non-false facts."""
    if isinstance(answer, dict):
        # scatter_read gathers {shard: {name: image}}; image and
        # extension map keys to truths.
        total = 0
        for item in answer.values():
            total += _answers(item) if isinstance(item, dict) else 1
        return total
    return 0 if getattr(answer, "value", None) == "false" else 1


# -- wrappers ----------------------------------------------------------------


def _spanned(tracer: Tracer, fn, name: str, layer: str):
    def wrapped(*args, **kwargs):
        with tracer.span(name, layer):
            return fn(*args, **kwargs)
    return wrapped


def install(tracer: Tracer):
    """Wrap every traced entry point; returns a callable undoing it."""
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def counted(key: str, fn):
        """``fn`` that first bumps ``key`` when inside a request."""
        def wrapped(*args, **kwargs):
            if tracer.current() is not None:
                tracer.count(key)
            return fn(*args, **kwargs)
        return wrapped

    enter_gate = AdmissionGate.enter

    def traced_gate(self, **kwargs):
        try:
            with tracer.span("admission.enter", "service.admission"):
                return enter_gate(self, **kwargs)
        except ServiceOverloaded:
            if tracer.current() is not None:
                tracer.count("admission.shed")
            raise

    patch(AdmissionGate, "enter", traced_gate)

    acquire = LockManager.acquire

    def traced_acquire(self, resource, mode="shared", **kwargs):
        try:
            with tracer.span(f"locks.acquire.{mode}", "service.locks"):
                return acquire(self, resource, mode, **kwargs)
        except (LockTimeout, DeadlockDetected) as exc:
            request = tracer.current()
            if request is not None:
                if isinstance(exc, LockTimeout):
                    tracer.count("locks.timeouts")
                # The multi-shard lane retries lock failures itself,
                # outside any RetryPolicy.
                if request.family == MULTI_WRITE and not tracer.state().retry:
                    tracer.count("shard.multi_lock_failures")
            raise

    patch(LockManager, "acquire", traced_acquire)

    run = RetryPolicy.run

    def traced_run(self, fn, *, on_retry=None, **kwargs):
        request = tracer.current()
        if request is None:
            return run(self, fn, on_retry=on_retry, **kwargs)

        def counting(attempt, exc):
            request.retries += 1
            tracer.count("retry.retries")
            if on_retry is not None:
                on_retry(attempt, exc)

        state = tracer.state()
        state.retry += 1
        try:
            with tracer.span("retry.run", "service.retry"):
                return run(self, fn, on_retry=counting, **kwargs)
        finally:
            state.retry -= 1

    patch(RetryPolicy, "run", traced_run)
    patch(UpdateLog, "append", counted("wal.appends", _spanned(
        tracer, UpdateLog.append, "wal.append", "fdb.wal")))

    append_line = _spanned(tracer, storage.append_line,
                           "storage.append_line", "fdb.storage")

    def traced_append_line(path, line, **kwargs):
        if tracer.current() is not None:
            tracer.count("wal.bytes", len(line.encode("utf-8")) + 1)
        return append_line(path, line, **kwargs)

    patch(storage, "append_line", traced_append_line)
    patch(os, "fsync", counted("storage.fsyncs", _spanned(
        tracer, os.fsync, "storage.fsync", "fdb.storage")))

    enter = _spanned(tracer, Transaction.__enter__, "txn.snapshot",
                     "fdb.transaction")

    def traced_enter(self):
        if tracer.current() is not None:
            tracer.count("txn.count")
            tracer.count("txn.facts_copied",
                         sum(len(table) for table in self._db.tables()))
        return enter(self)

    patch(Transaction, "__enter__", traced_enter)
    patch(Transaction, "__exit__",
          _spanned(tracer, Transaction.__exit__, "txn.exit",
                   "fdb.transaction"))

    apply = updates.apply_update
    applies = {
        f"{side}_{verb}": _spanned(tracer, apply,
                                   f"updates.apply.{side}_{verb}",
                                   "fdb.updates")
        for side in ("base", "derived")
        for verb in ("insert", "delete", "replace")
    }

    def traced_apply(db, update):
        if tracer.current() is None:
            return apply(db, update)
        kind = "derived" if db.is_derived(update.function) else "base"
        kind += {"INS": "_insert", "DEL": "_delete"}.get(update.kind,
                                                         "_replace")
        ncs, nulls = db.ncs.next_index, db.nulls.next_index
        applies[kind](db, update)
        tracer.count(f"updates.{kind}")
        tracer.count(f"updates.ncs.{kind}", db.ncs.next_index - ncs)
        tracer.count(f"updates.nulls.{kind}", db.nulls.next_index - nulls)

    for module in (updates, wal, service_module, replica_module):
        patch(module, "apply_update", traced_apply)

    chains = evaluate.iter_chains

    def traced_chains(*args, **kwargs):
        request = tracer.current()
        generator = chains(*args, **kwargs)
        if request is None:
            return generator
        return _counting(generator, request)

    for module in (evaluate, updates, query, nvc):
        patch(module, "iter_chains", traced_chains)

    truth = _spanned(tracer, evaluate.truth_of_derived, "evaluate.truth",
                     "fdb.evaluate")
    for module in (evaluate, updates):
        patch(module, "truth_of_derived", truth)
    patch(evaluate, "derived_extension",
          _spanned(tracer, evaluate.derived_extension, "evaluate.extension",
                   "fdb.evaluate"))
    patch(query.Query, "image",
          _spanned(tracer, query.Query.image, "query.image", "fdb.query"))

    patch(ReplicationGroup, "on_commit",
          _spanned(tracer, ReplicationGroup.on_commit,
                   "replication.on_commit", "replication"))

    ship = _spanned(tracer, WalShipper.ship, "replication.ship",
                    "replication")

    def traced_ship(self, link, through_seq):
        before = link.acked_seq
        try:
            return ship(self, link, through_seq)
        finally:
            if tracer.current() is not None:
                tracer.count("replication.ships")
                tracer.count("replication.records",
                             link.acked_seq - before)

    patch(WalShipper, "ship", traced_ship)

    handle = Replica.handle

    def traced_handle(self, message):
        with tracer.span("replica.handle", REPLICA_LAYER) as record:
            if record is None:
                return handle(self, message)
            state = tracer.state()
            state.replica += 1
            try:
                return handle(self, message)
            finally:
                state.replica -= 1

    patch(Replica, "handle", traced_handle)

    single = _spanned(tracer, ShardedDatabaseService.execute,
                      "shard.execute", "shard")
    multi = _spanned(tracer, ShardedDatabaseService.execute,
                     "shard.execute.multi", "shard")

    def traced_execute(self, update, **kwargs):
        if isinstance(update, UpdateSequence):
            return multi(self, update, **kwargs)
        return single(self, update, **kwargs)

    patch(ShardedDatabaseService, "execute", traced_execute)
    patch(ShardedDatabaseService, "scatter_read",
          _spanned(tracer, ShardedDatabaseService.scatter_read,
                   "shard.scatter_read", "shard"))

    def undo() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def _counting(generator, request: Request):
    for chain in generator:
        request.chains += 1
        yield chain
