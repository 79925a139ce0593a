"""Fold a traced run into per-layer metrics.

A span's self time is its duration minus the part of its interval its
child spans cover; summed over one request's spans, self times give
back the request span's duration, which :func:`fold` checks.
"""

from __future__ import annotations

from collections import defaultdict

from loop import percentile
from tracing import (END, LAYER, NAME, PARENT, REQUEST, ROOT_LAYER, SPAN_ID,
                     START, Tracer)
from workloads import EXTENSION, MULTI_WRITE, POINT_READ, SCAN, WRITE

LAYERS = (ROOT_LAYER, "service.admission", "service.locks",
          "service.retry", "fdb.wal", "fdb.storage", "fdb.transaction",
          "fdb.updates", "fdb.evaluate", "fdb.query", "replication",
          "replication.replica", "shard", "client")

UPDATE_KINDS = ("base_insert", "base_delete", "derived_insert",
                "derived_delete")

# name -> unit; every traced run reports all of them (0 where the
# workload never enters the layer).
PER_LAYER = {
    "service.admission.wait_ms_p50": "ms",
    "service.admission.shed": "count",
    "service.locks.write_wait_ms_p50": "ms",
    "service.locks.write_wait_ms_p99": "ms",
    "service.locks.read_wait_ms_p99": "ms",
    "service.locks.timeouts": "count",
    "service.retry.retries_per_op": "count/op",
    "client.resubmits_per_op": "count/op",
    "fdb.transaction.snapshot_ms_p50": "ms",
    "fdb.transaction.facts_copied_per_txn": "facts/txn",
    "fdb.wal.append_ms_p50": "ms",
    "fdb.storage.fsync_ms_p50": "ms",
    "fdb.storage.fsyncs_per_commit": "count/commit",
    "fdb.wal.bytes_per_op": "B/op",
    **{f"fdb.updates.apply_ms_p50.{kind}": "ms" for kind in UPDATE_KINDS},
    "fdb.updates.ncs_per_derived_delete": "count/op",
    "fdb.updates.nulls_per_derived_insert": "count/op",
    "fdb.evaluate.chains_per_probe": "chains/probe",
    "fdb.evaluate.answers_per_chain": "answers/chain",
    "fdb.evaluate.truth_ms_p50": "ms",
    "fdb.evaluate.image_ms_p50": "ms",
    "fdb.evaluate.extension_ms_p50": "ms",
    "replication.ack_wait_ms_p50": "ms",
    "replication.ack_wait_ms_p99": "ms",
    "replication.ship_ms_p50": "ms",
    "replication.replica_apply_ms_p50": "ms",
    "replication.records_per_ship": "records/ship",
    "shard.route_us_p50": "us",
    "shard.multi_ms_p50": "ms",
    "shard.multi_retries": "count",
    "shard.scatter_ms_p50": "ms",
    "obs.trace_overhead_frac": "fraction",
    "obs.metrics_overhead_frac": "fraction",
    **{f"self_ms_per_op.{layer}": "ms/op" for layer in LAYERS},
}

# The single-client replay counts that must repeat exactly.
WORK_COUNTS = ("fdb.transaction.facts_copied_per_txn",
               "fdb.storage.fsyncs_per_commit", "fdb.wal.bytes_per_op",
               "fdb.evaluate.chains_per_probe",
               "fdb.evaluate.answers_per_chain",
               "fdb.updates.ncs_per_derived_delete",
               "fdb.updates.nulls_per_derived_insert",
               "replication.records_per_ship")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        inside = [(max(s, start), min(e, end))
                  for s, e in children.get(span[SPAN_ID], ())]
        out[span[SPAN_ID]] = (end - start) - _covered(inside)
    return out


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def _p(values: list[float], q: float, scale: float = 1e3) -> float:
    return percentile(values, q) * scale if values else 0.0


def fold(tracer: Tracer) -> tuple[dict[str, float], float]:
    """Per-layer timing metrics of a traced closed-loop run, and the
    worst gap (seconds) between a request's duration and the sum of
    its spans' self times."""
    spans = tracer.spans
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    request_self: dict[int, float] = defaultdict(float)
    route_self: list[float] = []
    for span in spans:
        durations[span[NAME]].append(span[END] - span[START])
        layer_self[span[LAYER]] += selfs[span[SPAN_ID]]
        request_self[span[REQUEST]] += selfs[span[SPAN_ID]]
        if span[NAME] == "shard.execute":
            route_self.append(selfs[span[SPAN_ID]])
    gap = max((abs(request_self[r.id] - (r.root[END] - r.root[START]))
               for r in tracer.requests), default=0.0)
    requests = len(tracer.requests)
    counts = tracer.counts()
    out = {
        "service.admission.wait_ms_p50": _p(durations["admission.enter"], 50),
        "service.admission.shed": counts["admission.shed"],
        "service.locks.write_wait_ms_p50":
            _p(durations["locks.acquire.exclusive"], 50),
        "service.locks.write_wait_ms_p99":
            _p(durations["locks.acquire.exclusive"], 99),
        "service.locks.read_wait_ms_p99":
            _p(durations["locks.acquire.shared"], 99),
        "service.locks.timeouts": counts["locks.timeouts"],
        "service.retry.retries_per_op":
            _ratio(counts["retry.retries"], requests),
        "client.resubmits_per_op":
            _ratio(counts["client.resubmits"], requests),
        "fdb.transaction.snapshot_ms_p50": _p(durations["txn.snapshot"], 50),
        "fdb.wal.append_ms_p50": _p(durations["wal.append"], 50),
        "fdb.storage.fsync_ms_p50": _p(durations["storage.fsync"], 50),
        "fdb.evaluate.truth_ms_p50": _p(durations["evaluate.truth"], 50),
        "fdb.evaluate.image_ms_p50": _p(durations["query.image"], 50),
        "fdb.evaluate.extension_ms_p50":
            _p(durations["evaluate.extension"], 50),
        "replication.ack_wait_ms_p50":
            _p(durations["replication.on_commit"], 50),
        "replication.ack_wait_ms_p99":
            _p(durations["replication.on_commit"], 99),
        "replication.ship_ms_p50": _p(durations["replication.ship"], 50),
        "replication.replica_apply_ms_p50":
            _p(durations["replica.handle"], 50),
        "shard.route_us_p50": _p(route_self, 50, 1e6),
        "shard.multi_ms_p50": _p(durations["shard.execute.multi"], 50),
        "shard.multi_retries": counts["shard.multi_lock_failures"],
        "shard.scatter_ms_p50": _p(durations["shard.scatter_read"], 50),
    }
    for kind in UPDATE_KINDS:
        out[f"fdb.updates.apply_ms_p50.{kind}"] = \
            _p(durations[f"updates.apply.{kind}"], 50)
    for layer in LAYERS:
        out[f"self_ms_per_op.{layer}"] = \
            _ratio(layer_self[layer], requests) * 1e3
    return out, gap


def work_counts(tracer: Tracer) -> dict[str, float]:
    """Deterministic work ratios of a single-client replay."""
    counts = tracer.counts()
    writes = sum(1 for r in tracer.requests
                 if r.family in (WRITE, MULTI_WRITE))
    probes = [r for r in tracer.requests if r.family == POINT_READ]
    reads = [r for r in tracer.requests
             if r.family in (POINT_READ, SCAN, EXTENSION)]
    return {
        "fdb.transaction.facts_copied_per_txn":
            _ratio(counts["txn.facts_copied"], counts["txn.count"]),
        "fdb.storage.fsyncs_per_commit":
            _ratio(counts["storage.fsyncs"], counts["wal.appends"]),
        "fdb.wal.bytes_per_op": _ratio(counts["wal.bytes"], writes),
        "fdb.evaluate.chains_per_probe":
            _ratio(sum(r.chains for r in probes), len(probes)),
        "fdb.evaluate.answers_per_chain":
            _ratio(sum(r.answers for r in reads),
                   sum(r.chains for r in reads)),
        "fdb.updates.ncs_per_derived_delete":
            _ratio(counts["updates.ncs.derived_delete"],
                   counts["updates.derived_delete"]),
        "fdb.updates.nulls_per_derived_insert":
            _ratio(counts["updates.nulls.derived_insert"],
                   counts["updates.derived_insert"]),
        "replication.records_per_ship":
            _ratio(counts["replication.records"],
                   counts["replication.ships"]),
    }
