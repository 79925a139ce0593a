"""Chaos soak: concurrent mixed traffic against live faults, one runner
for every topology.

The crash matrix (:mod:`repro.faults.harness`) proves every *single*
failure point recovers to exactly the committed prefix. The soak is
its concurrency analogue: N worker threads drive mixed traffic through
a live service while a controller thread cycles fault phases
underneath, then the run asserts the system degraded gracefully and
stayed consistent. Every oracle rests on the same ground truth — the
live state must equal a sequential replay of the committed updates
under the paper's semantics (Section 3.2 valuation, NC/NVC
side-effects), via :func:`repro.faults.harness.states_diff`.

A run is a list of *cells*. The topology decides how each cell builds
its service, plans its ops, which fault controller runs, its epilogue
and which oracles apply; the worker loop, outcome classifier, phase
controller, ``/metrics`` scrape, replay diff and failover
(:func:`fail_over`) exist once.

=============  ==========================  =====================  ==========================================
topology       cells                       fault controller       oracles
=============  ==========================  =====================  ==========================================
single node    one                         storage phases:        replay, strict recovery, breaker
(default)                                  latency, transient     open/close and SLO raise/clear (forced
                                           errors, outage,        outage epilogue), request-span
                                           apply errors           invariants, scrape
replicated     commit mode x scenario      ``partition`` link     no acked loss across the fence, journal
(``replicas``)                             flaps or               replay, replica convergence, fencing and
                                           ``replica_crash``;     rejoin, pipeline span coverage, timeline
                                           ``primary_kill`` (and  audit, election count (auto-failover),
                                           ``partition`` under    scrape with ``replication_lag_seq_*``
                                           auto-failover) fails
                                           over in the epilogue
sharded        one                         storage latency and    per-lane replay, marker order and
(``shards``)                               transient errors;      pairing, shard-0 lane failover (with
                                           shard-0 failover in    ``replicas``), replica convergence,
                                           the epilogue           scrape with ``service_shard_<i>_*``
=============  ==========================  =====================  ==========================================

Every cell also fails on hung workers (the wall-clock budget),
harness errors and op accounting (every planned op resolved to one
outcome). With ``auto_failover`` the replicated groups (shard 0's
under ``shards``) run lease-based leadership: clock skew up to the
lease margin and heartbeat loss are injected, and the failover is the
coordinator's election — the harness never calls ``promote()``.

Run it: ``python -m repro.faults --soak`` (``--replicas R`` for the
replication matrix, ``--shards N`` for the sharded keyspace; see
``--help``).
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef
from repro.core.types import (ObjectType, TypeFunctionality,
                              compose_functionalities)
from repro.errors import (
    CrossShardError,
    DeadlockDetected,
    LockTimeout,
    OperationCancelled,
    PersistenceError,
    ReplicationError,
    ReplicationTimeout,
    ReproError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceReadOnly,
    StalenessUnserved,
    StalePrimary,
)
from repro.faults.harness import states_diff
from repro.faults.registry import (
    FAULTS,
    ClockSkewFault,
    CrashFault,
    ErrorFault,
    HeartbeatDropFault,
    LatencyFault,
    TransientError,
)
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.values import is_null
from repro.fdb.wal import UpdateLog, _decode_entry, decode_record, recover
from repro.obs.endpoint import ExpositionError, parse_prometheus
from repro.obs.events import (
    FileSink,
    propagation_dag,
    read_jsonl,
    replication_timeline,
)
from repro.obs.hooks import OBS
from repro.obs.slo import ERROR_RATE, Objective
from repro.replication import (
    CommitMode,
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.service import CircuitBreaker, DatabaseService, RetryPolicy
from repro.service.service import clusters_of
from repro.shard import ShardedDatabaseService
from repro.workloads.generator import (
    WorkloadConfig,
    random_instance,
    random_updates,
)

__all__ = [
    "CellReport",
    "SoakConfig",
    "SoakReport",
    "check_fence",
    "check_markers",
    "fail_over",
    "replay_diff",
    "run_soak",
    "shard_preload",
    "shard_soak_database",
    "soak_database",
]

_MODES = ("sync(1)", "quorum")
_SCENARIOS = ("partition", "replica_crash", "primary_kill")


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one soak run. ``shards`` > 0 selects the sharded
    topology, else ``replicas`` > 0 the replication matrix, else the
    single node. Defaults match the CI single-node job. Flags a
    topology cannot honour raise :exc:`ValueError` here instead of
    being dropped."""

    shards: int = 0
    replicas: int = 0
    # Commit modes: one replicated cell per mode x scenario, or the
    # single mode every shard lane's group runs. None = the topology's
    # default (sync(1) and quorum; sync(1) per lane).
    modes: tuple | None = None
    scenarios: tuple | None = None  # replicated only; None = all three
    auto_failover: bool = False
    threads: int = 8
    ops_per_thread: int = 30
    seed: int = 0
    rows_per_function: int = 10
    value_pool: int = 12
    clusters: int = 6       # sharded schema size
    preload_rows: int = 6   # sharded per-base preload
    # Fraction of planned reads redirected to replicas, and how many
    # of those demand zero staleness (exercising StalenessUnserved).
    replica_read_rate: float = 0.5
    tight_read_rate: float = 0.2
    tight_deadline: float = 0.003
    loose_deadline: float = 2.0
    faults: bool = True
    phase_seconds: float = 0.08
    lock_timeout: float = 0.25
    queue_timeout: float = 0.5
    max_concurrent: int = 6
    max_queue: int = 32
    ack_timeout: float = 2.0
    lease_duration: float = 0.5
    lease_margin: float = 0.1
    lease_renew_interval: float = 0.08
    heartbeat_drop_rate: float = 0.15
    wall_clock_limit: float = 120.0
    # Telemetry: serve /metrics + /health during the run and scrape
    # them mid-soak and at the end, saving snapshots under scrape_dir
    # (default: <workdir>). The SLO windows are short so the forced
    # breach/clear epilogue completes within a CI smoke budget.
    serve_endpoint: bool = True
    slo_window: float = 1.5
    slo_fast_fraction: float = 1 / 3
    slo_error_threshold: float = 0.35
    workdir: str | None = None
    jsonl: str | None = None  # default: <workdir>/soak-events.jsonl
    scrape_dir: str | None = None

    def __post_init__(self) -> None:
        if self.modes is not None:
            if not self.replicas:
                raise ValueError("commit modes need replicas")
            if not self.modes:
                raise ValueError("name at least one commit mode")
            if self.shards and len(self.modes) > 1:
                raise ValueError(
                    "a sharded soak runs one commit mode on every lane"
                )
            for mode in self.modes:
                CommitMode.parse(mode)
        if self.scenarios is not None:
            if self.shards or not self.replicas:
                raise ValueError(
                    "scenarios select replicated cells: they need "
                    "replicas and no shards"
                )
            if not self.scenarios \
                    or not set(self.scenarios) <= set(_SCENARIOS):
                raise ValueError(
                    f"scenarios must be among {', '.join(_SCENARIOS)}"
                )
        if self.auto_failover and not self.replicas:
            raise ValueError("auto-failover needs replicas")
        if self.shards and self.clusters < self.shards:
            raise ValueError(
                f"a sharded soak needs at least one cluster per shard "
                f"({self.clusters} clusters < {self.shards} shards)"
            )
        # After a failover the promoted replica's group has R - 1
        # followers left; a mode that needs more acks than that can
        # never acknowledge the post-failover write.
        if self.replicas and (self.shards or any(
                _fails_over(self, scenario)
                for scenario in self.scenarios or _SCENARIOS)):
            modes = self.modes or _MODES
            for mode in modes[:1] if self.shards else modes:
                needed = CommitMode.parse(mode).required_acks(self.replicas)
                if needed > self.replicas - 1:
                    raise ValueError(
                        f"{mode} with {self.replicas} replica(s) cannot "
                        f"ack after a failover leaves {self.replicas - 1}"
                    )


@dataclass
class CellReport:
    """One cell: outcome counts, failover facts, tallies, verdicts.
    Each failure is tagged with the oracle that raised it."""

    label: str
    duration: float = 0.0
    counts: dict = field(default_factory=dict)
    committed: int = 0
    acked: int = 0
    tallies: dict = field(default_factory=dict)
    promotion: dict | None = None
    fence_seq: int | None = None
    elections: int = 0
    rejoin: dict | None = None
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    scrape_paths: list = field(default_factory=list)

    def fail(self, oracle: str, message: str) -> None:
        self.failures.append(f"{oracle}: {message}")

    def failed(self, oracle: str) -> list[str]:
        return [f for f in self.failures if f.startswith(f"{oracle}: ")]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        head = f"[{self.label}]"
        out = [
            f"{head} {self.duration:.2f}s, committed {self.committed}"
            + (f", acked {self.acked}" if self.acked else "")
            + (f", fence {self.fence_seq}"
               if self.fence_seq is not None else ""),
            f"{head} ops: " + _kv(self.counts),
        ]
        if self.tallies:
            out.append(f"{head} tallies: " + _kv(self.tallies))
        if self.promotion:
            out.append(
                f"{head} promoted {self.promotion['chosen']} at seq "
                f"{self.promotion['applied_seq']} (term "
                f"{self.promotion['old_term']} -> "
                f"{self.promotion['new_term']})"
                + (" via automatic election" if self.elections else "")
            )
        if self.rejoin:
            out.append(
                f"{head} rejoin dropped "
                f"{self.rejoin['records_dropped']} records at fence "
                f"{self.rejoin['fence_seq']}"
                + (" (rebootstrapped)" if self.rejoin["rebootstrapped"]
                   else "")
            )
        if self.scrape_paths:
            out.append(f"{head} artefacts: "
                       + ", ".join(self.scrape_paths))
        out.extend(f"{head} note: {note}" for note in self.notes)
        out.extend(f"{head} FAILED {failure}" for failure in self.failures)
        out.append(f"{head} " + ("ok" if self.ok else "FAILED"))
        return out


_REPORTED_ACTIONS = (
    "breaker.open", "breaker.closed", "slo.alert_raised",
    "slo.alert_cleared", "replication.promote", "replication.elected",
    "replication.write_fenced", "replication.rejoin",
)


@dataclass
class SoakReport:
    """Every cell plus the run-wide event-log checks."""

    config: SoakConfig
    duration: float = 0.0
    cells: list = field(default_factory=list)
    jsonl_path: str = ""
    actions: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(cell.ok for cell in self.cells)

    def lines(self) -> list[str]:
        config = self.config
        out = [
            f"soak: {_topology(config)}, {len(self.cells)} cells, "
            f"{config.threads} threads x {config.ops_per_thread} ops, "
            f"{config.replicas} replicas, seed {config.seed}, "
            f"{self.duration:.2f}s"
        ]
        for cell in self.cells:
            out.extend(cell.lines())
        out.append("events: " + _kv({
            name: self.actions[name] for name in _REPORTED_ACTIONS
        }) + f" in {self.jsonl_path}")
        out.extend(f"FAILED {failure}" for failure in self.failures)
        out.append("soak: " + ("ok" if self.ok else "FAILED"))
        return out


def _kv(counts: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)


def _topology(config: SoakConfig) -> str:
    if config.shards:
        return f"sharded ({config.shards} lanes)"
    return "replicated" if config.replicas else "single node"


# -- instances ----------------------------------------------------------------


def soak_database(seed: int, rows_per_function: int = 10,
                  value_pool: int = 12) -> FunctionalDatabase:
    """A deterministic multi-cluster instance.

    Two independent derivation clusters (chains ``a1 . a2 -> va`` and
    ``b1 . b2 -> vb``) plus a lone base ``c``: reads and writes on
    different clusters are concurrent, writes within one contend, and
    the lone base gives the epilogues a quiet corner.
    """
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY

    def chain(prefix: str, derived_name: str) -> None:
        types = [ObjectType(f"{prefix.upper()}{i}") for i in range(3)]
        functions = []
        for i in range(2):
            definition = FunctionDef(
                f"{prefix}{i + 1}", types[i], types[i + 1], mm
            )
            db.declare_base(definition)
            functions.append(definition)
        db.declare_derived(
            FunctionDef(
                derived_name, types[0], types[2],
                compose_functionalities(f.functionality for f in functions),
            ),
            Derivation.of(*functions),
        )

    chain("a", "va")
    chain("b", "vb")
    c0, c1 = ObjectType("C0"), ObjectType("C1")
    db.declare_base(FunctionDef("c", c0, c1, mm))
    random_instance(db, rows_per_function, seed=seed,
                    value_pool=value_pool)
    return db


def _seeded(config: SoakConfig) -> FunctionalDatabase:
    return soak_database(config.seed, config.rows_per_function,
                         config.value_pool)


def shard_soak_database(clusters: int = 6) -> FunctionalDatabase:
    """An *empty* multi-cluster schema: ``clusters`` independent
    chains ``s<i>a . s<i>b -> s<i>v``. Every lane gets the full schema
    (routing needs it everywhere); data arrives per shard through
    :func:`shard_preload` and the workload itself."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for index in range(clusters):
        prefix = f"s{index}"
        types = [ObjectType(f"S{index}_{j}") for j in range(3)]
        first = FunctionDef(f"{prefix}a", types[0], types[1], mm)
        second = FunctionDef(f"{prefix}b", types[1], types[2], mm)
        db.declare_base(first)
        db.declare_base(second)
        db.declare_derived(
            FunctionDef(f"{prefix}v", types[0], types[2], mm),
            Derivation.of(first, second),
        )
    return db


def shard_preload(db: FunctionalDatabase, names, rows: int = 6) -> None:
    """Deterministically load ``rows`` true facts into each *base*
    function in ``names``. Loads bypass the update machinery (plain
    stored facts, no NCs, no nulls), so a replay oracle seeds its
    fresh instance with the same call and the same names."""
    for name in sorted(names):
        if db.is_base(name):
            db.load(name, [(f"{name}_x{j}", f"{name}_y{j}")
                           for j in range(rows)])


def _balanced_pins(config: SoakConfig) -> dict[str, int]:
    """Round-robin cluster -> shard pins: every lane must be populated
    (the epilogue writes to each lane by name) and multi-shard traffic
    real, which a pure hash placement cannot promise for a handful of
    clusters."""
    clusters = sorted(set(
        clusters_of(shard_soak_database(config.clusters)).values()
    ))
    return {cluster: index % config.shards
            for index, cluster in enumerate(clusters)}


# -- op plans -----------------------------------------------------------------
#
# Plans are generated up front against the initial state (no unlocked
# table walks once threads are live), each op carrying its own
# deadline, so a run's pressure profile is a function of the seed.
# Ops are (kind, payload, deadline) in one vocabulary: read,
# replica_read, scatter, rmw, checkpoint, write / seq / multi.


def _plan_worker_ops(db: FunctionalDatabase, worker: int,
                     config: SoakConfig, snapshot: Path) -> list[tuple]:
    rng = random.Random(config.seed * 7919 + worker)
    stream = random_updates(
        db, config.ops_per_thread,
        WorkloadConfig(seed=config.seed * 104729 + worker,
                       value_pool=config.value_pool,
                       fresh_value_rate=0.4),
    )
    read_targets = tuple(db.base_names) + tuple(db.derived_names)
    ops: list[tuple] = []
    for index in range(config.ops_per_thread):
        roll = rng.random()
        if roll < 0.1:
            deadline = config.tight_deadline
        elif roll < 0.9:
            deadline = config.loose_deadline
        else:
            deadline = None
        kind_roll = rng.random()
        if worker == 0 and index and index % 10 == 0:
            ops.append(("checkpoint", snapshot, deadline))
        elif kind_roll < 0.30:
            ops.append(("read", rng.choice(read_targets), deadline))
        elif kind_roll < 0.45:
            # Read-modify-write on a contended chain base: the shared
            # -> exclusive upgrade is the deadlock driver.
            ops.append(("rmw", rng.choice(("a1", "b1")), deadline))
        elif kind_roll < 0.55 and len(stream) >= 2:
            first = stream.pop(rng.randrange(len(stream)))
            second = stream.pop(rng.randrange(len(stream)))
            ops.append(("seq",
                        UpdateSequence((first, second),
                                       label=f"w{worker}.{index}"),
                        deadline))
        elif stream:
            ops.append(("write", stream.pop(rng.randrange(len(stream))),
                        deadline))
        else:
            ops.append(("read", rng.choice(read_targets), deadline))
    return ops


def _with_replica_reads(ops: list[tuple], worker: int,
                        config: SoakConfig) -> list[tuple]:
    """Redirect a slice of the reads to replicas under a staleness
    bound (zero for the tight ones)."""
    rng = random.Random(config.seed * 6151 + worker)
    out = []
    for kind, payload, deadline in ops:
        if kind == "read" and rng.random() < config.replica_read_rate:
            bound = 0 if rng.random() < config.tight_read_rate else None
            out.append(("replica_read", (payload, bound), deadline))
        else:
            out.append((kind, payload, deadline))
    return out


def _plan_shard_worker(front: ShardedDatabaseService, worker: int,
                       config: SoakConfig) -> list[tuple]:
    """Single-shard traffic dominates; multi-shard sequences and
    scatter reads exercise the global lane and the gather path."""
    rng = random.Random(config.seed * 7919 + worker)
    db = front.lanes[0].db
    bases = sorted(db.base_names)
    deriveds = sorted(db.derived_names)
    by_shard: dict[int, list[str]] = {}
    for name in bases:
        by_shard.setdefault(front.map.shard_of(name), []).append(name)
    multi_ready = len(by_shard) >= 2
    shard_ids = sorted(by_shard)

    def deadline() -> float:
        return config.tight_deadline if rng.random() < 0.1 \
            else config.loose_deadline

    ops: list[tuple] = []
    for index in range(config.ops_per_thread):
        roll = rng.random()
        tag = f"w{worker}i{index}"
        if roll < 0.35:
            name = rng.choice(bases)
            ops.append(("write", Update.ins(name, f"{tag}x", f"{tag}y"),
                        deadline()))
        elif roll < 0.45:
            name = rng.choice(deriveds)
            ops.append(("write",
                        Update.ins(name, f"{tag}dx", f"{tag}dy"),
                        deadline()))
        elif roll < 0.55:
            # Single-shard atomic sequence within one cluster.
            prefix = rng.choice(bases).rstrip("ab")
            ops.append(("seq", UpdateSequence((
                Update.ins(f"{prefix}a", f"{tag}sx", f"{tag}sm"),
                Update.ins(f"{prefix}b", f"{tag}sm", f"{tag}sy"),
            ), label=f"seq-{tag}"), deadline()))
        elif roll < 0.67 and multi_ready:
            # Multi-shard sequence: one insert on each of two shards.
            first, second = rng.sample(shard_ids, 2)
            ops.append(("multi", UpdateSequence((
                Update.ins(rng.choice(by_shard[first]),
                           f"{tag}mx", f"{tag}my"),
                Update.ins(rng.choice(by_shard[second]),
                           f"{tag}nx", f"{tag}ny"),
            ), label=f"multi-{tag}"), deadline()))
        elif roll < 0.77:
            ops.append(("read", rng.choice(bases + deriveds),
                        deadline()))
        elif roll < 0.87 and multi_ready:
            first, second = rng.sample(shard_ids, 2)
            ops.append(("scatter",
                        (rng.choice(by_shard[first]),
                         rng.choice(by_shard[second])),
                        deadline()))
        elif roll < 0.95:
            ops.append(("rmw", rng.choice(bases), deadline()))
        else:
            # Delete a preloaded fact (may already be gone: noop path).
            name = rng.choice(bases)
            row = rng.randrange(config.preload_rows)
            ops.append(("write",
                        Update.delete(name, f"{name}_x{row}",
                                      f"{name}_y{row}"),
                        deadline()))
    return ops


# -- workers ------------------------------------------------------------------


_OUTCOME_OF = (
    (CrossShardError, "cross_shard"),
    (ReplicationTimeout, "repl_timeout"),
    (StalePrimary, "fenced"),
    (StalenessUnserved, "stale_read"),
    (ServiceOverloaded, "shed"),
    (ServiceReadOnly, "readonly"),
    (OperationCancelled, "cancelled"),
    ((LockTimeout, DeadlockDetected), "contended"),
    (ServiceClosed, "closed"),
    ((PersistenceError, OSError), "storage_failed"),
    (RuntimeError, "failed_apply"),  # the apply-phase ErrorFault
)


def _classify(exc: BaseException) -> str:
    for types, outcome in _OUTCOME_OF:
        if isinstance(exc, types):
            return outcome
    return "other"


def _rmw_build(name: str):
    def build(db):
        # Only plain (non-null) pairs: NVC facts carry indexed nulls,
        # which are not REP targets here.
        pairs = sorted(p for p in db.table(name).pairs()
                       if not (is_null(p[0]) or is_null(p[1])))
        if not pairs:
            return None
        x, y = pairs[0]
        return Update.rep(name, (x, y), (x, f"{y}~r"))
    return build


def _run_worker(front, ops: list[tuple], counts: Counter,
                counts_lock: threading.Lock, errors: list) -> None:
    """Drive one plan through ``front`` (a DatabaseService or the
    sharded facade), classifying every op into exactly one outcome."""
    local: Counter = Counter()
    for kind, payload, deadline in ops:
        outcome = "applied"
        try:
            if kind == "read":
                front.read((payload,),
                           lambda db, n=payload: db.extension(n),
                           deadline=deadline)
            elif kind == "replica_read":
                name, bound = payload
                front.read_replica(lambda db, n=name: db.extension(n),
                                   max_lag_seq=bound)
            elif kind == "scatter":
                front.scatter_read(
                    payload,
                    lambda db, names: {n: len(db.table(n)) for n in names},
                    deadline=deadline,
                )
            elif kind == "rmw":
                if front.read_modify_write((payload,), _rmw_build(payload),
                                           deadline=deadline) is None:
                    outcome = "noop"
            elif kind == "checkpoint":
                front.checkpoint(payload)
            else:  # "write" | "seq" | "multi"
                front.execute(payload, deadline=deadline)
        except (ReproError, RuntimeError, OSError) as exc:
            outcome = _classify(exc)
        except BaseException as exc:  # pragma: no cover - harness bug
            errors.append(exc)
            raise
        local[outcome] += 1
    with counts_lock:
        counts.update(local)


# -- fault phases -------------------------------------------------------------


def _controller(step, config: SoakConfig, stop: threading.Event) -> None:
    """Cycle fault phases until ``stop``: ``step(index)`` enters phase
    ``index`` and returns the callable that leaves it."""
    index = 0
    while not stop.is_set():
        leave = step(index)
        stop.wait(config.phase_seconds)
        leave()
        index += 1


def _storage_step(phases: list[tuple[str, list[tuple]]]):
    """A controller step cycling (name, [(point, fault), ...]) phases."""
    def step(index: int):
        name, arms = phases[index % len(phases)]
        for point, fault in arms:
            FAULTS.arm(point, fault)
        if OBS.enabled:
            OBS.action("soak.phase", phase=name)
        return lambda: [FAULTS.disarm(point) for point, _ in arms]
    return step


def _storage_phases(seed: int) -> list[tuple[str, list[tuple]]]:
    """Latency inside the storage critical sections, transient I/O
    errors, a full outage that trips the breaker, apply-time failures
    on the compensating-abort path. The sharded soak runs the first
    three: its oracle is about lanes, not breakers."""
    return [
        ("quiet", []),
        ("latency", [
            ("storage.append.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed)),
            ("storage.atomic.payload",
             LatencyFault(0.002, jitter=0.004, seed=seed + 1)),
        ]),
        ("transient", [("wal.append.before", TransientError(times=2))]),
        ("quiet", []),
        ("outage", [
            ("wal.append.before", TransientError(times=10 ** 6)),
        ]),
        ("apply_error", [("wal.apply.before", ErrorFault(times=3))]),
    ]


def _partition(group: ReplicationGroup, cut: bool, links=None) -> None:
    for link in group.shipper.links() if links is None else links:
        if hasattr(link.transport, "partitioned"):
            link.transport.partitioned = cut


def _partition_step(group: ReplicationGroup):
    """Even phases cut one replica link — every fourth cut all of them
    at once (the ack quota must wait it out, not lose anything); odd
    phases run healed."""
    def step(index: int):
        if index % 2:
            return lambda: None
        links = sorted(group.shipper.links(), key=lambda l: l.name)
        cycle = index // 2
        if cycle % 4 == 3:
            targets, label = links, "*"
        else:
            targets = [links[cycle % len(links)]]
            label = targets[0].name
        _partition(group, True, targets)
        if OBS.enabled:
            OBS.action("soak.partition", replica=label)

        def leave() -> None:
            _partition(group, False, targets)
            if OBS.enabled:
                OBS.action("soak.heal", replica=label)
        return leave
    return step


def _crash_step(group: ReplicationGroup, names: list[str],
                rng: random.Random):
    """Even phases kill a replica mid-stream — half through the
    ``repl.replica.apply`` crash point (dying *between* the local
    write-ahead append and the apply), half by dropping the process
    outright; odd phases restart the dead from their own disk."""
    def step(index: int):
        if index % 2:
            _restart_crashed(group)
        elif rng.random() < 0.5:
            FAULTS.arm("repl.replica.apply", CrashFault())
            return lambda: FAULTS.disarm("repl.replica.apply")
        else:
            name = names[(index // 2) % len(names)]
            try:
                group.replica(name).crash()
                if OBS.enabled:
                    OBS.action("soak.replica_crash", replica=name)
            except ReplicationError:
                pass
        return lambda: None
    return step


def _restart_crashed(group: ReplicationGroup) -> None:
    for name in group.replica_names():
        try:
            replica = group.replica(name)
        except ReplicationError:
            continue
        if replica.crashed:
            try:
                replica.restart()
            except (ReproError, OSError):
                pass  # settling will surface it as a failure


# -- oracles ------------------------------------------------------------------


def replay_diff(expected: FunctionalDatabase, ops,
                live: FunctionalDatabase) -> str | None:
    """Apply ``ops`` in order to ``expected`` (a fresh, identically
    seeded instance) and diff it against ``live``: ``None`` when the
    live state is exactly that sequential replay."""
    for op in ops:
        if isinstance(op, UpdateSequence):
            apply_sequence(expected, op)
        else:
            apply_update(expected, op)
    return states_diff(expected, live)


def check_fence(cell: CellReport, acked, fence: int) -> None:
    """No acked loss: every sequence number acknowledged to a caller
    must sit at or below the failover fence."""
    lost = [seq for seq, _ in acked if seq > fence]
    if lost:
        cell.fail("fence",
                  f"acked commits past the fence (lost by failover): {lost}")


def check_markers(cell: CellReport, journals: dict, committed: dict,
                  swapped=frozenset()) -> None:
    """Each lane's ``(marker, committed-index)`` journal must be
    strictly increasing in both coordinates and inside its committed
    log, and every marker must sit on at least two lanes (a
    multi-shard write involves several by definition). A failed-over
    lane's journal restarts empty, so with a swap in the run only
    markers minted since are held to the pairing."""
    seen: dict[int, list[int]] = {}
    for shard, journal in sorted(journals.items()):
        markers = [marker for marker, _ in journal]
        indices = [index for _, index in journal]
        if markers != sorted(set(markers)):
            cell.fail("markers", f"shard {shard} marker journal not "
                                 f"strictly increasing: {markers[:10]}")
        if indices != sorted(set(indices)):
            cell.fail("markers", f"shard {shard} marker commit indices "
                                 f"not strictly increasing: {indices[:10]}")
        bad = [index for index in indices if index >= committed[shard]]
        if bad:
            cell.fail("markers", f"shard {shard} marker indices past its "
                                 f"committed log: {bad[:10]}")
        for marker in markers:
            seen.setdefault(marker, []).append(shard)
    floor = 0
    if swapped:
        post_swap = [marker for shard in swapped
                     for marker, _ in journals[shard]]
        floor = min(post_swap) if post_swap \
            else max(seen, default=0) + 1
        cell.notes.append(
            f"marker pairing checked from marker {floor} on (lanes "
            f"{sorted(swapped)} restarted their journals at failover)"
        )
    lonely = {marker: lanes for marker, lanes in seen.items()
              if len(lanes) < 2 and marker >= floor}
    if lonely:
        cell.fail("markers", "cross-shard markers on a single lane: "
                             f"{dict(list(lonely.items())[:5])}")


def _journal_ops(group: ReplicationGroup) -> list:
    """The shipped stream as ops: every journalled record that entered
    replication, minus compensated aborts."""
    aborted: set[int] = set()
    entries: list[tuple[int, dict]] = []
    for _, line in group.shipper.journal():
        payload = decode_record(line)
        if "abort_of" in payload:
            aborted.add(payload["abort_of"])
        elif "entry" in payload:
            entries.append((payload["seq"], payload["entry"]))
    return [_decode_entry(raw) for seq, raw in entries
            if seq not in aborted]


def _settle(cell: CellReport, group: ReplicationGroup,
            primary_db: FunctionalDatabase) -> None:
    """Heal every link, restart crashed replicas, let the group catch
    up, then require every replica's state to equal the primary's."""
    for _ in range(2):
        _partition(group, False)
        _restart_crashed(group)
        try:
            verdict = group.sync_all(timeout=10.0)
        except ReproError as exc:
            cell.fail("settle", f"settling failed: {exc!r}")
            break
        if not verdict["lagging"]:
            break
    else:
        cell.fail("settle", f"replicas never settled: {verdict['lagging']}")
    names = group.replica_names()
    checked = 0
    for name in names:
        try:
            replica = group.replica(name)
        except ReplicationError:
            continue  # a remote link: not inspectable from here
        if replica.db is None:
            cell.fail("replicas", f"replica {name} has no state")
            continue
        diff = states_diff(primary_db, replica.db)
        if diff:
            cell.fail("replicas", f"replica {name} diverged: {diff}")
        checked += 1
    if names and not checked:
        cell.fail("replicas", "no replica state was checked")


def _scrape(front, dest: Path, label: str, cell: CellReport,
            prefixes=(), health=None) -> None:
    """Scrape ``/metrics`` and ``/health`` over real HTTP. The
    exposition must parse and carry a series for every prefix in
    ``prefixes``; the health body must satisfy ``health`` (key ->
    predicate on its value). Snapshots are kept as artefacts."""
    endpoint = front.endpoint
    if endpoint is None or not endpoint.running:
        cell.fail("scrape", f"{label}: endpoint not running")
        return
    try:
        with urllib.request.urlopen(endpoint.url + "/metrics",
                                    timeout=5) as resp:
            body = resp.read().decode("utf-8")
        families = parse_prometheus(body)
        for prefix in prefixes:
            if not any(name.startswith(prefix) for name in families):
                cell.fail("scrape",
                          f"{label}: no {prefix}* series in /metrics")
        path = dest / f"metrics-{label}.prom"
        path.write_text(body, encoding="utf-8")
        cell.scrape_paths.append(str(path))
        try:
            with urllib.request.urlopen(endpoint.url + "/health",
                                        timeout=5) as resp:
                health_body = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            # 503 == unhealthy-but-well-formed; still validated below.
            health_body = exc.read().decode("utf-8")
        verdict = json.loads(health_body)
        for key, valid in (health or {}).items():
            if not valid(verdict.get(key)):
                cell.fail("scrape",
                          f"{label}: /health lacks a valid {key!r} entry")
        path = dest / f"health-{label}.json"
        path.write_text(health_body, encoding="utf-8")
        cell.scrape_paths.append(str(path))
    except (OSError, ValueError, ExpositionError) as exc:
        cell.fail("scrape", f"{label}: {exc}")


def _span_invariants(records, committed: int, cell: CellReport) -> None:
    """Every committed op must be covered by a *complete*
    ``service.request`` span whose end record is stamped
    ``committed=True`` — and the stamped count must equal the
    committed log exactly."""
    starts: set[int] = set()
    ends: dict[int, dict] = {}
    for record in records:
        if record.name != "service.request" or record.span_id is None:
            continue
        if record.kind == "span.start":
            starts.add(record.span_id)
        elif record.kind == "span.end":
            ends[record.span_id] = record.attrs
    stamped = sum(1 for attrs in ends.values()
                  if attrs.get("committed") == "True")
    cell.tallies.update(request_spans=len(ends), committed_spans=stamped)
    dangling = starts - set(ends)
    if dangling:
        cell.fail("spans",
                  f"{len(dangling)} request spans started but never ended")
    elif stamped != committed:
        cell.fail("spans", f"{stamped} committed request spans for "
                           f"{committed} committed ops")


def _attr_int(record, key: str) -> int | None:
    try:
        return int(str(record.attrs.get(key)))
    except (TypeError, ValueError):
        return None


def _check_pipeline(cell: CellReport, mode: str, replicas: int,
                    records, acked: list) -> None:
    """Every sequence number the primary acked must be covered by at
    least the commit mode's ack quota of ``replica.apply`` spans
    (their ``[from_seq, applied_to]`` interval contains it) or by a
    snapshot install whose ``wal_applied`` floor subsumes it."""
    needed = CommitMode.parse(mode).required_acks(replicas)
    if needed == 0 or not acked:
        return
    applied: dict[str, list[tuple[int, int]]] = {}
    floors: dict[str, int] = {}
    for record in records:
        if record.kind != "span.end":
            continue
        name = str(record.attrs.get("replica"))
        if record.name == "replica.apply":
            low = _attr_int(record, "from_seq")
            high = _attr_int(record, "applied_to")
            if low is not None and high is not None and high >= low:
                applied.setdefault(name, []).append((low, high))
        elif record.name == "replica.snapshot_install":
            wal = _attr_int(record, "wal_applied")
            if wal is not None:
                floors[name] = max(floors.get(name, 0), wal)
    uncovered = []
    for seq, _ in acked:
        covering = {name for name, spans in applied.items()
                    if any(low <= seq <= high for low, high in spans)}
        covering |= {name for name, floor in floors.items()
                     if floor >= seq}
        if len(covering) < needed:
            uncovered.append((seq, sorted(covering)))
    if uncovered:
        cell.fail("pipeline",
                  f"acked commits lacking {needed} replica applies in the "
                  f"span stream: {uncovered[:5]}"
                  + (f" (+{len(uncovered) - 5} more)"
                     if len(uncovered) > 5 else ""))


def _check_timeline(cell: CellReport, records, dest: Path,
                    label: str) -> None:
    """Fold the cell's event stream into the audit timeline, keep it as
    a JSONL artefact, and audit the fence ordering: every acked
    old-term commit at or below the fence precedes the fence record,
    every new-term commit follows it. After a failover the fence,
    promote and rejoin entries — and for an election the lease expiry
    and the election — must be in the trail."""
    timeline = replication_timeline(records)
    path = dest / f"timeline-{label}.jsonl"
    path.write_text(timeline.to_jsonl() + "\n", encoding="utf-8")
    cell.scrape_paths.append(str(path))
    problems = timeline.fence_violations()
    if problems:
        cell.fail("timeline", f"fence ordering violated: {problems[:3]}")
    if cell.promotion is None:
        return
    required = ["fence", "promote", "rejoin"]
    if cell.elections:
        required += ["lease_expire", "elect"]
    for kind in required:
        if not timeline.of_kind(kind):
            cell.fail("timeline", f"no {kind} entry after the failover")
    fences = timeline.of_kind("fence")
    if fences and fences[-1].fence_seq != cell.fence_seq:
        cell.fail("timeline", f"timeline fence at seq "
                              f"{fences[-1].fence_seq}, promotion "
                              f"reported {cell.fence_seq}")


def _write_pipeline_dot(cell: CellReport, records, acked: list,
                        dest: Path, label: str) -> None:
    """Fold the last acked commit's cross-node trace — the
    ``service.request`` root down through ship, receive, WAL append,
    apply and ack spans on every replica — into a DOT artefact."""
    if not acked:
        return
    last_seq = acked[-1][0]
    spans = {record.span_id: record for record in records
             if record.kind == "span.end" and record.span_id is not None}

    def root_of(record):
        while record.parent_span in spans:
            record = spans[record.parent_span]
        return record

    target = None
    for record in spans.values():
        if record.name != "replication.ship":
            continue
        low = _attr_int(record, "from_seq")
        high = _attr_int(record, "through_seq")
        if low is not None and high is not None and low <= last_seq <= high:
            # Prefer the commit-path ship (rooted in the request that
            # carried the commit) over later catch-up re-ships.
            if target is None or root_of(record).name == "service.request":
                target = record
    if target is None:
        cell.notes.append(f"no ship span covering acked seq {last_seq}; "
                          f"pipeline DOT skipped")
        return
    children: dict[int, list[int]] = {}
    for record in spans.values():
        if record.parent_span is not None:
            children.setdefault(record.parent_span,
                                []).append(record.span_id)
    keep: set[int] = set()
    stack = [root_of(target).span_id]
    while stack:
        span_id = stack.pop()
        if span_id not in keep:
            keep.add(span_id)
            stack.extend(children.get(span_id, ()))
    dag = propagation_dag([r for r in records if r.span_id in keep])
    path = dest / f"pipeline-{label}.dot"
    path.write_text(dag.to_dot(name="pipeline") + "\n", encoding="utf-8")
    cell.scrape_paths.append(str(path))


# -- failover -----------------------------------------------------------------


def _wait(done, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not done():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def _expect_fenced(service: DatabaseService, victim: str,
                   cell: CellReport, tag: str) -> None:
    try:
        service.insert(victim, f"{tag}_x", f"{tag}_y", deadline=5.0)
        cell.fail("fence", f"deposed primary wrote ({tag}): no fence")
    except StalePrimary:
        pass
    except ReproError as exc:
        cell.fail("fence", f"deposed write ({tag}) raised {exc!r}, "
                           f"wanted StalePrimary")


def fail_over(group: ReplicationGroup, service: DatabaseService,
              victim: str, cell: CellReport, *, coordinator=None,
              during=None, **service_kwargs) -> DatabaseService | None:
    """Kill ``service``'s primary mid-commit and fail ``group`` over.

    Cut every replica link and force one write to ``victim`` through
    that nobody acks: durable locally, it must surface as
    :exc:`ReplicationTimeout` (the deterministic unacked tail). Run
    ``during`` (writes that must keep working elsewhere), then depose
    the primary. With a ``coordinator`` the harness only watches: the
    primary must self-demote before its WAL moves and exactly one
    election must run. Without one, the harness calls ``promote()``.
    Either way no acked seq may sit past the fence and the deposed
    primary must be turned away with :exc:`StalePrimary`.

    Returns a new :class:`DatabaseService` on the chosen replica's
    state and WAL (``service_kwargs`` forwarded), or ``None`` when no
    promotion happened. Failover facts and failures land in ``cell``.
    """
    lease = group.lease
    _partition(group, True)
    if OBS.enabled:
        OBS.action("soak.partition", replica="*", phase="failover")
    old_term, old_timeout = group.term, group.ack_timeout
    # Time the ack wait out well inside the lease validity window so
    # the kill surfaces as ReplicationTimeout rather than as the later
    # self-demotion.
    group.ack_timeout = 0.2 if lease is None \
        else min(0.2, lease.config.primary_validity / 2)
    try:
        service.insert(victim, "tail_x", "tail_y", deadline=5.0)
        cell.fail("failover",
                  "isolated-primary commit did not raise ReplicationTimeout")
    except ReplicationTimeout:
        pass
    except ReproError as exc:
        cell.fail("failover",
                  f"isolated-primary write failed unexpectedly: {exc!r}")
    finally:
        group.ack_timeout = old_timeout
    acked = service.acked_ops()
    if during is not None:
        during()
    if coordinator is None:
        _partition(group, False)
        try:
            promotion = group.promote()
        except ReplicationError as exc:
            cell.fail("failover", f"promotion failed: {exc!r}")
            return None
    else:
        # Self-demotion: once a quorum can no longer renew the lease,
        # the primary must refuse writes before any election has run
        # and before the update reaches its WAL.
        horizon = lease.config.detector_horizon + 5.0
        if not _wait(group.leaderless, horizon):
            cell.fail("failover", "isolated primary never self-demoted")
            return None
        wal_before = service.logged.log.last_seq()
        _expect_fenced(service, victim, cell, "lapsed")
        if service.logged.log.last_seq() != wal_before:
            cell.fail("fence", "deposed write reached the old WAL")
        if not _wait(lambda: coordinator.elections, horizon):
            cell.fail("failover",
                      "no automatic election inside the detection window")
            return None
        promotion = coordinator.elections[-1]
        cell.elections = len(coordinator.elections)
        if cell.elections != 1:
            cell.fail("failover", f"{cell.elections} elections ran, "
                                  f"expected exactly one")
    cell.promotion = promotion.as_dict()
    cell.fence_seq = group.fence_seq(old_term)
    check_fence(cell, acked, cell.fence_seq)
    _expect_fenced(service, victim, cell, "deposed")
    service.close(timeout=10.0)
    _partition(group, False)
    chosen = group.replica(promotion.chosen)
    group.remove_replica(promotion.chosen)
    return DatabaseService(chosen.db, log=UpdateLog(chosen.wal_path),
                           replication=group, node=chosen.name,
                           **service_kwargs)


# -- topologies ---------------------------------------------------------------


def _retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=4, base_delay=0.004, max_delay=0.05, jitter=0.004,
        retryable=RetryPolicy().retryable + (PersistenceError,),
    )


def _group(config: SoakConfig, mode: str,
           lease: bool) -> ReplicationGroup:
    group = ReplicationGroup(mode, ack_timeout=config.ack_timeout,
                             retry_interval=0.01, journal=True)
    if lease:
        # Enabled before the service attaches so the very first term
        # is lease-granted.
        group.enable_lease(LeaseConfig(
            duration=config.lease_duration,
            margin=config.lease_margin,
            renew_interval=config.lease_renew_interval,
            check_interval=0.02,
        ))
    return group


def _lead(group: ReplicationGroup, config: SoakConfig):
    """Start lease renewal and a coordinator watching every replica.
    With faults on, skew the clocks out to the lease margin — the
    primary fast, one replica slow — and drop heartbeats: lease safety
    must not depend on comparable clocks or a reliable beat stream."""
    lease = group.lease
    coordinator = FailoverCoordinator(group, lease.config)
    names = group.replica_names()
    for name in names:
        coordinator.watch(group.replica(name))
    lease.start()
    coordinator.start()
    if config.faults:
        FAULTS.arm("repl.lease.clock", ClockSkewFault(offsets={
            group.primary_name: config.lease_margin,
            names[0]: -config.lease_margin,
        }))
        FAULTS.arm("repl.lease.heartbeat", HeartbeatDropFault(
            rate=config.heartbeat_drop_rate, seed=config.seed,
        ))
    return coordinator


class _Topology:
    """One cell's service stack. Subclasses build ``front`` and
    ``plans`` and define the controller ``step``, the ``epilogue``
    (which runs the state oracles) and the event-stream ``audit``."""

    slug = ""           # cell label in artefact names
    prefixes: tuple = ()
    health: dict = {}

    def __init__(self, config: SoakConfig, cell: CellReport,
                 scrape_dir: Path) -> None:
        self.config, self.cell, self.scrape_dir = config, cell, scrape_dir
        self.closers: list = []
        self.step = None

    def scrape(self, label: str) -> None:
        _scrape(self.front, self.scrape_dir,
                f"{self.slug}-{label}" if self.slug else label,
                self.cell, self.prefixes, self.health)

    def epilogue(self) -> None:
        raise NotImplementedError

    def audit(self, records) -> None:
        pass

    def close(self) -> None:
        for closer in reversed(self.closers):
            try:
                closer()
            except ReproError:
                pass


class _SingleNode(_Topology):
    health = {"healthy": lambda value: isinstance(value, bool)}

    def __init__(self, config, cell, scrape_dir, cell_dir: Path) -> None:
        super().__init__(config, cell, scrape_dir)
        self.snapshot = cell_dir / "snapshot.json"
        self.wal = cell_dir / "updates.wal"
        self.db = _seeded(config)
        # Baseline snapshot so strict recovery works even if no worker
        # checkpoint lands before a failure.
        persistence.save(self.db, self.snapshot, wal_applied=0)
        self.front = DatabaseService(
            self.db, log=self.wal, lock_timeout=config.lock_timeout,
            retry=_retry(), max_concurrent=config.max_concurrent,
            max_queue=config.max_queue, queue_timeout=config.queue_timeout,
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=0.1),
            objectives=(Objective(
                "soak-error-rate", ERROR_RATE, config.slo_error_threshold,
                window=config.slo_window,
                fast_fraction=config.slo_fast_fraction,
            ),),
            seed=config.seed,
        )
        self.closers.append(self.front.close)
        self.plans = [_plan_worker_ops(self.db, worker, config,
                                       self.snapshot)
                      for worker in range(config.threads)]
        self.step = _storage_step(_storage_phases(config.seed))

    def _write_until(self, tag: str, done, seconds: float) -> bool:
        """Write to the quiet base ``c`` (failures swallowed) until
        ``done()`` or the budget runs out."""
        deadline = time.monotonic() + seconds
        sequence = 0
        while time.monotonic() < deadline:
            try:
                self.front.insert("c", f"C0_{tag}", f"C1_{tag}{sequence}",
                                  deadline=2.0)
            except (PersistenceError, OSError, ServiceReadOnly):
                pass
            sequence += 1
            self.front.slo.evaluate()
            if done():
                return True
            time.sleep(0.01)
        return False

    def epilogue(self) -> None:
        # Force one storage outage and its recovery: the breaker must
        # open and close and the error-rate SLO must raise and clear,
        # whatever the random schedule did. The successful writes land
        # in the committed log like any others.
        service, cell = self.front, self.cell
        breaker, slo = service.breaker, service.slo
        trips = breaker.trips
        FAULTS.arm("wal.append.before", TransientError(times=10 ** 6))
        try:
            broke = self._write_until(
                "outage", lambda: breaker.trips > trips and not slo.healthy,
                10.0)
        finally:
            FAULTS.disarm("wal.append.before")
        if not broke:
            cell.fail("slo", "forced outage never tripped the breaker and "
                             f"raised an alert (alerts={list(slo.alerts)})")
        elif not self._write_until(
                "recovered",
                lambda: slo.healthy and breaker.state == "closed",
                10.0 + self.config.slo_window):
            cell.fail("slo", "breaker or SLO alert never cleared after "
                             f"recovery (alerts={list(slo.alerts)})")
        if self.config.serve_endpoint:
            self.scrape("final")
        service.drain(timeout=10.0)
        committed = service.committed_ops()
        cell.committed = len(committed)
        cell.tallies.update(breaker_trips=breaker.trips,
                            breaker_resets=breaker.resets)
        diff = replay_diff(_seeded(self.config), committed, self.db)
        if diff:
            cell.fail("replay", diff)
        try:
            recovered = recover(self.snapshot, self.wal, policy="strict")
            diff = states_diff(recovered.db, self.db)
        except (PersistenceError, OSError) as exc:
            diff = f"recovery failed: {exc}"
        if diff:
            cell.fail("recovery", diff)
        stats = service.stats()
        cell.notes.append(
            f"service: {stats['retries']} retries, {stats['deadlocks']} "
            f"deadlocks, {stats['lock_timeouts']} lock timeouts, "
            f"{stats['shed']} shed"
        )

    def audit(self, records) -> None:
        _span_invariants(records, self.cell.committed, self.cell)
        actions = Counter(r.name for r in records if r.kind == "action")
        for oracle, names in (("breaker", ("breaker.open",
                                           "breaker.closed")),
                              ("slo", ("slo.alert_raised",
                                       "slo.alert_cleared"))):
            missing = [name for name in names if not actions[name]]
            if missing:
                self.cell.fail(oracle, f"no {', '.join(missing)} action "
                                       f"in the event log")


class _Replicated(_Topology):
    health = {"replication": lambda value: isinstance(value, dict)
              and "term" in value}

    def __init__(self, config, cell, scrape_dir, cell_dir: Path,
                 mode: str, scenario: str) -> None:
        super().__init__(config, cell, scrape_dir)
        self.mode, self.scenario = mode, scenario
        self.slug = _slug(mode, scenario)
        # The primary keeps the file layout a Replica expects
        # (snapshot.json + wal.log), so after a failover its directory
        # rejoins the group as a follower unchanged.
        self.primary_dir = cell_dir / "primary"
        self.primary_dir.mkdir(parents=True, exist_ok=True)
        snapshot = self.primary_dir / "snapshot.json"
        self.db = _seeded(config)
        persistence.save(self.db, snapshot, wal_applied=0)
        self.group = _group(config, mode, lease=config.auto_failover)
        self.front = DatabaseService(
            self.db, log=self.primary_dir / "wal.log",
            lock_timeout=config.lock_timeout, retry=_retry(),
            breaker=CircuitBreaker(failure_threshold=4, reset_timeout=0.1),
            replication=self.group, node="primary", seed=config.seed,
        )
        self.closers.append(self.front.close)
        names = [f"r{i}" for i in range(config.replicas)]
        for name in names:
            self.group.add_replica(name, Replica(name, cell_dir / name))
        self.coordinator = None
        if config.auto_failover:
            self.coordinator = _lead(self.group, config)
            self.closers += [self.group.lease.stop, self.coordinator.stop]
        if config.faults:
            FAULTS.arm("repl.transport.deliver",
                       LatencyFault(0.0005, jitter=0.002, seed=config.seed))
        self.plans = [
            _with_replica_reads(
                _plan_worker_ops(self.db, worker, config, snapshot),
                worker, config)
            for worker in range(config.threads)
        ]
        if scenario == "partition":
            self.step = _partition_step(self.group)
        elif scenario == "replica_crash":
            self.step = _crash_step(self.group, names,
                                    random.Random(config.seed * 48611 + 7))
        self.acked: list = []

    @property
    def prefixes(self) -> tuple:
        return ("replication_lag_seq_",) + (
            ("replication_lease_",) if self.group.lease else ())

    def scrape(self, label: str) -> None:
        try:
            self.group.lag()  # refresh the gauges the scrape must contain
        except ReproError:
            pass
        super().scrape(label)

    def epilogue(self) -> None:
        config, cell, group = self.config, self.cell, self.group
        _partition(group, False)
        _restart_crashed(group)
        committed = self.front.committed_ops()
        self.acked = list(self.front.acked_ops())
        primary_db = self.db
        # With auto-failover on, the partition cells fail over too —
        # the kill then hits a group whose links just spent the whole
        # workload flapping.
        if _fails_over(config, self.scenario):
            new = fail_over(group, self.front, "c", cell,
                            coordinator=self.coordinator,
                            lock_timeout=config.lock_timeout,
                            seed=config.seed + 1)
            if new is None:
                return
            self.closers.append(new.close)
            for index in range(5):
                try:
                    new.insert("c", "C0_post", f"C1_post{index}",
                               deadline=5.0)
                except ReproError as exc:
                    cell.fail("failover",
                              f"post-failover write failed: {exc!r}")
                    break
            try:
                rejoin = group.rejoin(Replica("old-primary",
                                              self.primary_dir),
                                      cell.promotion["old_term"])
                cell.rejoin = rejoin.as_dict()
                if rejoin.records_dropped < 1 and not rejoin.rebootstrapped:
                    cell.fail("rejoin", "rejoin dropped no records "
                                        "despite the unacked tail")
            except ReproError as exc:
                cell.fail("rejoin", f"rejoin failed: {exc!r}")
            self.front, primary_db = new, new.db
            committed += new.committed_ops()
            self.acked += new.acked_ops()
        cell.committed, cell.acked = len(committed), len(self.acked)
        _settle(cell, group, primary_db)
        if cell.promotion is None:
            # Valid only without a failover: after one, the old
            # primary's committed log includes the fenced-away tail.
            diff = replay_diff(_seeded(config), committed, primary_db)
            if diff:
                cell.fail("replay", f"committed replay diverged: {diff}")
        # The shipped-stream oracle: across a failover, the proof that
        # the surviving history and only that history was applied.
        diff = replay_diff(_seeded(config), _journal_ops(group), primary_db)
        if diff:
            cell.fail("journal", f"journal replay diverged: {diff}")
        if config.serve_endpoint:
            if self.front.endpoint is None:
                self.front.serve_metrics()
            self.scrape("final")

    def audit(self, records) -> None:
        _check_pipeline(self.cell, self.mode, self.config.replicas,
                        records, self.acked)
        _check_timeline(self.cell, records, self.scrape_dir, self.slug)
        _write_pipeline_dot(self.cell, records, self.acked,
                            self.scrape_dir, self.slug)


class _Sharded(_Topology):
    def __init__(self, config, cell, scrape_dir, cell_dir: Path) -> None:
        super().__init__(config, cell, scrape_dir)
        self.groups: dict[int, ReplicationGroup] = {}
        mode = (config.modes or _MODES)[0]

        def replication_factory(shard: int):
            if not config.replicas:
                return None
            # Only shard 0's lane runs leased leadership: its failover
            # is the epilogue's.
            self.groups[shard] = _group(
                config, mode, lease=config.auto_failover and shard == 0)
            return self.groups[shard]

        self.front = ShardedDatabaseService(
            lambda: shard_soak_database(config.clusters), config.shards,
            pins=_balanced_pins(config), log_dir=cell_dir / "lanes",
            replication_factory=replication_factory,
            service_kwargs=dict(
                lock_timeout=config.lock_timeout, retry=_retry(),
                breaker=CircuitBreaker(failure_threshold=4,
                                       reset_timeout=0.1),
                seed=config.seed,
            ),
        )
        self.closers.append(self.front.close)
        # Each lane holds only its own functions' facts; the replay
        # oracle seeds its fresh instances identically.
        for shard in range(config.shards):
            shard_preload(self.front.lane(shard).db,
                          self.front.map.names_on(shard),
                          config.preload_rows)
        for shard, group in self.groups.items():
            for index in range(config.replicas):
                name = f"s{shard}r{index}"
                group.add_replica(
                    name, Replica(name, cell_dir / "replicas" / name))
        self.coordinator = None
        if config.auto_failover:
            self.coordinator = _lead(self.groups[0], config)
            self.closers += [self.groups[0].lease.stop,
                             self.coordinator.stop]
        self.plans = [_plan_shard_worker(self.front, worker, config)
                      for worker in range(config.threads)]
        self.step = _storage_step(_storage_phases(config.seed)[:3])
        self.prefixes = tuple(f"service_shard_{shard}_"
                              for shard in range(config.shards))
        self.health = {"lanes": lambda lanes: isinstance(lanes, dict)
                       and len(lanes) == config.shards}

    def _first_name(self, shard: int) -> str:
        return sorted(self.front.map.names_on(shard))[0]

    def _write_other_lanes(self) -> None:
        """The other lanes must not notice shard 0's outage."""
        for shard in range(1, self.config.shards):
            try:
                self.front.insert(self._first_name(shard),
                                  "during_failover_x",
                                  f"during_failover_y{shard}",
                                  deadline=5.0)
            except ReproError as exc:
                self.cell.fail("failover", f"shard {shard} write failed "
                                           f"during shard 0's failover: "
                                           f"{exc!r}")

    def epilogue(self) -> None:
        config, cell, front = self.config, self.cell, self.front
        swapped: set[int] = set()
        if self.groups:
            victim = self._first_name(0)
            new = fail_over(self.groups[0], front.lane(0), victim, cell,
                            coordinator=self.coordinator,
                            during=self._write_other_lanes, shard=0,
                            lock_timeout=config.lock_timeout,
                            seed=config.seed + 1)
            if new is not None:
                front.swap_lane(0, new)
                swapped.add(0)
                # The facade routes to the new lane; single- and
                # multi-shard paths must both work across the swap.
                try:
                    front.insert(victim, "post_failover_x",
                                 "post_failover_y", deadline=5.0)
                    if config.shards > 1:
                        front.execute(UpdateSequence((
                            Update.ins(victim, "post_multi_x",
                                       "post_multi_y"),
                            Update.ins(self._first_name(1),
                                       "post_multi_p", "post_multi_q"),
                        ), label="post-failover-multi"), deadline=5.0)
                except ReproError as exc:
                    cell.fail("failover", f"post-failover write through "
                                          f"the facade failed: {exc!r}")
        for shard, group in self.groups.items():
            _settle(cell, group, front.lane(shard).db)
        journals, committed = {}, {}
        for shard in range(config.shards):
            ops = front.committed_ops(shard)
            journals[shard] = front.cross_markers(shard)
            committed[shard] = len(ops)
            cell.tallies[f"shard{shard}.committed"] = len(ops)
            cell.tallies[f"shard{shard}.markers"] = len(journals[shard])
            if shard in swapped:
                cell.notes.append(
                    f"shard {shard}: replay equality skipped (its log "
                    f"includes the fenced-away tail); covered by the "
                    f"acked-loss and replica-convergence checks")
                continue
            expected = shard_soak_database(config.clusters)
            shard_preload(expected, front.map.names_on(shard),
                          config.preload_rows)
            diff = replay_diff(expected, ops, front.lane(shard).db)
            if diff:
                cell.fail("replay", f"shard {shard} diverged from its "
                                    f"sequential replay: {diff}")
        cell.committed = sum(committed.values())
        cell.tallies["multi_writes"] = front.stats()["multi_writes"]
        check_markers(cell, journals, committed, swapped)
        self._dump_journals(journals)
        if config.serve_endpoint:
            self.scrape("final")

    def _dump_journals(self, journals: dict) -> None:
        """Per-shard JSONL artefacts: one line per committed op, with
        the cross-shard marker where one applies."""
        for shard, journal in journals.items():
            by_index = {index: marker for marker, index in journal}
            path = self.scrape_dir / f"shard-{shard}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                for index, op in enumerate(self.front.committed_ops(shard)):
                    handle.write(json.dumps({
                        "index": index, "op": str(op),
                        "marker": by_index.get(index),
                    }, sort_keys=True) + "\n")
            self.cell.scrape_paths.append(str(path))


# -- the run ------------------------------------------------------------------


def _slug(mode: str, scenario: str) -> str:
    return f"{mode.replace('(', '').replace(')', '')}-{scenario}"


def _fails_over(config: SoakConfig, scenario: str) -> bool:
    return scenario == "primary_kill" or (
        config.auto_failover and scenario == "partition")


def _cells(config: SoakConfig, scrape_dir: Path):
    """(label, dir name, builder(cell, cell_dir)) per cell."""
    if config.shards:
        label = "sharded" + (f" / {(config.modes or _MODES)[0]}"
                             if config.replicas else "")
        yield label, "sharded", lambda cell, cell_dir: _Sharded(
            config, cell, scrape_dir, cell_dir)
    elif config.replicas:
        for mode in config.modes or _MODES:
            for scenario in config.scenarios or _SCENARIOS:
                yield (f"{mode} / {scenario}", _slug(mode, scenario),
                       lambda cell, cell_dir, m=mode, s=scenario:
                       _Replicated(config, cell, scrape_dir, cell_dir,
                                   m, s))
    else:
        yield "single node", "single-node", lambda cell, cell_dir: \
            _SingleNode(config, cell, scrape_dir, cell_dir)


def _run_cell(config: SoakConfig, label: str, build,
              cell_dir: Path) -> CellReport:
    cell = CellReport(label)
    started = time.monotonic()
    # A per-cell record stream: the run's JSONL interleaves every cell
    # (and a primary's WAL seq restarts between them), so the
    # event-stream oracles fold this file instead.
    sink = FileSink(cell_dir / "events.jsonl")
    OBS.events.add_sink(sink)
    stop = threading.Event()
    topology = None
    audit = False
    try:
        topology = build(cell, cell_dir)
        counts: Counter = Counter()
        counts_lock = threading.Lock()
        errors: list = []
        workers = [
            threading.Thread(target=_run_worker,
                             args=(topology.front, plan, counts,
                                   counts_lock, errors),
                             name=f"soak-worker-{i}", daemon=True)
            for i, plan in enumerate(topology.plans)
        ]
        controller = None
        if config.faults and topology.step is not None:
            controller = threading.Thread(
                target=_controller, args=(topology.step, config, stop),
                name="soak-controller", daemon=True,
            )
            controller.start()
        for worker in workers:
            worker.start()
        if config.serve_endpoint:
            topology.front.serve_metrics()
            # Mid-soak scrape with workers and faults live: the
            # exposition must be well-formed while the registry is
            # being hammered, not just at rest.
            time.sleep(min(0.25, config.wall_clock_limit / 10))
            topology.scrape("mid")
        budget = started + config.wall_clock_limit
        for worker in workers:
            worker.join(max(budget - time.monotonic(), 0.1))
        hung = sum(1 for worker in workers if worker.is_alive())
        stop.set()
        if controller is not None:
            controller.join(config.phase_seconds * 4 + 1.0)
        # Quiesce: every fault off except the clock skew — expiry,
        # election and fencing must hold under drift up to the margin.
        for point in FAULTS:
            if point != "repl.lease.clock":
                FAULTS.disarm(point)
        cell.counts = dict(counts)
        if hung:
            cell.fail("hung", f"{hung} workers hung")
        for exc in errors:
            cell.fail("harness", repr(exc))
        if hung or errors:
            return cell
        planned = sum(len(plan) for plan in topology.plans)
        if sum(counts.values()) != planned:
            cell.fail("accounting", f"workers reported "
                                    f"{sum(counts.values())} outcomes for "
                                    f"{planned} planned ops")
        topology.epilogue()
        audit = True
    finally:
        stop.set()
        if topology is not None:
            topology.close()
        FAULTS.disarm_all()
        OBS.events.remove_sink(sink)
        sink.close()
        cell.duration = time.monotonic() - started
    if audit:
        try:
            topology.audit(read_jsonl(sink.path))
        except (OSError, ValueError) as exc:
            cell.fail("harness", f"cell event stream unreadable: {exc}")
    return cell


def _audit_failovers(config: SoakConfig, report: SoakReport) -> None:
    """Run-wide: every failover cell promoted, fenced its deposed
    primary and (replicated) rejoined it; under auto-failover every
    promotion was the coordinator's election."""
    if not config.replicas:
        return
    if config.shards:
        failovers, rejoins = 1, 0
    else:
        failovers = rejoins = sum(
            1 for _ in config.modes or _MODES
            for scenario in config.scenarios or _SCENARIOS
            if _fails_over(config, scenario))
    actions = report.actions
    for name, expected in (("replication.promote", failovers),
                           ("replication.write_fenced", failovers),
                           ("replication.rejoin", rejoins)):
        if actions[name] < expected:
            report.failures.append(
                f"event log shows {actions[name]} {name} actions for "
                f"{expected} failover cells")
    if config.auto_failover and (
            actions["replication.promote"]
            != actions["replication.elected"]):
        report.failures.append(
            f"{actions['replication.promote']} promotions vs "
            f"{actions['replication.elected']} elections: a promotion "
            f"ran outside the coordinator")


def run_soak(config: SoakConfig = SoakConfig()) -> SoakReport:
    """Run every cell of ``config``'s topology; see the module
    docstring for the oracles."""
    workdir = Path(config.workdir or tempfile.mkdtemp(prefix="fdb-soak-"))
    workdir.mkdir(parents=True, exist_ok=True)
    jsonl = Path(config.jsonl or workdir / "soak-events.jsonl")
    scrape_dir = Path(config.scrape_dir or workdir)
    scrape_dir.mkdir(parents=True, exist_ok=True)
    report = SoakReport(config=config, jsonl_path=str(jsonl))
    sink = FileSink(jsonl)
    was_enabled = OBS.enabled
    OBS.events.add_sink(sink)
    OBS.enable()
    started = time.monotonic()
    try:
        for label, dirname, build in _cells(config, scrape_dir):
            cell_dir = workdir / dirname
            cell_dir.mkdir(parents=True, exist_ok=True)
            report.cells.append(_run_cell(config, label, build, cell_dir))
    finally:
        FAULTS.disarm_all()
        if not was_enabled:
            OBS.disable()
        OBS.events.remove_sink(sink)
        sink.close()
    report.duration = time.monotonic() - started
    report.actions = Counter(r.name for r in read_jsonl(jsonl)
                             if r.kind == "action")
    _audit_failovers(config, report)
    return report
