"""The crash-matrix harness: kill the process at every fault point,
then prove recovery.

For each registered fault point the driver runs a scripted workload —
updates through a :class:`repro.fdb.wal.LoggedDatabase`, a checkpoint
in the middle — with a fault armed at that point, catches the
:class:`SimulatedCrash`, and recovers from the files the "dead
process" left behind. The assertion is always the same, and it is the
paper's durability contract: **recovery reproduces exactly the
committed prefix** — every update that was acknowledged (or durably
logged at the crash instant) and nothing else.

What "committed" means at a crash is decided by the fault point's
registered ``durable`` flag: an update in flight when the process dies
*before* its record is durably appended never happened; one in flight
*after* the durable append is committed intent and must replay. The
expected state is computed independently of recovery, by re-running
the committed updates on a fresh copy of the seed instance (update
application is deterministic, which is the whole reason log replay
works — Section 4.1's procedures draw null and NC indices from
persisted counters).

Two sweeps complement the point matrix:

* torn writes — the torn-capable points run again with
  :class:`TornWrite` faults that persist only a prefix of the record;
* a byte-truncation sweep over *every* offset of the final WAL record
  of a cleanly finished run, simulating the tail loss an fsync-less
  filesystem can inflict after the fact.

Run the whole thing from the command line::

    python -m repro.faults
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.faults.registry import (
    FAULTS,
    CrashFault,
    ErrorFault,
    Fault,
    SimulatedCrash,
    TornWrite,
)
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update, UpdateSequence, apply_update
from repro.fdb.wal import LoggedDatabase, RecoveryReport, UpdateLog, \
    checkpoint, recover
from repro.workloads.university import pupil_database, section_42_updates

__all__ = [
    "CrashOutcome",
    "default_workload",
    "states_diff",
    "run_scenario",
    "run_crash_matrix",
    "run_truncation_sweep",
    "main",
]

# Points that only fire when an *apply* fails: their runs additionally
# arm an ErrorFault at wal.apply.before so the failure path is taken.
_FAILURE_PATH_POINTS = frozenset({
    "txn.rollback.before-restore",
    "wal.abort.append",
})

# Torn-write prefix lengths tried at torn-capable points (clamped by
# TornWrite itself to the payload length).
_TORN_PREFIXES = (0, 1, 17)


def default_workload() -> list[tuple]:
    """The scripted run: the paper's Section 4.2 update sequence with
    a checkpoint in the middle, then a replace and an atomic sequence
    so the transactional paths fire too."""
    u = section_42_updates()
    return [
        ("update", u[0]),
        ("update", u[1]),
        ("update", u[2]),
        ("checkpoint",),
        ("update", u[3]),
        ("update", u[4]),
        ("update", Update.rep("teach", ("euclid", "math"),
                              ("euclid", "cs"))),
        ("update", UpdateSequence((
            Update.ins("teach", "noether", "algebra"),
            Update.delete("teach", "noether", "algebra"),
        ), label="churn")),
    ]


def states_diff(expected: FunctionalDatabase,
                actual: FunctionalDatabase) -> str | None:
    """The first observable difference between two instances, or None.

    Compares everything update semantics can touch: stored rows (with
    flags and NCLs), the NC registry, and both index counters.
    """
    names = set(expected.base_names) | set(actual.base_names)
    for name in sorted(names):
        left = expected.table(name).rows()
        right = actual.table(name).rows()
        if left != right:
            return (f"table {name}: expected {left!r}, "
                    f"recovered {right!r}")
    left_ncs = {nc.index: nc.members for nc in expected.ncs}
    right_ncs = {nc.index: nc.members for nc in actual.ncs}
    if left_ncs != right_ncs:
        return f"NCs: expected {left_ncs!r}, recovered {right_ncs!r}"
    if expected.nulls.next_index != actual.nulls.next_index:
        return (f"null counter: expected {expected.nulls.next_index}, "
                f"recovered {actual.nulls.next_index}")
    if expected.ncs.next_index != actual.ncs.next_index:
        return (f"NC counter: expected {expected.ncs.next_index}, "
                f"recovered {actual.ncs.next_index}")
    return None


@dataclass(frozen=True)
class CrashOutcome:
    """One cell of the crash matrix."""

    point: str
    fault: str
    fired: bool
    crashed: bool
    divergence: str | None
    report: RecoveryReport | None

    @property
    def ok(self) -> bool:
        return self.fired and self.divergence is None

    def __str__(self) -> str:
        status = "ok" if self.ok else (
            "NOT-REACHED" if not self.fired else "DIVERGED"
        )
        crash = "crashed" if self.crashed else "survived"
        return f"{self.point:38s} {self.fault:18s} {crash:9s} {status}"


def _expected_state(committed: list) -> FunctionalDatabase:
    """The oracle: the committed prefix applied to a fresh seed
    instance, with no recovery machinery involved."""
    db = pupil_database()
    for update in committed:
        if isinstance(update, UpdateSequence):
            for simple in update:
                apply_update(db, simple)
        else:
            apply_update(db, update)
    return db


def run_scenario(point: str, fault: Fault, workdir: Path,
                 workload: list[tuple] | None = None) -> CrashOutcome:
    """Run the workload with ``fault`` armed at ``point`` in a fresh
    directory, then recover and compare against the committed prefix.
    """
    steps = workload if workload is not None else default_workload()
    workdir.mkdir(parents=True, exist_ok=True)
    snapshot = workdir / "snapshot.json"
    log_path = workdir / "wal.log"

    # Setup runs un-faulted: the seed snapshot is the recovery base.
    FAULTS.disarm_all()
    db = pupil_database()
    persistence.save(db, snapshot)
    logged = LoggedDatabase(db, UpdateLog(log_path))

    durable = {info.name: info.durable for info in FAULTS.points()}
    hits_before = FAULTS.hits(point)
    FAULTS.arm(point, fault)
    if point in _FAILURE_PATH_POINTS:
        FAULTS.arm("wal.apply.before", ErrorFault(times=1))

    committed: list = []
    in_flight = None
    crashed = False
    try:
        for step in steps:
            if step[0] == "checkpoint":
                checkpoint(logged, snapshot)
                continue
            update = step[1]
            in_flight = update
            try:
                logged.execute(update)
            except SimulatedCrash:
                raise
            except Exception:
                # Apply failed and was compensated (abort record):
                # not committed; the run carries on.
                in_flight = None
                continue
            committed.append(update)
            in_flight = None
    except SimulatedCrash:
        crashed = True
    finally:
        FAULTS.disarm_all()

    fired = FAULTS.hits(point) > hits_before
    if crashed and in_flight is not None and durable.get(point):
        # The process died with this update durably logged but not
        # (fully) applied: replay must produce it.
        committed.append(in_flight)

    report = recover(snapshot, log_path, policy="salvage")
    divergence = states_diff(_expected_state(committed), report.db)
    return CrashOutcome(point, repr(fault), fired, crashed,
                        divergence, report)


def run_crash_matrix(base_dir: Path,
                     workload: list[tuple] | None = None
                     ) -> list[CrashOutcome]:
    """Every registered single-node fault point × its applicable
    faults, plus one un-faulted control run. ``repl.*`` points only
    fire in a replicated topology; the replicated cells of the chaos
    soak in :mod:`repro.faults.soak` own them."""
    outcomes: list[CrashOutcome] = []
    cell = 0
    for info in FAULTS.points():
        if info.name.startswith("repl."):
            continue
        faults: list[Fault] = [CrashFault()]
        if info.supports_torn_write:
            faults.extend(TornWrite(n) for n in _TORN_PREFIXES)
        for fault in faults:
            cell += 1
            outcomes.append(run_scenario(
                info.name, fault, base_dir / f"cell-{cell:03d}",
                workload,
            ))
    # Control: no fault at all; the clean run must also round-trip.
    control_dir = base_dir / "control"
    control = run_scenario("wal.append.after", _NoopFault(),
                           control_dir, workload)
    outcomes.append(CrashOutcome(
        "(control: no fault)", "None", True, control.crashed,
        control.divergence, control.report,
    ))
    return outcomes


class _NoopFault(Fault):
    def trigger(self, point: str, **context) -> None:
        return

    def __repr__(self) -> str:
        return "None"


def run_truncation_sweep(base_dir: Path,
                         workload: list[tuple] | None = None
                         ) -> list[CrashOutcome]:
    """Cut the final WAL record of a clean run at *every* byte offset
    and recover: each tear must yield the state without the final
    update; the complete-but-unterminated record must yield the full
    state (it was written and fsync'd — only the newline is cosmetic).
    """
    steps = workload if workload is not None else default_workload()
    updates = [step[1] for step in steps if step[0] == "update"]
    workdir = base_dir / "sweep-base"
    clean = run_scenario("wal.append.after", _NoopFault(), workdir,
                         steps)
    if clean.divergence is not None:  # pragma: no cover - matrix bug
        raise AssertionError(f"clean run diverged: {clean.divergence}")

    log_path = workdir / "wal.log"
    snapshot = workdir / "snapshot.json"
    raw = log_path.read_bytes()
    last_line = raw.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    body_start = len(raw) - len(last_line) - 1  # -1: trailing newline

    without_last = _expected_state(updates[:-1])
    with_last = _expected_state(updates)
    outcomes: list[CrashOutcome] = []
    torn_path = base_dir / "sweep-torn.log"
    for offset in range(len(last_line) + 1):
        torn_path.write_bytes(raw[: body_start + offset])
        report = recover(snapshot, torn_path, policy="strict")
        expected = (with_last if offset == len(last_line)
                    else without_last)
        divergence = states_diff(expected, report.db)
        outcomes.append(CrashOutcome(
            f"truncation@{offset}", f"cut to {offset}B", True, True,
            divergence, report,
        ))
    return outcomes


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the full matrix + sweep, report, and fail
    on any divergence or unreached fault point."""
    import sys
    import tempfile

    base = Path(tempfile.mkdtemp(prefix="fdb-crash-matrix-"))
    matrix = run_crash_matrix(base / "matrix")
    sweep = run_truncation_sweep(base / "sweep")
    bad = [o for o in matrix + sweep if not o.ok]
    for outcome in matrix:
        print(outcome)
    print(f"truncation sweep: {len(sweep)} offsets, "
          f"{sum(1 for o in sweep if o.ok)} ok")
    print(f"matrix: {len(matrix)} cells, "
          f"{sum(1 for o in matrix if o.ok)} ok")
    for outcome in bad:
        print(f"FAIL: {outcome}"
              + (f"\n  {outcome.divergence}" if outcome.divergence
                 else ""), file=sys.stderr)
    return 1 if bad else 0
