"""The log index against a fresh scan of the same file.

:class:`repro.fdb.wal.UpdateLog` answers every read from an index that
its own appends extend and its own truncations rewrite, rebuilding it
only when the file's (inode, size, mtime) stop matching. The property:
after any mix of appends, aborts, checkpoints, fence cuts, torn writes,
tear discards and outside damage, the live log answers exactly as a
log opened fresh on the same file does.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FAULTS, ErrorFault, SimulatedCrash, TornWrite
from repro.fdb import persistence, storage, wal
from repro.fdb.updates import Update
from repro.fdb.wal import LoggedDatabase, UpdateLog, checkpoint
from repro.replication import Replica, ReplicationGroup
from repro.workloads.university import pupil_database

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("append", "failed_apply", "checkpoint",
                         "truncate_to", "torn_write", "discard_torn_tail",
                         "outside_garbage", "byte_flip")),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1, max_size=25,
)


def _outside_write(path: Path, offset: int | None, data: bytes) -> None:
    """Write to the log file behind the log's back: append ``data``
    (``offset`` None) or overwrite in place at ``offset``. The mtime is
    pushed forward so the change shows in the file's (inode, size,
    mtime) even on filesystems whose timestamp granularity is coarser
    than the gap between two steps of this test."""
    with path.open("r+b" if offset is not None else "ab") as handle:
        if offset is not None:
            handle.seek(offset)
        handle.write(data)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000))


def _step(logged: LoggedDatabase, snapshot: Path, kind: str,
          n: int) -> None:
    log, path = logged.log, logged.log.path
    if kind == "append":
        logged.execute(Update.ins("teach", f"t{n}", "cs"))
    elif kind == "failed_apply":
        with FAULTS.injected("wal.apply.before", ErrorFault(times=1)):
            with pytest.raises(RuntimeError):
                logged.execute(Update.ins("teach", f"t{n}", "math"))
    elif kind == "checkpoint":
        checkpoint(logged, snapshot)
    elif kind == "truncate_to":
        log.truncate_to(n % (log.last_seq() + 1))
    elif kind == "torn_write":
        with FAULTS.injected("storage.append.payload",
                             TornWrite(1 + n % 40)):
            with pytest.raises(SimulatedCrash):
                logged.execute(Update.ins("teach", f"t{n}", "cs"))
    elif kind == "discard_torn_tail":
        log.discard_torn_tail()
    elif kind == "outside_garbage":
        _outside_write(path, None, b"garbage\n" if n % 2 else b"{\"v\": 2")
    elif kind == "byte_flip":
        size = path.stat().st_size if path.exists() else 0
        if size:
            offset = n % size
            with path.open("rb") as handle:
                handle.seek(offset)
                byte = handle.read(1)[0]
            _outside_write(path, offset, bytes([byte ^ (1 + n % 255)]))


def _observed(log: UpdateLog, hi: int) -> dict:
    health = log.health()
    del health["path"], health["term"]
    return {
        "records": log.records_between(0, hi),
        "floor": log.shippable_floor(),
        "len": len(log),
        "torn": log.tail_is_torn,
        "health": health,
        "problems": log.scan("salvage").problems,
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=_STEPS)
def test_live_log_matches_a_fresh_scan(steps):
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot.json"
        db = pupil_database()
        persistence.save(db, snapshot)
        logged = LoggedDatabase(db, UpdateLog(Path(tmp) / "wal.log",
                                              fsync=False))
        try:
            for kind, n in steps:
                _step(logged, snapshot, kind, n)
                hi = logged.log.last_seq()
                fresh = UpdateLog(logged.log.path)
                assert _observed(logged.log, hi) == _observed(fresh, hi), \
                    (kind, n)
        finally:
            FAULTS.disarm_all()


def test_shipping_commits_one_at_a_time_scans_once(tmp_path, monkeypatch):
    """A sync(1) commit ships just its own record: the primary's log
    answers the floor check and the range read from its index, so
    fifty commits read the whole file at most once."""
    logged = LoggedDatabase(pupil_database(), tmp_path / "wal.log")
    scans = []
    real_scan = logged.log._scan

    def counting_scan():
        scans.append(1)
        return real_scan()

    monkeypatch.setattr(logged.log, "_scan", counting_scan)
    group = ReplicationGroup("sync(1)", ack_timeout=1.0,
                             retry_interval=0.005)
    group.attach_primary(logged)
    replica = Replica("r0", tmp_path / "r0")
    group.add_replica("r0", replica)
    for i in range(50):
        seq = logged.execute(Update.ins("teach", f"t{i}", "cs"))
        group.on_commit(seq)
    assert replica.applied_seq == 50
    assert len(scans) <= 1


def test_append_after_an_outside_rewrite_rebuilds(tmp_path):
    """An outside write that keeps the file's size, landing between
    two appends with no read in between, must not be papered over by
    the second append's in-place extension."""
    logged = LoggedDatabase(pupil_database(), tmp_path / "wal.log")
    logged.execute(Update.ins("teach", "gauss", "cs"))
    path = logged.log.path
    _outside_write(path, 5, b"#")  # damages record 1, same size
    logged.execute(Update.ins("teach", "noether", "cs"))
    fresh = UpdateLog(path)
    assert _observed(logged.log, 2) == _observed(fresh, 2)
    assert logged.log.health()["problems"] == 2  # parse, then gap


def test_reads_racing_appends_stay_exact(tmp_path):
    """A reader thread shipping from the log while it grows: every
    read sees a consistent index, and the live log ends equal to a
    fresh scan."""
    log = UpdateLog(tmp_path / "wal.log", fsync=False)
    done = threading.Event()

    def reader():
        while not done.is_set():
            log.records_between(0, log.last_seq())
            time.sleep(0.0001)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(300):
            log.append(Update.ins("teach", f"t{i}", "cs"))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    fresh = UpdateLog(log.path)
    assert _observed(log, 300) == _observed(fresh, 300)


def test_index_built_mid_append_is_not_extended(monkeypatch, tmp_path):
    """The same race, forced: a reader stats the file before an
    append's write lands and reads it after. The index it builds
    already holds the new record, so the append must not add it
    again."""
    log = UpdateLog(tmp_path / "wal.log", fsync=False)
    log.append(Update.ins("teach", "gauss", "cs"))
    real_append, real_stat = storage.append_line, wal._stat_key

    def append_inside_a_scan(path, line, **kwargs):
        stale = real_stat(log.path)  # the reader's stat: before the write
        real_append(path, line, **kwargs)
        monkeypatch.setattr(wal, "_stat_key", lambda _: stale)
        log._index = None  # the reader found the index out of date
        log.health()  # the reader's read: after the write
        monkeypatch.setattr(wal, "_stat_key", real_stat)

    monkeypatch.setattr(storage, "append_line", append_inside_a_scan)
    log.append(Update.ins("teach", "noether", "cs"))
    monkeypatch.setattr(storage, "append_line", real_append)
    fresh = UpdateLog(log.path)
    assert _observed(log, 2) == _observed(fresh, 2)
