"""Write-ahead logging and recovery.

Base functions are "extensionally stored" (Section 1); a database that
loses or corrupts its extension on a crash is not stored at all. This
module adds the classic durability pair on top of
:mod:`repro.fdb.persistence` snapshots:

* :class:`UpdateLog` — an append-only JSON-lines file of updates.
  :class:`LoggedDatabase` wraps a database so every update is logged
  *before* it is applied (write-ahead order); update application is
  deterministic (null and NC indices come from persisted counters), so
  replaying the log over the last snapshot reproduces the state
  exactly — partial information included.

* :func:`checkpoint` / :func:`recover` — fold the log into a durable
  snapshot; rebuild a database from snapshot + log after a crash.

**Record format (v2).** Each line is one JSON object::

    {"v": 2, "seq": 7, "crc": 2893417301, "entry": {...}}

``crc`` is the CRC32 of the canonical encoding of everything but ``v``
and ``crc`` themselves, so a record that was *mutated but still
parses* is detected instead of silently replayed; ``seq`` numbers are
strictly increasing and survive checkpoints (the truncated log keeps a
header record carrying the next sequence number). Besides ``entry``
records there are ``abort_of`` records — compensation for an update
that was durably logged but failed to apply — and the ``header``
record. Legacy (v1) lines, bare update objects with neither checksum
nor sequence number, are still replayed. :func:`decode_record` is the
one reader of this format.

**The index.** An :class:`UpdateLog` answers every read from one index
of its file: the scan result, without decoded entries, plus each
record's line. One full read builds it; this log's appends extend it
and its truncations rewrite it; it is rebuilt only when the file's
(inode, size, mtime) stop matching — when something else wrote it.

**Crash consistency.** Appends go through
:func:`repro.fdb.storage.append_line` (flush + fsync before the append
is acknowledged) and snapshots through
:func:`repro.fdb.storage.atomic_write` (temp file + fsync + atomic
rename + directory fsync). :func:`checkpoint` writes the snapshot
durably *first* — stamped with the highest folded sequence number —
and only then truncates the log via an atomic rename; a crash between
the two leaves both files intact, and :func:`recover` skips records
the snapshot already contains by sequence number instead of replaying
them twice.

**Recovery policies.** ``recover(..., policy="strict")`` raises on any
interior damage (checksum mismatch, unparseable interior line,
sequence gap); ``policy="salvage"`` skips damaged records, keeps
going, and itemises everything it skipped in the returned
:class:`RecoveryReport`. A torn *final* line — the classic mid-write
crash — is skipped under both policies, because an unacknowledged
append never committed.

Named fault points (see :mod:`repro.faults`) are threaded through the
append, apply, abort and checkpoint steps; the crash-matrix harness in
:mod:`repro.faults.harness` kills the process at every one of them and
asserts recovery reproduces exactly the committed prefix.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from repro import cancel
from repro.errors import PersistenceError
from repro.faults.registry import FAULTS
from repro.fdb import persistence, storage
from repro.fdb.database import FunctionalDatabase
from repro.fdb.persistence import _decode_value, _encode_value
from repro.fdb.transaction import Transaction
from repro.fdb.updates import (
    Update,
    UpdateSequence,
    apply_sequence,
    apply_update,
)
from repro.fdb.values import Value
from repro.obs.hooks import OBS

__all__ = ["UpdateLog", "LoggedDatabase", "checkpoint", "recover",
           "RecoveryReport", "LogRecord", "LogProblem", "RecordDamage",
           "decode_record", "WAL_VERSION"]

WAL_VERSION = 2


FAULTS.register(
    "wal.append.before",
    "UpdateLog.append: before the record write (retry site for "
    "transient I/O errors)",
)
FAULTS.register(
    "wal.append.after",
    "UpdateLog.append: record durable, update not yet applied",
    durable=True,
)
FAULTS.register(
    "wal.apply.before",
    "LoggedDatabase.execute: record durable, about to apply in memory",
    durable=True,
)
FAULTS.register(
    "wal.abort.append",
    "LoggedDatabase.execute: apply failed, compensating abort record "
    "not yet written",
    durable=True,
)
FAULTS.register(
    "wal.checkpoint.before-snapshot",
    "checkpoint: before the snapshot write",
)
FAULTS.register(
    "wal.checkpoint.after-snapshot",
    "checkpoint: snapshot durable, log not yet truncated",
)
FAULTS.register(
    "wal.checkpoint.after-truncate",
    "checkpoint: snapshot durable and log truncated",
)


# -- entry encoding -----------------------------------------------------------


def _encode_update(update: Update) -> dict:
    entry = {
        "kind": update.kind,
        "function": update.function,
        "pair": [_encode_value(update.pair[0]),
                 _encode_value(update.pair[1])],
    }
    if update.new_pair is not None:
        entry["new_pair"] = [
            _encode_value(update.new_pair[0]),
            _encode_value(update.new_pair[1]),
        ]
    return entry


def _decode_update(entry: dict) -> Update:
    pair = tuple(_decode_value(item) for item in entry["pair"])
    new_pair = None
    if "new_pair" in entry:
        new_pair = tuple(
            _decode_value(item) for item in entry["new_pair"]
        )
    return Update(entry["kind"], entry["function"], pair, new_pair)


def _encode_entry(update: Update | UpdateSequence) -> dict:
    if isinstance(update, UpdateSequence):
        return {
            "kind": "SEQ",
            "label": update.label,
            "updates": [_encode_update(u) for u in update],
        }
    return _encode_update(update)


def _decode_entry(entry: dict) -> Update | UpdateSequence:
    if entry.get("kind") == "SEQ":
        return UpdateSequence(
            tuple(_decode_update(u) for u in entry["updates"]),
            label=entry.get("label", ""),
        )
    return _decode_update(entry)


# -- record framing -----------------------------------------------------------


def _crc_of(payload: dict) -> int:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


def _frame(payload: dict) -> str:
    """One v2 log line: the payload plus version and checksum."""
    record = dict(payload)
    record["v"] = WAL_VERSION
    record["crc"] = _crc_of(payload)
    return json.dumps(record, sort_keys=True)


class RecordDamage(PersistenceError):
    """A log line that is not a sound record. ``tear`` marks a line
    that is no record at all — what a torn final write leaves — as
    opposed to a record that is corrupt or of an unknown version."""

    def __init__(self, kind: str, detail: str, *,
                 tear: bool = False) -> None:
        super().__init__(detail)
        self.kind = kind
        self.tear = tear


def decode_record(line: str) -> dict:
    """Parse and verify one log line: the only reader of the record
    format. Returns the payload (every key but ``v`` and ``crc``) with
    an integer ``seq``; a legacy (v1) line, a bare update object,
    comes back as ``{"seq": None, "entry": <the object>}``. Raises
    :exc:`RecordDamage`.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordDamage("parse", str(exc), tear=True) from None
    if not isinstance(raw, dict):
        raise RecordDamage("parse", "not a JSON object", tear=True)
    if "v" not in raw:
        try:
            _decode_entry(raw)
        except (KeyError, TypeError, ValueError):
            raise RecordDamage("parse", "undecodable legacy record",
                               tear=True) from None
        return {"seq": None, "entry": raw}
    if raw["v"] != WAL_VERSION:
        raise RecordDamage(
            "parse", f"unsupported record version {raw['v']!r}")
    payload = {k: v for k, v in raw.items() if k not in ("v", "crc")}
    crc = _crc_of(payload)
    if raw.get("crc") != crc:
        raise RecordDamage(
            "checksum", f"stored {raw.get('crc')!r} != computed {crc}")
    if not isinstance(payload.get("seq"), int):
        raise RecordDamage("parse", "record lacks a sequence number")
    term = payload.get("term", 0)
    if not isinstance(term, int):
        raise RecordDamage("parse", f"non-integer term {term!r}")
    return payload


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One decoded, checksum-verified log record."""

    line_no: int
    seq: int | None  # None for legacy (v1) and header records
    entry: Update | UpdateSequence | None  # None for abort/header
    abort_of: int | None = None
    legacy: bool = False
    term: int = 0  # replication epoch; 0 before any failover

    @property
    def is_entry(self) -> bool:
        """Whether the record carries an update (decoded or not)."""
        return self.legacy or (self.seq is not None
                               and self.abort_of is None)


@dataclass(frozen=True)
class LogProblem:
    """One damaged or suspicious spot found while scanning the log."""

    line_no: int
    kind: str  # "torn-tail" | "checksum" | "parse" | "gap"
    detail: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.kind} ({self.detail})"


@dataclass
class LogScan:
    """Everything one pass over the log produced."""

    records: list[LogRecord] = field(default_factory=list)
    problems: list[LogProblem] = field(default_factory=list)
    aborted: set[int] = field(default_factory=set)
    base_seq: int = 0  # from a header record, if present
    base_term: int = 0  # from a header record, if present
    torn_tail: bool = False
    checksum_failures: int = 0
    legacy_records: int = 0

    @property
    def max_seq(self) -> int:
        seqs = [r.seq for r in self.records if r.seq is not None]
        return max(seqs, default=self.base_seq)

    @property
    def max_term(self) -> int:
        terms = [r.term for r in self.records]
        return max(terms, default=self.base_term)

    @property
    def committed(self) -> int:
        """Entries not compensated by an abort record."""
        return sum(1 for r in self.records
                   if r.is_entry and r.seq not in self.aborted)


def _stat_key(path: Path) -> tuple[int, int, int] | None:
    """What tells one state of the file from another."""
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


class _LogIndex:
    """The log file as scanned: a :class:`LogScan` whose records carry
    no decoded entry, plus each record's line. Building feeds every
    line of ``data`` through :meth:`feed`; the owning log's appends
    feed their one new line the same way, so an extended index always
    equals a fresh scan of the file."""

    def __init__(self, key: tuple[int, int, int] | None,
                 data: bytes = b"") -> None:
        self.key = key  # (inode, size, mtime_ns) of the indexed file
        self.scan = LogScan()
        self.texts: list[str] = []  # the line of each record
        self.lines = 0  # line numbers count blank lines too
        lines = data.split(b"\n")
        self.terminated = not lines[-1]  # ends in a newline, or empty
        for raw in lines[:-1] if self.terminated else lines:
            self.feed(raw.decode("utf-8", errors="replace"))

    def feed(self, line: str, payload: dict | None = None) -> None:
        """Index the file's next line. An append passes the ``payload``
        it just framed, sparing the re-parse. A final line that fails
        to parse is a torn tail — that append was never acknowledged —
        until a later line makes it interior damage."""
        self.lines += 1
        line = line.strip()
        if not line:
            return
        scan = self.scan
        if scan.torn_tail:  # a line follows: interior damage
            scan.problems[-1] = replace(scan.problems[-1], kind="parse")
            scan.torn_tail = False
        if payload is None:
            try:
                payload = decode_record(line)
            except RecordDamage as damage:
                scan.torn_tail = damage.tear
                if damage.kind == "checksum":
                    scan.checksum_failures += 1
                    if OBS.enabled:
                        OBS.inc("fdb.wal.checksum_failures")
                scan.problems.append(LogProblem(
                    self.lines, "torn-tail" if damage.tear else damage.kind,
                    str(damage),
                ))
                return
        seq, term = payload["seq"], payload.get("term", 0)
        if "header" in payload:
            scan.base_seq = payload["header"].get("next_seq", 1) - 1
            scan.base_term = payload["header"].get("term", term)
            record = LogRecord(self.lines, None, None, term=term)
        elif seq is None:
            scan.legacy_records += 1
            record = LogRecord(self.lines, None, None, legacy=True)
        else:
            reference = next((r.seq for r in reversed(scan.records)
                              if r.seq is not None), scan.base_seq)
            if seq != reference + 1:
                scan.problems.append(LogProblem(
                    self.lines, "gap", f"sequence {seq} after {reference}"
                ))
            abort_of = payload.get("abort_of")
            if abort_of is not None:
                scan.aborted.add(abort_of)
            record = LogRecord(self.lines, seq, None, abort_of=abort_of,
                               term=term)
        scan.records.append(record)
        self.texts.append(line)


def _entry_of(record: LogRecord, line: str) -> Update | UpdateSequence:
    """Decode an indexed entry record's update. Its checksum matched,
    so the record is as written and a failure is a writer bug, not
    disk damage: always fatal."""
    try:
        return _decode_entry(decode_record(line)["entry"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"undecodable log entry at line {record.line_no}: {exc}"
        ) from exc


class UpdateLog:
    """Append-only, checksummed JSON-lines log of updates.

    Every acknowledged append is fsync'd (``fsync=False`` trades the
    power-loss guarantee for speed); transient ``OSError`` during the
    write is retried ``retries`` times with exponential backoff before
    giving up. Reads are answered from the log's index (see the module
    docstring), which assumes one writing ``UpdateLog`` per file.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True,
                 retries: int = 3, backoff: float = 0.005,
                 term: int = 0) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.retries = retries
        self.backoff = backoff
        # Replication epoch stamped into every subsequent record; 0
        # (the default, and the value of every pre-replication log)
        # is omitted from the frame so single-node logs stay
        # byte-identical to v2 before terms existed.
        self.term = term
        self._next_seq: int | None = None  # lazy: from the index
        self._index: _LogIndex | None = None  # lazy: built on first use
        self._lock = threading.RLock()

    def _payload(self, payload: dict) -> dict:
        if self.term:
            payload["term"] = self.term
        return payload

    # -- appending ----------------------------------------------------------

    def append(self, update: Update | UpdateSequence) -> int:
        """Durably append one update record; returns its sequence
        number."""
        # Cancellation boundary: *before* the sequence number is
        # claimed. Once the record write starts, the append runs to
        # completion (or fails on its own terms) — a deadline must not
        # be able to leave a claimed-but-unwritten sequence number.
        cancel.checkpoint()
        seq = self._claim_seq()
        payload = self._payload({"seq": seq,
                                 "entry": _encode_entry(update)})
        if not OBS.enabled:
            self._write_claimed(seq, payload)
            return seq
        # Instrumented path: count appends and time the whole append
        # (frame, open + write + flush + fsync, index) — the ack cost.
        OBS.inc("fdb.wal.appends")
        started = time.perf_counter()
        self._write_claimed(seq, payload)
        OBS.observe("fdb.wal.append_seconds",
                    time.perf_counter() - started)
        OBS.gauge("fdb.wal.last_seq", seq)
        OBS.event("wal.append", entry=str(update))
        return seq

    def append_abort(self, seq: int) -> None:
        """Compensate a record that was logged but never applied.

        Never checkpointed for cancellation: compensation must run even
        (especially) when the request that needs it is past deadline.
        """
        abort_seq = self._claim_seq()
        self._write_claimed(abort_seq, self._payload(
            {"seq": abort_seq, "abort_of": seq}
        ))
        if OBS.enabled:
            OBS.inc("fdb.wal.aborts")
            OBS.event("wal.abort", aborted_seq=seq)

    def _claim_seq(self) -> int:
        with self._lock:
            seq = self.last_seq() + 1
            self._next_seq = seq + 1
            return seq

    def _write_claimed(self, seq: int, payload: dict) -> None:
        """Write a record whose sequence number is already claimed,
        unclaiming it if the write never lands; then extend the index
        by it, unless something else wrote the file meanwhile.

        Without the rollback, a failed write (retries exhausted during
        a storage outage) would leave ``_next_seq`` advanced past a
        record that does not exist, and the next successful append
        would commit a sequence *gap* — which strict recovery rightly
        refuses to replay.
        """
        line = _frame(payload)
        before = _stat_key(self.path)
        try:
            self._write_line(line)
        except BaseException:
            with self._lock:
                if self._next_seq == seq + 1:
                    self._next_seq = seq
            raise
        after = _stat_key(self.path)
        grown = (before[1] if before else 0) + len(line.encode("utf-8")) + 1
        with self._lock:
            index = self._index
            if (index is not None and index.key == before
                    and index.terminated and after is not None
                    and after[1] == grown):
                index.feed(line, payload)
                index.key = after
            else:
                self._index = None

    def _write_line(self, line: str) -> None:
        """The durable write, with transient-error retry."""
        attempt = 0
        while True:
            try:
                FAULTS.fire("wal.append.before")
                storage.append_line(self.path, line, fsync=self.fsync)
                FAULTS.fire("wal.append.after")
                return
            except OSError as exc:
                if attempt >= self.retries:
                    raise PersistenceError(
                        f"log append failed after "
                        f"{attempt + 1} attempts: {exc}"
                    ) from exc
                if OBS.enabled:
                    OBS.inc("fdb.wal.retries")
                time.sleep(self.backoff * (2 ** attempt))
                attempt += 1

    # -- the index ----------------------------------------------------------

    def _current(self) -> _LogIndex:
        """The index of the file as it is now."""
        with self._lock:
            if self._index is None \
                    or self._index.key != _stat_key(self.path):
                self._index = self._scan()
            return self._index

    def _scan(self) -> _LogIndex:
        """The one full read of the file. The key carries the size read,
        so an append racing the read can never extend this index."""
        key = _stat_key(self.path)
        data = self.path.read_bytes() if key else b""
        return _LogIndex(key and (key[0], len(data), key[2]), data)

    def _rewrite(self, body: bytes) -> None:
        """Atomically replace the file and its index. Caller holds the
        lock."""
        storage.atomic_write(self.path, body)
        self._index = _LogIndex(_stat_key(self.path), body)
        self._next_seq = None  # re-derived from what was written

    def _keep_lines(self, count: int) -> int:
        """Rewrite the file keeping its first ``count`` lines; returns
        how many non-blank lines went. Caller holds the lock."""
        lines = self.path.read_bytes().split(b"\n")
        dropped = sum(1 for line in lines[count:] if line.strip())
        if dropped:
            self._rewrite(b"".join(line + b"\n" for line in lines[:count]))
        return dropped

    # -- reading ------------------------------------------------------------

    def scan(self, policy: str = "strict") -> LogScan:
        """Scan the whole log under a recovery policy (see module
        docstring): ``strict`` raises on interior damage, ``salvage``
        reports it and skips the damaged records."""
        if policy not in ("strict", "salvage"):
            raise ValueError(
                f"policy must be 'strict' or 'salvage', not {policy!r}"
            )
        with self._lock:
            index = self._current()
            scan = index.scan
            interior = [p for p in scan.problems if p.kind != "torn-tail"]
            if policy == "strict" and interior:
                raise PersistenceError(f"corrupt log: {interior[0]}")
            records = [replace(r, entry=_entry_of(r, line)) if r.is_entry
                       else r for r, line in zip(scan.records, index.texts)]
            return replace(scan, records=records,
                           problems=list(scan.problems),
                           aborted=set(scan.aborted))

    def entries(self) -> Iterator[Update | UpdateSequence]:
        """Committed entries in order: torn tails and aborted records
        are skipped, interior corruption raises (strict policy)."""
        scan = self.scan("strict")
        for record in scan.records:
            if record.entry is not None and record.seq not in scan.aborted:
                yield record.entry

    @property
    def tail_is_torn(self) -> bool:
        """Whether the final line is an unparseable fragment (the
        mid-write crash signature)."""
        return self._current().scan.torn_tail

    def last_seq(self) -> int:
        """The highest sequence number ever claimed in this log
        generation (0 for a fresh or legacy log)."""
        with self._lock:
            if self._next_seq is None:
                self._next_seq = self._current().scan.max_seq + 1
            return self._next_seq - 1

    # -- shipping -----------------------------------------------------------

    def records_between(self, lo: int, hi: int) -> list[tuple[int, str]]:
        """The raw framed lines of the gap-free run of records with
        sequence numbers ``lo + 1, lo + 2, ...`` up to ``hi`` — what
        :class:`WalShipper <repro.replication.shipper.WalShipper>`
        streams to replicas.

        Header records (checkpoint bookkeeping, meaningless off this
        node) are skipped; abort records ship, so a replica's log stays
        a byte-for-byte prefix copy of the primary's record stream. The
        run stops at the first missing sequence number — folded into
        the snapshot by a checkpoint, or lost to a damaged line — and
        an empty or short answer tells the caller to fall back to
        snapshot shipping.
        """
        index = self._current()
        records = index.scan.records
        first = len(records)
        while first and (records[first - 1].seq is None
                         or records[first - 1].seq > lo):
            first -= 1
        run: list[tuple[int, str]] = []
        for record, line in zip(records[first:], index.texts[first:]):
            if record.seq is None:
                continue
            if record.seq != lo + 1 + len(run) or record.seq > hi:
                break
            run.append((record.seq, line))
        return run

    def shippable_floor(self) -> int:
        """The highest sequence number already folded away by a
        checkpoint: records at or below it cannot be shipped from this
        log and require snapshot catch-up."""
        return self._current().scan.base_seq

    # -- repair -------------------------------------------------------------

    def truncate_to(self, seq: int) -> int:
        """Atomically cut every line after the last record with a
        sequence number at or below ``seq`` (the fencing repair: a
        rejoining deposed primary cuts its unacknowledged tail back to
        the prefix the new primary's history extends). Damage before
        that record stays for scan()/recover() to report. Returns how
        many non-blank lines were cut."""
        with self._lock:
            index = self._current()
            keep = next((r.line_no for r in reversed(index.scan.records)
                         if r.seq is None or r.seq <= seq), 0)
            dropped = self._keep_lines(keep) if keep < index.lines else 0
        if dropped and OBS.enabled:
            OBS.inc("fdb.wal.truncated_records", dropped)
            OBS.action("wal.truncate_to", seq=seq, dropped=dropped)
        return dropped

    def discard_torn_tail(self) -> bool:
        """Drop a torn final line (the mid-write crash signature) from
        the file itself, so the log can be re-used for appends and
        shipping without the fragment. Returns whether a tear was
        removed. Interior damage is untouched — that is corruption,
        not a tear, and scan()/recover() must report it."""
        with self._lock:
            scan = self._current().scan
            if not scan.torn_tail:
                return False
            self._keep_lines(scan.problems[-1].line_no - 1)
        if OBS.enabled:
            OBS.inc("fdb.wal.torn_tails_discarded")
            OBS.action("wal.torn_tail_discarded", path=str(self.path))
        return True

    # -- health -------------------------------------------------------------

    def health(self) -> dict:
        """One JSON-ready view of the log's durability state: last
        sequence number, current term, torn-tail flag, committed entry
        count, and damage tallies — read off the index, so monitoring
        surfaces (``stats``/``/metrics``/``/health``/``monitor``) never
        rescan a log this process wrote."""
        scan = self._current().scan
        health = {
            "path": str(self.path),
            "last_seq": scan.max_seq,
            "term": max(self.term, scan.max_term),
            "tail_torn": scan.torn_tail,
            "entries": scan.committed,
            "aborted": len(scan.aborted),
            "checksum_failures": scan.checksum_failures,
            "problems": len(scan.problems),
        }
        if OBS.enabled:
            OBS.gauge("fdb.wal.last_seq", health["last_seq"])
            OBS.gauge("fdb.wal.tail_torn", int(health["tail_torn"]))
        return health

    def truncate(self, next_seq: int | None = None) -> None:
        """Atomically empty the log.

        ``next_seq`` (used by :func:`checkpoint`) persists a header so
        sequence numbers keep increasing across the truncation —
        that monotonicity is what lets recovery tell "already folded
        into the snapshot" from "new since the snapshot".
        """
        body = ""
        if next_seq is not None and next_seq > 1:
            meta: dict = {"next_seq": next_seq}
            if self.term:
                meta["term"] = self.term
            body = _frame(self._payload({"seq": next_seq - 1,
                                         "header": meta})) + "\n"
        with self._lock:
            self._rewrite(body.encode("utf-8"))

    def __len__(self) -> int:
        """Number of committed entries."""
        return self._current().scan.committed


# -- the write-ahead wrapper --------------------------------------------------


def _validate(db: FunctionalDatabase,
              update: Update | UpdateSequence) -> None:
    """Reject an update the schema cannot apply *before* it is logged.

    Logging an inapplicable update is the write-ahead divergence bug:
    the log would replay an update the live database never performed.
    """
    updates = update if isinstance(update, UpdateSequence) else (update,)
    for simple in updates:
        db.is_base(simple.function)  # raises UnknownFunctionError


class LoggedDatabase:
    """Write-ahead wrapper: validate, log durably, then apply.

    Exposes the update front door of :class:`FunctionalDatabase`;
    reads go straight to ``self.db``. If applying a logged update
    fails, the in-memory state is rolled back and a compensating
    abort record is appended so replay skips it — the log and the
    live state never diverge.
    """

    def __init__(self, db: FunctionalDatabase,
                 log: UpdateLog | str | Path) -> None:
        self.db = db
        self.log = log if isinstance(log, UpdateLog) else UpdateLog(log)

    def execute(self, update: Update | UpdateSequence) -> int:
        """Validate, log durably, apply; returns the update's WAL
        sequence number (what replication acks are counted against)."""
        _validate(self.db, update)
        with OBS.span("wal.commit"):
            seq = self.log.append(update)
        try:
            with Transaction(self.db):
                FAULTS.fire("wal.apply.before")
                if isinstance(update, UpdateSequence):
                    for simple in update:
                        apply_update(self.db, simple)
                else:
                    apply_update(self.db, update)
        except Exception:
            # The update is durably logged but was never applied (the
            # transaction above rolled the memory state back): append
            # the compensation so replay skips it too. A SimulatedCrash
            # is a BaseException and falls through — a dead process
            # writes nothing.
            FAULTS.fire("wal.abort.append")
            try:
                self.log.append_abort(seq)
            except (OSError, PersistenceError):
                # Disk went away mid-compensation; replay will re-apply
                # the entry (its intent was durable and deterministic).
                # Count it so operators can see the window was hit.
                if OBS.enabled:
                    OBS.inc("fdb.wal.abort_failures")
            raise
        return seq

    def insert(self, name: str, x: Value, y: Value) -> None:
        self.execute(Update.ins(name, x, y))

    def delete(self, name: str, x: Value, y: Value) -> None:
        self.execute(Update.delete(name, x, y))

    def replace(self, name: str, old: tuple[Value, Value],
                new: tuple[Value, Value]) -> None:
        self.execute(Update.rep(name, old, new))


# -- checkpoint / recover -----------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` did, in enough detail to audit it."""

    db: FunctionalDatabase
    entries_applied: int
    torn_tail: bool
    policy: str = "strict"
    records_skipped: int = 0
    checksum_failures: int = 0
    aborted: int = 0
    already_checkpointed: int = 0
    legacy_records: int = 0
    term: int = 0  # highest replication epoch seen in the log
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        """The report minus the live database handle, JSON-ready — the
        shape the soak and CI archive next to the JSONL event logs."""
        return {
            "report": "recovery",
            "entries_applied": self.entries_applied,
            "torn_tail": self.torn_tail,
            "policy": self.policy,
            "records_skipped": self.records_skipped,
            "checksum_failures": self.checksum_failures,
            "aborted": self.aborted,
            "already_checkpointed": self.already_checkpointed,
            "legacy_records": self.legacy_records,
            "term": self.term,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RecoveryReport":
        """Rebuild an archived report (``db`` is gone: a JSON artifact
        carries the audit trail, not the live instance)."""
        return cls(
            db=None,  # type: ignore[arg-type]
            entries_applied=data["entries_applied"],
            torn_tail=data["torn_tail"],
            policy=data.get("policy", "strict"),
            records_skipped=data.get("records_skipped", 0),
            checksum_failures=data.get("checksum_failures", 0),
            aborted=data.get("aborted", 0),
            already_checkpointed=data.get("already_checkpointed", 0),
            legacy_records=data.get("legacy_records", 0),
            term=data.get("term", 0),
            notes=tuple(data.get("notes", ())),
        )

    def __str__(self) -> str:
        tear = " (torn tail skipped)" if self.torn_tail else ""
        parts = [f"recovered: {self.entries_applied} log entries{tear}"]
        if self.aborted:
            parts.append(f"{self.aborted} aborted")
        if self.already_checkpointed:
            parts.append(
                f"{self.already_checkpointed} already checkpointed"
            )
        if self.records_skipped:
            parts.append(
                f"{self.records_skipped} skipped ({self.policy})"
            )
        if self.checksum_failures:
            parts.append(f"{self.checksum_failures} checksum failures")
        return "; ".join(parts)


def checkpoint(logged: LoggedDatabase,
               snapshot_path: str | Path) -> None:
    """Fold the log into a durable snapshot.

    Ordering is the whole point: the snapshot — stamped with the
    highest sequence number it folds in — is written atomically and
    fsync'd *before* the log is truncated (itself an atomic rename).
    A crash before the snapshot rename keeps the old pair; a crash
    between the two steps leaves the new snapshot plus the old log,
    which :func:`recover` reconciles by skipping already-folded
    sequence numbers. There is no window in which committed state is
    only partially on disk.
    """
    if OBS.enabled:
        OBS.inc("fdb.wal.checkpoints")
    FAULTS.fire("wal.checkpoint.before-snapshot")
    folded = logged.log.last_seq()
    persistence.save(logged.db, snapshot_path, wal_applied=folded,
                     term=logged.log.term or None)
    FAULTS.fire("wal.checkpoint.after-snapshot")
    if OBS.enabled:
        OBS.action("checkpoint.snapshot_written",
                   path=str(snapshot_path), wal_applied=folded)
    logged.log.truncate(next_seq=folded + 1)
    FAULTS.fire("wal.checkpoint.after-truncate")
    if OBS.enabled:
        OBS.action("checkpoint.log_truncated", next_seq=folded + 1)


def recover(snapshot_path: str | Path, log_path: str | Path, *,
            policy: str = "strict") -> RecoveryReport:
    """Rebuild a database: load the snapshot, replay the log over it.

    ``policy="strict"`` raises on interior damage; ``policy="salvage"``
    applies every record that survives its checksum and reports the
    rest. Records the snapshot already folded in (by sequence number),
    aborted records, and a torn final line are skipped under both.
    """
    db, meta = persistence.load_with_meta(snapshot_path)
    log = UpdateLog(log_path)
    scan = log.scan(policy)
    wal_applied = meta.get("wal_applied")
    if OBS.enabled:
        OBS.action("recovery.start", policy=policy,
                   snapshot=str(snapshot_path), log=str(log_path))
    applied = aborted = already = skipped = 0
    notes = [str(problem) for problem in scan.problems]
    for record in scan.records:
        if record.entry is None:
            continue  # header or abort record
        if record.seq is not None and record.seq in scan.aborted:
            aborted += 1
            continue
        if (wal_applied is not None and record.seq is not None
                and record.seq <= wal_applied):
            already += 1
            continue
        try:
            if OBS.enabled:
                OBS.action("recovery.replay", seq=record.seq,
                           entry=str(record.entry))
            if isinstance(record.entry, UpdateSequence):
                apply_sequence(db, record.entry)
            else:
                apply_update(db, record.entry)
        except Exception as exc:
            # A logged update that cannot re-apply: normally prevented
            # by validate-then-log + abort records; reachable when a
            # crash hit the abort window. Strict surfaces it, salvage
            # records and carries on.
            if policy == "strict":
                raise PersistenceError(
                    f"log entry at line {record.line_no} failed to "
                    f"re-apply: {exc}"
                ) from exc
            skipped += 1
            notes.append(
                f"line {record.line_no}: apply-failed ({exc})"
            )
            continue
        applied += 1
    skipped += sum(1 for p in scan.problems
                   if p.kind in ("checksum", "parse"))
    if OBS.enabled:
        OBS.inc("fdb.wal.recoveries")
        OBS.inc("fdb.wal.recovered_entries", applied)
        OBS.inc("fdb.recovery.runs")
        OBS.inc("fdb.recovery.records_applied", applied)
        OBS.inc("fdb.recovery.records_skipped", skipped)
        if scan.torn_tail:
            OBS.inc("fdb.recovery.torn_tails")
        OBS.action("recovery.finish", policy=policy, applied=applied,
                   skipped=skipped, aborted=aborted,
                   already_checkpointed=already,
                   torn_tail=scan.torn_tail)
    return RecoveryReport(
        db,
        entries_applied=applied,
        torn_tail=scan.torn_tail,
        policy=policy,
        records_skipped=skipped,
        checksum_failures=scan.checksum_failures,
        aborted=aborted,
        already_checkpointed=already,
        legacy_records=scan.legacy_records,
        term=scan.max_term,
        notes=tuple(notes),
    )
