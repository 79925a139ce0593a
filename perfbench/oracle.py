"""Correctness oracle, checked after every measured phase.

For each primary lane: replaying its WAL over the snapshot saved right
after preload (``wal.recover``) must reproduce the live instance
exactly under ``persistence.to_dict`` — tables, NCs and both index
counters. A replicated lane's replica must reach the primary's WAL
head with the same state. A fixed seeded probe set answered through
the service must equal ``truth_of`` on the recovered instance.

The oracle also checks itself: the same comparison must fail on a
copy of the recovered instance with one fact dropped, and on one with
the null counter bumped.
"""

from __future__ import annotations

from repro.fdb import persistence
from repro.fdb.wal import recover
from repro.shard import ShardedDatabaseService

from workloads import Target


def _tampered(db, how: str):
    copy = persistence.from_dict(persistence.to_dict(db))
    if how == "drop_fact":
        table = next(t for t in copy.tables() if len(t))
        fact = next(iter(table.facts()))
        table.discard(fact.x, fact.y)
    else:
        copy.nulls.fresh()
    return copy


def check(target: Target, probes) -> list[str]:
    """Every violated property, as readable lines (empty = correct)."""
    problems: list[str] = []
    recovered = []
    for index, lane in enumerate(target.lanes):
        live = persistence.to_dict(lane.service.db)
        db = recover(lane.snapshot, lane.wal, policy="strict").db
        recovered.append(db)
        if persistence.to_dict(db) != live:
            problems.append(f"lane {index}: recover(snapshot, wal) differs "
                            f"from the live instance")
        for how in ("drop_fact", "bump_nulls"):
            if persistence.to_dict(_tampered(db, how)) == live:
                problems.append(f"lane {index}: oracle self-test missed a "
                                f"tampered instance ({how})")
        if lane.group is not None:
            lane.group.sync_all()
            replica = lane.group.replica(lane.replica)
            head = lane.service.logged.log.last_seq()
            if replica.applied_seq != head:
                problems.append(f"lane {index}: replica at seq "
                                f"{replica.applied_seq}, primary head {head}")
            if persistence.to_dict(replica.db) != live:
                problems.append(f"lane {index}: replica state differs "
                                f"from its primary")
    front = target.front
    sharded = isinstance(front, ShardedDatabaseService)
    for name, x, y in probes:
        lane = front.shard_of(name) if sharded else 0
        served = front.truth_of(name, x, y)
        expected = recovered[lane].truth_of(name, x, y)
        if served is not expected:
            problems.append(f"probe {name}({x}, {y}): service says "
                            f"{served.value}, recovered says "
                            f"{expected.value}")
    return problems

