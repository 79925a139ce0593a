"""The benchmark's three workloads: schema, seeded data and op streams.

Every workload stores derivation *clusters*: a 3-hop chain of base
functions ``c<k>f0 . c<k>f1 . c<k>f2`` and the derived function
``c<k>v`` they compose to. The seed fixes the preload rows and every
client's op stream; the program only ever sees the generated updates
and reads. Op streams are drawn in shuffled blocks with an exact
class count per block, so two seeds differ in keys and order, never in
the mix.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef, ObjectType, TypeFunctionality
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.query import fn
from repro.fdb.updates import Update, UpdateSequence
from repro.replication import Replica, ReplicationGroup
from repro.service import DatabaseService
from repro.shard import ShardedDatabaseService

HOPS = 3
CLIENTS = 2

# Op families: the end-to-end latency classes.
WRITE = "write"
POINT_READ = "point_read"
SCAN = "scan"
EXTENSION = "extension"
MULTI_WRITE = "multi_shard_write"


@dataclass(frozen=True)
class Op:
    kind: str     # fine op class, e.g. "base_insert"
    family: str   # latency class the op is reported under
    args: tuple


def bases(k: int) -> list[str]:
    return [f"c{k}f{j}" for j in range(HOPS)]


def derived(k: int) -> str:
    return f"c{k}v"


def value(k: int, column: int, index: int) -> str:
    return f"k{k}t{column}v{index}"


def schema(clusters: int) -> FunctionalDatabase:
    """An empty database declaring ``clusters`` 3-hop clusters."""
    db = FunctionalDatabase()
    mm = TypeFunctionality.MANY_MANY
    for k in range(clusters):
        types = [ObjectType(f"T{k}_{j}") for j in range(HOPS + 1)]
        steps = [FunctionDef(name, types[j], types[j + 1], mm)
                 for j, name in enumerate(bases(k))]
        for step in steps:
            db.declare_base(step)
        db.declare_derived(FunctionDef(derived(k), types[0], types[-1], mm),
                           Derivation.of(*steps))
    return db


@dataclass
class ClusterData:
    """One cluster's preload: ``rows[j]`` holds base ``c<k>f<j>``;
    ``paths`` counts the chains deriving each endpoint pair."""

    k: int
    pool: int
    rows: list[list[tuple[str, str]]]
    paths: dict[tuple[str, str], int]
    derivable: list[tuple[str, str]]

    def random_pair(self, rng: random.Random, column: int) -> tuple[str, str]:
        return (value(self.k, column, rng.randrange(self.pool)),
                value(self.k, column + 1, rng.randrange(self.pool)))

    def random_endpoints(self, rng: random.Random) -> tuple[str, str]:
        return (value(self.k, 0, rng.randrange(self.pool)),
                value(self.k, HOPS, rng.randrange(self.pool)))

    def probe(self, rng: random.Random) -> tuple[str, str, str]:
        """A derived point read: a derivable pair half of the time,
        random endpoints otherwise."""
        if rng.random() < 0.5:
            x, y = rng.choice(self.derivable)
        else:
            x, y = self.random_endpoints(rng)
        return derived(self.k), x, y

    def base_insert(self, rng: random.Random) -> Update:
        column = rng.randrange(HOPS)
        return Update.ins(bases(self.k)[column],
                          *self.random_pair(rng, column))


def make_cluster(rng: random.Random, k: int, pool: int,
                 fanout: int) -> ClusterData:
    """A regular cluster: every value of every hop has exactly
    ``fanout`` successors and predecessors, so each start value roots
    ``fanout ** 3`` chains whatever the seed; the seed picks which
    values are joined."""
    tables = []
    for column in range(HOPS):
        sources, targets = list(range(pool)), list(range(pool))
        rng.shuffle(sources)
        rng.shuffle(targets)
        tables.append(sorted(
            (value(k, column, sources[i]),
             value(k, column + 1, targets[(i + r) % pool]))
            for i in range(pool) for r in range(fanout)
        ))
    paths = {pair: 1 for pair in tables[0]}
    for table in tables[1:]:
        forward: dict[str, list[str]] = {}
        for x, y in table:
            forward.setdefault(x, []).append(y)
        joined: dict[tuple[str, str], int] = {}
        for (x, y), count in paths.items():
            for z in forward.get(y, ()):
                joined[(x, z)] = joined.get((x, z), 0) + count
        paths = joined
    return ClusterData(k, pool, tables, paths, sorted(paths))


def preload(db: FunctionalDatabase, data: ClusterData) -> None:
    for name, rows in zip(bases(data.k), data.rows):
        db.load(name, rows)


def blocks(rng: random.Random, mix: list[tuple[str, int]]):
    """Endless op kinds: each block holds exactly ``count`` of every
    kind, shuffled."""
    block = [kind for kind, count in mix for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


@dataclass
class Lane:
    """One primary: its service, WAL, post-preload snapshot and, when
    replicated, its group and replica name."""

    service: DatabaseService
    wal: Path
    snapshot: Path
    group: ReplicationGroup | None = None
    replica: str | None = None


@dataclass
class Target:
    front: object  # DatabaseService or ShardedDatabaseService
    lanes: list[Lane]
    workdir: Path

    def close(self) -> None:
        self.front.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Workload:
    name = ""
    why = ""
    clusters, pool, fanout = 1, 0, 0
    mix: list[tuple[str, int]] = []
    replay_ops = 0  # single-client exact-repeat replay length

    def data(self, seed: int) -> list[ClusterData]:
        rng = random.Random(f"{self.name}:{seed}:data")
        return [make_cluster(rng, k, self.pool, self.fanout)
                for k in range(self.clusters)]

    def build(self, workdir: Path, seed: int) -> Target:
        """One WAL-logged lane (fsync on) over the preloaded clusters."""
        db = schema(self.clusters)
        for cluster in self.data(seed):
            preload(db, cluster)
        self.prepare(db, seed)
        workdir.mkdir(parents=True)
        snapshot = workdir / "snapshot.json"
        persistence.save(db, snapshot, wal_applied=0)
        wal = workdir / "wal.log"
        service = DatabaseService(db, log=wal)
        return Target(service, [Lane(service, wal, snapshot)], workdir)

    def prepare(self, db: FunctionalDatabase, seed: int) -> None:
        """Updates applied after preload, before the snapshot."""

    def op(self, rng: random.Random, kind: str, client: int,
           serial: int, data: list[ClusterData]) -> Op:
        raise NotImplementedError

    def stream(self, seed: int, client: int, part: int = 0):
        """Client ``client``'s endless op stream for round ``part``,
        fixed by the seed."""
        data = self.data(seed)
        rng = random.Random(f"{self.name}:{seed}:ops:{client}:{part}")
        for serial, kind in enumerate(blocks(rng, self.mix)):
            yield self.op(rng, kind, client, serial, data)

    def probes(self, seed: int) -> list[tuple[str, str, str]]:
        """A fixed seeded probe set ``(derived, x, y)`` the oracle
        answers through the service and on the recovered instance."""
        data = self.data(seed)
        rng = random.Random(f"{self.name}:{seed}:probes")
        return [rng.choice(data).probe(rng) for _ in range(24)]


def execute(front, op: Op):
    """Run one op against a service front door; returns read results
    (``None`` for writes)."""
    kind, args = op.kind, op.args
    if op.family in (WRITE, MULTI_WRITE):
        front.execute(args[0])
        return None
    if kind == "truth":
        return front.truth_of(*args)
    if kind == "image":
        name, x = args
        return front.read((name,), lambda db: fn(name).image(db, x))
    if kind == "extension":
        return front.extension(args[0])
    if kind == "scatter":
        names, x_of = args
        return front.scatter_read(
            names,
            lambda db, lane_names: {n: fn(n).image(db, x_of[n])
                                    for n in lane_names},
        )[0]
    raise ValueError(f"unknown op kind {kind!r}")


class DurableMixLarge(Workload):
    name = "durable_mix_large"
    why = ("write-heavy, tiny change vs instance so O(instance) txn cost "
           "shows: 4 3-hop clusters x 450 rows/base (5.4k facts), 1 WAL "
           "lane fsync on; 2-client closed loop, OBS off")
    clusters, pool, fanout = 4, 150, 3
    mix = [("base_insert", 9), ("base_delete", 3), ("derived_insert", 2),
           ("derived_delete", 2), ("truth", 4)]
    replay_ops = 60

    def op(self, rng, kind, client, serial, data) -> Op:
        cluster = rng.choice(data)
        if kind == "base_insert":
            return Op(kind, WRITE, (cluster.base_insert(rng),))
        if kind == "base_delete":
            column = rng.randrange(HOPS)
            x, y = rng.choice(cluster.rows[column])
            return Op(kind, WRITE, (Update.delete(
                bases(cluster.k)[column], x, y
            ),))
        if kind == "derived_insert":
            return Op(kind, WRITE, (Update.ins(
                derived(cluster.k), *cluster.random_endpoints(rng)
            ),))
        if kind == "derived_delete":
            return Op(kind, WRITE, (Update.delete(
                derived(cluster.k), *rng.choice(cluster.derivable)
            ),))
        return Op(kind, POINT_READ, cluster.probe(rng))


class DerivedReads(Workload):
    name = "derived_reads"
    why = ("read-heavy, cost in chain evaluation, writes queue behind "
           "scans: one 3-hop cluster, 100 rows/base, 25 values, live NCs + "
           "nulls, 1 WAL lane fsync on; 2-client closed loop, OBS off")
    pool, fanout = 25, 4
    setup_deletes, setup_inserts = 10, 5
    mix = [("truth", 35), ("image", 10), ("extension", 1),
           ("base_insert", 4)]
    replay_ops = 50

    def prepare(self, db: FunctionalDatabase, seed: int) -> None:
        # Live partial information before the snapshot. Each derived
        # delete hits a pair two chains derive, leaving two NCs; each
        # derived insert targets a fresh range value no chain reaches,
        # so it stores a new witness chain with two indexed nulls.
        (cluster,) = self.data(seed)
        rng = random.Random(f"{self.name}:{seed}:setup")
        doubles = [pair for pair in cluster.derivable
                   if cluster.paths[pair] == 2]
        for x, y in rng.sample(doubles, self.setup_deletes):
            db.delete(derived(0), x, y)
        for index in range(self.setup_inserts):
            x = value(0, 0, rng.randrange(self.pool))
            db.insert(derived(0), x, value(0, HOPS, f"new{index}"))

    def op(self, rng, kind, client, serial, data) -> Op:
        (cluster,) = data
        if kind == "truth":
            return Op(kind, POINT_READ, cluster.probe(rng))
        if kind == "image":
            x = value(0, 0, rng.randrange(self.pool))
            return Op(kind, SCAN, (derived(0), x))
        if kind == "extension":
            return Op(kind, EXTENSION, (derived(0),))
        return Op(kind, WRITE, (cluster.base_insert(rng),))


class ReplicatedShards(Workload):
    name = "replicated_shards"
    why = ("routing, multi-shard lane and ship/ack: 2 lanes (fsync on) each "
           "sync(1) to 1 replica (no fsync), 4 clusters 2 per lane, 51 "
           "rows/base; 2-client closed loop, OBS off")
    clusters, pool, fanout, shards = 4, 17, 3, 2
    mix = [("single_insert", 12), ("multi_insert", 2), ("truth", 4),
           ("scatter", 2)]
    replay_ops = 100

    def lane_of(self, k: int) -> int:
        return k // 2  # clusters 0,1 -> lane 0; 2,3 -> lane 1

    def build(self, workdir: Path, seed: int) -> Target:
        workdir.mkdir(parents=True)
        groups: dict[int, ReplicationGroup] = {}

        def group_for(shard: int) -> ReplicationGroup:
            groups[shard] = ReplicationGroup("sync(1)")
            return groups[shard]

        # Every cluster's resource is "fn:" + its first base's name.
        pins = {f"fn:{bases(k)[0]}": self.lane_of(k)
                for k in range(self.clusters)}
        front = ShardedDatabaseService(
            lambda: schema(self.clusters), self.shards, pins=pins,
            log_dir=workdir / "wal", replication_factory=group_for,
        )
        for cluster in self.data(seed):
            preload(front.lane(self.lane_of(cluster.k)).db, cluster)
        lanes = []
        for shard in range(self.shards):
            service = front.lane(shard)
            snapshot = workdir / f"shard-{shard}.snapshot.json"
            persistence.save(service.db, snapshot, wal_applied=0)
            name = f"replica-{shard}"
            groups[shard].add_replica(
                name, Replica(name, workdir / "replicas" / name)
            )
            lanes.append(Lane(service, service.logged.log.path, snapshot,
                              groups[shard], name))
        return Target(front, lanes, workdir)

    def op(self, rng, kind, client, serial, data) -> Op:
        if kind in ("multi_insert", "scatter"):
            # One cluster from each lane.
            pair = (rng.choice(data[:2]), rng.choice(data[2:]))
            if kind == "scatter":
                x_of = {derived(c.k): value(c.k, 0, rng.randrange(self.pool))
                        for c in pair}
                return Op(kind, SCAN, (tuple(x_of), x_of))
            return Op(kind, MULTI_WRITE, (UpdateSequence(
                tuple(c.base_insert(rng) for c in pair),
                label=f"m{client}_{serial}",
            ),))
        cluster = rng.choice(data)
        if kind == "truth":
            return Op(kind, POINT_READ, cluster.probe(rng))
        return Op(kind, WRITE, (cluster.base_insert(rng),))


WORKLOADS = {w.name: w for w in (DurableMixLarge(), DerivedReads(),
                                 ReplicatedShards())}
