"""``python -m repro.faults`` — crash matrix by default, chaos soak
with ``--soak``. Both exit nonzero on any divergence."""

from __future__ import annotations

import argparse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description=(
            "Fault-injection harnesses: the single-failure crash "
            "matrix (default) or the concurrent chaos soak (--soak)."
        ),
    )
    parser.add_argument("--soak", action="store_true",
                        help="run the concurrent chaos soak instead of "
                             "the crash matrix")
    parser.add_argument("--shards", type=int, default=0,
                        help="with --soak: run the sharded-keyspace "
                             "soak (parallel per-shard write lanes, "
                             "multi-shard global-lane writes, "
                             "scatter-gather reads) across this many "
                             "lanes; combine with --replicas R for a "
                             "replication group per lane and "
                             "--auto-failover for a leased shard-0 "
                             "lane failed over by election mid-run")
    parser.add_argument("--replicas", type=int, default=0,
                        help="with --soak: run the replication soak "
                             "(partition / replica-crash / "
                             "primary-kill failover matrix) against "
                             "this many replicas instead of the "
                             "single-node soak")
    parser.add_argument("--modes", default=None,
                        help="with --soak --replicas: commit modes, "
                             "comma-separated (default "
                             "'sync(1),quorum'; with --shards exactly "
                             "one mode for every lane, default "
                             "'sync(1)')")
    parser.add_argument("--scenarios", default=None,
                        help="with --soak --replicas (no --shards): "
                             "replication soak scenarios, "
                             "comma-separated (default "
                             "'partition,replica_crash,primary_kill')")
    parser.add_argument("--threads", type=int, default=8,
                        help="soak worker threads (default 8)")
    parser.add_argument("--ops", type=int, default=30,
                        help="ops per worker (default 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--jsonl", default=None,
                        help="event-log JSONL path (default: inside "
                             "the soak's temp workdir)")
    parser.add_argument("--no-faults", action="store_true",
                        help="soak without injected faults: no fault "
                             "controller, transport latency, clock "
                             "skew or heartbeat loss (the epilogues "
                             "still run)")
    parser.add_argument("--scrape-dir", default=None,
                        help="directory for the mid-soak /metrics and "
                             "/health scrape snapshots (default: the "
                             "soak workdir)")
    parser.add_argument("--no-endpoint", action="store_true",
                        help="soak without the live metrics endpoint "
                             "(skips the scrape checks)")
    parser.add_argument("--auto-failover", action="store_true",
                        help="with --soak --replicas: run the "
                             "replication groups (shard 0's under "
                             "--shards) under lease-based leadership "
                             "(heartbeat "
                             "failure detection, coordinator-driven "
                             "election) with clock skew and heartbeat "
                             "loss injected; the primary-kill and "
                             "partition cells must then fail over "
                             "without any harness-driven promote()")
    args = parser.parse_args(argv)

    if not args.soak:
        from repro.faults.harness import main as matrix_main

        return matrix_main()

    from repro.faults.soak import SoakConfig, run_soak

    try:
        config = SoakConfig(
            shards=args.shards,
            replicas=args.replicas,
            modes=_csv(args.modes),
            scenarios=_csv(args.scenarios),
            auto_failover=args.auto_failover,
            threads=args.threads,
            ops_per_thread=args.ops,
            seed=args.seed,
            jsonl=args.jsonl,
            faults=not args.no_faults,
            serve_endpoint=not args.no_endpoint,
            scrape_dir=args.scrape_dir,
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = run_soak(config)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _csv(text: str | None) -> tuple | None:
    if text is None:
        return None
    return tuple(item.strip() for item in text.split(",") if item.strip())


if __name__ == "__main__":
    raise SystemExit(main())
