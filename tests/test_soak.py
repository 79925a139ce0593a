"""The chaos soak, sized for CI: every topology through the one
runner, its shared oracles fed corrupted histories, and the CLI's
flag validation."""

from __future__ import annotations

import json
import tempfile

import pytest

from repro.faults.__main__ import main
from repro.faults.soak import (
    CellReport,
    SoakConfig,
    check_fence,
    check_markers,
    replay_diff,
    run_soak,
    soak_database,
)
from repro.fdb.updates import Update, apply_update


def _actions(path) -> list[str]:
    return [json.loads(line).get("name")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


class TestSoak:
    def test_soak_with_faults_converges(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=8,
            ops_per_thread=12,
            seed=0,
            workdir=tmp_path,
            jsonl=tmp_path / "events.jsonl",
        ))
        (cell,) = report.cells
        for oracle in ("replay", "recovery", "hung", "breaker"):
            assert not cell.failed(oracle), cell.failures
        assert report.actions["breaker.open"] > 0
        assert report.actions["breaker.closed"] > 0
        assert report.ok, "\n".join(report.lines())
        # The event log is real JSONL with the breaker narration.
        names = _actions(tmp_path / "events.jsonl")
        assert "breaker.open" in names
        assert "breaker.closed" in names

    def test_soak_without_faults_is_pure_concurrency(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=6,
            ops_per_thread=10,
            seed=2,
            faults=False,
            workdir=tmp_path,
            jsonl=tmp_path / "events.jsonl",
        ))
        (cell,) = report.cells
        # Every planned operation resolved to some outcome.
        for oracle in ("replay", "recovery", "hung", "accounting"):
            assert not cell.failed(oracle), cell.failures


class TestShardedSoak:
    def test_unreplicated_lanes_replay_and_pair_markers(self, tmp_path):
        report = run_soak(SoakConfig(
            shards=2, threads=4, ops_per_thread=12, seed=1,
            workdir=tmp_path, scrape_dir=tmp_path / "scrapes",
        ))
        assert report.ok, "\n".join(report.lines())
        (cell,) = report.cells
        assert cell.promotion is None  # no replicas, no failover
        assert cell.tallies["multi_writes"] > 0
        # Re-assert the pairing from the artefacts: every marker sits
        # on both lanes' journals.
        lanes = {}
        for shard in (0, 1):
            path = tmp_path / "scrapes" / f"shard-{shard}.jsonl"
            lanes[shard] = {json.loads(line)["marker"]
                            for line in path.read_text().splitlines()
                            if line} - {None}
        assert lanes[0] and lanes[0] == lanes[1]
        metrics = (tmp_path / "scrapes" / "metrics-mid.prom").read_text()
        assert "service_shard_0_" in metrics
        assert "service_shard_1_" in metrics

    def test_replicated_lanes_fail_over_shard_zero(self, tmp_path):
        report = run_soak(SoakConfig(
            shards=2, replicas=2, auto_failover=True, threads=4,
            ops_per_thread=12, seed=1, workdir=tmp_path,
            serve_endpoint=False,
        ))
        assert report.ok, "\n".join(report.lines())
        (cell,) = report.cells
        assert cell.promotion is not None
        assert cell.elections == 1
        assert report.actions["replication.elected"] == 1
        assert not cell.failed("markers")
        assert cell.tallies["shard1.markers"] > 0


class TestOracles:
    """Each shared oracle must flag a corrupted history."""

    def test_replay_diff_catches_a_dropped_op(self):
        live = soak_database(3)
        ops = [Update.ins("c", "C0_p", f"C1_q{i}") for i in range(3)]
        for op in ops:
            apply_update(live, op)
        assert replay_diff(soak_database(3), ops, live) is None
        assert replay_diff(soak_database(3), ops[:1] + ops[2:], live)

    def test_fence_check_catches_an_acked_seq_past_the_fence(self):
        cell = CellReport("fence")
        check_fence(cell, [(1, None), (2, None)], 2)
        assert cell.ok
        check_fence(cell, [(1, None), (3, None)], 2)
        assert cell.failed("fence")

    @pytest.mark.parametrize("journals", [
        # marker 2 reached only lane 0
        {0: ((1, 0), (2, 3)), 1: ((1, 1),)},
        # lane 0's commit index does not increase
        {0: ((1, 2), (2, 2)), 1: ((1, 1), (2, 2))},
    ], ids=["single-lane-marker", "non-increasing-index"])
    def test_marker_audit_catches_corruption(self, journals):
        clean = CellReport("clean")
        check_markers(clean, {0: ((1, 0), (2, 3)), 1: ((1, 1), (2, 2))},
                      {0: 5, 1: 5})
        assert clean.ok, clean.failures
        cell = CellReport("corrupt")
        check_markers(cell, journals, {0: 5, 1: 5})
        assert cell.failed("markers")


class TestCli:
    """Every soak flag works on the chosen topology or fails at parse
    time with exit code 2 — none is silently dropped."""

    @pytest.fixture(autouse=True)
    def _workdirs_in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    SMALL = ["--soak", "--threads", "2", "--ops", "4", "--no-endpoint"]

    def test_modes_reach_the_shard_lanes(self, tmp_path, capsys):
        assert main(self.SMALL + ["--shards", "2", "--replicas", "3",
                                  "--modes", "sync(2)"]) == 0
        assert "[sharded / sync(2)] ok" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--shards", "2", "--replicas", "1", "--modes", "sync(1),quorum"],
        ["--shards", "2", "--modes", "quorum"],
        ["--modes", "quorum"],
    ], ids=["two-modes-on-shards", "modes-without-replicas",
            "modes-single-node"])
    def test_unusable_modes_fail_at_parse_time(self, flags):
        with pytest.raises(SystemExit) as exit_:
            main(self.SMALL + flags)
        assert exit_.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--replicas", "1"],
        ["--shards", "2", "--replicas", "1"],
    ], ids=["replicated-default-modes", "sharded-sync1"])
    def test_failover_without_a_follower_fails_at_parse_time(self, flags):
        """Promoting the only replica leaves no follower, so sync(1)
        and quorum could never ack the post-failover write."""
        with pytest.raises(SystemExit) as exit_:
            main(self.SMALL + flags)
        assert exit_.value.code == 2

    def test_async_single_replica_parses(self):
        config = SoakConfig(replicas=1, modes=("async",))
        assert config.modes == ("async",)

    def test_no_faults_reaches_the_replicated_cells(self, tmp_path):
        jsonl = tmp_path / "events.jsonl"
        assert main(self.SMALL + ["--replicas", "1", "--no-faults",
                                  "--scenarios", "partition",
                                  "--modes", "sync(1)",
                                  "--jsonl", str(jsonl)]) == 0
        names = _actions(jsonl)
        assert "soak.partition" not in names  # no link was ever cut

    def test_auto_failover_without_replicas_fails_at_parse_time(self):
        with pytest.raises(SystemExit) as exit_:
            main(self.SMALL + ["--auto-failover"])
        assert exit_.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--shards", "2", "--replicas", "1", "--scenarios", "partition"],
        ["--scenarios", "partition"],
        ["--replicas", "1", "--scenarios", "meteor"],
    ], ids=["sharded", "single-node", "unknown"])
    def test_unusable_scenarios_fail_at_parse_time(self, flags):
        with pytest.raises(SystemExit) as exit_:
            main(self.SMALL + flags)
        assert exit_.value.code == 2
