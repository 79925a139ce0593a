"""A small-matrix run of the replicated chaos soak.

The full matrix (``python -m repro.faults --soak --replicas 2``) runs
in CI's ``replication-soak`` job; this keeps a scaled-down failover
cell in the regular test suite so the no-acked-loss invariant is
exercised on every run, not just nightly.
"""

from __future__ import annotations

from repro.faults.soak import SoakConfig, run_soak


def test_small_soak_matrix_holds_invariants(tmp_path):
    config = SoakConfig(
        replicas=2,
        threads=2,
        ops_per_thread=8,
        seed=5,
        modes=("sync(1)",),
        scenarios=("partition", "primary_kill"),
        ack_timeout=1.0,
        wall_clock_limit=60.0,
        workdir=str(tmp_path),
        serve_endpoint=False,
    )
    report = run_soak(config)
    assert report.ok, "\n".join(report.lines())
    assert len(report.cells) == 2
    assert report.actions["replication.promote"] >= 1  # primary_kill
    assert report.actions["replication.write_fenced"] >= 1
    assert report.actions["replication.rejoin"] >= 1
    kill = next(c for c in report.cells
                if c.label.endswith("primary_kill"))
    assert kill.promotion is not None
    assert kill.fence_seq is not None
    # every acked op survived: the cell records failures otherwise
    assert not kill.failures
