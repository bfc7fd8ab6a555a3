"""PR 10: router-vs-direct serving throughput and failover recovery.

Two record-only scenarios publishing to ``BENCH_PR10.json``:

* **Scaling** — the same read-only mixed workload driven twice: once
  directly against the primary replica, once through the
  :class:`~repro.cluster.ClusterRouter` fronting a three-member
  fleet.  On a single-core CI container the fleet cannot beat one
  process (everyone shares the core, and the router adds a hop), so
  throughput is *recorded*, not asserted; what IS asserted is
  correctness — zero client-visible errors on both runs and
  byte-identical rankings across the fleet after a mutation chain.
* **Failover recovery** — SIGKILL one replica and measure how long
  the supervisor takes to respawn it back to healthy, plus how long
  oplog resync takes to lag 0.  Recorded as seconds; asserted only to
  have happened.

Scale knob: ``REPRO_PERF_SCALE=smoke`` (CI) shrinks workers and the
load window.
"""

from __future__ import annotations

import os
import signal
import time

from conftest import write_result
from repro import HomographIndex, Table
from repro.bench.loadgen import build_mixed_schedule, run_load
from repro.bench.report import update_bench_section
from repro.bench.synthetic import SBConfig, generate_sb
from repro.cluster import start_cluster
from repro.serving.client import HomographClient

SCALE = os.environ.get("REPRO_PERF_SCALE", "default")

# (workers, seconds per run, ops per schedule)
SHAPE = {
    "smoke": (2, 1.2, 40),
    "default": (4, 3.0, 120),
    "full": (8, 8.0, 400),
}.get(SCALE, (4, 3.0, 120))

#: Read-only mix: every op the router may retry on a sibling replica.
READ_MIX = (
    ("detect_hit", 50),
    ("ranking", 35),
    ("detect_miss", 15),
)


def _meta():
    return {"scale": SCALE, "note": "loadgen closed-loop harness"}


def _wait(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestClusterScaling:
    def test_router_vs_direct_and_failover(
        self, tmp_path, results_dir, bench_dir
    ):
        workers, seconds, ops = SHAPE
        snapshot = tmp_path / "sb"
        index = HomographIndex(
            generate_sb(SBConfig(rows=60, seed=0)).lake
        )
        index.save(snapshot)

        supervisor, router = start_cluster(snapshot, replicas=3)
        try:
            schedules = [
                build_mixed_schedule(["sb"], ops=ops, seed=w,
                                     mix=READ_MIX)
                for w in range(workers)
            ]
            primary_url = supervisor.replicas.primary.url
            direct = run_load(primary_url, schedules, duration=seconds)
            routed = run_load(router.url, schedules, duration=seconds)
            assert direct.errors == {}, direct.errors
            assert routed.errors == {}, routed.errors
            assert direct.completed > 0 and routed.completed > 0

            # Parity oracle: a mutation chain through the router
            # converges every member to byte-identical rankings.
            client = HomographClient(router.url, timeout=30.0).lake("sb")
            client.add_table(Table.from_columns(
                "B1", {"A": ["Jaguar", "Kestrel"], "B": ["1", "2"]}
            ))
            client.remove_table("B1")
            client.add_table(Table.from_columns(
                "B2", {"A": ["Puma", "Reebok"], "B": ["1", "2"]}
            ))
            assert _wait(lambda: all(
                replica.applied_seq >= 3 and replica.oplog_lag == 0
                for replica in supervisor.replicas
                if replica.role != "primary"
            )), supervisor.replicas.stats()
            rankings = [
                [
                    (entry.rank, entry.value, entry.score)
                    for entry in HomographClient(
                        replica.url, timeout=30.0
                    ).lake("sb").iter_ranking("lcc")
                ]
                for replica in supervisor.replicas
            ]
            assert rankings[0] == rankings[1] == rankings[2]

            # Failover recovery: SIGKILL a replica, time the heal.
            victim = supervisor.replicas.get("replica-2")
            pid = supervisor.stats()["pids"]["replica-2"]
            restarts_before = victim.restarts
            killed_at = time.monotonic()
            os.kill(pid, signal.SIGKILL)
            assert _wait(
                lambda: victim.restarts > restarts_before
                and victim.healthy
            )
            healthy_s = time.monotonic() - killed_at
            assert _wait(
                lambda: victim.applied_seq >= 3
                and victim.oplog_lag == 0
            )
            resynced_s = time.monotonic() - killed_at
        finally:
            router.drain()
            supervisor.stop()

        payload = {
            "workers": workers,
            "window_s": seconds,
            "direct": direct.to_dict(),
            "router": routed.to_dict(),
            "router_overhead": {
                "direct_rps": round(direct.throughput_rps, 1),
                "router_rps": round(routed.throughput_rps, 1),
            },
            "failover": {
                "healthy_s": round(healthy_s, 3),
                "resynced_s": round(resynced_s, 3),
            },
        }
        update_bench_section(
            bench_dir / "BENCH_PR10.json", "cluster_scaling", payload,
            _meta(),
        )
        lines = [
            f"cluster scaling over 3-member fleet "
            f"(scale={SCALE}, {seconds:.1f}s per run, "
            f"{workers} workers)",
            "[direct -> primary]",
            *direct.format_lines(),
            "[via router]",
            *routed.format_lines(),
            f"failover: healthy in {healthy_s:.2f}s, "
            f"resynced in {resynced_s:.2f}s",
        ]
        write_result(results_dir, "cluster_scaling", "\n".join(lines))
