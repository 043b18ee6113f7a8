"""E17 — log-shipping replication: write throughput vs partition size.

The claim under test: **replication cost does not grow with partition
size**.  Per-servant dirty tracking plus the append-only replication log
make the per-write replication work O(touched servants): one state
snapshot appended to the partition log and replayed onto the standby.
A path that re-copied the whole partition after every write would do
O(partition) work per write and collapse as partitions grow.

Each partition size (64 → 4096 servants in one replicated partition,
one standby, snapshot+truncate every 64 entries) gets its own
federation; the timed write windows then alternate across the sizes,
round by round with the order reversed every other round, so host drift
hits every size alike.  The CI floor is a size-independence ratio:
**median ops/s at 4096 servants >= 0.5x the median at 64**.  Replica
lag (applied-watermark deficit) and failover recovery time with
log-replay promotion are reported alongside.  Every run asserts effect
conservation on the *standby* copies: each deposit must be visible in
the replicated state, so a path that loses writes cannot pass.

Run standalone:  python benchmarks/bench_replication.py
"""

from __future__ import annotations

import random
import statistics
import time

from _benchjson import write_bench_json

from repro.middleware.envelope import QoS
from repro.runtime import Federation

#: partition sizes swept (servants in the one replicated partition)
SIZES = (64, 256, 1024, 4096)
#: the CI floor: median ops/s at the large size over the small size
FLOOR_RATIO = 0.5
FLOOR_SIZES = (64, 4096)
#: alternating rounds; every size gets one window per round
ROUNDS = 5
OPS_PER_WINDOW = 1_500
#: retry budget that absorbs the dead-node fault during failover
RETRY = QoS(timeout_ms=30_000.0, retries=2)

PARTITION = "shard-0"


class Account:
    """Plain servant: replication needs state, not weaving."""

    def __init__(self, balance=0.0):
        self.balance = balance

    def deposit(self, amount):
        self.balance += amount
        return self.balance

    def getBalance(self):
        return self.balance


MODULE = type("BenchReplicationModule", (), {"Account": Account})


def build_federation(size):
    federation = Federation(seed=1, latency_ms=0.0)
    for i in range(2):
        federation.add_node(f"node-{i}").module = MODULE
    owner = federation.node_for(PARTITION)
    names = []
    for i in range(size):
        name = f"{PARTITION}/Account/{i}"
        owner.bind(name, Account())
        names.append(name)
    # enabled after the binds: seeding syncs once per partition instead
    # of once per bind
    federation.enable_replication(1, snapshot_every=64)
    return federation, names


def standby_total(federation, names):
    """Sum of balances held by the standby copies (replicated state)."""
    replicas = federation.replicas
    group = replicas._groups[PARTITION]
    total = 0.0
    for standby_name in group.standbys:
        copies = replicas.take(PARTITION, standby_name)
        total += sum(copies[name][1]["balance"] for name in names)
    return total


def write_window(federation, names, ops, seed):
    """Closed-loop deposits against one replicated partition."""
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(ops):
        federation.call(rng.choice(names), "deposit", 1.0)
    return ops / (time.perf_counter() - start)


def bench_sizes():
    built = {size: build_federation(size) for size in SIZES}
    windows = {size: [] for size in SIZES}
    for round_index in range(ROUNDS):
        order = SIZES if round_index % 2 == 0 else SIZES[::-1]
        for size in order:
            federation, names = built[size]
            windows[size].append(
                write_window(
                    federation, names, OPS_PER_WINDOW, seed=size * 31 + round_index
                )
            )
    results = []
    for size in SIZES:
        federation, names = built[size]
        ops = OPS_PER_WINDOW * ROUNDS
        stats = federation.replicas.stats()
        # effect conservation ON THE STANDBY: every deposit must have
        # been replicated — a path that drops writes cannot pass
        replicated = standby_total(federation, names)
        assert replicated == float(ops), (
            f"size {size} lost writes: standby holds {replicated}, "
            f"expected {float(ops)}"
        )
        federation.shutdown()
        row = {
            "partition_size": size,
            "ops": ops,
            "windows_ops_s": [round(value) for value in windows[size]],
            "median_ops_s": round(statistics.median(windows[size])),
            "syncs": stats["syncs"],
            "log_appends": stats["log_appends"],
            "snapshots": stats["snapshots"],
            "replica_lag": stats["replica_lag"],
            "max_replica_lag": stats["max_replica_lag"],
        }
        results.append(row)
        print(
            f"size {size:5d}: median {row['median_ops_s']:>7} ops/s "
            f"(windows {row['windows_ops_s']})"
        )
    return results


def bench_failover(size=1024):
    """Kill the primary after a log-shipped tail; time the promotion."""
    federation, names = build_federation(size)
    write_window(federation, names, 500, seed=99)
    victim = federation.naming.owner_of(PARTITION)
    last = federation.call(names[0], "deposit", 1.0)
    kill_started = time.perf_counter()
    federation.kill(victim)
    # the first read eats the dead-node fault, the (log-riding)
    # promotion, and the retry re-resolve onto the new primary
    recovered = federation.call(names[0], "getBalance", qos=RETRY)
    recovery_ms = (time.perf_counter() - kill_started) * 1000.0
    assert recovered == last, (
        f"promotion lost the log tail: {recovered} != {last}"
    )
    failovers = federation.failovers
    federation.shutdown()
    return {
        "partition_size": size,
        "writes_before_kill": 501,
        "recovery_ms": round(recovery_ms, 2),
        "failovers": failovers,
        "last_write_survived": True,
    }


def main():
    sizes = bench_sizes()
    failover = bench_failover()
    print(
        f"failover at {failover['partition_size']} servants: "
        f"{failover['recovery_ms']:.1f} ms to first successful call, "
        f"last write survived"
    )
    medians = {row["partition_size"]: row["median_ops_s"] for row in sizes}
    small, large = FLOOR_SIZES
    ratio = round(medians[large] / medians[small], 3)
    passed = ratio >= FLOOR_RATIO
    print(
        f"ops/s at {large} servants = {ratio:.2f}x of {small} "
        f"(floor {FLOOR_RATIO}x)"
    )
    write_bench_json(
        "replication",
        {
            "sizes": sizes,
            "rounds": ROUNDS,
            "ops_per_window": OPS_PER_WINDOW,
            "failover": failover,
            "floor_ratio": FLOOR_RATIO,
            "floor_sizes": list(FLOOR_SIZES),
            "size_ratio": ratio,
            "passed": passed,
        },
    )
    if not passed:
        raise SystemExit(
            f"ops/s at {large} servants fell to {ratio:.2f}x of {small} "
            f"(floor {FLOOR_RATIO}x): replication cost grows with partition size"
        )


if __name__ == "__main__":
    main()
