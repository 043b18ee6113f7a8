"""E16 — elastic federation: rebalance cost on join, failover recovery.

Two claims under test:

1. **Rebalance cost.**  A node joining an N-node federation must migrate
   only the bindings consistent hashing assigns to it — ideally a
   ``1/(N+1)`` fraction of the total.  The hard bar (enforced by CI) is
   **2x the ideal fraction**: a join that moves more is not "migrating
   only the affected bindings", it is reshuffling the federation.

2. **Failover recovery.**  After a fail-stop node kill, a client with a
   QoS retry budget should recover transparently: the first dead-node
   fault promotes the replicated standbys, the retry re-resolves onto
   the new primary, and steady-state throughput returns to a healthy
   fraction of the pre-kill rate (reported; the structural assertion is
   that *zero calls fail* and *no effect is lost* across the kill).

Both runs assert effect conservation: every bump that returned success
is present in the final servant states — a migration or failover that
loses state cannot pass.

Results land in ``BENCH_elastic.json`` with machine-readable bars so CI
can enforce them without eyeballing.

Run standalone:  python benchmarks/bench_elastic.py
"""

from __future__ import annotations

import time

from _benchjson import write_bench_json

from repro.middleware.envelope import QoS
from repro.runtime import Federation

#: federation size before the join / before the kill
NODES = 4
#: partitions (one binding each) spread over the ring
PARTITIONS = 64
#: the joining node must take no more than 2x its ideal share
JOIN_BAR_FACTOR = 2.0
#: retry budget that absorbs the dead-node fault during failover
RETRY = QoS(retries=2)
#: ops per throughput window
WINDOW_OPS = 2_000


class Account:
    """Plain servant: elasticity needs state, not weaving."""

    def __init__(self, balance=0.0):
        self.balance = balance

    def deposit(self, amount):
        self.balance += amount
        return self.balance

    def getBalance(self):
        return self.balance


MODULE = type("BenchElasticModule", (), {"Account": Account})


def build_federation(nodes=NODES, partitions=PARTITIONS, replication=0):
    federation = Federation(seed=1, latency_ms=0.0)
    for i in range(nodes):
        federation.join(f"node-{i}").module = MODULE
    names = []
    for k in range(partitions):
        partition = f"acct-{k}"
        node = federation.node_for(partition)
        name = f"{partition}/Account/0"
        node.bind(name, Account())
        names.append(name)
    if replication:
        federation.enable_replication(replication)
    return federation, names


def deploy_module(node):
    node.module = MODULE


def window(federation, names, ops, offset=0):
    """One closed-loop throughput window; every call must succeed."""
    start = time.perf_counter()
    for i in range(ops):
        federation.call(names[(offset + i) % len(names)], "deposit", 1.0, qos=RETRY)
    return ops / (time.perf_counter() - start)


def bench_join():
    federation, names = build_federation()
    for name in names:
        federation.call(name, "deposit", 1.0)
    started = time.perf_counter()
    federation.join(f"node-{NODES}", deploy=deploy_module)
    rebalance_ms = (time.perf_counter() - started) * 1000.0
    moved = federation.last_rebalance["moved"]
    total = federation.last_rebalance["total"]
    # effect conservation: nothing lost or duplicated by the migration
    assert all(
        federation.call(name, "getBalance") == 1.0 for name in names
    ), "join migration lost servant state"
    federation.shutdown()
    fraction = moved / total
    ideal = 1.0 / (NODES + 1)
    bar = JOIN_BAR_FACTOR * ideal
    return {
        "nodes_before": NODES,
        "bindings_total": total,
        "bindings_moved": moved,
        "moved_fraction": round(fraction, 4),
        "ideal_fraction": round(ideal, 4),
        "bar_fraction": round(bar, 4),
        "bar_factor": JOIN_BAR_FACTOR,
        "rebalance_ms": round(rebalance_ms, 2),
        "passed": fraction <= bar,
    }


def bench_failover():
    federation, names = build_federation(replication=1)
    ops_per_window = WINDOW_OPS
    pre = window(federation, names, ops_per_window)
    victim = f"node-{NODES - 1}"
    kill_started = time.perf_counter()
    federation.kill(victim)
    # the first window eats the promotion cost (the first dead-node
    # fault triggers it; the QoS retry hides it from the caller)
    first = window(federation, names, ops_per_window, offset=ops_per_window)
    recovery_ms = (time.perf_counter() - kill_started) * 1000.0
    steady = window(federation, names, ops_per_window, offset=2 * ops_per_window)
    # effect conservation across the kill: three windows of deposits on
    # an initial zero balance — every successful call left exactly one mark
    total_deposits = sum(
        federation.call(name, "getBalance", qos=RETRY) for name in names
    )
    assert total_deposits == 3 * ops_per_window, (
        f"failover lost effects: {total_deposits} != {3 * ops_per_window}"
    )
    failovers = federation.failovers
    federation.shutdown()
    return {
        "nodes_before": NODES,
        "standbys_per_partition": 1,
        "window_ops": ops_per_window,
        "pre_kill_ops_s": round(pre),
        "first_window_ops_s": round(first),
        "steady_ops_s": round(steady),
        "recovery_ratio": round(steady / pre, 3),
        "first_window_ratio": round(first / pre, 3),
        "promotion_plus_window_ms": round(recovery_ms, 1),
        "failovers": failovers,
        "calls_failed": 0,  # window() raises on any failure
    }


def main():
    join = bench_join()
    failover = bench_failover()
    print(
        f"join: {join['bindings_moved']}/{join['bindings_total']} bindings "
        f"moved ({join['moved_fraction']:.1%}); ideal {join['ideal_fraction']:.1%}, "
        f"bar {join['bar_fraction']:.1%} -> "
        f"{'PASS' if join['passed'] else 'FAIL'}"
    )
    print(
        f"failover: {failover['pre_kill_ops_s']} ops/s before kill, "
        f"{failover['first_window_ops_s']} ops/s through promotion, "
        f"{failover['steady_ops_s']} ops/s steady "
        f"(recovery {failover['recovery_ratio']:.0%})"
    )
    write_bench_json(
        "elastic",
        {
            "join": join,
            "failover": failover,
            "passed": join["passed"],
        },
    )
    if not join["passed"]:
        raise SystemExit(
            f"join moved {join['moved_fraction']:.1%} of bindings; "
            f"bar is {join['bar_fraction']:.1%}"
        )


if __name__ == "__main__":
    main()
