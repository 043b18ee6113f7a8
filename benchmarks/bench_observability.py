"""E18 — observability overhead: fully-sampled tracing vs untraced.

The claim under test: **the woven observability plane is cheap enough to
leave on**.  Tracing is compiled into the federation and bus interceptor
chains as ordinary elements; when disabled they fall through after one
flag check, and when enabled at sample rate 1.0 every logical call pays
for a client root span, a hop span per delivery attempt, and a bus span
per servant dispatch — ring-buffer appends and a few clock reads, never
an unbounded structure.

The measurement is the repository's concurrent banking bench (E14,
``bench_runtime.py``): the banking scenario over 2 nodes with
concurrent dispatchers, 8 concurrent clients, and the same 1.5 ms
real transport latency per hop, run through the ordinary harness.
Overhead is estimated from ``PAIRS`` alternating untraced/traced runs
of the same seeded operation scripts; the headline number is the
**median of per-pair throughput ratios** (with the ratio of summed
durations reported alongside), because on shared CI hardware
single-window ratios swing by +/-10% and a best-of estimator amplifies
exactly that noise.

The CI bar is **traced >= 0.90x untraced throughput** (<= 10% overhead)
on the median pair.  A zero-latency pair is also measured and reported
(``cpu_bound_ratio``) so the worst case — tracing against a federation
doing no network waiting at all — stays visible in the artifact, but
the floor binds on the bench's canonical latency shape.  The traced
runs must actually produce client, hop, and bus spans — a variant that
silently stops tracing cannot pass — and a serial control pair asserts
the traced and untraced runs produce the identical outcome digest
(tracing must observe, never perturb).

Run standalone:  python benchmarks/bench_observability.py
"""

from __future__ import annotations

import gc
import statistics

from _benchjson import write_bench_json

from repro.runtime import run_scenario

#: the CI floor: median traced/untraced throughput ratio (<= 10% overhead)
FLOOR_RATIO = 0.90
SCENARIO = "banking"
NODES = 2
CLIENTS = 8
WORKERS = 4
#: real (slept) transport latency per hop — same as bench_runtime (E14)
HOP_LATENCY_MS = 1.5
#: ops per window — long enough that scheduler noise averages out
OPS = 1_200
#: alternating untraced/traced pairs; the median pair is the estimator
PAIRS = 10
#: full pair-set attempts (best median wins, as bench_runtime does with
#: best-of-3): a depressed attempt means the host degraded mid-bench,
#: and only a sustained shortfall should fail CI
ATTEMPTS = 3
#: an attempt whose median clears the floor by this much ends the bench
EARLY_EXIT_MARGIN = 0.03


def run_once(traced: bool, latency_ms: float = HOP_LATENCY_MS, ops: int = OPS):
    """One harness run of the concurrent banking shape."""
    # start each timed window without inherited collector debt: a gen2
    # collection triggered mid-window would land on one variant only
    gc.collect()
    result = run_scenario(
        SCENARIO,
        nodes=NODES,
        clients=CLIENTS,
        ops=ops,
        seed=1,
        concurrent=True,
        workers=WORKERS,
        real_latency_ms=latency_ms,
        trace=traced,
    )
    assert result.passed, f"banking run failed (traced={traced})"
    return result


def serial_digest_control():
    """Tracing must not perturb outcomes: serial runs digest-identically.

    (The concurrent windows cannot make this check — their digests are
    interleaving-dependent with or without tracing — so a small serial
    pair carries it.)
    """
    common = dict(nodes=NODES, clients=4, ops=120, seed=1, concurrent=False)
    untraced = run_scenario(SCENARIO, **common).digest()
    traced = run_scenario(SCENARIO, trace=True, **common).digest()
    assert untraced == traced, (
        f"tracing changed the outcome digest: {untraced} != {traced}"
    )
    return untraced


def measure_pairs(attempt):
    """One full pair set; returns its stats dict."""
    untraced_ops_s, traced_ops_s, ratios = [], [], []
    last_traced = None
    for pair in range(PAIRS):
        # alternate which variant runs first so slow drift and periodic
        # background load cancel instead of biasing one side
        if pair % 2 == 0:
            untraced = run_once(traced=False)
            traced = run_once(traced=True)
        else:
            traced = run_once(traced=True)
            untraced = run_once(traced=False)
        assert traced.ops == untraced.ops == OPS
        last_traced = traced
        untraced_ops_s.append(untraced.throughput_ops_s)
        traced_ops_s.append(traced.throughput_ops_s)
        ratios.append(traced.throughput_ops_s / untraced.throughput_ops_s)
        print(
            f"attempt {attempt} pair {pair}: "
            f"untraced {untraced_ops_s[-1]:,.0f} ops/s, "
            f"traced {traced_ops_s[-1]:,.0f} ops/s, ratio {ratios[-1]:.3f}"
        )
    tracer_export = last_traced.trace["tracer"]
    kinds = {span["kind"] for span in tracer_export["spans"]}
    assert tracer_export["span_count"] > 0, "traced runs produced no spans"
    assert {"client", "hop", "bus"} <= kinds, f"span kinds missing: {kinds}"
    # same total work both sides, so the throughput ratio over all
    # pairs is the inverse ratio of the total durations
    total_untraced_s = sum(OPS / v for v in untraced_ops_s)
    total_traced_s = sum(OPS / v for v in traced_ops_s)
    return {
        "untraced_ops_s": untraced_ops_s,
        "traced_ops_s": traced_ops_s,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "sum_ratio": total_untraced_s / total_traced_s,
        "tracer_export": tracer_export,
    }


def main():
    digest = serial_digest_control()
    # warm both variants (imports, code paths, allocator)
    run_once(traced=True)
    run_once(traced=False)

    best = None
    attempts = 0
    for attempt in range(ATTEMPTS):
        attempts += 1
        stats = measure_pairs(attempt)
        if best is None or stats["median_ratio"] > best["median_ratio"]:
            best = stats
        if best["median_ratio"] >= FLOOR_RATIO + EARLY_EXIT_MARGIN:
            break
        print(
            f"attempt {attempt}: median {stats['median_ratio']:.3f} below "
            f"{FLOOR_RATIO + EARLY_EXIT_MARGIN:.2f}, "
            + ("retrying" if attempt + 1 < ATTEMPTS else "out of attempts")
        )

    # informational worst case: no network waiting to hide behind
    cpu_untraced = run_once(traced=False, latency_ms=0.0, ops=2 * OPS)
    cpu_traced = run_once(traced=True, latency_ms=0.0, ops=2 * OPS)
    cpu_bound_ratio = cpu_traced.throughput_ops_s / cpu_untraced.throughput_ops_s

    tracer_export = best["tracer_export"]
    median_ratio = best["median_ratio"]
    sum_ratio = best["sum_ratio"]
    overhead_pct = (1.0 - median_ratio) * 100.0
    passed = median_ratio >= FLOOR_RATIO
    print(
        f"median ratio {median_ratio:.3f} ({overhead_pct:.1f}% overhead), "
        f"ratio of sums {sum_ratio:.3f}, "
        f"cpu-bound ratio {cpu_bound_ratio:.3f}, "
        f"{tracer_export['span_count']} span(s) buffered, "
        f"{tracer_export['dropped']} dropped, digest {digest[:16]}"
    )
    write_bench_json(
        "observability",
        {
            "scenario": SCENARIO,
            "nodes": NODES,
            "clients": CLIENTS,
            "workers": WORKERS,
            "hop_latency_ms": HOP_LATENCY_MS,
            "ops_per_window": OPS,
            "pairs": PAIRS,
            "attempts": attempts,
            "untraced_ops_s": [round(v) for v in best["untraced_ops_s"]],
            "traced_ops_s": [round(v) for v in best["traced_ops_s"]],
            "pair_ratios": [round(v, 4) for v in best["ratios"]],
            "median_ratio": round(median_ratio, 4),
            "sum_ratio": round(sum_ratio, 4),
            "cpu_bound_ratio": round(cpu_bound_ratio, 4),
            "overhead_pct": round(overhead_pct, 2),
            "spans_buffered": tracer_export["span_count"],
            "spans_dropped": tracer_export["dropped"],
            "slow_spans": tracer_export["slow_spans"],
            "serial_digest": digest,
            "floor_ratio": FLOOR_RATIO,
            "passed": passed,
        },
    )
    if not passed:
        raise SystemExit(
            f"tracing overhead {overhead_pct:.1f}% "
            f"(median ratio {median_ratio:.3f}) dropped below the "
            f"{FLOOR_RATIO:.2f}x throughput floor"
        )


if __name__ == "__main__":
    main()
