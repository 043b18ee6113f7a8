"""Runtime metrics: throughput, error counts, latency percentiles.

One :class:`MetricsRegistry` serves a whole federation.  Every completed
request is recorded under its operation label (``Class.operation``) and
its serving node.  Latency percentiles (p50/p95/p99/p99.9) come from a
log-bucketed :class:`~repro.runtime.observability.histogram.LogHistogram`
per series — fixed memory no matter how many samples land, with < 1%
relative error against exact nearest-rank.  All recording paths are
thread-safe — client threads and dispatcher workers feed the same
registry.  Level gauges (queue depth, in-flight, replica lag) sampled by
the observability plane live on :attr:`MetricsRegistry.gauges`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from repro.analysis.witness import named_lock
from repro.runtime.observability.gauges import GaugeBoard
from repro.runtime.observability.histogram import LogHistogram


def percentile_of_sorted(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted ``ordered`` list."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples``; 0.0 for an empty set."""
    return percentile_of_sorted(sorted(samples), fraction)


class _Series:
    __slots__ = ("count", "errors", "hist")

    def __init__(self):
        self.count = 0
        self.errors = 0
        self.hist = LogHistogram()

    def add(self, seconds: float, error: bool) -> None:
        self.count += 1
        if error:
            self.errors += 1
        self.hist.add(seconds)

    def summary(self) -> Dict[str, float]:
        hist = self.hist
        return {
            "count": self.count,
            "errors": self.errors,
            "mean_ms": hist.mean() * 1000.0,
            "p50_ms": hist.percentile(0.50) * 1000.0,
            "p95_ms": hist.percentile(0.95) * 1000.0,
            "p99_ms": hist.percentile(0.99) * 1000.0,
            "p999_ms": hist.percentile(0.999) * 1000.0,
        }


def format_series_table(
    series: Dict[str, Dict[str, float]], indent: str = "", title: str = "operation"
) -> List[str]:
    """Render ``{name: summary}`` rows as a latency table (shared by the
    registry report and the scenario report)."""
    lines = [
        f"{indent}{title:<28}{'count':>7}{'err':>6}"
        f"{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}{'p99.9 ms':>10}"
    ]
    for name, s in series.items():
        p999 = s.get("p999_ms", s["p99_ms"])
        lines.append(
            f"{indent}{name:<28}{s['count']:>7}{s['errors']:>6}"
            f"{s['p50_ms']:>9.3f}{s['p95_ms']:>9.3f}{s['p99_ms']:>9.3f}"
            f"{p999:>10.3f}"
        )
    return lines


def goodput_summary(offered: int, completed_ok: int, elapsed_s: float) -> Dict[str, float]:
    """Goodput under offered load.

    Throughput divides *completions* by elapsed time, which under a
    closed loop always looks healthy: the clients slow down with the
    system.  Goodput instead relates useful completions to what was
    *offered* — ``goodput_fraction`` is the share of offered operations
    that completed successfully (shed and failed work both count
    against it), the honest overload number.
    """
    return {
        "offered": offered,
        "completed_ok": completed_ok,
        "offered_ops_s": offered / elapsed_s if elapsed_s > 0 else 0.0,
        "goodput_ops_s": completed_ok / elapsed_s if elapsed_s > 0 else 0.0,
        "goodput_fraction": completed_ok / offered if offered else 0.0,
    }


class MetricsRegistry:
    """Thread-safe per-operation and per-node request statistics."""

    def __init__(self):
        self._lock = named_lock("metrics.registry")
        self._per_op: Dict[str, _Series] = {}  # guarded_by: _lock
        self._per_node: Dict[str, _Series] = {}  # guarded_by: _lock
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._last_record_at: Optional[float] = None
        #: level gauges sampled by the observability plane
        self.gauges = GaugeBoard()

    # -- wall-clock window ---------------------------------------------------

    def start(self) -> None:
        self._started_at = time.perf_counter()
        self._stopped_at = None
        self._last_record_at = None

    def stop(self) -> None:
        self._stopped_at = time.perf_counter()

    def elapsed_s(self) -> float:
        """The measurement window in seconds.

        When ``stop()`` was never called (a harness early-abort, a crash
        report read post-mortem), the window freezes at the *last
        recorded sample* instead of silently growing with wall clock —
        otherwise throughput decays toward zero the longer the aborted
        registry sits around before being read.
        """
        if self._started_at is None:
            return 0.0
        end = self._stopped_at
        if end is None:
            end = self._last_record_at
        if end is None or end < self._started_at:
            return 0.0
        return end - self._started_at

    # -- recording -----------------------------------------------------------

    def record(
        self, operation: str, node: str, seconds: float, error: bool = False
    ) -> None:
        now = time.perf_counter()
        with self._lock:
            self._last_record_at = now
            series = self._per_op.get(operation)
            if series is None:
                series = self._per_op[operation] = _Series()
            series.add(seconds, error)
            node_series = self._per_node.get(node)
            if node_series is None:
                node_series = self._per_node[node] = _Series()
            node_series.add(seconds, error)

    def element(self):
        """This registry as an interceptor-chain element.

        Records one sample per *logical call* under ``envelope.label``
        and ``envelope.target``: a transport fault that the QoS retry
        budget will re-deliver is not recorded (only the final attempt
        is), so counts and error rates stay comparable to the
        synchronous one-record-per-call metering.  Envelopes with no
        label (e.g. pipelined batches that meter their member calls
        individually) pass through unrecorded.
        """
        from repro.middleware.envelope import will_retry

        def metrics_element(envelope, next):
            if envelope.label is None:
                return next(envelope)
            node = envelope.target or "?"
            started = time.perf_counter()
            try:
                result = next(envelope)
            except Exception as exc:
                if not will_retry(envelope, exc):
                    self.record(
                        envelope.label, node, time.perf_counter() - started, error=True
                    )
                raise
            self.record(envelope.label, node, time.perf_counter() - started)
            return result

        return metrics_element

    # -- reporting -------------------------------------------------------------

    def total_requests(self) -> int:
        with self._lock:
            return sum(s.count for s in self._per_op.values())

    def total_errors(self) -> int:
        with self._lock:
            return sum(s.errors for s in self._per_op.values())

    def throughput_ops_s(self) -> float:
        elapsed = self.elapsed_s()
        return self.total_requests() / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            per_op = {name: s.summary() for name, s in sorted(self._per_op.items())}
            per_node = {
                name: s.summary() for name, s in sorted(self._per_node.items())
            }
        return {
            "operations": per_op,
            "nodes": per_node,
            "gauges": self.gauges.snapshot(),
            "total_requests": sum(v["count"] for v in per_op.values()),
            "total_errors": sum(v["errors"] for v in per_op.values()),
            "elapsed_s": self.elapsed_s(),
            "throughput_ops_s": self.throughput_ops_s(),
        }

    def report(self) -> str:
        """Human-readable latency/throughput table."""
        snap = self.snapshot()
        lines = [
            f"requests: {snap['total_requests']}"
            f"  errors: {snap['total_errors']}"
            f"  elapsed: {snap['elapsed_s']:.3f}s"
            f"  throughput: {snap['throughput_ops_s']:.0f} ops/s",
        ]
        lines.extend(format_series_table(snap["operations"]))
        lines.extend(format_series_table(snap["nodes"], title="node"))
        return "\n".join(lines)
