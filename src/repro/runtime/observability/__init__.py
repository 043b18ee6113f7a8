"""Federation observability plane: tracing, gauges, event log.

The paper's thesis applied to instrumentation: observability is a
cross-cutting concern, so it is *declared* (``ObservabilitySpec`` in the
deployment spec), *compiled* (the deploy layer configures this facade),
and *woven* (tracing elements in the federation and bus interceptor
chains) — never hand-stitched into call sites.

One :class:`Observability` instance serves a federation:

* :attr:`tracer` — span buffer + the two chain elements
  (:mod:`.tracing`);
* :attr:`events` — the bounded structured event log (:mod:`.events`);
* :meth:`sample` — reads per-node in-flight / queue-depth /
  dispatcher-pool gauges and replica lag into the metrics registry's
  :class:`~repro.runtime.observability.gauges.GaugeBoard`.

The bounded histogram backing every metrics series lives in
:mod:`.histogram`.
"""

from __future__ import annotations

from typing import Any, Dict

from .events import EventLog
from .gauges import GaugeBoard
from .histogram import BUCKETS, GROWTH, MAX_TRACKED, MIN_TRACKED, LogHistogram
from .tracing import TRACE_KEY, Span, TraceContext, Tracer

#: spec-level defaults, shared with ObservabilitySpec so a default spec
#: and a hand-built federation agree
DEFAULT_SAMPLE_RATE = 1.0
DEFAULT_SLOW_CALL_MS = 50.0
DEFAULT_EVENT_LOG_CAPACITY = 1024
DEFAULT_SPAN_CAPACITY = 4096

__all__ = [
    "Observability",
    "Tracer",
    "TraceContext",
    "Span",
    "TRACE_KEY",
    "EventLog",
    "GaugeBoard",
    "LogHistogram",
    "BUCKETS",
    "GROWTH",
    "MIN_TRACKED",
    "MAX_TRACKED",
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_SLOW_CALL_MS",
    "DEFAULT_EVENT_LOG_CAPACITY",
    "DEFAULT_SPAN_CAPACITY",
]


class Observability:
    """Per-federation facade over tracer + event log + gauge sampling."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.tracer = Tracer(
            capacity=DEFAULT_SPAN_CAPACITY,
            sample_rate=DEFAULT_SAMPLE_RATE,
            slow_call_ms=DEFAULT_SLOW_CALL_MS,
        )
        self.events = EventLog(capacity=DEFAULT_EVENT_LOG_CAPACITY)

    # -- configuration (compiled from ObservabilitySpec) -----------------------

    def configure(self, spec: Any) -> None:
        """Apply an ObservabilitySpec (or anything shaped like one).

        Every knob is live-tunable: the reconciler re-invokes this on a
        running federation for observability-only spec diffs.
        """
        if isinstance(spec, dict):
            get = spec.get
        else:
            get = lambda key, default=None: getattr(spec, key, default)  # noqa: E731
        sample_rate = get("sample_rate")
        if sample_rate is not None:
            self.tracer.sample_rate = float(sample_rate)
        slow_call_ms = get("slow_call_ms")
        if slow_call_ms is not None:
            self.tracer.slow_call_ms = float(slow_call_ms)
        span_capacity = get("span_capacity")
        if span_capacity is not None and int(span_capacity) != self.tracer.capacity:
            self.tracer.set_capacity(int(span_capacity))
        event_log_capacity = get("event_log_capacity")
        if (
            event_log_capacity is not None
            and int(event_log_capacity) != self.events.capacity
        ):
            self.events.set_capacity(int(event_log_capacity))

    def enable_tracing(self, enabled: bool = True) -> None:
        self.tracer.enabled = enabled

    def describe(self) -> Dict[str, Any]:
        """The live knob values (run provenance; `simulate --describe`)."""
        return {
            "tracing": self.tracer.enabled,
            "sample_rate": self.tracer.sample_rate,
            "slow_call_ms": self.tracer.slow_call_ms,
            "span_capacity": self.tracer.capacity,
            "event_log_capacity": self.events.capacity,
            "histogram": {"growth": GROWTH, "buckets": BUCKETS},
        }

    # -- events ----------------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Log a lifecycle event; mirrored onto the active span, if any."""
        self.tracer.event(kind, **fields)
        return self.events.emit(kind, **fields)

    def gate_wait(self, partitions: Any, waited_ms: float) -> None:
        """Hook for the migration gate: a delivery blocked on a freeze."""
        self.emit(
            "migration_gate_wait",
            partitions=sorted(partitions),
            waited_ms=round(waited_ms, 3),
        )

    # -- gauges ----------------------------------------------------------------

    def sample(self, federation) -> Dict[str, float]:
        """Read the federation's level gauges into its metrics registry."""
        board: GaugeBoard = federation.metrics.gauges
        values: Dict[str, float] = {}

        def put(name: str, value: float) -> None:
            values[name] = value
            board.set(name, value)

        for name, node in sorted(federation.nodes.items()):
            # through the node surface: a worker process answers with
            # its own stats, a dead one without a dispatch section
            dispatch = node.stats().get("dispatch", {})
            put(f"node.{name}.in_flight", dispatch.get("in_flight", 0))
            put(f"node.{name}.dispatcher_workers", dispatch.get("workers", 0))
            put(f"node.{name}.routed_in_flight", federation.routed_in_flight(name))
        stats = federation._async.stats()
        if stats["submitted"]:
            put("federation.delivery_queue_depth", stats["queued"])
            put("federation.delivery_in_flight", stats["in_flight"])
            put("federation.delivery_workers", stats["workers"])
        if federation.replicas is not None:
            rep = federation.replicas.stats()
            put("replication.lag", rep["replica_lag"])
            put("replication.max_lag", rep["max_replica_lag"])
        return values

    # -- export ----------------------------------------------------------------

    def export(self, metrics=None) -> Dict[str, Any]:
        """Everything a results consumer needs, as one JSON-shaped dict."""
        payload = {
            "config": self.describe(),
            "tracer": self.tracer.export(),
            "events": self.events.records(),
            "events_dropped": self.events.dropped,
        }
        if metrics is not None:
            payload["gauges"] = metrics.gauges.snapshot()
        return payload
