"""Distributed tracing woven into the interceptor chains.

A :class:`TraceContext` rides the envelope's propagated request context
(under the ``"trace"`` key) through the delivery context
(:func:`~repro.middleware.envelope.delivery_stack`), exactly like
credentials do, so every hop — sync, queued, nested servant-to-servant,
bus-level dispatch — can parent its span correctly without any side
channel.

Span topology per logical call:

* a **client** root span (opened by the harness or any caller via
  :meth:`Tracer.client_span`) with a trace id derived deterministically
  from the run seed + client index + op index;
* one **hop** span per federation delivery *attempt* (the federation
  chain element).  A retried attempt parents under the failed attempt's
  span, so a failover reads as: failed hop (NodeDownError, with the
  ``failover`` promotion event) → child retry hop landing on the
  promoted node;
* one **bus** span per servant dispatch on the serving node (the bus
  chain element), parented under the hop that delivered it.

Sampling is decided once per trace id (deterministic hash), so a
sample_rate < 1 drops whole call trees, never partial ones.  Finished
spans land in a bounded ring buffer; ``dropped`` counts overflow.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.witness import named_lock
from repro.middleware.envelope import delivery_context_value, will_retry

#: the request-context key the trace rides under
TRACE_KEY = "trace"


class TraceContext:
    """Identity of one position in a call tree."""

    __slots__ = ("trace_id", "span_id", "parent_span_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_span_id: Optional[str] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id

    def headers(self) -> Dict[str, str]:
        """The propagation form stamped into ``envelope.context['trace']``."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def child(self, span_id: str) -> "TraceContext":
        return TraceContext(self.trace_id, span_id, parent_span_id=self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}/{self.span_id})"


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "target",
        "attempt",
        "status",
        "error",
        "start_s",
        "duration_s",
        "events",
        "slow",
        "_tracer",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        target: Optional[str],
        attempt: int,
        start_s: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.target = target
        self.attempt = attempt
        self.status = "open"
        self.error: Optional[str] = None
        self.start_s = start_s
        self.duration_s = 0.0
        # lazy: most spans carry no events, so the list is only
        # allocated when the first event lands
        self.events: Optional[List[Dict[str, Any]]] = None
        self.slow = False

    def add_event(self, record: Dict[str, Any]) -> None:
        events = self.events
        if events is None:
            self.events = [record]
        else:
            events.append(record)

    # a client root span is its own context manager (the ``_tracer``
    # slot is only assigned on that path — hop/bus spans never pay it)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.status = "ok"
        else:
            self.status = "error"
            self.error = exc_type.__name__
        self._tracer._close(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "attempt": self.attempt,
            "status": self.status,
            "error": self.error,
            "duration_ms": round(self.duration_s * 1000.0, 4),
            "slow": self.slow,
            "events": list(self.events) if self.events else [],
        }


class _NoopSpan:
    """The context manager the untraced / unsampled path enters."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span factory, ring buffer, and the two chain elements."""

    def __init__(
        self,
        capacity: int = 4096,
        sample_rate: float = 1.0,
        slow_call_ms: float = 50.0,
    ):
        #: run-level switch (RunConfig.trace / simulate --trace); the
        #: chain elements cost one attribute read when disabled
        self.enabled = False
        self.sample_rate = sample_rate
        self.slow_call_ms = slow_call_ms
        # the hot path never takes a lock: ``deque.append`` with maxlen
        # evicts atomically under the GIL, so finished spans from many
        # threads never serialize behind one tracer lock.  The lock only
        # guards structural swaps (set_capacity).
        self._lock = named_lock("observability.tracer")
        self._spans: deque = deque(maxlen=max(1, int(capacity)))
        self._finished = 0
        self.slow_count = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._clock: Callable[[], float] = time.perf_counter

    # -- identity / sampling ---------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._spans.maxlen

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring (derived, not counted on-path)."""
        return max(0, self._finished - len(self._spans))

    def set_capacity(self, capacity: int) -> None:
        with self._lock:
            # keeps the newest spans; ``dropped`` is derived, so a
            # shrink shows up in it automatically
            self._spans = deque(self._spans, maxlen=max(1, int(capacity)))

    @staticmethod
    def trace_id_for(seed: int, client_index: int, op_index: int) -> str:
        """Deterministic trace id: same seed → same ids, run after run."""
        return f"{seed & 0xFFFFFFFF:08x}-{client_index:04x}-{op_index:06x}"

    def sampled(self, trace_id: str) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        # deterministic per trace id: the same op is sampled (or not)
        # on every run with the same seed
        return (zlib.crc32(trace_id.encode()) % 1_000_000) < (
            self.sample_rate * 1_000_000
        )

    # -- span lifecycle --------------------------------------------------------

    def _open(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        target: Optional[str],
        attempt: int,
        span_id: Optional[str] = None,
    ) -> Span:
        return Span(
            trace_id,
            span_id or f"s{next(self._ids):x}",
            parent_id,
            name,
            kind,
            target,
            attempt,
            self._clock(),
        )

    def _push(self, span: Span) -> None:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            local.stack = [span]
        else:
            stack.append(span)

    def _close(self, span: Span) -> None:
        """Pop + finish in one step: stamp duration, unwind the
        thread-local stack, land the span in the ring (lock-free)."""
        span.duration_s = self._clock() - span.start_s
        if span.duration_s * 1000.0 >= self.slow_call_ms:
            span.slow = True
            self.slow_count += 1
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        self._finished += 1
        self._spans.append(span)

    def event(self, name: str, **attrs: Any) -> bool:
        """Attach an event to this thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return False
        record = dict(attrs)
        record["event"] = name
        stack[-1].add_event(record)
        return True

    def current_headers(self) -> Optional[Dict[str, str]]:
        """Propagation headers of this thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        span = stack[-1]
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    def client_span(self, name: str, trace_id: str):
        """Root span for one logical client call (a no-op when disabled
        or when the trace id falls outside the sample)."""
        if not self.enabled:
            return _NOOP_SPAN
        if self.sample_rate < 1.0 and not self.sampled(trace_id):
            return _NOOP_SPAN
        span = self._open(
            trace_id, None, name, "client", None, 0, trace_id + ".0"
        )
        span._tracer = self
        self._push(span)
        return span

    # -- chain elements --------------------------------------------------------

    def element(self):
        """Federation-chain element: one hop span per delivery attempt.

        Runs inside the per-attempt envelope handler, *after* the
        binding re-resolve and context re-mint, so it observes the
        target the attempt actually lands on and can re-stamp the trace
        into the freshly-minted context.  A retried attempt parents
        under the failed attempt's span — the failover promotion then
        reads directly off the tree shape.
        """

        def trace_element(envelope, next):
            if not self.enabled:
                return next(envelope)
            context = envelope.context
            ctx = context.get(TRACE_KEY)
            if not ctx:
                return next(envelope)
            parent = getattr(envelope, "_trace_retry_parent", None)
            span = self._open(
                ctx["trace_id"],
                parent or ctx["span_id"],
                envelope.label or envelope.operation,
                "hop",
                envelope.target,
                envelope.attempt,
            )
            if envelope.attempt:
                span.add_event({"event": "retry", "attempt": envelope.attempt})
            if envelope.label is None:
                members = _batch_members(envelope)
                if members is not None:
                    span.add_event({"event": "batch", "members": members})
            # downstream (the serving node's bus, nested servant calls)
            # parents under this hop
            context[TRACE_KEY] = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
            }
            self._push(span)
            try:
                result = next(envelope)
            except Exception as exc:
                span.status = "error"
                span.error = type(exc).__name__
                if will_retry(envelope, exc):
                    # the redelivery becomes this span's child
                    envelope._trace_retry_parent = span.span_id
                raise
            else:
                span.status = "ok"
                return result
            finally:
                self._close(span)

        return trace_element

    def bus_element(self, node_name: str):
        """Bus-chain element: one span per servant dispatch on a node.

        The parent comes from the bus envelope's own context or — for
        dispatches issued inside a delivery (the common path) — from the
        thread's delivery context, which the federation hop stamped.
        The bus terminal returns a servant's error as an ``{"error":
        ...}`` outcome, so status is read off the outcome rather than
        an exception, and the span's ``error`` is the servant's own
        type name.
        """

        def bus_trace_element(envelope, next):
            if not self.enabled:
                return next(envelope)
            ctx = envelope.context.get(TRACE_KEY) or delivery_context_value(TRACE_KEY)
            if not ctx:
                return next(envelope)
            span = self._open(
                ctx["trace_id"],
                ctx["span_id"],
                envelope.operation,
                "bus",
                node_name,
                envelope.attempt,
            )
            self._push(span)
            try:
                outcome = next(envelope)
            except Exception as exc:
                span.status = "error"
                span.error = type(exc).__name__
                raise
            else:
                if "error" in outcome:
                    span.status = "error"
                    span.error = outcome["error"]["type"]
                else:
                    span.status = "ok"
                return outcome
            finally:
                self._close(span)

        return bus_trace_element

    # -- queries ---------------------------------------------------------------

    def spans(self) -> List[Span]:
        # appends are lock-free, so a concurrent writer can invalidate
        # the copy's iterator mid-snapshot; just take it again
        while True:
            try:
                return list(self._spans)
            except RuntimeError:  # pragma: no cover - needs a racing writer
                continue

    def trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def trace_tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """The trace's spans as nested ``{span, children}`` dicts.

        Spans whose parent never landed in the buffer (sampling races,
        ring overflow) surface as extra roots rather than vanishing.
        """
        spans = self.trace(trace_id)
        by_id = {s.span_id: s for s in spans}
        children: Dict[Optional[str], List[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)

        def build(span: Span) -> Dict[str, Any]:
            return {
                "span": span.to_dict(),
                "children": [
                    build(child)
                    for child in sorted(
                        children.get(span.span_id, []), key=lambda s: s.start_s
                    )
                ],
            }

        roots = sorted(children.get(None, []), key=lambda s: s.start_s)
        return [build(root) for root in roots]

    def critical_path(self, trace_id: str) -> List[Span]:
        """Root-to-leaf chain following the slowest child at each level."""
        spans = self.trace(trace_id)
        if not spans:
            return []
        by_parent: Dict[Optional[str], List[Span]] = {}
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in by_id else None
            by_parent.setdefault(parent, []).append(span)
        roots = by_parent.get(None, [])
        path: List[Span] = []
        cursor: Optional[Span] = max(roots, key=lambda s: s.duration_s, default=None)
        while cursor is not None:
            path.append(cursor)
            below = by_parent.get(cursor.span_id, [])
            cursor = max(below, key=lambda s: s.duration_s, default=None)
        return path

    def slowest(self, n: int = 5) -> List[str]:
        """Trace ids ranked by their slowest span, descending."""
        worst: Dict[str, float] = {}
        for span in self.spans():
            if span.duration_s > worst.get(span.trace_id, -1.0):
                worst[span.trace_id] = span.duration_s
        ranked = sorted(worst, key=lambda t: worst[t], reverse=True)
        return ranked[:n]

    def erroring(self, n: int = 5) -> List[str]:
        """Trace ids containing at least one error span (newest last)."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            if span.status == "error":
                seen.setdefault(span.trace_id, None)
        return list(seen)[-n:]

    def export(self) -> Dict[str, Any]:
        spans = self.spans()
        return {
            "span_count": len(spans),
            "dropped": self.dropped,
            "slow_spans": self.slow_count,
            "slowest": self.slowest(),
            "erroring": self.erroring(),
            "spans": [s.to_dict() for s in spans],
        }

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._finished = 0
            self.slow_count = 0


def _batch_members(envelope) -> Optional[List[str]]:
    """Labels of a pipelined batch's member calls, if this is one.

    The batch envelope carries its member labels as its args (see
    ``Federation._submit_batch``)."""
    if envelope.operation != "<batch>":
        return None
    return [label for label in envelope.args if label is not None]
