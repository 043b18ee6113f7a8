"""The layer table: which entry points the traced run wraps, and the
per-layer metrics derived from the spans they record.

Every layer is timed from outside, by the calls into it: the traced run
replaces each entry point below at class (or module) level with a
wrapper that records a span, and puts the original back afterwards.
Interceptor-chain elements are per instance, so they are swapped on the
deployed federation's chains through the chain's own ``remove``/``add``.
An entry point missing from the program fails the traced run: a layer
that silently read 0 would look like a gain, so a change that renames an
entry point updates the table here.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, List, Tuple

from spans import CORR, END, NAME, REMOTE, RID, START, median, summarize, tie_remote_roots

#: (metric, unit, better) — every per-layer metric, in table order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("federation.invoke.self_us", "us", "lower"),
    ("federation.retries_per_op", "count/op", "lower"),
    ("naming.resolve.calls_per_op", "count/op", "lower"),
    ("naming.resolve.self_us", "us", "lower"),
    ("federation.chain.metrics.self_us", "us", "lower"),
    ("federation.chain.trace.self_us", "us", "lower"),
    ("federation.chain.faults.self_us", "us", "lower"),
    ("federation.chain.failover.self_us", "us", "lower"),
    ("federation.chain.latency.self_us", "us", "lower"),
    ("federation.chain.routing.self_us", "us", "lower"),
    ("transport.submit.self_us", "us", "lower"),
    ("envelope.envelopes_per_op", "count/op", "lower"),
    ("envelope.futures_per_op", "count/op", "lower"),
    ("clock.advance.calls_per_op", "count/op", "lower"),
    ("clock.advance.self_us", "us", "lower"),
    ("faults.check.calls_per_op", "count/op", "lower"),
    ("faults.check.self_us", "us", "lower"),
    ("node.invoke.self_us", "us", "lower"),
    ("dispatch.self_us", "us", "lower"),
    ("dispatch.queue_wait_us", "us", "lower"),
    ("orb.calls_per_op", "count/op", "lower"),
    ("orb.invoke.self_us", "us", "lower"),
    ("bus.deliver.self_us", "us", "lower"),
    ("bus.chain.trace.self_us", "us", "lower"),
    ("bus.chain.faults.self_us", "us", "lower"),
    ("bus.chain.latency.self_us", "us", "lower"),
    ("bus.chain.stats.self_us", "us", "lower"),
    ("bus.deliveries_per_op", "count/op", "lower"),
    ("bus.bytes_per_op", "B/op", "lower"),
    ("weaver.dispatch.calls_per_op", "count/op", "lower"),
    ("weaver.dispatch.self_us", "us", "lower"),
    ("txn.commits_per_op", "count/op", "lower"),
    ("txn.abort_frac", "frac", "lower"),
    ("txn.commit.self_us", "us", "lower"),
    ("locks.acquire.calls_per_op", "count/op", "lower"),
    ("locks.acquire.self_us", "us", "lower"),
    ("security.check_access.self_us", "us", "lower"),
    ("replication.sync.self_us", "us", "lower"),
    ("replication.syncs_per_op", "count/op", "lower"),
    ("replication.skip_frac", "frac", "higher"),
    ("replication.log_appends_per_op", "count/op", "lower"),
    ("replication.snapshots", "count", "lower"),
    ("replication.max_lag", "entries", "lower"),
    ("wire.encode.self_us", "us", "lower"),
    ("wire.decode.self_us", "us", "lower"),
    ("wire.bytes_per_op", "B/op", "lower"),
    ("sockets.roundtrip.self_us", "us", "lower"),
    ("sockets.checkout.self_us", "us", "lower"),
    ("sockets.send.self_us", "us", "lower"),
    ("sockets.await_reply_us", "us", "lower"),
    ("sockets.await_reply.self_us", "us", "lower"),
    ("sockets.server.node_invoke_us", "us", "lower"),
    ("sockets.reuse_frac", "frac", "higher"),
    ("sockets.disconnects", "count", "lower"),
    ("setup.compile_ms", "ms", "lower"),
    ("setup.refine_ms", "ms", "lower"),
    ("setup.ship_ms", "ms", "lower"),
    ("setup.replay_ms", "ms", "lower"),
    ("setup.bind_ms", "ms", "lower"),
    ("unattributed.self_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]

#: ``<layer>.self_us`` metric -> the span names whose self time it sums.
#: A layer's entry point and its internal halves get distinct span names,
#: so call counts stay per entry point while self time covers the layer.
SELF_TIMED = {
    # Federation.invoke, each delivery attempt (migration gate, owner
    # re-resolve, context) and the routing terminal (node guard,
    # mutation tracking) on either side of a socket hop
    "federation.invoke": ("federation.invoke", "federation.attempt", "federation.terminal"),
    "naming.resolve": ("naming.resolve",),
    "transport.submit": ("transport.submit",),
    "clock.advance": ("clock.advance",),
    "faults.check": ("faults.check",),
    "node.invoke": ("node.invoke",),
    "dispatch": ("dispatch",),
    # the client half (marshal, deliver, decode) and the server half
    # (unmarshal, call context, marshal the result)
    "orb.invoke": ("orb.invoke", "orb.dispatch"),
    # delivery and the terminal that finds and guards the servant
    "bus.deliver": ("bus.deliver", "bus.terminal"),
    "weaver.dispatch": ("weaver.dispatch",),
    "txn.commit": ("txn.commit",),
    "locks.acquire": ("locks.acquire",),
    "security.check_access": ("security.check_access",),
    "replication.sync": ("replication.sync",),
    "wire.encode": ("wire.encode",),
    "wire.decode": ("wire.decode",),
    "sockets.roundtrip": ("sockets.roundtrip",),
    "sockets.checkout": ("sockets.checkout",),
    "sockets.send": ("sockets.send",),
    "sockets.await_reply": ("sockets.await_reply",),
}
SELF_TIMED.update(
    (f"federation.chain.{element}", (f"federation.chain.{element}",))
    for element in ("metrics", "trace", "faults", "failover", "latency", "routing")
)
SELF_TIMED.update(
    (f"bus.chain.{element}", (f"bus.chain.{element}",))
    for element in ("trace", "faults", "latency", "stats")
)

#: span names whose call count is reported per operation
COUNTED = {
    "naming.resolve.calls_per_op": "naming.resolve",
    "clock.advance.calls_per_op": "clock.advance",
    "faults.check.calls_per_op": "faults.check",
    "orb.calls_per_op": "orb.invoke",
    "weaver.dispatch.calls_per_op": "weaver.dispatch",
    "locks.acquire.calls_per_op": "locks.acquire",
}

#: set-up metric -> span names whose (inclusive) durations it sums
SETUP_SPANS = {
    "setup.compile_ms": ("setup.compile",),
    "setup.refine_ms": ("setup.refine",),
    "setup.ship_ms": ("setup.ship",),
    "setup.replay_ms": ("setup.replay",),
    "setup.bind_ms": ("setup.bind", "setup.replication"),
}


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._undo: List[tuple] = []
        self._chains: List[tuple] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original function)``,
        keeping static- and class-method descriptors intact."""
        raw = vars(owner).get(attr)
        if raw is None:
            raise AttributeError(f"entry point {owner.__name__}.{attr} is gone")
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def wrap_chain(self, chain, prefix: str, make_element) -> None:
        """Swap every element of an interceptor chain for a wrapped one."""
        originals = [(name, chain.remove(name)) for name in chain.names()]
        for name, element in originals:
            chain.add(name, make_element(f"{prefix}.{name}", element))
        self._chains.append((chain, originals))

    def restore(self) -> None:
        for chain, originals in reversed(self._chains):
            for name in chain.names():
                chain.remove(name)
            for name, element in originals:
                chain.add(name, element)
        self._chains.clear()
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def spanning(recorder, name: str):
    """``make`` for :meth:`Patcher.wrap`: one span per call."""
    open_span, close_span = recorder.open, recorder.close

    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(span)

        return traced

    return make


class Counters:
    """Plain event counts kept beside the spans (client, pool and
    listener threads all add to them, so under one lock)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.envelopes = 0
        self.futures = 0
        self.retries = 0
        self.wire_bytes = 0
        self.queue_wait_ns = 0


def install_setup(patcher: Patcher, recorder) -> None:
    """Wrap the set-up path: compile, refine, ship, replay, bind."""
    import repro.core
    from repro.core.lifecycle import MdaLifecycle
    from repro.deploy.compiler import DeploymentCompiler
    from repro.runtime.federation import Federation
    from repro.runtime.node import Node

    patcher.wrap(DeploymentCompiler, "compile", spanning(recorder, "setup.compile"))
    patcher.wrap(MdaLifecycle, "apply_plan", spanning(recorder, "setup.refine"))
    # the compiler imports ``ship`` from ``repro.core`` when it deploys
    patcher.wrap(repro.core, "ship", spanning(recorder, "setup.ship"))
    patcher.wrap(DeploymentCompiler, "deploy_node", spanning(recorder, "setup.replay"))
    patcher.wrap(Node, "bind", spanning(recorder, "setup.bind"))
    patcher.wrap(
        Federation, "enable_replication", spanning(recorder, "setup.replication")
    )


def install_hot_path(patcher: Patcher, recorder, counters: Counters, federation) -> None:
    """Wrap every call-path layer of the table, and the deployed
    federation's interceptor chains."""
    from time import perf_counter_ns

    from repro.aop.weaver import Weaver
    from repro.middleware import wire
    from repro.middleware.bus import MessageBus
    from repro.middleware.clock import SimClock
    from repro.middleware.envelope import Envelope, ReplyFuture
    from repro.middleware.faults import FaultInjector
    from repro.middleware.locks import LockManager
    from repro.middleware.rpc import Orb
    from repro.middleware.security import AccessController
    from repro.middleware.sockets import ConnectionPool, SocketTransport, WireClient
    from repro.middleware.transport import InProcessTransport
    from repro.middleware.txn import TransactionManager
    from repro.runtime.dispatch import ConcurrentDispatcher, SerialDispatcher
    from repro.runtime.federation import Federation, ReplicaManager, ShardedNamingService
    from repro.runtime.node import Node

    open_span, close_span = recorder.open, recorder.close
    simple = {
        (Federation, "invoke"): "federation.invoke",
        (Federation, "_dispatch"): "federation.terminal",
        (Federation, "_local_dispatch"): "federation.terminal",
        (ShardedNamingService, "resolve_with_owner"): "naming.resolve",
        (SimClock, "advance"): "clock.advance",
        (FaultInjector, "check"): "faults.check",
        (Node, "invoke"): "node.invoke",
        (Orb, "invoke"): "orb.invoke",
        (Orb, "_dispatch"): "orb.dispatch",
        (MessageBus, "deliver"): "bus.deliver",
        (MessageBus, "_terminal"): "bus.terminal",
        (Weaver, "dispatch"): "weaver.dispatch",
        (TransactionManager, "commit"): "txn.commit",
        (LockManager, "acquire"): "locks.acquire",
        (AccessController, "check_access"): "security.check_access",
        (ReplicaManager, "sync_partition"): "replication.sync",
        (ConnectionPool, "checkout"): "sockets.checkout",
        (WireClient, "send"): "sockets.send",
        (WireClient, "await_reply"): "sockets.await_reply",
    }
    for (owner, attr), name in simple.items():
        patcher.wrap(owner, attr, spanning(recorder, name))

    def submit_make(fn):
        @functools.wraps(fn)
        def submit(self, envelope, handler):
            span = open_span("transport.submit")
            try:
                if envelope.target is None:
                    return fn(self, envelope, handler)

                # a federation hop: each delivery attempt (migration
                # gate, owner re-resolve, context) is client routing
                def attempt(env):
                    inner = open_span("federation.attempt")
                    try:
                        return handler(env)
                    finally:
                        close_span(inner)

                return fn(self, envelope, attempt)
            finally:
                close_span(span)

        return submit

    patcher.wrap(InProcessTransport, "submit", submit_make)
    patcher.wrap(SocketTransport, "submit", submit_make)

    def dispatch_make(fn):
        @functools.wraps(fn)
        def dispatch(self, servant_key, work):
            span = open_span("dispatch")
            entered = span[START]

            def run():
                waited = perf_counter_ns() - entered
                with counters.lock:
                    counters.queue_wait_ns += waited
                with recorder.handoff(span):
                    return work()

            try:
                return fn(self, servant_key, run)
            finally:
                close_span(span)

        return dispatch

    patcher.wrap(SerialDispatcher, "dispatch", dispatch_make)
    patcher.wrap(ConcurrentDispatcher, "dispatch", dispatch_make)

    def roundtrip_make(fn):
        @functools.wraps(fn)
        def roundtrip(self, node, envelope):
            span = open_span("sockets.roundtrip")
            span[CORR] = envelope.correlation_id
            try:
                return fn(self, node, envelope)
            finally:
                close_span(span)

        return roundtrip

    patcher.wrap(SocketTransport, "roundtrip", roundtrip_make)

    def encode_make(fn):
        @functools.wraps(fn)
        def encode_value(value):
            span = open_span("wire.encode")
            try:
                payload = fn(value)
                with counters.lock:
                    counters.wire_bytes += len(payload)
                return payload
            finally:
                close_span(span)

        return encode_value

    def decode_make(fn):
        @functools.wraps(fn)
        def decode_value(payload):
            if recorder.orphan_thread():
                recorder.new_listener_request()
            span = open_span("wire.decode")
            try:
                return fn(payload)
            finally:
                close_span(span)

        return decode_value

    patcher.wrap(wire, "encode_value", encode_make)
    patcher.wrap(wire, "decode_value", decode_make)

    def from_wire_make(fn):
        @functools.wraps(fn)
        def from_wire(cls, data):
            envelope = fn(cls, data)
            if recorder.orphan_thread():
                recorder.bind_listener_request(envelope.correlation_id)
            return envelope

        return from_wire

    patcher.wrap(Envelope, "from_wire", from_wire_make)

    def counting_init(field):
        def make(fn):
            @functools.wraps(fn)
            def __init__(self, *args, **kwargs):
                with counters.lock:
                    setattr(counters, field, getattr(counters, field) + 1)
                fn(self, *args, **kwargs)

            return __init__

        return make

    patcher.wrap(Envelope, "__init__", counting_init("envelopes"))
    patcher.wrap(ReplyFuture, "__init__", counting_init("futures"))

    chain_names = federation.chain.names()
    first_element = f"federation.chain.{chain_names[0]}" if chain_names else None

    def element_make(name, element):
        counts_retries = name == first_element

        def traced(envelope, proceed):
            if counts_retries and envelope.attempt:
                with counters.lock:
                    counters.retries += 1
            span = open_span(name)
            try:
                return element(envelope, proceed)
            finally:
                close_span(span)

        return traced

    patcher.wrap_chain(federation.chain, "federation.chain", element_make)
    for node in federation.nodes.values():
        patcher.wrap_chain(node.services.bus.chain, "bus.chain", element_make)


# ---------------------------------------------------------------------------
# program-owned counters, read before and after the traced phase
# ---------------------------------------------------------------------------


def program_counters(federation) -> Dict[str, int]:
    """Counters the program keeps itself (exact, no wrapping needed)."""
    counts = {
        "bus_messages": 0,
        "bus_bytes": 0,
        "commits": 0,
        "aborts": 0,
    }
    for node in federation.nodes.values():
        services = node.services
        counts["bus_messages"] += services.bus.messages_delivered
        counts["bus_bytes"] += services.bus.bytes_transferred
        counts["commits"] += services.transactions.commits
        counts["aborts"] += services.transactions.aborts
    replicas = federation.replicas
    if replicas is not None:
        stats = replicas.stats()
        counts["syncs"] = stats["syncs"]
        counts["skipped_syncs"] = stats["skipped_syncs"]
        counts["log_appends"] = stats["log_appends"]
        counts["snapshots"] = stats["snapshots"]
    transport_stats = getattr(federation.transport, "stats", None)
    if transport_stats is not None:
        stats = transport_stats()
        counts["dials"] = stats["dials"]
        counts["reuses"] = stats["reuses"]
        counts["disconnects"] = stats["disconnects"]
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    recorder,
    counters: Counters,
    ops: int,
    before: Dict[str, int],
    after: Dict[str, int],
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Every per-layer metric except the set-up and overhead ones.

    ``ops`` is the number of traced calls (``client.call`` root spans
    that completed).  Returns ``(metrics, diagnostics)``.
    """
    if ops < 1:
        raise ValueError("no traced call completed")
    spans = recorder.spans
    tied, untied = tie_remote_roots(spans, "sockets.roundtrip")
    summary = summarize(spans)
    per_op_us = 1.0 / (ops * 1000.0)

    def entry(name):
        return summary.get(name, {"count": 0, "self_ns": 0, "total_ns": 0})

    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    metrics: Dict[str, float] = {}
    for layer, names in SELF_TIMED.items():
        metrics[f"{layer}.self_us"] = sum(entry(name)["self_ns"] for name in names) * per_op_us
    for metric, name in COUNTED.items():
        metrics[metric] = entry(name)["count"] / ops
    metrics["federation.retries_per_op"] = counters.retries / ops
    metrics["envelope.envelopes_per_op"] = counters.envelopes / ops
    metrics["envelope.futures_per_op"] = counters.futures / ops
    metrics["dispatch.queue_wait_us"] = counters.queue_wait_ns * per_op_us
    metrics["bus.deliveries_per_op"] = delta["bus_messages"] / ops
    metrics["bus.bytes_per_op"] = delta["bus_bytes"] / ops
    metrics["txn.commits_per_op"] = delta["commits"] / ops
    metrics["txn.abort_frac"] = _ratio(delta["aborts"], delta["commits"] + delta["aborts"])
    syncs = delta.get("syncs", 0)
    metrics["replication.syncs_per_op"] = syncs / ops
    metrics["replication.skip_frac"] = _ratio(
        delta.get("skipped_syncs", 0), syncs + delta.get("skipped_syncs", 0)
    )
    metrics["replication.log_appends_per_op"] = delta.get("log_appends", 0) / ops
    metrics["replication.snapshots"] = float(delta.get("snapshots", 0))
    metrics["wire.bytes_per_op"] = counters.wire_bytes / ops
    metrics["sockets.await_reply_us"] = entry("sockets.await_reply")["total_ns"] * per_op_us
    metrics["sockets.server.node_invoke_us"] = (
        sum(
            span[END] - span[START]
            for span in spans
            if span[NAME] == "node.invoke" and span[REMOTE] and span[END]
        )
        * per_op_us
    )
    reuses = delta.get("reuses", 0)
    metrics["sockets.reuse_frac"] = _ratio(reuses, reuses + delta.get("dials", 0))
    metrics["sockets.disconnects"] = float(delta.get("disconnects", 0))
    # traced per-call wall time minus every layer's self time: the part
    # of the calls no wrapped entry point covers (negative if spans leak
    # outside their calls, e.g. listener roots that could not be tied)
    attributed = sum(entry["self_ns"] for name, entry in summary.items() if name != "client.call")
    metrics["unattributed.self_us"] = (entry("client.call")["total_ns"] - attributed) * per_op_us
    diagnostics = {
        "spans": len(spans),
        "listener_roots_tied": tied,
        "listener_roots_untied": untied,
    }
    return metrics, diagnostics


def setup_metrics(recorder) -> Dict[str, float]:
    """Median over the traced set-ups of each set-up phase (inclusive ms)."""
    by_setup: Dict[object, Dict[str, int]] = {}
    for span in recorder.spans:
        if span[END]:
            totals = by_setup.setdefault(span[RID], {})
            totals[span[NAME]] = totals.get(span[NAME], 0) + span[END] - span[START]
    metrics = {}
    for metric, names in SETUP_SPANS.items():
        metrics[metric] = median(
            [sum(totals.get(name, 0) for name in names) / 1e6 for totals in by_setup.values()]
        ) or 0.0
    return metrics
