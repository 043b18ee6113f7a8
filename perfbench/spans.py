"""Span recording and the arithmetic over it: self time and percentiles.

A span is one call into a layer: its name, start and end (``perf_counter_ns``),
the span that caused it, and the request it belongs to.  Spans are kept in
memory as small lists (cheap to create on the hot path) and written out
when the run ends.

Parents follow the calling thread's stack.  Two kinds of thread start
without a stack:

* a dispatcher pool worker runs a request handed over by a ``dispatch``
  span on another thread; the handoff sets the worker's *link*, so its
  spans become children of that ``dispatch`` span;
* a socket listener thread serves a request that arrived on the wire; its
  spans are recorded as roots, tagged with the request's correlation id,
  and :func:`tie_remote_roots` later hangs them under the client's
  ``sockets.roundtrip`` span for the same correlation id.

A span's self time is its duration minus the part of it its children
cover, so over any tree the self times add up to the root's duration.
"""

from __future__ import annotations

import bisect
import contextlib
import gzip
import math
import threading
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

# span fields
NAME, START, END, PARENT, RID, CORR, REMOTE, CHILD_NS = range(8)


def make_span(name, start, end, parent=None, rid=None, corr=None, remote=False):
    """A finished span, built directly (the tests' synthetic trees)."""
    return [name, start, end, parent, rid, corr, remote, 0]


class SpanRecorder:
    """In-memory span store with per-thread call stacks."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()

    def _thread_state(self) -> list:
        local = self._local
        local.stack = []
        #: span on another thread this thread's roots continue (handoff)
        local.link = None
        #: request id for roots on a listener thread (its correlation id)
        local.rid = None
        #: listener roots still waiting for their correlation id
        local.pending = []
        return local.stack

    def open_root(self, name: str, rid) -> list:
        """A client-side root span for request ``rid``."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._thread_state()
        span = [name, 0, 0, None, rid, None, False, 0]
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter_ns()
        return span

    def open(self, name: str) -> list:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = self._thread_state()
        if stack:
            parent = stack[-1]
            rid = parent[RID]
            remote = parent[REMOTE]
        else:
            parent = local.link
            if parent is not None:
                rid = parent[RID]
                remote = parent[REMOTE]
            else:
                rid = local.rid
                remote = True
        span = [name, 0, 0, parent, rid, None, remote, 0]
        if parent is None and rid is None:
            local.pending.append(span)
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._local.stack.pop()

    # -- cross-thread links ---------------------------------------------------

    def orphan_thread(self) -> bool:
        """True on a thread with no open span and no handoff link."""
        local = self._local
        try:
            return not local.stack and local.link is None
        except AttributeError:
            self._thread_state()
            return True

    def new_listener_request(self) -> None:
        """A listener thread starts decoding the next request: its roots
        wait for that request's correlation id."""
        self._local.rid = None

    def bind_listener_request(self, correlation_id) -> None:
        """The listener thread learned its request's correlation id."""
        local = self._local
        for span in local.pending:
            span[RID] = correlation_id
        local.pending.clear()
        local.rid = correlation_id

    @contextlib.contextmanager
    def handoff(self, parent: list):
        """Run the caller's work on this thread as children of ``parent``."""
        local = self._local
        if not hasattr(local, "stack"):
            self._thread_state()
        saved = local.link
        local.link = parent
        try:
            yield
        finally:
            local.link = saved

    # -- output -------------------------------------------------------------------

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent id, name, start,
        end, request id, correlation id, remote flag (gzip)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\trequest\tcorrelation\tremote\n")
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                out.write(
                    f"{i}\t{'' if parent is None else index.get(id(parent), '')}\t"
                    f"{span[NAME]}\t{span[START]}\t{span[END]}\t"
                    f"{'' if span[RID] is None else span[RID]}\t"
                    f"{'' if span[CORR] is None else span[CORR]}\t"
                    f"{int(bool(span[REMOTE]))}\n"
                )


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def tie_remote_roots(spans: Sequence[list], call_name: str) -> Tuple[int, int]:
    """Hang each listener root under the client span that sent its request.

    ``call_name`` spans carry the correlation id of the hop they put on
    the wire.  Returns ``(tied, untied)`` root counts.
    """
    calls = {
        span[CORR]: span
        for span in spans
        if span[NAME] == call_name and span[CORR] is not None
    }
    tied = untied = 0
    for span in spans:
        if span[PARENT] is None and span[REMOTE]:
            call = calls.get(span[RID])
            if call is None:
                untied += 1
            else:
                span[PARENT] = call
                tied += 1
    return tied, untied


def _overlap(a: list, b: list) -> int:
    return max(0, min(a[END], b[END]) - max(a[START], b[START]))


def self_times(spans: Sequence[list]) -> List[int]:
    """Each finished span's duration minus the part its children cover.

    A child on the same thread lies inside its parent.  A listener root
    tied to the client span that sent its request ran on another thread
    while the client was somewhere inside that span: blocked in the send
    (on one CPU the listener usually preempts the sender) or in the wait
    for the reply.  Its time is charged to whichever of the client span's
    own children it overlapped, and the rest to the client span itself.
    """
    finished = [span for span in spans if span[END]]
    for span in finished:
        span[CHILD_NS] = 0
    remote = []
    for span in finished:
        parent = span[PARENT]
        if parent is None or not parent[END]:
            continue
        if span[REMOTE] and not parent[REMOTE]:
            remote.append(span)
        else:
            parent[CHILD_NS] += span[END] - span[START]
    if remote:
        children: Dict[int, List[list]] = {}
        for span in finished:
            parent = span[PARENT]
            if parent is not None and not (span[REMOTE] and not parent[REMOTE]):
                children.setdefault(id(parent), []).append(span)
        for span in remote:
            parent = span[PARENT]
            rest = _overlap(span, parent)
            for child in children.get(id(parent), ()):
                covered = _overlap(span, child)
                child[CHILD_NS] += covered
                rest -= covered
            parent[CHILD_NS] += rest
    return [span[END] - span[START] - span[CHILD_NS] for span in finished]


def summarize(spans: Sequence[list]) -> Dict[str, Dict[str, int]]:
    """Per span name: ``count``, ``self_ns`` and ``total_ns`` (finished spans)."""
    self_times(spans)
    summary: Dict[str, Dict[str, int]] = {}
    for span in spans:
        if not span[END]:
            continue
        entry = summary.get(span[NAME])
        if entry is None:
            entry = summary[span[NAME]] = {"count": 0, "self_ns": 0, "total_ns": 0}
        duration = span[END] - span[START]
        entry["count"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - span[CHILD_NS]
    return summary


def percentile(sorted_values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile of ascending values, and how many
    samples lie strictly beyond it."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    rank = max(math.ceil(p / 100.0 * len(sorted_values)), 1)
    value = sorted_values[rank - 1]
    return value, len(sorted_values) - bisect.bisect_right(sorted_values, value)


def median(values: Sequence[float]) -> Optional[float]:
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
