"""Multi-node ORB federation: consistent-hash sharding and request routing.

The federation is the inter-node fabric:

* :class:`HashRing` — consistent hashing with virtual nodes; adding or
  removing a node only remaps the keys that land on its ring segments.
* :class:`ShardedNamingService` — the paper-level naming service scaled
  out: names are partitioned by their first path segment over per-shard
  :class:`~repro.middleware.naming.NamingService` instances (each node's
  local naming service is its shard), so resolution is one hash plus one
  local lookup, with no global table.
* :class:`Federation` — node registry plus the routed invocation path.
  Every hop is an :class:`~repro.middleware.envelope.Envelope` running
  through one ordered interceptor chain (metrics → fault injection →
  latency → routing statistics → the owner node's dispatcher) over a
  pluggable transport: in-process synchronous for classic blocking
  calls, queued-asynchronous (delivery threads) for futures, oneways,
  and pipelined batches.  Membership, replication and provisioning
  drive a node only through the narrow surface documented in
  :mod:`repro.runtime.node`, so with ``transport="process"`` every node
  is a worker process (:class:`~repro.runtime.procfed.RemoteNode`)
  and the same federation routes to it over the wire.
* :class:`InvocationPipeline` — client-side batching: consecutive calls
  to the same node travel as one envelope, so a latency-bound client
  pays one transport hop per batch instead of per call.
* :class:`FederationClient` — a caller identity: resolves names anywhere
  in the federation and attaches per-node credentials to each request,
  in all four invocation styles (sync, async future, oneway, pipeline).

Elastic membership (live topology changes):

* :meth:`Federation.join` / :meth:`Federation.retire` rehash the ring and
  migrate **only the affected bindings**: each moving partition is frozen
  (in-flight envelopes quiesce behind a :class:`_MigrationGate`), its
  servant state ships as a :class:`ShardManifest` (the shard-level
  analogue of :class:`~repro.core.shipping.ComponentPackage` — the
  application itself travels as a shipped package and is replayed on the
  joining node), and the :class:`ShardedNamingService` performs an atomic
  ownership-epoch swap, so routing never observes a half-migrated shard.
* :class:`ReplicaManager` keeps, per partition key, a primary plus N
  standby servant copies on the ring-successor nodes (log-shipped after
  every mutating routed call).  :meth:`Federation.kill` models a
  fail-stop crash (in-flight requests finish, then the node goes dark);
  the ``failover`` interceptor element reacts to the resulting
  :class:`~repro.errors.NodeDownError` by promoting the standbys of the
  dead node's partitions, and the transport's QoS retry budget re-delivers
  the pre-effect call — re-resolving ``envelope.binding`` — onto the new
  primary.
"""

from __future__ import annotations

import bisect
import contextlib
import fnmatch
import functools
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.witness import named_condition, named_lock, named_rlock
from repro.errors import FederationError, NamingError, NodeDownError, ReproError
from repro.middleware.bus import MessageBus, ObjectRefData, Request, marshal
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    DEFAULT_QOS,
    ONEWAY_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
    current_delivery_context,
)
from repro.middleware.faults import FaultInjector
from repro.middleware.naming import NamingService
from repro.middleware.transport import (
    InProcessTransport,
    LazyQueuedTransport,
    QueuedTransport,
    in_serving_thread,
)
from repro.middleware.rpc import RemoteProxy
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.node import Node
from repro.runtime.observability import TRACE_KEY, Observability

if TYPE_CHECKING:
    from repro.runtime.procfed import RemoteNode


class HashRing:
    """Consistent-hash ring with virtual nodes.

    :meth:`owner` caches each key's owner until the next :meth:`add` or
    :meth:`remove`.  A ring published by :class:`ShardedNamingService`
    is never mutated (every membership change builds a fresh ring), so
    routing hashes each partition key once per topology.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise FederationError(f"ring needs >= 1 replica, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        self._members: List[str] = []
        self._owner_cache: Dict[str, str] = {}

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.md5(value.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def members(self) -> List[str]:
        return list(self._members)

    def add(self, name: str) -> None:
        if name in self._members:
            raise FederationError(f"ring member {name!r} already present")
        self._owner_cache.clear()
        self._members.append(name)
        for i in range(self.replicas):
            point = self._hash(f"{name}#{i}")
            # md5 collisions across member names are not expected; keep
            # first owner on the astronomically unlikely tie
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = name
        self._members.sort()

    def remove(self, name: str) -> None:
        if name not in self._members:
            raise FederationError(f"ring member {name!r} not present")
        self._owner_cache.clear()
        self._members.remove(name)
        for i in range(self.replicas):
            point = self._hash(f"{name}#{i}")
            if self._owners.get(point) == name:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    def owner(self, key: str) -> str:
        """The member owning ``key`` (clockwise successor on the ring)."""
        owner = self._owner_cache.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise FederationError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        owner = self._owners[self._points[index]]
        self._owner_cache[key] = owner
        return owner

    def preference(self, key: str, count: int) -> List[str]:
        """The first ``count`` distinct members clockwise from ``key``.

        The owner comes first; the members that follow are the natural
        standby order for replica placement — when the owner leaves the
        ring, ownership of ``key`` falls to ``preference(key, 2)[1]``.
        """
        if not self._points:
            raise FederationError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        result: List[str] = []
        total = len(self._points)
        for i in range(total):
            owner = self._owners[self._points[(index + i) % total]]
            if owner not in result:
                result.append(owner)
                if len(result) >= count:
                    break
        return result


class _Topology:
    """One immutable ownership snapshot: ring + shard stores + epoch.

    Readers take the whole snapshot in a single attribute read, so a
    concurrent topology swap can never be observed half-applied (ring
    says one owner, shard table says another).
    """

    __slots__ = ("ring", "shards", "epoch")

    def __init__(self, ring: HashRing, shards: Dict[str, NamingService], epoch: int):
        self.ring = ring
        self.shards = shards
        self.epoch = epoch


class ShardedNamingService:
    """Consistent-hash shards over plain :class:`NamingService` stores.

    The partition key of a name is its first path segment
    (``branch-3/Account/7`` → ``branch-3``), so all names below one
    partition co-locate on one shard — the property single-shard
    transactions rely on.

    Topology changes (``add_shard``/``remove_shard``) are **atomic
    ownership-epoch swaps**: a fresh ring and shard table are built off
    to the side and published in one reference assignment, bumping
    :attr:`epoch`.  Lookups pin one snapshot for their whole
    resolve-owner-then-read-shard sequence, so routing never sees a
    half-migrated shard even while a migration rebinds names.
    """

    def __init__(self, replicas: int = 64):
        self._replicas = replicas
        self._topology = _Topology(HashRing(replicas), {}, 0)  # guarded_by: _swap_lock
        self._swap_lock = named_lock("naming.swap")

    # -- topology -----------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The current ring snapshot (stable for the returned object)."""
        return self._topology.ring

    @property
    def epoch(self) -> int:
        """Bumped once per committed topology swap."""
        return self._topology.epoch

    def preview_ring(
        self, add: Optional[str] = None, drop: Optional[str] = None
    ) -> HashRing:
        """The ring as it *would* look after a membership change —
        migrations use it to compute which partitions move before any
        ownership actually changes."""
        members = [m for m in self._topology.ring.members if m != drop]
        if add is not None:
            members.append(add)
        ring = HashRing(self._replicas)
        for member in members:
            ring.add(member)
        return ring

    def add_shard(
        self, shard_name: str, naming: Optional[NamingService] = None
    ) -> NamingService:
        with self._swap_lock:
            topology = self._topology
            if shard_name in topology.shards:
                raise FederationError(f"shard {shard_name!r} already exists")
            store = naming or NamingService()
            shards = dict(topology.shards)
            shards[shard_name] = store
            self._commit(self.preview_ring(add=shard_name), shards)
            return store

    def remove_shard(self, shard_name: str) -> NamingService:
        """Drop a shard in one epoch swap; returns the detached store."""
        with self._swap_lock:
            topology = self._topology
            if shard_name not in topology.shards:
                raise FederationError(f"unknown shard {shard_name!r}")
            shards = dict(topology.shards)
            store = shards.pop(shard_name)
            self._commit(self.preview_ring(drop=shard_name), shards)
            return store

    def _commit(self, ring: HashRing, shards: Dict[str, NamingService]) -> None:
        self._topology = _Topology(ring, shards, self._topology.epoch + 1)

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._topology.shards)

    @staticmethod
    def partition_key(name: str) -> str:
        if not name or not isinstance(name, str):
            raise NamingError(f"invalid name {name!r}")
        for part in name.split("/"):
            if part:
                return part
        raise NamingError(f"invalid name {name!r}")

    def owner_of(self, name: str) -> str:
        return self._topology.ring.owner(self.partition_key(name))

    def resolve_with_owner(self, name: str) -> Tuple[str, ObjectRefData]:
        """Resolve against ONE topology snapshot: (owner shard, ref)."""
        topology = self._topology
        owner = topology.ring.owner(self.partition_key(name))
        return owner, topology.shards[owner].resolve(name)

    def partition_view(self, partition: str) -> Optional[Tuple[str, List[str]]]:
        """One partition's (owner, bound names) from ONE snapshot — or
        None while a membership change is swapping the shard away
        (callers like the replica sync treat that as 'try again later')."""
        topology = self._topology
        if not topology.shards:
            return None
        owner = topology.ring.owner(partition)
        store = topology.shards.get(owner)
        if store is None:
            return None
        return owner, store.list(partition)

    def shard_for(self, name: str) -> NamingService:
        topology = self._topology
        return topology.shards[topology.ring.owner(self.partition_key(name))]

    def shard(self, shard_name: str) -> NamingService:
        try:
            return self._topology.shards[shard_name]
        except KeyError:
            raise FederationError(f"unknown shard {shard_name!r}") from None

    # -- naming operations -----------------------------------------------------

    def bind(self, name: str, ref: ObjectRefData) -> None:
        self.shard_for(name).bind(name, ref)

    def rebind(self, name: str, ref: ObjectRefData) -> None:
        self.shard_for(name).rebind(name, ref)

    def resolve(self, name: str) -> ObjectRefData:
        return self.shard_for(name).resolve(name)

    def unbind(self, name: str) -> None:
        self.shard_for(name).unbind(name)

    def list(self, prefix: str = "") -> List[str]:
        names: List[str] = []
        for shard in self._topology.shards.values():
            names.extend(shard.list(prefix))
        return sorted(names)

    def stats(self) -> Dict[str, int]:
        """Bindings per shard — the shard-balance view."""
        return {
            name: len(shard.list())
            for name, shard in sorted(self._topology.shards.items())
        }


@dataclass
class ShardManifest:
    """The transfer unit of a shard migration — servant state in transit.

    The shard-level analogue of
    :class:`~repro.core.shipping.ComponentPackage`: where the package
    ships the *application* (model + refinement steps, replayed on the
    receiving node), the manifest ships one partition's *servant state*
    — ``(name, type name, attribute dict)`` per binding.  The receiving
    node reconstructs each servant from its own woven module class, so
    migrated servants are instrumented by the receiver's aspects exactly
    like locally created ones.  ``to_dict`` is JSON-shaped for the same
    reason the package is: a migration is auditable, not opaque.
    """

    partition: str
    source: str
    entries: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-shard-manifest/1",
            "partition": self.partition,
            "source": self.source,
            "entries": [
                {"name": name, "type": type_name, "state": dict(state)}
                for name, type_name, state in self.entries
            ],
        }


class _MigrationGate:
    """Quiesces in-flight envelopes on a moving shard.

    Routed deliveries ``enter`` their target partition for the duration
    of the hop; a migration ``freeze``\\ s the moving partitions, which
    (a) blocks *new* deliveries to them and (b) waits until every
    already-entered delivery has drained — so servant state is copied
    only while nothing executes against it, and resolution of the moving
    names resumes only after the ownership epoch swap.

    Re-entrancy rule: a thread that already holds an entry for a
    partition re-enters it without blocking on the frozen set — the
    freeze discounts its entries and waits for it, so blocking it would
    invert the wait (a servant's nested call back into its own frozen
    partition must pass).  A nested call into a *different* frozen
    partition waits for the unfreeze like any new delivery; the freeze
    timeout is the backstop for workloads that nest across two
    partitions frozen by the same migration.
    """

    def __init__(self, observer=None):
        self._cond = named_condition("federation.gate")
        self._frozen: set = set()  # guarded_by: _cond
        self._inflight: Dict[str, int] = {}  # guarded_by: _cond
        self._local = threading.local()
        #: callable(partitions, waited_ms) — notified when a delivery
        #: had to block on a frozen partition (observability event)
        self._observer = observer

    def _held(self) -> Dict[str, int]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = {}
        return held

    def _enter(self, partitions: List[str]) -> None:
        """Enter several partitions atomically.

        Waits until none of the *non-held* wanted partitions is frozen,
        then takes every entry at once.  Partitions this thread already
        holds are exempt from the wait (the freeze is waiting for those
        entries; blocking on them would invert the wait), but a frozen
        partition the thread does NOT hold always blocks — a nested or
        batched delivery must never slip into a shard mid-export.  The
        residual cross-wait (thread holds frozen A, wants frozen B) ends
        at the freeze timeout: the migration fails cleanly rather than
        the shard migrating with a torn snapshot.
        """
        held = self._held()
        waited_at = None
        with self._cond:
            while any(
                p in self._frozen and p not in held for p in partitions
            ):
                if waited_at is None:
                    waited_at = time.perf_counter()
                if not self._cond.wait(timeout=30.0):
                    raise FederationError(
                        "partition(s) stayed frozen for 30s: "
                        f"{sorted(self._frozen & set(partitions))}"
                    )
            for partition in partitions:
                self._inflight[partition] = self._inflight.get(partition, 0) + 1
        for partition in partitions:
            held[partition] = held.get(partition, 0) + 1
        if waited_at is not None and self._observer is not None:
            self._observer(partitions, (time.perf_counter() - waited_at) * 1000.0)

    def _exit(self, partitions: List[str]) -> None:
        held = self._held()
        for partition in partitions:
            held[partition] -= 1
            if not held[partition]:
                del held[partition]
        with self._cond:
            for partition in partitions:
                self._inflight[partition] -= 1
                if not self._inflight[partition]:
                    del self._inflight[partition]
            self._cond.notify_all()

    @contextlib.contextmanager
    def entered(self, partition: str):
        self._enter([partition])
        try:
            yield
        finally:
            self._exit([partition])

    @contextlib.contextmanager
    def entered_many(self, partitions: Iterable[str]):
        parts = sorted(set(partitions))
        self._enter(parts)
        try:
            yield
        finally:
            self._exit(parts)

    @contextlib.contextmanager
    def freeze(self, partitions: Iterable[str], timeout_s: float = 30.0):
        frozen = set(partitions)
        held = self._held()

        def drained() -> bool:
            return all(
                self._inflight.get(p, 0) <= held.get(p, 0) for p in frozen
            )

        with self._cond:
            self._frozen |= frozen
            if not self._cond.wait_for(drained, timeout_s):
                self._frozen -= frozen
                self._cond.notify_all()
                raise FederationError(
                    "in-flight requests on the moving shard did not "
                    f"quiesce within {timeout_s}s"
                )
        try:
            yield
        finally:
            with self._cond:
                self._frozen -= frozen
                self._cond.notify_all()


class ReplicaGroup:
    """One partition's replication view: primary + standby state copies."""

    __slots__ = ("partition", "primary", "standbys", "watermarks")

    def __init__(self, partition: str, primary: str, standby_names: List[str]):
        self.partition = partition
        self.primary = primary
        #: standby node name -> {binding name -> (type name, state)}
        self.standbys: Dict[str, Dict[str, Tuple[str, Dict[str, Any]]]] = {
            name: {} for name in standby_names
        }
        #: standby node name -> applied log sequence: the
        #: watermark up to which that standby's copies have replayed the
        #: partition's :class:`ReplicationLog`; replica lag is the
        #: distance between the log head and the smallest watermark
        self.watermarks: Dict[str, int] = {name: 0 for name in standby_names}


class ReplicationLog:
    """Append-only, monotonically sequenced op log for one partition.

    Every mutating call appends one entry per touched servant carrying
    that servant's post-call state delta ``(seq, name, type_name,
    state)``.  Standbys *replay* the tail past their applied watermark
    instead of re-copying the partition.  Periodically the tail is
    folded into a base snapshot (``base``/``base_seq``) and truncated,
    bounding memory; a standby whose watermark predates ``base_seq``
    reseeds from the snapshot and replays the remaining tail — the same
    path serves steady-state catch-up, join-time seeding, and failover
    promotion.
    """

    __slots__ = (
        "partition", "seq", "base_seq", "base", "entries",
        "appends", "truncations",
    )

    def __init__(self, partition: str):
        self.partition = partition
        #: sequence of the newest entry ever appended (monotonic)
        self.seq = 0
        #: every entry with seq <= base_seq has been folded into base
        self.base_seq = 0
        #: binding name -> (type name, state) as of base_seq
        self.base: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        #: untruncated tail: [(seq, name, type name, state)], seq > base_seq
        self.entries: List[Tuple[int, str, str, Dict[str, Any]]] = []
        self.appends = 0
        self.truncations = 0

    def append(self, name: str, type_name: str, state: Dict[str, Any]) -> int:
        self.seq += 1
        self.appends += 1
        self.entries.append((self.seq, name, type_name, state))
        return self.seq

    def snapshot(self) -> None:
        """Fold the tail into the base snapshot and truncate the log."""
        for _seq, name, type_name, state in self.entries:
            self.base[name] = (type_name, state)
        self.base_seq = self.seq
        self.entries = []
        self.truncations += 1

    def prune(self, live_names) -> None:
        """Drop base entries for names no longer bound in the partition."""
        for name in list(self.base):
            if name not in live_names:
                del self.base[name]


class ReplicaManager:
    """Per-partition primary + N standby state copies (failover state).

    Standbys are the partition's ring successors, so when the primary
    leaves the ring the new hash owner *is* the first standby — the node
    whose copies already hold current state.  A copy is a ``(type name,
    state)`` pair kept in the front-end's memory, exported from the
    primary through the node surface (each servant snapshot under its
    dispatch lock), and promotion imports the pairs onto the new owner
    through the same call shard migration uses — so a worker process's
    classes never need to exist where the copies live.  A standby holds
    copies only once it hosts the application it would promote them
    into.

    Replication is log shipping driven by **per-servant dirty
    tracking**: the bus records which servants each delivery mutated
    (:meth:`MessageBus.touched_since`), so a sync appends only the
    touched servants' states to the partition's :class:`ReplicationLog`
    instead of re-copying the whole partition, and standbys *replay*
    the tail past their applied watermark.  A worker-process primary has
    no in-process bus to ask, so its mutating calls take the
    full-partition path (one export round trip).  That export runs
    under a per-partition sync lock, not the manager lock: syncs of
    different partitions overlap their round trips, and one partition's
    appends stay in export order.  The log is snapshot+truncated every
    ``snapshot_every`` entries, and seeding/catch-up/failover promotion
    all ride the same replay path.

    Cross-servant coherence comes from the sync discipline itself:
    every mutating call replicates its effects before it releases the
    node's in-flight count, so a drained (killed) primary has already
    pushed its final state.
    """

    def __init__(
        self,
        federation: "Federation",
        count: int = 1,
        snapshot_every: int = 64,
    ):
        if count < 1:
            raise FederationError(f"replication needs >= 1 standby, got {count}")
        if snapshot_every < 1:
            raise FederationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.federation = federation
        self.count = count
        self.snapshot_every = snapshot_every
        self._groups: Dict[str, ReplicaGroup] = {}  # guarded_by: _lock
        #: per-partition append-only op log
        self._logs: Dict[str, ReplicationLog] = {}  # guarded_by: _lock
        #: per-partition reverse index object_id -> binding name, rebuilt
        #: on every full sync; lets a narrowed sync map the bus's touched
        #: object ids to bindings without an O(partition) name listing
        self._index: Dict[str, Dict[str, str]] = {}  # guarded_by: _lock
        self._index_epoch: Dict[str, int] = {}  # guarded_by: _lock
        self._lock = named_rlock("replication.manager")
        #: partition -> its sync lock, held from export to append so a
        #: partition's log entries land in the order they were exported
        self._sync_locks: Dict[str, Any] = {}
        #: syncs that actually refreshed at least one standby copy /
        #: skipped because the routed call touched no mutable servant
        self.syncs = 0
        self.skipped_syncs = 0
        #: log counters: entries appended, snapshot+truncate cycles,
        #: and the largest watermark deficit ever observed at catch-up
        self.log_appends = 0
        self.snapshots = 0
        self.max_replica_lag = 0

    def _standby_names(self, partition: str) -> List[str]:
        preference = self.federation.naming.ring.preference(
            partition, self.count + 1
        )
        return preference[1:]

    def sync_partition(self, partition: str, touched=None) -> None:
        """Replicate ``partition``'s state to its standbys.

        ``touched`` is the set of servant object ids the triggering call
        mutated (from :meth:`MessageBus.touched_since`); when given, only
        those servants are logged — per-servant dirty tracking.
        ``None`` means "unknown": seed, rebuild, and evicted-window calls
        pay the full-partition path, which also rebuilds the reverse
        index the narrowed path needs.

        Best-effort by design: it runs *after* the triggering call's
        servant effect, so it must never fail that call — failing it
        would invite a retry that runs the effect twice.  A topology
        swap racing the sync (owner read from one snapshot, gone in the
        next) just skips the refresh — the rebuild that every membership
        change performs re-syncs the partition moments later — and so
        does an export a worker-process owner cannot answer.

        The full path exports outside the manager lock (for a worker
        owner it is a round trip), holding only the partition's sync
        lock; both paths take that lock, so a full export can never be
        appended behind a newer narrowed one.
        """
        federation = self.federation
        with self._sync_lock(partition):
            if touched is not None:
                with self._lock:
                    if self._sync_narrow(partition, touched):
                        return
            epoch = federation.naming.epoch
            view = federation.naming.partition_view(partition)
            if view is None:
                return
            owner_name, names = view
            owner: Optional[Union[Node, RemoteNode]] = federation.nodes.get(
                owner_name
            )
            if owner is None:
                return
            try:
                standby_names = self._standby_names(partition)
                entries = owner.export(names)
            except ReproError:
                return
            index: Dict[str, str] = {}
            for name in names:
                try:
                    index[owner.naming.resolve(name).object_id] = name
                except NamingError:
                    continue
            with self._lock:
                group = self._ensure_group(partition, owner_name, standby_names)
                self._index[partition] = index
                self._index_epoch[partition] = epoch
                if self._replicate(partition, group, entries, full=True):
                    self.syncs += 1

    def _sync_lock(self, partition: str):
        lock = self._sync_locks.get(partition)
        if lock is None:
            lock = self._sync_locks.setdefault(
                partition, named_lock("replication.partition")
            )
        return lock

    def _sync_narrow(self, partition: str, touched) -> bool:
        """Refresh only the ``touched`` servants; False -> full path.

        Requires a current group and reverse index (same naming epoch,
        object ids still resolving to the indexed bindings).  Anything
        stale falls back to the full sync, which repairs the index.  A
        touched id belonging to another partition (a concurrent call on
        the same node bumped the counter inside our window) is simply
        not in this partition's index and drops out.
        """
        federation = self.federation
        group = self._groups.get(partition)
        if group is None:
            return False
        if self._index_epoch.get(partition) != federation.naming.epoch:
            return False
        owner = federation.nodes.get(group.primary)
        if owner is None:
            return False
        index = self._index.get(partition, {})
        names = []
        for object_id in touched:
            name = index.get(object_id)
            if name is None:
                continue
            try:
                if owner.naming.resolve(name).object_id != object_id:
                    return False
            except NamingError:
                return False
            names.append(name)
        if not names:
            # every touched id is foreign to this partition — either a
            # concurrent foreign mutation landed in our window, or the
            # index is stale; the full path resolves both safely
            return False
        if self._replicate(partition, group, owner.export(names), full=False):
            self.syncs += 1
        return True

    def _ensure_group(
        self, partition: str, owner_name: str, standby_names: List[str]
    ) -> ReplicaGroup:
        group = self._groups.get(partition)
        if (
            group is None
            or group.primary != owner_name
            or list(group.standbys) != standby_names
        ):
            group = ReplicaGroup(partition, owner_name, standby_names)
            self._groups[partition] = group
        return group

    def _replicate(self, partition, group, entries, full) -> int:
        """Append exported ``entries`` [(name, type name, state)] to the
        partition log and replay it onto the standbys; returns the
        number of copies actually refreshed."""
        log = self._logs.get(partition)
        if log is None:
            log = self._logs[partition] = ReplicationLog(partition)
        for name, type_name, state in entries:
            log.append(name, type_name, state)
            self.log_appends += 1
        if full:
            # a full append re-states every live binding, so base
            # entries for since-unbound names can be dropped
            log.prune({name for name, _type_name, _state in entries})
        refreshed = 0
        for standby_name in group.standbys:
            if self._hosts_application(standby_name):
                refreshed += self._catch_up(group, log, standby_name)
        # fold only once the standbys replayed the fresh tail: folding
        # first would leave every watermark behind base_seq, and each
        # standby would reseed from the whole base on every fold
        if len(log.entries) >= self.snapshot_every:
            log.snapshot()
            self.snapshots += 1
        return refreshed

    def _hosts_application(self, node_name: str) -> bool:
        node = self.federation.nodes.get(node_name)
        return node is not None and node.deployed

    def _catch_up(self, group, log, standby_name) -> int:
        """Replay the log tail past ``standby_name``'s watermark."""
        applied = group.watermarks.get(standby_name, 0)
        lag = log.seq - applied
        if lag > self.max_replica_lag:
            self.max_replica_lag = lag
        if lag <= 0:
            return 0
        copies = group.standbys[standby_name]
        refreshed = 0
        if applied < log.base_seq:
            # truncated past this watermark: reseed from the base
            # snapshot, then replay the remaining tail
            for name, (type_name, state) in log.base.items():
                refreshed += self._apply_state(copies, name, type_name, state)
            applied = log.base_seq
        # sequence numbers are contiguous: entries[i] is seq base_seq+1+i
        for _seq, name, type_name, state in log.entries[applied - log.base_seq:]:
            refreshed += self._apply_state(copies, name, type_name, state)
        group.watermarks[standby_name] = log.seq
        return refreshed

    @staticmethod
    def _apply_state(copies, name, type_name, state) -> int:
        copies[name] = (type_name, state)
        return 1

    def note_skip(self) -> None:
        """Count one replication sync skipped by mutation narrowing."""
        with self._lock:
            self.skipped_syncs += 1

    def take(
        self, partition: str, node_name: str
    ) -> Dict[str, Tuple[str, Dict[str, Any]]]:
        """The ``{binding: (type name, state)}`` copies ``node_name``
        holds for ``partition``.

        The standby is caught up to the log head first, so failover
        promotion rides the log: the promoted copies replay any
        shipped-but-unapplied tail before they are handed out.
        """
        with self._lock:
            group = self._groups.get(partition)
            if group is None:
                return {}
            log = self._logs.get(partition)
            if (
                log is not None
                and node_name in group.standbys
                and self._hosts_application(node_name)
            ):
                self._catch_up(group, log, node_name)
            return dict(group.standbys.get(node_name, {}))

    def drop(self, partition: str) -> None:
        with self._lock:
            self._groups.pop(partition, None)
            self._logs.pop(partition, None)
            self._index.pop(partition, None)
            self._index_epoch.pop(partition, None)

    def rebuild(self) -> None:
        """Re-place every group after a topology change and resync."""
        partitions = {
            ShardedNamingService.partition_key(name)
            for name in self.federation.naming.list()
        }
        with self._lock:
            for stale in set(self._groups) - partitions:
                del self._groups[stale]
            for stale in set(self._logs) - partitions:
                del self._logs[stale]
            for stale in set(self._index) - partitions:
                self._index.pop(stale, None)
                self._index_epoch.pop(stale, None)
        for partition in sorted(partitions):
            self.sync_partition(partition)

    def replica_lag(self) -> int:
        """Largest current watermark deficit across all standbys."""
        with self._lock:
            lag = 0
            for partition, group in self._groups.items():
                log = self._logs.get(partition)
                if log is None:
                    continue
                for standby_name in group.standbys:
                    behind = log.seq - group.watermarks.get(standby_name, 0)
                    if behind > lag:
                        lag = behind
            return lag

    def stats(self) -> Dict[str, Any]:
        lag = self.replica_lag()
        with self._lock:
            return {
                "standbys_per_partition": self.count,
                "partitions": len(self._groups),
                "copies": sum(
                    len(copies)
                    for group in self._groups.values()
                    for copies in group.standbys.values()
                ),
                "syncs": self.syncs,
                "skipped_syncs": self.skipped_syncs,
                "log_appends": self.log_appends,
                "snapshots": self.snapshots,
                "replica_lag": lag,
                "max_replica_lag": self.max_replica_lag,
            }


class Federation:
    """Named nodes + sharded naming + routed, metered invocation."""

    #: transport modes a federation can route hops through
    TRANSPORT_MODES = ("inproc", "queued", "socket", "process")

    def __init__(
        self,
        seed: int = 0,
        latency_ms: float = 0.5,
        real_latency_s: float = 0.0,
        metrics: Optional[MetricsRegistry] = None,
        replicas: int = 64,
        delivery_workers: int = 2,
        transport: str = "inproc",
        socket_family: str = "tcp",
    ):
        if transport not in self.TRANSPORT_MODES:
            raise FederationError(
                f"unknown transport mode {transport!r} "
                f"(one of {', '.join(self.TRANSPORT_MODES)})"
            )
        self.clock = SimClock()
        self.seed = seed
        self.faults = FaultInjector(seed)
        self.metrics = metrics or MetricsRegistry()
        #: tracing + event log + gauge sampling; knobs compiled from
        #: ObservabilitySpec, run-level tracing toggled by the harness
        self.observability = Observability(seed=seed)
        self.naming = ShardedNamingService(replicas)
        self.nodes: Dict[str, Union[Node, RemoteNode]] = {}
        self.latency_ms = latency_ms
        self.real_latency_s = real_latency_s
        self._route_lock = named_lock("federation.route")
        #: requests routed per target node (transport-level statistic)
        self.routed: Dict[str, int] = {}  # guarded_by: _route_lock
        #: pipelined batches delivered per target node
        self.batches: Dict[str, int] = {}  # guarded_by: _route_lock
        #: how routed hops travel: "inproc" (caller thread), "queued"
        #: (delivery threads even for sync calls), "socket" (every hop
        #: crosses a real wire connection to the node's listener), or
        #: "process" (every node is a worker process, reached over the
        #: wire; see repro.runtime.procfed)
        self.transport_mode = transport
        self.socket_family = socket_family
        #: per-node wire listeners (socket mode) and the endpoints of
        #: listeners and worker processes
        self._wire_servers: Dict[str, Any] = {}
        self._endpoints: Dict[str, str] = {}
        self._socket_transport = None
        self._unix_sock_dir: Optional[str] = None
        #: synchronous hop transport (caller-thread semantics; over the
        #: wire delivery still runs inline — the wire wait is in the
        #: routing terminal, where the GIL is released)
        if transport in ("socket", "process"):
            from repro.middleware.sockets import SocketTransport

            self._socket_transport = SocketTransport(
                self._endpoints.get, node="federation"
            )
            self.transport = self._socket_transport
        else:
            self.transport = InProcessTransport()
        #: asynchronous hop transport, created lazily on first use
        self.delivery_workers = delivery_workers
        self._async = LazyQueuedTransport(
            lambda: QueuedTransport(
                workers=self.delivery_workers, name="federation"
            )
        )
        #: the one ordered element pipeline every routed hop runs through
        self.chain = InterceptorChain()
        self.chain.add("metrics", self.metrics.element())
        self.chain.add("trace", self.observability.tracer.element())
        self.chain.add("faults", self.faults.interceptor("federation.route"))
        self.chain.add("failover", self._failover_element)
        self.chain.add("latency", self._latency_element)
        self.chain.add("routing", self._routing_element)
        # -- elastic membership state --
        #: serializes join/retire/fail_over against each other
        self._topology_lock = named_rlock("federation.topology")
        #: quiesces in-flight envelopes on partitions under migration
        self._gate = _MigrationGate(observer=self.observability.gate_wait)
        #: per-node count of requests currently executing (kill drains it)
        self._flight_cond = named_condition("federation.flight")
        self._node_flight: Dict[str, int] = {}  # guarded_by: _flight_cond
        #: users/faults provisioned so far — replayed onto joining nodes
        self._provisioned_users: List[Tuple[str, str, tuple]] = []
        self._fault_sites: List[Tuple[str, float, dict]] = []
        #: read-only operation sets per servant type, replayed onto
        #: joining nodes; feeds the buses' per-call mutation flags that
        #: let replication skip read-only routed calls
        self.read_only_ops: Dict[str, frozenset] = {}
        #: (binding pattern, QoS) defaults declared by a deployment
        #: spec; consulted (in declaration order) for calls issued
        #: without an explicit per-call policy
        self._binding_qos: List[Tuple[str, QoS]] = []
        #: the DeploymentSpec this federation was compiled from and the
        #: BootstrapPlan that materialized it (set by
        #: DeploymentCompiler.deploy; None for hand-built federations)
        self.spec = None
        self.bootstrap_plan = None
        #: standby state for failover; None until enable_replication()
        self.replicas: Optional[ReplicaManager] = None
        #: optional ComponentPackage every node runs — scenarios that
        #: support live join stash it here so a joiner replays the exact
        #: artifact the seed nodes deployed
        self.app_package = None
        #: elastic statistics
        self.joins = 0
        self.retires = 0
        self.failovers = 0
        self.bindings_moved = 0
        self.last_rebalance: Dict[str, Any] = {}

    # -- topology ---------------------------------------------------------------

    def add_node(
        self,
        name: str,
        workers: int = 0,
        seed: Optional[int] = None,
    ) -> Union[Node, RemoteNode]:
        if name in self.nodes:
            raise FederationError(f"node {name!r} already exists")
        node = self._create_node(name, workers, seed)
        self.naming.add_shard(name, node.naming)
        self.nodes[name] = node
        return node

    def _create_node(
        self, name: str, workers: int, seed: Optional[int]
    ) -> Union[Node, RemoteNode]:
        """The one place nodes come from (``add_node`` and ``join``):
        in socket mode the node's listener starts here, in process mode
        the node *is* a spawned worker process."""
        seed = seed if seed is not None else len(self.nodes) + 1
        if self.transport_mode == "process":
            from repro.runtime.procfed import RemoteNode

            node = RemoteNode.spawn(
                name,
                self._listen_endpoint(name),
                self._socket_transport,
                workers=workers,
                seed=seed,
            )
            self._endpoints[name] = node.endpoint
        else:
            node = Node(name, workers=workers, seed=seed)
            # weave the bus-level tracing element into the node's chain
            node.services.bus.chain.add(
                "trace", self.observability.tracer.bus_element(name), before="faults"
            )
            node.federation = self
            if self.transport_mode == "socket":
                self._start_wire_server(node)
        return node

    def node(self, name: str) -> Union[Node, RemoteNode]:
        try:
            return self.nodes[name]
        except KeyError:
            raise FederationError(f"unknown node {name!r}") from None

    def node_for(self, key: str) -> Union[Node, RemoteNode]:
        """The node owning partition ``key`` (or any name below it)."""
        return self.node(self.naming.ring.owner(self.naming.partition_key(key)))

    def quiesce(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until every asynchronous delivery (oneways included) landed."""
        quiet = self._async.drain(timeout_s)
        for node in list(self.nodes.values()):
            quiet = node.drain(timeout_s) and quiet
        return quiet

    def shutdown(self) -> None:
        self._async.shutdown()
        for node in list(self.nodes.values()):
            self._discard(node)
        if self._socket_transport is not None:
            self._socket_transport.shutdown()
        if self._unix_sock_dir is not None:
            import shutil

            shutil.rmtree(self._unix_sock_dir, ignore_errors=True)
            self._unix_sock_dir = None

    # -- elastic membership -------------------------------------------------------

    def enable_replication(
        self,
        count: int = 1,
        snapshot_every: int = 64,
    ) -> ReplicaManager:
        """Give every partition ``count`` standby copies (failover state).

        ``snapshot_every`` is the replication log's snapshot+truncate
        threshold (entries retained before the tail is folded into the
        base snapshot).
        """
        with self._topology_lock:
            if self.replicas is None:
                self.replicas = ReplicaManager(
                    self, count, snapshot_every=snapshot_every
                )
                self.observability.emit("replication_enabled", count=count)
                self.replicas.rebuild()
            elif self.replicas.count != count:
                raise FederationError(
                    f"replication already enabled with "
                    f"{self.replicas.count} standby(s)"
                )
            return self.replicas

    def set_replication(
        self,
        count: int,
        snapshot_every: Optional[int] = None,
    ) -> ReplicaManager:
        """Enable replication or *change* the standby count on a live
        federation (the reconciler's path: a spec diff may raise the
        replica count mid-run).  Re-places every group and resyncs, so
        the new standbys hold current state before the call returns.
        ``snapshot_every`` retunes the log truncation threshold in
        place."""
        with self._topology_lock:
            if self.replicas is None:
                return self.enable_replication(
                    count,
                    snapshot_every=(
                        snapshot_every if snapshot_every is not None else 64
                    ),
                )
            if count < 1:
                raise FederationError(
                    "replication cannot be disabled once enabled "
                    "(standby state would be dropped under live traffic)"
                )
            if snapshot_every is not None:
                if snapshot_every < 1:
                    raise FederationError(
                        f"snapshot_every must be >= 1, got {snapshot_every}"
                    )
                self.replicas.snapshot_every = snapshot_every
            self.replicas.count = count
            self.observability.emit("replication_changed", count=count)
            self.replicas.rebuild()
            return self.replicas

    # -- declarative deployment hooks ---------------------------------------------

    def mark_read_only(self, type_name: str, operations) -> None:
        """Set the read-only classification of servant type
        ``type_name`` federation-wide (remembered, so joining nodes are
        classified identically).  Routed calls whose whole dispatch
        touched only read-only operations skip the replication sync —
        the dispatch-layer mutation tracking the narrowing relies on
        lives in each node's bus.  Replace semantics: a reconcile that
        narrows a type's set (reclassifies an op as mutating) takes full
        effect."""
        ops = frozenset(operations)
        self.read_only_ops[type_name] = ops
        for node in self.nodes.values():
            node.mark_read_only(type_name, ops)

    def set_binding_qos(self, pattern: str, qos: QoS) -> None:
        """Declare the default QoS for bindings matching ``pattern``
        (fnmatch over the federation name; declaration order wins)."""
        self._binding_qos.append((pattern, qos))

    def replace_binding_qos(self, pairs: Iterable[Tuple[str, QoS]]) -> None:
        """Swap the whole per-binding QoS table in one assignment (the
        reconciler's path: a spec diff re-declares the table rather than
        patching it, so removals take effect too)."""
        self._binding_qos = list(pairs)

    def qos_for(self, name: str) -> Optional[QoS]:
        """The declared default QoS for ``name`` (None if undeclared)."""
        for pattern, qos in self._binding_qos:
            if fnmatch.fnmatchcase(name, pattern):
                return qos
        return None

    def current_spec(self, include_state: bool = False):
        """Re-extract the live topology as a
        :class:`~repro.deploy.DeploymentSpec` — the drift-check input of
        ``DeploymentDiff.between(current, target)``.  ``include_state``
        additionally snapshots every servant's attribute dict (the
        manifest view; mutable state is excluded from structural diffs
        either way)."""
        from repro.deploy.compiler import extract_spec

        return extract_spec(self, include_state=include_state)

    @staticmethod
    def _group_by_partition(names: Iterable[str]) -> Dict[str, List[str]]:
        grouped: Dict[str, List[str]] = {}
        for name in names:
            grouped.setdefault(
                ShardedNamingService.partition_key(name), []
            ).append(name)
        return grouped

    def _bindings_by_partition(self) -> Dict[str, List[str]]:
        return self._group_by_partition(self.naming.list())

    def servant(self, name: str) -> Any:
        """The live servant currently serving ``name`` — follows
        migrations and failovers, unlike a reference captured at setup.
        Refused for worker-owned bindings: their servants live in the
        worker process."""
        owner, ref = self.naming.resolve_with_owner(name)
        return self.node(owner).servant(ref)

    @staticmethod
    def _export_shard(
        source: Union[Node, RemoteNode], partition: str, names: List[str]
    ) -> ShardManifest:
        """One partition's servant state on ``source`` as a manifest.

        Each snapshot is taken under its servant's dispatch lock: the
        freeze drained routed calls, but a nested delivery that bypassed
        the frozen wait could still be mutating a servant."""
        return ShardManifest(partition, source.name, source.export(sorted(names)))

    def join(
        self,
        name: str,
        workers: int = 0,
        seed: Optional[int] = None,
        deploy: Optional[Callable[[Node], Any]] = None,
        drain_timeout_s: float = 30.0,
    ) -> Union[Node, RemoteNode]:
        """Add a node to a *live* federation, migrating only what rehashes.

        The joiner is fully prepared off-ring (application deployed via
        ``deploy``, users and fault campaign provisioned); the partitions
        the new ring assigns to it are frozen, their in-flight envelopes
        quiesce, servant state ships as :class:`ShardManifest`\\ s, and
        one atomic epoch swap makes the joiner routable — every other
        partition keeps its owner and never stalls.
        """
        with self._topology_lock:
            if name in self.nodes:
                raise FederationError(f"node {name!r} already exists")
            self.reconcile()
            node = self._create_node(name, workers, seed)
            try:
                moving, moved, total = self._adopt_moving_shards(
                    node, deploy, drain_timeout_s
                )
            except BaseException:
                if name not in self.nodes:  # never published: discard it
                    self._discard(node)
                raise
            self.joins += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "join",
                "node": name,
                "moved": moved,
                "total": total,
                "partitions": sorted(moving),
            }
            self.observability.emit(
                "join", node=name, moved=moved, partitions=sorted(moving)
            )
            if self.replicas is not None:
                self.replicas.rebuild()
            return node

    def _adopt_moving_shards(
        self, node: Union[Node, RemoteNode], deploy, drain_timeout_s: float
    ):
        """Prepare the joiner off-ring, then move the partitions the new
        ring assigns to it; returns (moving partitions, moved, total)."""
        name = node.name
        if deploy is not None:
            deploy(node)
        for user, password, roles in self._provisioned_users:
            node.add_user(user, password, roles=roles)
        for site, probability, kwargs in self._fault_sites:
            node.configure_fault(site, probability, **kwargs)
        for type_name, ops in self.read_only_ops.items():
            node.mark_read_only(type_name, ops)
        grouped = self._bindings_by_partition()
        total = sum(len(names) for names in grouped.values())
        next_ring = self.naming.preview_ring(add=name)
        moving = {
            partition: names
            for partition, names in sorted(grouped.items())
            if next_ring.owner(partition) == name
        }
        moved = 0
        with self._gate.freeze(moving, timeout_s=drain_timeout_s):
            manifests = []
            for partition, names in moving.items():
                source = self.node(self.naming.owner_of(partition))
                manifests.append(
                    (source, self._export_shard(source, partition, names))
                )
            for _source, manifest in manifests:
                moved += len(node.import_states(manifest.entries))
            # the atomic ownership-epoch swap: the joiner becomes
            # routable only now, with its bindings already in place
            # (and its node entry published first, so a resolver that
            # sees the new topology always finds the node)
            self.nodes[name] = node
            self.naming.add_shard(name, node.naming)
            for source, manifest in manifests:
                source.release(bound for bound, _t, _s in manifest.entries)
        return moving, moved, total

    def retire(self, name: str, drain_timeout_s: float = 30.0) -> Dict[str, Any]:
        """Gracefully remove a node: migrate its shard, then drop it.

        Every partition the retiree owns is frozen, quiesced, shipped to
        its next ring owner, and released in one epoch swap; retiring the
        last node raises — a federation cannot route with an empty ring.
        """
        with self._topology_lock:
            node = self.nodes.get(name)
            if node is None:
                raise FederationError(f"unknown node {name!r}")
            if not node.alive:
                raise FederationError(
                    f"node {name!r} is dead — fail_over() handles crashed "
                    "nodes; retire() is the graceful path"
                )
            self.reconcile()
            survivors = self.naming.preview_ring(drop=name)
            if not survivors.members:
                raise FederationError(
                    f"cannot retire {name!r}: it is the last node"
                )
            grouped = self._group_by_partition(self.naming.shard(name).list())
            total = len(self.naming.list())
            moved = 0
            with self._gate.freeze(grouped, timeout_s=drain_timeout_s):
                for partition, pnames in sorted(grouped.items()):
                    target = self.node(survivors.owner(partition))
                    manifest = self._export_shard(node, partition, pnames)
                    moved += len(target.import_states(manifest.entries))
                # epoch swap: the retiree's shard vanishes atomically
                self.naming.remove_shard(name)
                node.alive = False
                del self.nodes[name]
            self._discard(node)
            self.retires += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "retire",
                "node": name,
                "moved": moved,
                "total": total,
                "partitions": sorted(grouped),
            }
            self.observability.emit(
                "retire", node=name, moved=moved, partitions=sorted(grouped)
            )
            if self.replicas is not None:
                self.replicas.rebuild()
            return dict(self.last_rebalance)

    def _await_node_idle(self, name: str, timeout_s: float) -> None:
        """Wait until no admitted request still executes on ``name``."""
        with self._flight_cond:
            if not self._flight_cond.wait_for(
                lambda: self._node_flight.get(name, 0) == 0, timeout_s
            ):
                raise FederationError(
                    f"node {name!r} did not drain within {timeout_s}s"
                )

    def kill(self, name: str, drain_timeout_s: float = 30.0) -> None:
        """Fail-stop a node: requests already executing finish (and
        replicate), new routed calls see :class:`NodeDownError`.  A
        worker process is SIGKILLed instead, so its in-flight requests
        die with it.  The node stays in the ring until the failover
        interceptor (or an explicit :meth:`fail_over`) promotes its
        standbys."""
        node = self.node(name)
        with self._flight_cond:
            if not node.alive:
                return
            node.kill()
        self.observability.emit("kill", node=name)
        self._await_node_idle(name, drain_timeout_s)

    def fail_over(self, name: str, blocking: bool = True) -> bool:
        """Promote the standbys of a dead node's partitions.

        Idempotent: returns True if this call performed the promotion,
        False if the node was already gone (a racing caller won) or no
        replication is enabled (nothing to promote — callers keep seeing
        :class:`NodeDownError`, as a replica-less system would).

        ``blocking=False`` skips the promotion when a membership change
        holds the topology lock — the failover element uses it because
        its calling thread holds a migration-gate entry the membership
        change may be waiting on (blocking would invert the two waits);
        the caller's retry, or any later fault, promotes once the lock
        frees up.
        """
        if not self._topology_lock.acquire(blocking=blocking):
            return False
        try:
            node = self.nodes.get(name)
            if node is None:
                return False
            if node.alive:
                raise FederationError(
                    f"node {name!r} is alive — use retire() for a "
                    "graceful leave"
                )
            if self.replicas is None:
                return False
            survivors = self.naming.preview_ring(drop=name)
            if not survivors.members:
                raise FederationError(
                    f"cannot fail over {name!r}: it is the last node"
                )
            # requests admitted before the node died may still be
            # executing (kill's own drain can be racing on another
            # thread): their effects — and replication syncs — must
            # land before the standby copies are taken, or the promoted
            # state silently loses them
            self._await_node_idle(name, 30.0)
            grouped = self._group_by_partition(self.naming.shard(name).list())
            moved = 0
            lost: List[str] = []
            for partition, pnames in sorted(grouped.items()):
                new_owner = self.node(survivors.owner(partition))
                copies = self.replicas.take(partition, new_owner.name)
                promoted = []
                for bound in sorted(pnames):
                    if bound in copies:
                        promoted.append((bound, *copies[bound]))
                    else:
                        lost.append(bound)
                moved += len(new_owner.import_states(promoted))
                self.replicas.drop(partition)
            # epoch swap: ownership falls to the ring successors — the
            # nodes whose standby copies were just promoted
            self.naming.remove_shard(name)
            del self.nodes[name]
            self._discard(node)
            self.failovers += 1
            self.bindings_moved += moved
            self.last_rebalance = {
                "action": "failover",
                "node": name,
                "moved": moved,
                "lost": lost,
                "partitions": sorted(grouped),
            }
            self.observability.emit(
                "failover",
                node=name,
                moved=moved,
                lost=len(lost),
                partitions=sorted(grouped),
            )
            self.replicas.rebuild()
            return True
        finally:
            self._topology_lock.release()

    def reconcile(self) -> List[str]:
        """Promote every dead member still in the ring; returns the
        nodes promoted.  Membership changes call this first so a
        migration never picks a dead node as a target owner."""
        with self._topology_lock:
            promoted = []
            for name in sorted(self.nodes):
                node = self.nodes.get(name)
                if node is not None and not node.alive and self.fail_over(name):
                    promoted.append(name)
            if promoted:
                self.observability.emit("reconcile", promoted=promoted)
            return promoted

    def _failover_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        """On a dead-node transport fault, promote the standbys; the
        re-raise lets the transport's QoS retry budget re-deliver the
        (pre-effect) call, which re-resolves onto the new primary.

        The promotion is attempted without blocking: this thread holds a
        migration-gate entry, and a concurrent join/retire holding the
        topology lock may be waiting for exactly that entry to drain —
        blocking here would stall both until the freeze timeout.

        Only a node confirmed dead (or already removed) is promoted.  A
        ``mid_call`` fault (the reply vanished after the request frame
        was written) is upgraded to pre-effect only then — under
        fail-stop its unacked effect died with it and re-delivery
        re-resolves onto the promoted owner.  While the node is still
        alive every fault stays as raised: a pre-effect one (a refused
        dial) keeps its retryability, a mid-call one stays
        non-retryable, because a lost reply must not re-run the
        effect."""
        try:
            return proceed()
        except NodeDownError as exc:
            if exc.node:
                node = self.nodes.get(exc.node)
                dead = node is None or not node.alive
                if exc.pre_effect:
                    if dead:
                        self.fail_over(exc.node, blocking=False)
                elif exc.mid_call and dead:
                    with contextlib.suppress(FederationError):
                        self.fail_over(exc.node, blocking=False)
                    exc.pre_effect = True
            raise

    # -- users ------------------------------------------------------------------

    def add_user(self, name: str, password: str, roles=()) -> None:
        """Provision a user on every node's credential store (remembered
        so joining nodes are provisioned identically)."""
        self._provisioned_users.append((name, password, tuple(roles)))
        for node in self.nodes.values():
            node.add_user(name, password, roles=roles)

    # -- faults -------------------------------------------------------------------

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        """Configure a fault site (pattern allowed) federation-wide."""
        self._fault_sites.append((site, probability, dict(kwargs)))
        self.observability.emit("fault_armed", site=site, probability=probability)
        self.faults.configure(site, probability, **kwargs)
        for node in self.nodes.values():
            node.configure_fault(site, probability, **kwargs)

    def faults_injected(self) -> Dict[str, int]:
        """Injected-fault counters summed over the transport and all nodes."""
        totals: Dict[str, int] = dict(self.faults.injected)
        for node in self.nodes.values():
            for site, count in node.faults_injected().items():
                totals[site] = totals.get(site, 0) + count
        return totals

    # -- routing ------------------------------------------------------------------

    def resolve(self, name: str) -> Tuple[Node, ObjectRefData]:
        owner, ref = self.naming.resolve_with_owner(name)
        node = self.nodes.get(owner)
        if node is None:
            # the snapshot we resolved against was retired between the
            # lookup and the node-table read; one fresh snapshot heals it
            owner, ref = self.naming.resolve_with_owner(name)
            node = self.node(owner)
        return node, ref

    def ref(self, name: str) -> ObjectRefData:
        """The wire reference of a bound name (usable as a call argument
        for operations served by the same node)."""
        return self.resolve(name)[1]

    # -- chain elements -----------------------------------------------------------

    def _latency_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        """One transport hop: simulated clock time plus optional real sleep
        (the network I/O that concurrent delivery overlaps)."""
        self.clock.advance(self.latency_ms)
        if self.real_latency_s > 0:
            time.sleep(self.real_latency_s)
        return proceed()

    def _routing_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        with self._route_lock:
            self.routed[envelope.target] = self.routed.get(envelope.target, 0) + 1
        return proceed()

    # -- invocation path -----------------------------------------------------------

    @property
    def async_transport(self) -> QueuedTransport:
        return self._async.get()

    def _submission_transport(self):
        """Where an asynchronous submission delivers.

        From a thread that is itself serving a request (delivery thread
        or dispatcher pool worker), nested submissions run inline on the
        in-process transport — queueing them behind the bounded pools
        the caller occupies could deadlock the federation, exactly like
        nested synchronous dispatch (the dispatcher's in-worker rule).
        """
        if in_serving_thread():
            return self.transport
        return self.async_transport

    @staticmethod
    def _inherit(context: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """Default a missing context to the current delivery context, so
        nested cross-node calls made by servants propagate transaction
        ids and credentials without manual plumbing."""
        if context is not None:
            return context
        inherited = current_delivery_context()
        return inherited or None

    @contextlib.contextmanager
    def _node_guard(self, node: Node):
        """Atomic aliveness check + in-flight accounting for one hop.

        The check and the bump are one step under the flight condition,
        so :meth:`kill`'s drain cannot miss a request that slipped past
        the check — a dead node never executes another servant effect,
        and kill returns only after every admitted request (including
        its replication) finished."""
        with self._flight_cond:
            if not node.alive:
                raise NodeDownError(
                    f"node {node.name!r} is down", node=node.name
                )
            self._node_flight[node.name] = self._node_flight.get(node.name, 0) + 1
        try:
            yield
        finally:
            with self._flight_cond:
                self._node_flight[node.name] -= 1
                if not self._node_flight[node.name]:
                    del self._node_flight[node.name]
                    self._flight_cond.notify_all()

    def _dispatch(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: Optional[dict],
        context: Optional[Dict[str, Any]],
        partition: Optional[str] = None,
        envelope: Optional[Envelope] = None,
    ):
        """The routing terminal — branches on the transport mode.

        In-process and queued modes execute the node hop directly
        (:meth:`_local_dispatch`); socket mode sends the hop over a real
        wire connection to the owner node's listener, whose server-side
        handler runs the *same* :meth:`_local_dispatch` — so the node
        guard, dispatcher serialization, and replication semantics are
        identical on both sides of the wire.  Process mode sends it to
        a worker process (:meth:`_remote_dispatch`).
        """
        if envelope is not None and self._socket_transport is not None:
            if self.transport_mode == "process":
                return self._remote_dispatch(
                    node, ref, operation, partition, envelope
                )
            return self._wire_dispatch(node, ref, envelope)
        return self._local_dispatch(
            node, ref, operation, args, kwargs, context, partition
        )

    def _remote_dispatch(
        self,
        node: RemoteNode,
        ref: ObjectRefData,
        operation: str,
        partition: Optional[str],
        envelope: Envelope,
    ):
        """The hop to a worker process: the wire round trip runs inside
        the node guard, held here on the front-end because the worker's
        ``Node`` has no federation.  A worker has no in-process bus to
        report which servants a call touched, so a call the read-only
        classification does not skip replicates its whole partition (one
        export round trip) — still inside the guard, like the local
        terminal's sync."""
        with self._node_guard(node):
            value = self._wire_dispatch(node, ref, envelope)
            if partition is not None and self.replicas is not None:
                if operation in self.read_only_ops.get(ref.type_name, ()):
                    self.replicas.note_skip()
                else:
                    self.replicas.sync_partition(partition)
            return value

    def _local_dispatch(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: Optional[dict],
        context: Optional[Dict[str, Any]],
        partition: Optional[str] = None,
    ):
        """The node hop: dead-node classification + dispatch + replication.

        The replication of a named call runs *inside* the node guard: a
        kill that drained to zero has therefore already captured every
        completed effect in the standby copies (or shipped it through
        the replication log) — there is no window where an effect exists
        only on the dying primary.

        Mutation narrowing: the sync is skipped when the node's bus saw
        no (possibly) mutating dispatch while this call executed — the
        call's own dispatch, and every nested delivery it made on the
        node, were all spec-declared read-only operations.  Otherwise
        the bus's per-delivery record names exactly which servants were
        touched, so only those are refreshed (per-servant dirty
        tracking).  A concurrent mutating call on the same node can only
        flip a skip into a sync or widen the touched set (the safe
        direction); a mutating call always observes its own bump, so its
        sync is never skipped."""
        with self._node_guard(node):
            track = partition is not None and self.replicas is not None
            bus = node.services.bus
            before = bus.mutations if track else 0
            value = node.invoke(ref, operation, args, kwargs or {}, context)
            if track:
                if bus.mutations != before:
                    self.replicas.sync_partition(
                        partition, touched=bus.touched_since(before)
                    )
                else:
                    self.replicas.note_skip()
            return value

    # -- socket loopback mode -----------------------------------------------------

    @staticmethod
    def _proxy_ref(value: Any) -> Optional[ObjectRefData]:
        """Client-side marshalling hook: proxies travel as references."""
        if isinstance(value, RemoteProxy):
            return value.ref
        return None

    def _wire_dispatch(self, node: Node, ref: ObjectRefData, envelope: Envelope):
        """Send one routed hop over the wire to ``node``'s listener.

        The hop envelope carries the *same* correlation id, message id,
        QoS, binding, and attempt counter as the in-memory envelope the
        chain executed — a traced retry over sockets is recognizably the
        same logical call — but its request payload is re-marshalled
        into pure wire values (proxies become references).  Faults come
        back as FAULT frames and re-raise here with their retryability
        intact, so the failover element and the QoS budget behave
        exactly as they do in process.
        """
        request = envelope.request
        hop = Envelope(
            request=Request(
                object_id=ref.object_id,
                operation=request.operation,
                args=marshal(list(request.args), self._proxy_ref, root="args"),
                kwargs=marshal(
                    dict(request.kwargs), self._proxy_ref, root="kwargs"
                ),
                context=dict(request.context),
                message_id=request.message_id,
            ),
            qos=envelope.qos,
            correlation_id=envelope.correlation_id,
            target=node.name,
            binding=envelope.binding,
            label=envelope.label,
            attempt=envelope.attempt,
        )
        response = self._socket_transport.roundtrip(node.name, hop)
        if response is None:  # oneway: the ack is the whole reply
            return None
        if response.is_error:
            MessageBus.raise_remote(response)
        if self.transport_mode == "process":
            # results stay wire values: the front-end hosts no servants
            return response.result
        # hydrate through the owner's orb, as an in-process hop would
        return node.services.orb._from_wire(response.result)

    def _serve_wire_request(self, node: Node, envelope: Envelope):
        """Server half of a wire hop: runs on the listener's connection
        thread, inside the node's own process space.

        Rebuilds the dispatch coordinates from the envelope (the client
        already re-resolved the owner for this attempt) and runs the
        ordinary local terminal — node guard, dispatcher, replication —
        then re-marshals the hydrated result for the return frame.
        """
        request = envelope.request
        type_name = (envelope.label or ".").rsplit(".", 1)[0]
        ref = ObjectRefData(request.object_id, type_name)
        partition = (
            ShardedNamingService.partition_key(envelope.binding)
            if envelope.binding
            else None
        )
        result = self._local_dispatch(
            node,
            ref,
            request.operation,
            tuple(request.args),
            dict(request.kwargs),
            dict(request.context),
            partition,
        )
        return marshal(result, self._proxy_ref, root="result")

    def _listen_endpoint(self, name: str) -> str:
        """Where node ``name``'s listener binds (OS-assigned TCP port)."""
        if self.socket_family == "unix":
            return f"unix://{self._unix_dir()}/{name}.sock"
        return "tcp://127.0.0.1:0"

    def _start_wire_server(self, node: Node) -> None:
        """Bind a per-node listener and publish its endpoint (socket mode)."""
        from repro.middleware.sockets import WireServer

        server = WireServer(
            node=node.name,
            request_handler=functools.partial(self._serve_wire_request, node),
            endpoint=self._listen_endpoint(node.name),
        )
        server.start()
        self._wire_servers[node.name] = server
        self._endpoints[node.name] = server.endpoint

    def _discard(self, node: Union[Node, RemoteNode]) -> None:
        """Shut a removed node down, then drop its listener and endpoint
        — in that order, because a worker process receives its stop
        over the endpoint."""
        node.shutdown()
        self._stop_wire_server(node.name)

    def _stop_wire_server(self, name: str) -> None:
        """Tear down a removed node's listener; in-flight connections to
        it fail as mid-call :class:`NodeDownError` on the client side,
        which the failover element upgrades to pre-effect because the
        node is already out of the table."""
        endpoint = self._endpoints.pop(name, None)
        server = self._wire_servers.pop(name, None)
        if server is not None:
            server.stop()
        if endpoint is not None and self._socket_transport is not None:
            self._socket_transport.pool.invalidate(endpoint)

    def _unix_dir(self) -> str:
        if self._unix_sock_dir is None:
            import tempfile

            self._unix_sock_dir = tempfile.mkdtemp(prefix="repro-fed-")
        return self._unix_sock_dir

    def _envelope(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: Optional[dict],
        context: Optional[Dict[str, Any]],
        qos: QoS,
        binding: Optional[str] = None,
    ) -> Tuple[Envelope, Callable[[Envelope], Any]]:
        """Build one routed hop: envelope + its chain-wrapped handler.

        With a ``binding`` (the federation name the caller routed by),
        the handler enters the migration gate and re-resolves the owner
        on *every* delivery attempt — so queued envelopes and QoS
        retries land on the current primary even if the shard migrated
        or failed over since submission — and, on success, replicates
        the touched servants' state to the partition's standbys.

        ``context`` may be a *provider* ``callable(node) -> dict`` (how
        :class:`FederationClient` attaches credentials): it is re-invoked
        per attempt against the re-resolved owner, because a security
        token minted by the old primary means nothing to the node that
        took over its shard.
        """
        if qos is DEFAULT_QOS and binding is not None:
            # spec-declared per-binding QoS default: applies only when
            # the caller did not state a policy (identity check — an
            # explicit QoS() equal to the default is still explicit)
            declared = self.qos_for(binding)
            if declared is not None:
                qos = declared
        provider = context if callable(context) else None
        if provider is not None:
            context_for = lambda n: provider(n) or {}  # noqa: E731
        else:
            static_context = self._inherit(context)
            context_for = lambda n: static_context  # noqa: E731
        tracer = self.observability.tracer
        # captured on the caller's thread at build time: the active
        # span (a harness root span, or the bus span of the dispatch
        # this nested call was made from) becomes this hop's parent.
        # Inherited delivery contexts already carry the trace key.
        trace_headers = tracer.current_headers() if tracer.enabled else None
        request = Request(
            object_id=ref.object_id,
            operation=operation,
            args=list(args),
            kwargs=dict(kwargs or {}),
            context=dict(context_for(node) or {}),
        )
        if trace_headers is not None:
            request.context[TRACE_KEY] = trace_headers
        envelope = Envelope(
            request=request,
            qos=qos,
            target=node.name,
            label=f"{ref.type_name}.{operation}",
            binding=binding,
        )

        if binding is None:

            def handler(env: Envelope):
                # the dispatch reads the *envelope's* context, not the
                # provider's raw dict: chain elements (tracing) re-stamp
                # per-attempt keys into it on the way through
                return self.chain.execute(
                    env,
                    lambda: self._dispatch(
                        node, ref, operation, args, kwargs,
                        env.request.context, envelope=env,
                    ),
                )

            return envelope, handler

        partition = ShardedNamingService.partition_key(binding)

        def handler(env: Envelope):
            with self._gate.entered(partition):
                owner, live_ref = self.resolve(binding)
                env.target = owner.name
                env.request.object_id = live_ref.object_id
                env.request.context = attempt_context = dict(
                    context_for(owner) or {}
                )
                if trace_headers is not None:
                    attempt_context[TRACE_KEY] = trace_headers
                # the dispatch reads the *envelope's* context: chain
                # elements (tracing) re-stamp per-attempt keys into it
                return self.chain.execute(
                    env,
                    lambda: self._dispatch(
                        owner, live_ref, operation, args, kwargs,
                        env.request.context, partition, envelope=env,
                    ),
                )

        return envelope, handler

    def invoke(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        binding: Optional[str] = None,
    ):
        """Route one request to ``node`` and execute it there, metered."""
        envelope, handler = self._envelope(
            node, ref, operation, args, kwargs, context, qos, binding
        )
        return self.transport.call(envelope, handler)

    def invoke_async(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        binding: Optional[str] = None,
    ) -> ReplyFuture:
        """Route one request asynchronously; returns the reply future."""
        envelope, handler = self._envelope(
            node, ref, operation, args, kwargs, context, qos, binding
        )
        return self._submission_transport().submit(envelope, handler)

    def oneway(
        self,
        node: Node,
        ref: ObjectRefData,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = ONEWAY_QOS,
        binding: Optional[str] = None,
    ) -> None:
        """Fire-and-forget delivery: at most one servant effect, no reply."""
        envelope, handler = self._envelope(
            node, ref, operation, args, kwargs, context, qos, binding
        )
        self._submission_transport().submit(envelope, handler)

    def call(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ):
        """Resolve ``name`` and invoke ``operation`` on its owner node."""
        node, ref = self.resolve(name)
        return self.invoke(node, ref, operation, args, kwargs, context, qos, name)

    def call_async(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ) -> ReplyFuture:
        node, ref = self.resolve(name)
        return self.invoke_async(
            node, ref, operation, args, kwargs, context, qos, name
        )

    def call_oneway(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = ONEWAY_QOS,
        **kwargs,
    ) -> None:
        node, ref = self.resolve(name)
        self.oneway(node, ref, operation, args, kwargs, context, qos, name)

    def pipeline(
        self,
        max_batch: int = 8,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
    ) -> "InvocationPipeline":
        """A batching client: consecutive same-node calls share one hop."""
        context_for = None
        if context is not None:
            snapshot = dict(context)
            context_for = lambda node: snapshot  # noqa: E731 - tiny closure
        return InvocationPipeline(
            self, max_batch=max_batch, context_for=context_for, qos=qos
        )

    # -- batched delivery ----------------------------------------------------------

    def _submit_batch(self, node: Node, items: List["_PipelinedCall"], qos: QoS) -> None:
        """One envelope for a whole node-batch: the chain (fault check,
        hop latency, routing) runs once, then every member call executes
        through the owner node's dispatcher — submitted first, awaited
        second, so calls against different servants overlap.

        Elastic interaction: the batch holds its member partitions in
        the migration gate and the node's flight count (so freezes and
        kill-drains wait for it), but the target node is fixed at flush
        time — a batch never re-routes after a failover; use the
        per-call paths when membership churn must be transparent."""
        request = Request(
            object_id="<pipeline>",
            operation="<batch>",
            args=[item.label for item in items],
            kwargs={},
        )
        tracer = self.observability.tracer
        if tracer.enabled:
            headers = tracer.current_headers()
            if headers is not None:
                request.context[TRACE_KEY] = headers
        envelope = Envelope(request=request, qos=qos, target=node.name, label=None)

        partitions = sorted(
            {
                ShardedNamingService.partition_key(item.name)
                for item in items
                if item.name is not None
            }
        )

        def terminal():
            with self._route_lock:
                self.batches[node.name] = self.batches.get(node.name, 0) + 1
            with contextlib.ExitStack() as stack:
                # the batch holds its members' partitions in the
                # migration gate (entered atomically: frozen partitions
                # it does not already hold block the whole entry) and
                # its target nodes' flight counts for its whole
                # lifetime: a freeze waits for it, a kill drains it.  Members re-resolve their bindings at
                # delivery time, so a batch queued across a migration or
                # promoted failover executes against the current owners
                # (the flush-time grouping only fixes which calls shared
                # this envelope's hop).
                stack.enter_context(self._gate.entered_many(partitions))
                return self._run_batch(node, items, stack)

        def handler(env: Envelope):
            return self.chain.execute(env, terminal)

        batch_future = self._submission_transport().submit(envelope, handler)

        def propagate_batch_failure(done: ReplyFuture) -> None:
            # a transport fault killed the whole batch before any member
            # ran (the terminal completes members itself): fail them all
            if done._exception is not None:
                for item in items:
                    item.future._fail(done._exception)

        batch_future.add_done_callback(propagate_batch_failure)

    def _run_batch(
        self,
        node: Node,
        items: List["_PipelinedCall"],
        stack: "contextlib.ExitStack",
    ) -> int:
        """Dispatch and await one node-batch's members.

        Each member re-resolves its binding first (the gate is already
        held), so deliveries land on the *current* owner even if the
        shard moved since the flush; every distinct target node is held
        in the flight guard for the batch's remaining lifetime, so kill
        drains cover the members.  A dead target raises the pre-effect
        :class:`NodeDownError` for the whole batch — the failover
        element promotes and the batch envelope's retry budget re-runs
        this terminal against the re-resolved owners.
        """
        targets: List[Optional[Tuple[Node, ObjectRefData]]] = []
        guarded: set = set()
        for item in items:
            if item.name is None:
                owner, ref = node, item.ref
            else:
                try:
                    owner, ref = self.resolve(item.name)
                except ReproError as exc:
                    item.future._fail(exc)
                    targets.append(None)
                    continue
            if owner.name not in guarded:
                # raises NodeDownError (pre-effect) if the target died
                stack.enter_context(self._node_guard(owner))
                guarded.add(owner.name)
            targets.append((owner, ref))
        dispatched = []
        last_by_servant: Dict[str, Any] = {}
        for item, target in zip(items, targets):
            if target is None:
                dispatched.append(None)
                continue
            owner, ref = target
            # same-servant members must execute in submission order:
            # the pool serializes them on the servant lock but does
            # not order the acquisitions, so gate on the previous
            # same-servant dispatch before submitting the next
            previous = last_by_servant.get(ref.object_id)
            if previous is not None:
                previous.exception()  # wait; outcome consumed below
            started = time.perf_counter()
            mutations_before = owner.services.bus.mutations
            try:
                pending = owner.invoke_async(
                    ref, item.operation, item.args, item.kwargs, item.context
                )
            except Exception as exc:  # noqa: BLE001 - routed to the future
                self.metrics.record(
                    item.label, owner.name, time.perf_counter() - started, error=True
                )
                item.future._fail(exc)
                dispatched.append(None)
                continue
            last_by_servant[ref.object_id] = pending
            dispatched.append((pending, started, owner, mutations_before))
        for item, entry in zip(items, dispatched):
            if entry is None:
                continue
            pending, started, owner, mutations_before = entry
            # each member's latency runs from its own dispatch, not
            # from the batch start — comparable to per-call metering
            try:
                value = pending.result()
            except Exception as exc:  # noqa: BLE001 - routed to the future
                self.metrics.record(
                    item.label, owner.name, time.perf_counter() - started, error=True
                )
                item.future._fail(exc)
                continue
            self.metrics.record(
                item.label, owner.name, time.perf_counter() - started
            )
            if self.replicas is not None and item.name is not None:
                # same mutation narrowing as the per-call path: members
                # whose dispatch bumped no mutation flag skip the sync,
                # and the rest refresh only the servants they touched
                bus = owner.services.bus
                if bus.mutations != mutations_before:
                    self.replicas.sync_partition(
                        ShardedNamingService.partition_key(item.name),
                        touched=bus.touched_since(mutations_before),
                    )
                else:
                    self.replicas.note_skip()
            item.future._complete(value)
        return len(items)

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats = {
            "nodes": [node.stats() for node in self.nodes.values()],
            "shards": self.naming.stats(),
            "epoch": self.naming.epoch,
            "routed": dict(sorted(self.routed.items())),
            "sim_transport_ms": self.clock.now(),
            "faults_injected": self.faults_injected(),
        }
        if self.batches:
            stats["batches"] = dict(sorted(self.batches.items()))
        if self.joins or self.retires or self.failovers:
            stats["elastic"] = {
                "joins": self.joins,
                "retires": self.retires,
                "failovers": self.failovers,
                "bindings_moved": self.bindings_moved,
                "last_rebalance": dict(self.last_rebalance),
            }
        if self.replicas is not None:
            stats["replication"] = self.replicas.stats()
        async_transport = self._async.peek()
        if async_transport is not None:
            stats["async_transport"] = async_transport.stats()
        return stats


class _PipelinedCall:
    """One queued member of an :class:`InvocationPipeline` batch.

    Members travel inside the batch envelope, but each future still
    carries its own envelope (request payload + the pipeline's QoS) so
    ``future.result()`` honours the configured timeout and callers can
    introspect what they sent.
    """

    __slots__ = (
        "node", "ref", "name", "operation", "args", "kwargs", "context",
        "label", "future",
    )

    def __init__(self, node, ref, operation, args, kwargs, context, qos, name=None):
        self.node = node
        self.ref = ref
        self.name = name
        self.operation = operation
        self.args = args
        self.kwargs = kwargs
        self.context = context
        self.label = f"{ref.type_name}.{operation}"
        envelope = Envelope(
            request=Request(
                object_id=ref.object_id,
                operation=operation,
                args=list(args),
                kwargs=dict(kwargs),
                context=dict(context or {}),
            ),
            qos=qos,
            target=node.name,
            label=self.label,
        )
        self.future = ReplyFuture(envelope)


class InvocationPipeline:
    """Client-side batching of consecutive same-node calls.

    ``call`` queues an invocation and returns its future immediately; a
    flush (explicit, on leaving the ``with`` block, or automatic once
    ``max_batch`` calls are queued) groups *consecutive* calls to the
    same node and ships each group as one envelope — one fault-injection
    site check and one hop latency per group, so a latency-bound client
    pays transport cost per batch instead of per call.

    Ordering: within one batch, calls against the *same servant* execute
    in program order; beyond that — across batches, across flushes, and
    for different servants inside a batch — deliveries may interleave
    freely, like independent network flows.  Callers with cross-batch or
    cross-servant ordering dependencies must await the earlier future
    (or use synchronous calls) before issuing the dependent call.

    Elastic caveat: a batch's target node is fixed when it flushes —
    shard migrations wait for in-flight batches (the batch holds the
    migration gate and the node's flight count), but a batch caught by
    a node kill fails its members rather than re-routing them.
    """

    def __init__(
        self,
        federation: Federation,
        max_batch: int = 8,
        context_for: Optional[Callable[[Node], Optional[Dict[str, Any]]]] = None,
        qos: QoS = DEFAULT_QOS,
    ):
        if max_batch < 1:
            raise FederationError(f"pipeline batch must be >= 1, got {max_batch}")
        if federation.transport_mode == "process":
            raise FederationError(
                "pipelined batches to worker-process nodes are not supported; "
                "use call / call_async / oneway"
            )
        self.federation = federation
        self.max_batch = max_batch
        self.context_for = context_for
        self.qos = qos
        self._pending: List[_PipelinedCall] = []

    def call(self, name: str, operation: str, *args, **kwargs) -> ReplyFuture:
        node, ref = self.federation.resolve(name)
        context = self.context_for(node) if self.context_for is not None else None
        context = Federation._inherit(context)
        item = _PipelinedCall(
            node, ref, operation, args, kwargs, context, self.qos, name
        )
        self._pending.append(item)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return item.future

    def flush(self) -> None:
        """Ship every queued call, grouped by consecutive target node."""
        pending, self._pending = self._pending, []
        batch: List[_PipelinedCall] = []
        for item in pending:
            if batch and item.node is not batch[0].node:
                self.federation._submit_batch(batch[0].node, batch, self.qos)
                batch = []
            batch.append(item)
        if batch:
            self.federation._submit_batch(batch[0].node, batch, self.qos)

    def __enter__(self) -> "InvocationPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()


class FederationClient:
    """A client identity: routed calls with per-node credentials.

    ``qos`` sets the client's default policy for synchronous and
    asynchronous calls (elastic scenarios hand every client a retry
    budget so failover re-delivery is automatic); per-call ``qos=``
    still overrides it.
    """

    def __init__(
        self,
        federation: Federation,
        user: Optional[str] = None,
        password: Optional[str] = None,
        qos: Optional[QoS] = None,
    ):
        self.federation = federation
        self.user = user
        self.password = password
        self.default_qos = qos or DEFAULT_QOS
        self._tokens: Dict[str, str] = {}

    def ref(self, name: str) -> ObjectRefData:
        return self.federation.ref(name)

    def _token_for(self, node: Node) -> str:
        token = self._tokens.get(node.name)
        if token is None:
            token = self._tokens[node.name] = node.login(self.user, self.password)
        return token

    def _context_for(self, node: Node) -> Optional[Dict[str, Any]]:
        if self.user is None:
            return None
        return {"credentials": self._token_for(node)}

    def call(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ):
        node, ref = self.federation.resolve(name)
        return self.federation.invoke(
            node, ref, operation, args, kwargs,
            self._context_for, qos or self.default_qos, name,
        )

    def call_async(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ) -> ReplyFuture:
        node, ref = self.federation.resolve(name)
        return self.federation.invoke_async(
            node, ref, operation, args, kwargs,
            self._context_for, qos or self.default_qos, name,
        )

    def oneway(
        self, name: str, operation: str, *args, qos: QoS = ONEWAY_QOS, **kwargs
    ) -> None:
        node, ref = self.federation.resolve(name)
        self.federation.oneway(
            node, ref, operation, args, kwargs,
            self._context_for, qos, name,
        )

    def pipeline(self, max_batch: int = 8, qos: QoS = DEFAULT_QOS) -> InvocationPipeline:
        """A batching view of this client (credentials attached per node)."""
        return InvocationPipeline(
            self.federation,
            max_batch=max_batch,
            context_for=self._context_for,
            qos=qos,
        )
