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
  servant state ships as ``(name, type name, state)`` exports that the
  receiving node rebuilds from its own woven classes (the application
  itself travels as a shipped package and is replayed on the joining
  node), and the :class:`ShardedNamingService` performs an atomic
  ownership-epoch swap, so routing never observes a half-migrated shard.
  ``join`` is the only way a node enters: a deployment's bring-up is
  joins into an empty federation.
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
from repro.errors import FederationError, NamingError, NodeDownError, ProtocolError, ReproError
from repro.middleware.bus import ObjectRefData, error_from_wire, marshal
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    DEFAULT_QOS,
    ONEWAY_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
    current_delivery_context,
    delivery_stack,
)
from repro.middleware.faults import FaultInjector
from repro.middleware.naming import NamingService
from repro.middleware.transport import InProcessTransport, QueuedTransport
from repro.middleware.rpc import proxy_ref
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.node import BATCH, Node
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


class _MigrationGate:
    """Quiesces in-flight envelopes on a moving shard.

    Routed deliveries :meth:`enter` their target partition for the
    duration of the hop and :meth:`leave` it after; a migration
    ``freeze``\\ s the moving partitions, which
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

    The gate's entries are the federation's only in-flight count: a
    killed node's partitions :meth:`drain`.  A freeze or drain waits
    only for the entries taken before it began: it retires the table
    they are counted in, and later entries count in a fresh one.  A
    retired table only shrinks, so a partition a steady stream of new
    calls keeps busy (a dead owner's callers failing fast, or the
    promoted owner serving them) cannot hold a drain off.
    """

    def __init__(self, observer=None):
        self._cond = named_condition("federation.gate")
        self._frozen: set = set()  # guarded_by: _cond
        #: partition -> entries taken since the last freeze or drain began
        self._inflight: Dict[str, int] = {}  # guarded_by: _cond
        #: the older tables a freeze or drain retired, while they still
        #: hold entries
        self._retired: List[Dict[str, int]] = []  # guarded_by: _cond
        self._local = threading.local()
        #: callable(partitions, waited_ms) — notified when a delivery
        #: had to block on a frozen partition (observability event)
        self._observer = observer

    def _held(self) -> Dict[str, int]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = {}
        return held

    def enter(self, partitions: List[str]) -> Dict[str, int]:
        """Enter several partitions atomically; pair with :meth:`leave`
        in a ``finally``, passing it the in-flight table this returns
        (the one the entries were counted in).

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
            inflight = self._inflight
            for partition in partitions:
                inflight[partition] = inflight.get(partition, 0) + 1
        for partition in partitions:
            held[partition] = held.get(partition, 0) + 1
        if waited_at is not None and self._observer is not None:
            self._observer(partitions, (time.perf_counter() - waited_at) * 1000.0)
        return inflight

    def leave(self, partitions: List[str], inflight: Dict[str, int]) -> None:
        held = self._held()
        for partition in partitions:
            held[partition] -= 1
            if not held[partition]:
                del held[partition]
        with self._cond:
            for partition in partitions:
                inflight[partition] -= 1
                if not inflight[partition]:
                    del inflight[partition]
            if not inflight and inflight is not self._inflight:
                self._retired = [t for t in self._retired if t is not inflight]
            self._cond.notify_all()

    def _wait_drained(self, partitions: set, timeout_s: float) -> bool:
        """Under ``_cond``: wait until no other thread holds an entry on
        ``partitions`` that it took before this wait began (this
        thread's own entries, all taken before, are discounted)."""
        held = self._held()
        if self._inflight:
            self._retired.append(self._inflight)
            self._inflight = {}
        tables = list(self._retired)
        return self._cond.wait_for(
            lambda: all(
                sum(table.get(p, 0) for table in tables) <= held.get(p, 0)
                for p in partitions
            ),
            timeout_s,
        )

    def drain(self, partitions: Iterable[str], timeout_s: float) -> None:
        """:meth:`freeze`'s wait without the freeze: a delivery entering
        meanwhile passes (on a dead node it fails fast), so a servant
        still running there may call into another of its partitions."""
        with self._cond:
            if not self._wait_drained(set(partitions), timeout_s):
                raise FederationError(
                    f"in-flight requests on {sorted(partitions)} did not drain "
                    f"within {timeout_s}s"
                )

    def in_flight(self, partitions: Iterable[str]) -> int:
        with self._cond:
            tables = [self._inflight, *self._retired]
            return sum(table.get(p, 0) for p in partitions for table in tables)

    @contextlib.contextmanager
    def freeze(self, partitions: Iterable[str], timeout_s: float = 30.0):
        frozen = set(partitions)
        with self._cond:
            self._frozen |= frozen
            if not self._wait_drained(frozen, timeout_s):
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

    def __init__(self, partition: str, primary: str, standby_names: List[str], applied: int = 0):
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
        self.watermarks: Dict[str, int] = {name: applied for name in standby_names}


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
    tracking**: a node names the servants its bus saw a hop mutate
    (:meth:`Node.changed_since`), so a sync appends only those
    servants' states to the partition's :class:`ReplicationLog` instead
    of re-copying the whole partition, and standbys *replay* the tail
    past their applied watermark.  A worker-process primary has no
    in-process bus to ask, so its mutating hops take the full-partition
    path (one export round trip per partition).  Every export runs
    under a per-partition sync lock, not the manager lock: syncs of
    different partitions overlap their exports, and one partition's
    appends stay in export order.  The log is snapshot+truncated every
    ``snapshot_every`` entries, and seeding/catch-up/failover promotion
    all ride the same replay path.

    Cross-servant coherence comes from the sync discipline itself:
    every mutating call replicates its effects before it leaves the
    migration gate, so a drained (killed) primary has already pushed
    its final state.
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
        self._lock = named_rlock("replication.manager")
        #: partition -> its sync lock, held from export to append so a
        #: partition's log entries land in the order they were exported
        self._sync_locks: Dict[str, Any] = {}
        #: partitions whose last sync was skipped because an export
        #: raised: their standbys may miss an effect
        self._export_failed: set = set()  # guarded_by: _lock
        #: partitions a hop left unsynced because their owner was
        #: unreachable (:meth:`defer_sync`); kept apart so that a sync
        #: already exporting cannot clear them, and only :meth:`rebuild`
        #: takes them over
        self._deferred: set = set()  # guarded_by: _lock
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

    def sync_partition(
        self,
        partition: str,
        names: Optional[List[str]] = None,
        changed_on: Optional[str] = None,
    ) -> None:
        """Replicate ``partition``'s state to its standbys.

        ``names`` are the partition's bindings a hop on node
        ``changed_on`` mutated (:meth:`Node.changed_since`); when that
        node is the group's primary, only those servants are exported
        and logged — per-servant dirty tracking.  Otherwise (seed,
        rebuild, a worker's hop, an evicted mutation window, or a group
        not yet placed on that primary) the whole partition is exported.

        Best-effort by design: it runs *after* the triggering call's
        servant effect, so it must never fail that call — failing it
        would invite a retry that runs the effect twice.  A topology
        swap racing the sync (owner read from one snapshot, gone in the
        next) just skips the refresh: the membership change's
        :meth:`rebuild` re-syncs the re-placed partition.  An export
        that raises (a worker owner that cannot answer) skips it too,
        and marks the partition for the next rebuild.

        Both paths export outside the manager lock (for a worker owner
        it is a round trip), holding only the partition's sync lock, so
        a partition's entries are appended in the order they were
        exported.  A narrowed export is appended only if its group was
        not replaced meanwhile; whatever replaced it re-synced.
        """
        federation = self.federation
        with self._sync_lock(partition):
            with self._lock:
                group = self._groups.get(partition)
            owner: Optional[Union[Node, RemoteNode]] = federation.nodes.get(changed_on)
            narrow = names is not None and group is not None and owner is not None
            if narrow and group.primary == changed_on:
                try:
                    entries = owner.export(names)
                except ReproError:
                    with self._lock:
                        self._export_failed.add(partition)
                    return
                with self._lock:
                    if self._groups.get(partition) is not group:
                        return
                    if self._replicate(partition, group, entries, full=False):
                        self.syncs += 1
                return
            view = federation.naming.partition_view(partition)
            if view is None:
                return
            owner_name, names = view
            owner = federation.nodes.get(owner_name)
            if owner is None:
                return
            try:
                standby_names = self._standby_names(partition)
                entries = owner.export(names)
            except ReproError:
                with self._lock:
                    self._export_failed.add(partition)
                return
            with self._lock:
                self._export_failed.discard(partition)
                group = self._ensure_group(partition, owner_name, standby_names)
                if self._replicate(partition, group, entries, full=True):
                    self.syncs += 1

    def _sync_lock(self, partition: str):
        lock = self._sync_locks.get(partition)
        if lock is None:
            lock = self._sync_locks.setdefault(
                partition, named_lock("replication.partition")
            )
        return lock

    def _ensure_group(
        self, partition: str, owner_name: str, standby_names: List[str]
    ) -> ReplicaGroup:
        group = self._groups.get(partition)
        if (
            group is None
            or group.primary != owner_name
            or list(group.standbys) != standby_names
        ):
            # the full export appended next restates every live binding,
            # so new standbys start at the log head, not its history
            head = self._logs[partition].seq if partition in self._logs else 0
            group = ReplicaGroup(partition, owner_name, standby_names, head)
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

    def defer_sync(self, partitions: Iterable[str]) -> None:
        """Leave ``partitions`` to the next :meth:`rebuild` without an
        export now: their owner could not be reached, so their standbys
        may miss an effect."""
        with self._lock:
            self._deferred.update(partitions)

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

    def rebuild(self) -> None:
        """Re-place the groups after a topology change: drop those of
        partitions that no longer exist, and re-sync only a partition
        whose standbys could be stale (:meth:`_stale`) — a membership
        change costs what it moves, not the whole federation."""
        naming = self.federation.naming
        partitions = {ShardedNamingService.partition_key(name) for name in naming.list()}
        ring = naming.ring
        with self._lock:
            for stale in set(self._groups) - partitions:
                del self._groups[stale]
            for stale in set(self._logs) - partitions:
                del self._logs[stale]
            # a deferred partition is due now, and from here on it is
            # marked as a failed export: only a sync that starts after
            # this point can clear it
            self._export_failed |= self._deferred
            self._deferred.clear()
            self._export_failed &= partitions
            due = [
                partition
                for partition in sorted(partitions)
                if self._stale(partition, ring.preference(partition, self.count + 1))
            ]
        for partition in due:
            self.sync_partition(partition)

    def _stale(self, partition: str, placement: List[str]) -> bool:
        """Whether ``partition`` needs a re-sync: its group is new, its
        primary or standbys differ from ``placement`` (the ring's
        preference list), a standby hosting the application is behind
        the log head, or its last sync was skipped because an export
        raised or was deferred (:meth:`defer_sync`)."""
        group = self._groups.get(partition)
        if group is None or partition in self._export_failed:
            return True
        if [group.primary, *group.standbys] != placement:
            return True
        head = self._logs[partition].seq if partition in self._logs else 0
        return any(group.watermarks[s] < head for s in group.standbys if self._hosts_application(s))

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
    TRANSPORT_MODES = ("inproc", "socket", "process")

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
        #: how routed hops travel: "inproc" (caller thread), "socket"
        #: (every hop crosses a real wire connection to the node's
        #: listener), or "process" (every node is a worker process,
        #: reached over the wire; see repro.runtime.procfed)
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
        #: asynchronous hop transport; its delivery threads start on
        #: the first submission
        self.delivery_workers = delivery_workers
        self._async = QueuedTransport(workers=delivery_workers, name="federation")
        #: the one ordered element pipeline every routed hop runs through
        self.chain = InterceptorChain()
        self.chain.add("metrics", self.metrics.element())
        self.chain.add("trace", self.observability.tracer.element())
        self.chain.add("faults", self.faults.interceptor("federation.route"))
        self.chain.add("failover", self._failover_element)
        self.chain.add("latency", self._latency_element)
        self.chain.add("routing", self._routing_element)
        # -- elastic membership state --
        #: serializes join/retire/fail_over and kill's mark
        self._topology_lock = named_rlock("federation.topology")
        #: quiesces in-flight envelopes on partitions under migration
        #: (the only in-flight count: kill and fail_over drain through it)
        self._gate = _MigrationGate(observer=self.observability.gate_wait)
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
        #: the DeploymentSpec this federation was compiled from (set by
        #: DeploymentCompiler.deploy; None for hand-built federations)
        self.spec = None
        #: standby state for failover; None until enable_replication()
        self.replicas: Optional[ReplicaManager] = None
        #: the ComponentPackage every node runs (set by the deployment
        #: compiler), so a live joiner weaves the same derivation the
        #: seed nodes did
        self.app_package = None
        #: elastic statistics
        self.joins = 0
        self.retires = 0
        self.failovers = 0
        self.bindings_moved = 0
        self.last_rebalance: Dict[str, Any] = {}

    # -- topology ---------------------------------------------------------------

    def _create_node(
        self, name: str, workers: int, seed: Optional[int]
    ) -> Union[Node, RemoteNode]:
        """The one place nodes come from (:meth:`join`): in socket mode
        the node's listener starts here, in process mode the node *is*
        a spawned worker process."""
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
        return self._async.drain(timeout_s)

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

    def replace_binding_qos(self, pairs: Iterable[Tuple[str, QoS]]) -> None:
        """Declare the per-binding QoS defaults — ``(pattern, QoS)``
        pairs, fnmatch over the federation name, declaration order
        wins — in one assignment: a spec diff re-declares the whole
        table rather than patching it, so removals take effect too."""
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

    def join(
        self,
        name: str,
        workers: int = 0,
        seed: Optional[int] = None,
        deploy: Optional[Callable[[Node], Any]] = None,
        drain_timeout_s: float = 30.0,
    ) -> Union[Node, RemoteNode]:
        """Add a node to the federation, migrating only what rehashes —
        the only way a node enters.

        The joiner is fully prepared off-ring (application deployed via
        ``deploy``, users and fault campaign provisioned); the partitions
        the new ring assigns to it are frozen, their in-flight envelopes
        quiesce, their servant state ships as ``(name, type name,
        state)`` exports (each snapshot taken under its servant's
        dispatch lock), and one atomic epoch swap makes the joiner
        routable — every other partition keeps its owner and never
        stalls.  A join into a federation that binds nothing is
        bring-up: it records no rebalance.
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
            if total:
                self._rebalanced("join", name, moved, sorted(moving), {"total": total})
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
        moving = {}
        if grouped:
            next_ring = self.naming.preview_ring(add=name)
            moving = {
                partition: names
                for partition, names in sorted(grouped.items())
                if next_ring.owner(partition) == name
            }
        moved = 0
        with self._gate.freeze(moving, timeout_s=drain_timeout_s):
            shipped = []
            for partition, names in moving.items():
                source = self.node(self.naming.owner_of(partition))
                shipped.append((source, source.export(sorted(names))))
            for _source, entries in shipped:
                moved += len(node.import_states(entries))
            # the atomic ownership-epoch swap: the joiner becomes
            # routable only now, with its bindings already in place
            # (and its node entry published first, so a resolver that
            # sees the new topology always finds the node)
            self.nodes[name] = node
            self.naming.add_shard(name, node.naming)
            for source, entries in shipped:
                source.release(bound for bound, _t, _s in entries)
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
                    moved += len(target.import_states(node.export(sorted(pnames))))
                # epoch swap: the retiree's shard vanishes atomically
                self.naming.remove_shard(name)
                node.alive = False
                del self.nodes[name]
            self._discard(node)
            self._rebalanced("retire", name, moved, sorted(grouped), {"total": total})
            return dict(self.last_rebalance)

    def _rebalanced(
        self, action: str, name: str, moved: int, partitions: List[str], detail: dict, **event
    ) -> None:
        """Record a membership change — one more ``joins``, ``retires``
        or ``failovers``, the moved bindings, ``last_rebalance`` (plus
        ``detail``) and the action's event (plus ``event``) — then
        re-place the replica groups."""
        counter = action + "s"
        setattr(self, counter, getattr(self, counter) + 1)
        self.bindings_moved += moved
        self.last_rebalance = dict(
            action=action, node=name, moved=moved, **detail, partitions=partitions
        )
        self.observability.emit(action, node=name, moved=moved, **event, partitions=partitions)
        if self.replicas is not None:
            self.replicas.rebuild()

    def kill(self, name: str, drain_timeout_s: float = 30.0) -> None:
        """Fail-stop a node: requests already executing finish (and
        replicate), new routed calls see :class:`NodeDownError`.  A
        worker process is SIGKILLed instead, so its in-flight requests
        die with it.  The node stays in the ring until the failover
        interceptor (or an explicit :meth:`fail_over`) promotes its
        standbys.  It is marked dead under the topology lock (a second
        or concurrent kill is a no-op); the process kill and the drain
        of its partitions through the migration gate run outside it, so
        a failover element reacting to the death can promote meanwhile."""
        with self._topology_lock:
            node = self.node(name)
            if not node.alive:
                return
            node.alive = False
            partitions = self._group_by_partition(self.naming.shard(name).list())
        node.kill()
        self.observability.emit("kill", node=name)
        self._gate.drain(partitions, drain_timeout_s)

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
            grouped = self._group_by_partition(self.naming.shard(name).list())
            # requests admitted before the node died may still be
            # executing (kill's own drain can be racing on another
            # thread): their effects — and replication syncs — must
            # land before the standby copies are taken, or the promoted
            # state silently loses them
            self._gate.drain(grouped, 30.0)
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
            # epoch swap: ownership falls to the ring successors — the
            # nodes whose standby copies were just promoted
            self.naming.remove_shard(name)
            del self.nodes[name]
            self._discard(node)
            self._rebalanced(
                "failover", name, moved, sorted(grouped), {"lost": lost}, lost=len(lost)
            )
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

    def _failover_element(self, envelope: Envelope, next: Callable[[Envelope], Any]):
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
        effect.

        Only the hop's own dead-node fault counts.  A servant's error
        that crossed back to this hop (``_remote_rebuilt``) keeps the
        node and flags of a call the servant made itself: it is left as
        raised, and its effects may exist, so nothing re-delivers it."""
        try:
            return next(envelope)
        except NodeDownError as exc:
            if exc.node and not getattr(exc, "_remote_rebuilt", False):
                node = self.nodes.get(exc.node)
                dead = node is None or not node.alive
                # a call nested in a servant's dispatch never promotes:
                # that dispatch may still run on the dead node, and the
                # promotion must wait for it (its drain discounts only
                # this thread's entries); it would also take the
                # topology lock under the servant lock
                promote = dead and not delivery_stack()
                if exc.pre_effect:
                    if promote:
                        self.fail_over(exc.node, blocking=False)
                elif exc.mid_call and dead:
                    if promote:
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

    def _latency_element(self, envelope: Envelope, next: Callable[[Envelope], Any]):
        """One transport hop: simulated clock time plus optional real sleep
        (the network I/O that concurrent delivery overlaps)."""
        self.clock.advance(self.latency_ms)
        if self.real_latency_s > 0:
            time.sleep(self.real_latency_s)
        return next(envelope)

    def _routing_element(self, envelope: Envelope, next: Callable[[Envelope], Any]):
        with self._route_lock:
            self.routed[envelope.target] = self.routed.get(envelope.target, 0) + 1
        return next(envelope)

    # -- invocation path -----------------------------------------------------------

    def _submission_transport(self):
        """Where an asynchronous submission delivers.

        A nested submission — one made while this thread's delivery
        stack is non-empty, i.e. by servant code — runs inline on the
        in-process transport: queueing it behind the bounded delivery
        threads and permits the servant may be holding could deadlock
        the federation, exactly like nested synchronous dispatch (the
        dispatcher's nested rule).
        """
        if delivery_stack():
            return self.transport
        return self._async

    @staticmethod
    def _context_source(context) -> Any:
        """Where a routed call's context comes from, minted per attempt
        for the owner node by :meth:`_mint_context`.

        ``context`` may be a *provider* ``callable(node) -> dict`` (how
        :class:`FederationClient` attaches credentials): it is re-invoked
        per attempt against the re-resolved owner, because a security
        token minted by the old primary means nothing to the node that
        took over its shard.  A missing context defaults to the current
        delivery context, so nested cross-node calls made by servants
        propagate transaction ids and credentials without manual
        plumbing."""
        return current_delivery_context() if context is None else context

    @staticmethod
    def _mint_context(source, node) -> Dict[str, Any]:
        """A fresh copy of the context ``source`` gives for ``node``."""
        return dict((source(node) if callable(source) else source) or {})

    def _dispatch(self, envelope: Envelope):
        """The routing terminal: picks the node hop for the transport —
        :meth:`Node.invoke` in memory, :meth:`_wire_dispatch` to a
        socket listener or worker process — and runs it through
        :meth:`_local_dispatch`, the one terminal every transport
        shares.  The attempt resolved ``envelope.owner`` and
        ``envelope.ref``; the hop carries the envelope's context, into
        which chain elements (tracing) stamped per-attempt keys."""
        node, ref = envelope.owner, envelope.ref
        if self._socket_transport is not None:
            hop = functools.partial(self._wire_dispatch, node, envelope)
        else:
            hop = functools.partial(
                node.invoke,
                ref,
                envelope.operation,
                envelope.args,
                envelope.kwargs,
                envelope.context,
            )
        return self._local_dispatch(
            node, ((ref, envelope.operation, envelope.partition),), hop
        )

    def _local_dispatch(
        self,
        node: Union[Node, RemoteNode],
        calls: Iterable[Tuple[ObjectRefData, str, str]],
        hop: Callable[[], Any],
    ):
        """The node hop: the alive check + dispatch + replication, all
        on the caller's side whatever the transport.  ``calls`` are the
        hop's ``(ref, operation, partition)`` — one for a single call,
        one per member for a batch — and the hop gets one replication
        decision (:meth:`_replicate`).

        The alive check needs no lock of its own: both callers hold
        migration-gate entries for the hop's partitions, and
        :meth:`kill` marks the node dead *before* it drains those
        entries.  A call that passed the check is one the drain waits
        for; a call that entered after the drain read the count sees the
        mark and fails here, before any effect.  The replication of a
        call runs inside its entry, so a drained kill has already
        captured every completed effect in the standby copies (or
        shipped it through the replication log) — there is no window
        where an effect exists only on the dying primary.  A hop that
        raises replicates too: its servant may have changed state
        before the error.  A worker hop that lost its own transport
        (its :class:`NodeDownError` names this node and was raised on
        this side of the wire) defers that replication to the next
        rebuild: an export round trip to the worker it just failed to
        reach would wait out a second reply timeout."""
        if not node.alive:
            raise NodeDownError(f"node {node.name!r} is down", node=node.name)
        if self.replicas is None:
            return hop()
        mark = self._mutation_mark(node)
        lost = False
        try:
            return hop()
        except NodeDownError as exc:
            lost = (
                mark is None
                and exc.node == node.name
                and not getattr(exc, "_remote_rebuilt", False)
            )
            raise
        finally:
            self._replicate(node, calls, mark, lost)

    def routed_in_flight(self, name: str) -> int:
        """Routed calls holding a migration-gate entry on one of node
        ``name``'s partitions (0 once it left the ring)."""
        try:
            shard = self.naming.shard(name)
        except FederationError:
            return 0
        return self._gate.in_flight(self._group_by_partition(shard.list()))

    @staticmethod
    def _mutation_mark(node: Union[Node, RemoteNode]) -> Optional[int]:
        """Where a hop's replication window opens: the node's bus
        mutation count, or None for a worker process (its bus is not in
        this process)."""
        return node.services.bus.mutations if isinstance(node, Node) else None

    def _replicate(
        self,
        node: Union[Node, RemoteNode],
        calls: Iterable[Tuple[ObjectRefData, str, str]],
        mark: Optional[int],
        lost: bool,
    ) -> None:
        """The one replication decision after a hop's ``calls`` ran on
        ``node``, opened at ``mark`` (:meth:`_mutation_mark`).

        An in-process node names the bound servants its bus saw mutated
        since ``mark`` (:meth:`Node.changed_since`) — the hop's own
        dispatches and every nested delivery they made on the node,
        whatever partition the servant is in.  Each partition among
        them gets one narrowed sync; no names means one skip (every
        dispatch was a spec-declared read-only operation); an evicted
        window means one full sync per partition of the hop.  A
        concurrent mutating call on the same node can only flip a skip
        into a sync or widen the names (the safe direction); a mutating
        call always observes its own bump, so its sync is never
        skipped.

        A worker process has no bus here to report what a hop changed,
        so each partition with a call the read-only classification does
        not cover gets one full sync (one export round trip), and a hop
        of read-only calls one skip.  When the hop ``lost`` its
        transport, those partitions are marked for the next rebuild
        (:meth:`ReplicaManager.defer_sync`) instead."""
        replicas = self.replicas
        if mark is not None:
            changed = node.changed_since(mark)
            if changed:
                for partition, names in self._group_by_partition(changed).items():
                    replicas.sync_partition(partition, names, changed_on=node.name)
                return
            if changed is not None:
                replicas.note_skip()
                return
            partitions = [partition for _ref, _operation, partition in calls]
        else:
            partitions = [
                partition
                for ref, operation, partition in calls
                if operation not in self.read_only_ops.get(ref.type_name, ())
            ]
            if not partitions:
                replicas.note_skip()
                return
            if lost:
                replicas.defer_sync(partitions)
                return
        for partition in dict.fromkeys(partitions):
            replicas.sync_partition(partition)

    # -- wire hops (socket and process modes) -------------------------------------

    def _wire_dispatch(self, node: Union[Node, RemoteNode], envelope: Envelope):
        """Send one routed hop over the wire to ``node``'s listener,
        where :meth:`Node.serve` runs it.

        The hop sends the attempt's own envelope — its correlation id,
        QoS, binding and attempt counter, so a traced retry over sockets
        is recognizably the same logical call.  The attempt already set
        its target and object id and minted a fresh context; here its
        arguments are marshalled into pure wire values in place (proxies
        become references), which a QoS retry repeats as an identity
        copy.  A fault comes back as an error REPLY and re-raises here
        with its retryability intact, so the failover element and the
        QoS budget behave exactly as they do in process.
        """
        envelope.args = marshal(envelope.args, proxy_ref, root="args")
        envelope.kwargs = marshal(envelope.kwargs, proxy_ref, root="kwargs")
        return self._hydrate(
            node, self._socket_transport.roundtrip(node.name, envelope)
        )

    def _wire_batch(
        self,
        node: Union[Node, RemoteNode],
        calls: List[Tuple[ObjectRefData, str, tuple, dict]],
        context: Dict[str, Any],
        envelope: Envelope,
    ) -> List[Any]:
        """Send a batch's hop to ``node`` as one REQUEST frame, whose
        :data:`~repro.runtime.node.BATCH` envelope carries the member
        calls in wire values.  :meth:`Node.serve` answers with one
        outcome per member, ``{"result": value}`` or ``{"error": ...}``;
        each comes back as the member's value or its rebuilt error.  A
        fault of the whole frame raises, classified as for a single
        call's hop; a reply of any other shape raises
        :class:`~repro.errors.ProtocolError`, which is not retryable, so
        members whose effects already ran are never re-sent."""
        members = [
            [ref.object_id, ref.type_name, operation, list(args), kwargs]
            for ref, operation, args, kwargs in calls
        ]
        hop = Envelope(
            BATCH, BATCH, marshal(members, proxy_ref, root="batch"), {}, context,
            envelope.qos, envelope.correlation_id, node.name, attempt=envelope.attempt,
        )
        replies = self._socket_transport.roundtrip(node.name, hop)
        if type(replies) is not list or len(replies) != len(calls):
            raise ProtocolError(
                f"batch reply from {node.name!r} is not a list of "
                f"{len(calls)} outcomes, one per call"
            )
        outcomes = []
        for reply in replies:
            if type(reply) is not dict or list(reply) not in (["result"], ["error"]):
                raise ProtocolError(
                    f"batch reply from {node.name!r} holds an outcome that is "
                    f"neither a result nor an error: {reply!r}"
                )
            if "error" in reply:
                outcomes.append(error_from_wire(reply["error"]))
            else:
                outcomes.append(self._hydrate(node, reply["result"]))
        return outcomes

    def _hydrate(self, node: Union[Node, RemoteNode], value: Any) -> Any:
        """A wire result as an in-process hop returns it: hydrated
        through the owner's orb — except in process mode, where results
        stay wire values because the front-end hosts no servants."""
        if self.transport_mode == "process":
            return value
        return node.services.orb._from_wire(value)

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
            request_handler=node.serve,
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
        binding: str,
        operation: str,
        args: tuple,
        kwargs: Optional[dict],
        context: Optional[Dict[str, Any]],
        qos: QoS,
    ) -> Envelope:
        """Build one routed hop to the federation name ``binding``; every
        delivery attempt runs it through :meth:`_attempt`.

        The envelope carries the call's state: its partition, its
        context source (:meth:`_context_source`) and the trace headers
        captured here, on the caller's thread.  Its context is minted by
        each attempt, for the owner that attempt resolves.
        """
        node, ref = self.resolve(binding)
        if qos is DEFAULT_QOS:
            # spec-declared per-binding QoS default: applies only when
            # the caller did not state a policy (identity check — an
            # explicit QoS() equal to the default is still explicit)
            declared = self.qos_for(binding)
            if declared is not None:
                qos = declared
        tracer = self.observability.tracer
        envelope = Envelope(
            ref.object_id,
            operation,
            list(args),
            dict(kwargs or {}),
            qos=qos,
            target=node.name,
            binding=binding,
            label=f"{ref.type_name}.{operation}",
        )
        envelope.partition = ShardedNamingService.partition_key(binding)
        envelope.context_source = self._context_source(context)
        # captured on the caller's thread at build time: the active
        # span (a harness root span, or the bus span of the dispatch
        # this nested call was made from) becomes this hop's parent.
        # Inherited delivery contexts already carry the trace key.
        envelope.trace_headers = tracer.current_headers() if tracer.enabled else None
        return envelope

    def _attempt(self, envelope: Envelope):
        """One delivery attempt of a routed call.

        It enters the migration gate and re-resolves the owner — so
        queued envelopes and QoS retries land on the current primary
        even if the shard migrated or failed over since submission —
        mints the context afresh for that owner, and runs the chain into
        :meth:`_dispatch`, which on success replicates the touched
        servants' state to the partition's standbys.
        """
        partitions = [envelope.partition]
        gate = self._gate
        inflight = gate.enter(partitions)
        try:
            owner, ref = self.resolve(envelope.binding)
            envelope.owner = owner
            envelope.ref = ref
            envelope.target = owner.name
            envelope.object_id = ref.object_id
            envelope.context = context = self._mint_context(
                envelope.context_source, owner
            )
            if envelope.trace_headers is not None:
                context[TRACE_KEY] = envelope.trace_headers
            return self.chain.execute(envelope, self._dispatch)
        finally:
            gate.leave(partitions, inflight)

    def invoke(
        self,
        binding: str,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
    ):
        """Route one request to the owner of ``binding`` and execute it
        there, metered."""
        envelope = self._envelope(binding, operation, args, kwargs, context, qos)
        return self.transport.call(envelope, self._attempt)

    def invoke_async(
        self,
        binding: str,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
    ) -> ReplyFuture:
        """Route one request asynchronously; returns the reply future."""
        envelope = self._envelope(binding, operation, args, kwargs, context, qos)
        return self._submission_transport().submit(envelope, self._attempt)

    def oneway(
        self,
        binding: str,
        operation: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = ONEWAY_QOS,
    ) -> None:
        """Fire-and-forget delivery: at most one servant effect, no reply."""
        envelope = self._envelope(binding, operation, args, kwargs, context, qos)
        self._submission_transport().submit(envelope, self._attempt)

    def call(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ):
        """Invoke ``operation`` on the owner of ``name``."""
        return self.invoke(name, operation, args, kwargs, context, qos)

    def call_async(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
        **kwargs,
    ) -> ReplyFuture:
        return self.invoke_async(name, operation, args, kwargs, context, qos)

    def call_oneway(
        self,
        name: str,
        operation: str,
        *args,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = ONEWAY_QOS,
        **kwargs,
    ) -> None:
        self.oneway(name, operation, args, kwargs, context, qos)

    def pipeline(
        self,
        max_batch: int = 8,
        context: Optional[Dict[str, Any]] = None,
        qos: QoS = DEFAULT_QOS,
    ) -> "InvocationPipeline":
        """A batching client: consecutive same-node calls share one hop."""
        snapshot = None if context is None else dict(context)
        return InvocationPipeline(self, max_batch, snapshot, qos)

    # -- batched delivery ----------------------------------------------------------

    def _submit_batch(self, members: List[ReplyFuture], context, qos: QoS) -> None:
        """Route one node-batch as one envelope; every delivery attempt
        runs it through :meth:`_batch_attempt`, and the batch's final
        error fails its unsettled members (:meth:`_fail_unsettled`).

        Each member is a pipelined call's future, whose envelope holds
        the call.  The batch's envelope carries the batch's state: its
        members, the sorted partitions they name, its context source and
        the trace headers captured here, on the caller's thread."""
        tracer = self.observability.tracer
        envelope = Envelope(
            BATCH, BATCH, [member.envelope.label for member in members], {}, qos=qos,
            target=members[0].envelope.target,
        )
        envelope.context_source = self._context_source(context)
        envelope.trace_headers = tracer.current_headers() if tracer.enabled else None
        envelope.batch = members
        envelope.partitions = sorted(
            {ShardedNamingService.partition_key(member.envelope.binding) for member in members}
        )
        future = self._submission_transport().submit(envelope, self._batch_attempt)
        future.add_done_callback(self._fail_unsettled)

    def _batch_attempt(self, envelope: Envelope):
        """One delivery attempt of a pipelined batch, built like a single
        call's (:meth:`_attempt`).

        It enters the migration gate over the members' partitions,
        atomically, re-resolves every member whose future is not yet
        done, runs the chain once, and sends one hop per owner those
        members resolve to (:meth:`_send_batch`).  So a batch caught by
        a migration, a kill or an injected fault re-routes under its QoS
        retry budget as a single call does, and stays at-most-once: an
        attempt never re-sends a member whose future an earlier attempt
        completed."""
        partitions = envelope.partitions
        gate = self._gate
        inflight = gate.enter(partitions)
        try:
            hops: Dict[str, tuple] = {}
            for member in envelope.batch:
                if member.done():
                    continue
                try:
                    owner, ref = self.resolve(member.envelope.binding)
                except ReproError as exc:
                    member._fail(exc)
                    continue
                hops.setdefault(owner.name, (owner, []))[1].append((member, ref))
            if not hops:
                return None
            envelope.target = next(iter(hops))
            trace_headers = envelope.trace_headers
            envelope.context = (
                {} if trace_headers is None else {TRACE_KEY: trace_headers}
            )
            return self.chain.execute(envelope, functools.partial(self._send_batch, hops))
        finally:
            gate.leave(partitions, inflight)

    @staticmethod
    def _fail_unsettled(batch: ReplyFuture) -> None:
        """The batch's final error fails every member no attempt
        completed (failing a done future is a no-op)."""
        if batch._exception is not None:
            for member in batch.envelope.batch:
                member._fail(batch._exception)

    def _send_batch(self, hops: Dict[str, tuple], envelope: Envelope) -> None:
        """A batch attempt's routing terminal: one hop per owner —
        :meth:`Node.invoke_batch` in memory, one REQUEST frame
        (:meth:`_wire_batch`) over the wire — run through
        :meth:`_local_dispatch` like a single call's hop.  Each member
        is metered once under its own label and completed with its own
        outcome; a hop that raises leaves its members, and those of
        owners not yet visited, pending for a retried attempt."""
        for owner, members in hops.values():
            # the owner's context plus the per-attempt keys the chain
            # (tracing) stamped into the envelope's
            context = self._mint_context(envelope.context_source, owner)
            context.update(envelope.context)
            calls = [
                (ref, member.envelope.operation, member.envelope.args, member.envelope.kwargs)
                for member, ref in members
            ]
            if self._socket_transport is not None:
                hop = functools.partial(self._wire_batch, owner, calls, context, envelope)
            else:
                hop = functools.partial(owner.invoke_batch, calls, context)
            replicated = [
                (
                    ref, member.envelope.operation,
                    ShardedNamingService.partition_key(member.envelope.binding),
                )
                for member, ref in members
            ]
            with self._route_lock:
                self.batches[owner.name] = self.batches.get(owner.name, 0) + 1
            started = time.perf_counter()
            outcomes = self._local_dispatch(owner, replicated, hop)
            elapsed = time.perf_counter() - started
            for (member, _ref), outcome in zip(members, outcomes):
                failed = isinstance(outcome, Exception)
                self.metrics.record(member.envelope.label, owner.name, elapsed, error=failed)
                if failed:
                    member._fail(outcome)
                else:
                    member._complete(outcome)

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
        delivery = self._async.stats()
        if delivery["submitted"]:
            stats["async_transport"] = delivery
        return stats


class InvocationPipeline:
    """Client-side batching of consecutive same-node calls.

    ``call`` queues an invocation and returns its future immediately; a
    flush (explicit, on leaving the ``with`` block, or automatic once
    ``max_batch`` calls are queued) groups *consecutive* calls to the
    same node and ships each group as one envelope — one fault-injection
    site check and one hop latency per group, and over the wire one
    REQUEST frame — so a latency-bound client pays transport cost per
    batch instead of per call.

    Ordering: within one batch, calls against the *same servant* execute
    in program order; beyond that — across batches, across flushes, and
    for different servants inside a batch — deliveries may interleave
    freely, like independent network flows.  Callers with cross-batch or
    cross-servant ordering dependencies must await the earlier future
    (or use synchronous calls) before issuing the dependent call.

    Elastic behaviour: a batch is routed like a single call.  Shard
    migrations wait for it, and after a node kill its unfinished members
    re-route onto the promoted owners under the pipeline's QoS retry
    budget, with credentials minted against the new owner.
    """

    def __init__(
        self,
        federation: Federation,
        max_batch: int = 8,
        context: Any = None,
        qos: QoS = DEFAULT_QOS,
    ):
        if max_batch < 1:
            raise FederationError(f"pipeline batch must be >= 1, got {max_batch}")
        self.federation = federation
        self.max_batch = max_batch
        #: static, a provider, or None (see Federation._context_source)
        self.context = context
        self.qos = qos
        self._pending: List[ReplyFuture] = []

    def call(self, name: str, operation: str, *args, **kwargs) -> ReplyFuture:
        """Queue one call; its future's envelope holds it — the
        federation name (``binding``) every delivery attempt re-resolves,
        the owner resolved now (``target``), which groups it, and the
        pipeline's QoS, so ``future.result()`` honours the configured
        timeout."""
        node, ref = self.federation.resolve(name)
        future = ReplyFuture(
            Envelope(
                ref.object_id, operation, args, kwargs, qos=self.qos,
                target=node.name, binding=name, label=f"{ref.type_name}.{operation}",
            )
        )
        self._pending.append(future)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return future

    def flush(self) -> None:
        """Ship every queued call, grouped by consecutive target node."""
        pending, self._pending = self._pending, []
        batch: List[ReplyFuture] = []
        for future in pending:
            if batch and future.envelope.target != batch[0].envelope.target:
                self.federation._submit_batch(batch, self.context, self.qos)
                batch = []
            batch.append(future)
        if batch:
            self.federation._submit_batch(batch, self.context, self.qos)

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
        return self.federation.invoke(
            name, operation, args, kwargs, self._context_for, qos or self.default_qos
        )

    def call_async(
        self, name: str, operation: str, *args, qos: Optional[QoS] = None, **kwargs
    ) -> ReplyFuture:
        return self.federation.invoke_async(
            name, operation, args, kwargs, self._context_for, qos or self.default_qos
        )

    def oneway(
        self, name: str, operation: str, *args, qos: QoS = ONEWAY_QOS, **kwargs
    ) -> None:
        self.federation.oneway(name, operation, args, kwargs, self._context_for, qos)

    def pipeline(self, max_batch: int = 8, qos: QoS = DEFAULT_QOS) -> InvocationPipeline:
        """A batching view of this client (credentials attached per node)."""
        return InvocationPipeline(self.federation, max_batch, self._context_for, qos)
