"""The declarative deployment model: what a federation *should* look like.

A :class:`DeploymentSpec` is the middleware configuration reified as
data — the paper's "configure from declarative models" claim applied to
deployment itself.  Where the PR 1 pipeline declares *which concerns*
refine an application, the deployment spec declares *where and how the
refined application runs*:

* topology — :class:`NodeSpec` per federation member;
* state placement — :class:`PartitionSpec`/:class:`ServantSpec`: every
  named servant with its type, initial state, and read-only operation
  classification (the dispatch layer's mutation-tracking input);
* the application — :class:`ApplicationSpec`: a PIM source (builder name
  or XMI path) plus the ordered :class:`ConcernSpec` selections lowered
  through the configuration pipeline;
* policies — :class:`ReplicationSpec` (standby count, log snapshot
  threshold),
  :class:`FaultCampaignSpec` (site probabilities), named
  :class:`QoSProfile` s with per-binding defaults, and provisioned
  :class:`UserSpec` s.

Specs are **lossless JSON**: ``from_dict(to_dict(s)) == s``, and
:meth:`DeploymentSpec.digest` is a stable content hash (advisory fields
— the expected-owner hint on a partition — are excluded, since placement
is derived from consistent hashing, not declared).  Every record reads
and writes JSON by one rule, derived from its fields (:class:`_Record`);
only :class:`DeploymentSpec` (its ``format`` key) and
:class:`ReplicationSpec` (its accepted ``mode``) add to it.
``validate()`` checks referential integrity before anything is
materialized; the compiler (:mod:`repro.deploy.compiler`) turns a valid
spec into a live federation, and the reconciler
(:mod:`repro.deploy.reconcile`) turns a spec *difference* into an
ordered migration plan.
"""

# no ``from __future__ import annotations`` here: the codec reads each
# field's declared type from ``dataclasses.fields``, which must be the
# type itself, not its source text
import hashlib
import json
import math
from dataclasses import MISSING, InitVar, dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
)

from repro.errors import DeploymentError
from repro.middleware.envelope import QoS

SPEC_FORMAT = "repro-deployment-spec/1"

R = TypeVar("R", bound="_Record")

#: how one field travels: (attribute, JSON key, required, is a tuple,
#: to JSON, from JSON); a to-JSON converter of None passes the value
#: through
_Field = Tuple[str, str, bool, bool, Optional[Callable], Callable]


def _is_record(hint: Any) -> bool:
    return isinstance(hint, type) and issubclass(hint, _Record)


def _writer(hint: Any) -> Optional[Callable]:
    """A field's to-JSON converter, from its type: nested records in
    their own JSON form, tuples as lists, dicts copied."""
    if _is_record(hint):
        return lambda record: record.to_dict()
    origin = get_origin(hint)
    if origin is dict:
        return dict
    if origin is not tuple:
        return None
    if _is_record(get_args(hint)[0]):
        return lambda records: [record.to_dict() for record in records]
    return list


def _shown(value: Any) -> str:
    """A decoded JSON value as a refusal names it."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, (list, tuple)):
        return "an array"
    return json.dumps(value)


def _reader(hint: Any, where: str) -> Callable[[Any], Any]:
    """A field's from-JSON converter: it checks a value's JSON type
    against the field's declared type ``hint`` where it reads it, then
    converts it.

    A record or a dict needs an object (a record reads its own JSON
    form, a dict is copied); a tuple an array, whose items are read in
    turn; a string a string; an int or a float a number, never a
    boolean, and an int an integral one; a bool a boolean.  Null is
    read only for an ``Optional`` field.  A wrong type raises
    :class:`DeploymentError` naming ``where``: the record and the key.
    """
    if get_origin(hint) is Union:
        read = _reader(next(arg for arg in get_args(hint) if arg is not type(None)), where)
        return lambda value: None if value is None else read(value)

    def expect(value: Any, kinds: tuple, expected: str) -> Any:
        if not isinstance(value, kinds) or (
            isinstance(value, bool) and bool not in kinds
        ):
            raise DeploymentError(f"{where} must be {expected}, got {_shown(value)}")
        return value

    if _is_record(hint):
        return lambda value: hint.from_dict(expect(value, (dict,), "an object"))
    origin = get_origin(hint)
    if origin is dict:
        return lambda value: dict(expect(value, (dict,), "an object"))
    if origin is tuple:
        item = _reader(get_args(hint)[0], f"{where} item")
        return lambda value: tuple(map(item, expect(value, (list, tuple), "an array")))
    if hint is int:

        def read_int(value: Any) -> int:
            # JSON has one number type: 2.0 is as integral as 2
            integral = isinstance(value, float) and value.is_integer()
            return int(expect(value, (int, float) if integral else (int,), "an integer"))

        return read_int
    if hint is float:
        return lambda value: expect(value, (int, float), "a number")
    if hint is str:
        return lambda value: expect(value, (str,), "a string")
    if hint is bool:
        return lambda value: expect(value, (bool,), "a boolean")
    return lambda value: value


class _Record:
    """The one JSON codec every spec record inherits.

    A record is one JSON object with one key per field, in field order
    (a field's ``metadata["json"]`` renames its key).  Tuples travel as
    lists and dicts as shallow copies; a nested record travels in its
    own JSON form.  Reading, an absent key leaves the field's default,
    a missing required key raises ``KeyError(<json key>)``, and a value
    of the wrong JSON type raises :class:`DeploymentError`
    (:func:`_reader`).  The layout is derived from the dataclass fields
    once per class.
    """

    @classmethod
    def _layout(cls) -> Tuple[_Field, ...]:
        layout = cls.__dict__.get("_json_layout")
        if layout is None:
            layout = cls._json_layout = tuple(
                (
                    member.name,
                    key,
                    member.default is MISSING and member.default_factory is MISSING,
                    get_origin(member.type) is tuple,
                    _writer(member.type),
                    _reader(member.type, f"{cls.__name__} key {key!r}"),
                )
                for member in fields(cls)
                for key in (member.metadata.get("json", member.name),)
            )
        return layout

    def __post_init__(self) -> None:
        # constructors take any iterable for a tuple field (callers pass
        # lists); frozen dataclasses cannot assign it plainly
        for name, _key, _required, is_tuple, _out, _in in self._layout():
            if is_tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def to_dict(self) -> Dict[str, Any]:
        data = {}
        for name, key, _required, _is_tuple, out, _in in self._layout():
            value = getattr(self, name)
            data[key] = value if out is None else out(value)
        return data

    @classmethod
    def _init_args(cls, data: Dict[str, Any]) -> Dict[str, Any]:
        """The constructor keywords ``data`` declares."""
        args = {}
        for name, key, required, _is_tuple, _out, read in cls._layout():
            if key in data:
                args[name] = read(data[key])
            elif required:
                raise KeyError(key)
        return args

    @classmethod
    def from_dict(cls: Type[R], data: Dict[str, Any]) -> R:
        return cls(**cls._init_args(data))


@dataclass(frozen=True)
class QoSProfile(_Record):
    """A named quality-of-service policy (timeout / retry budget)."""

    name: str
    timeout_ms: Optional[float] = None
    retries: int = 0
    oneway: bool = False

    def to_qos(self) -> QoS:
        return QoS(
            oneway=self.oneway, timeout_ms=self.timeout_ms, retries=self.retries
        )


@dataclass(frozen=True)
class NodeSpec(_Record):
    """One federation member: a named ORB endpoint.

    ``workers == 0`` means serial dispatch (the deterministic baseline);
    ``seed`` parameterizes the node's private middleware services (fault
    RNG); ``None`` lets the compiler derive one from the spec seed.
    Where nodes run is the deployment-level ``transport``.
    """

    name: str
    workers: int = 0
    seed: Optional[int] = None


@dataclass(frozen=True)
class ServantSpec(_Record):
    """One named servant: type, initial state, operation classification.

    ``name`` is the full federation binding name
    (``<partition>/<Type>/<index>``); ``state`` is the constructor
    keyword dict (JSON-shaped — it travels in spec files and shard
    migrations); ``read_only_ops`` classifies operations whose dispatch
    mutates no servant state, which lets replication skip the sync for
    routed calls that touched nothing mutable; ``qos``
    names a :class:`QoSProfile` used as this binding's default policy.
    """

    name: str
    type_name: str = field(metadata={"json": "type"})
    state: Dict[str, Any] = field(default_factory=dict)
    read_only_ops: Tuple[str, ...] = ()
    qos: Optional[str] = None


@dataclass(frozen=True)
class PartitionSpec(_Record):
    """One co-location unit: the servants sharing a partition key.

    ``node`` is an *advisory* expected-owner hint (useful in extracted
    specs for drift inspection); ownership is always derived from the
    consistent-hash ring, so the hint is excluded from the digest and
    from structural diffs.
    """

    key: str
    servants: Tuple[ServantSpec, ...] = ()
    node: Optional[str] = None


@dataclass(frozen=True)
class ReplicationSpec(_Record):
    """Standby copies per partition (0 = replication disabled).

    Standbys replay a sequenced per-partition log of per-servant state
    deltas; ``snapshot_every`` is the log's truncation threshold: after
    that many retained entries the tail is folded into a base snapshot.

    ``mode`` is accepted, never stored: spec files and callers from when
    replication had a write-through mode may still say ``"full"`` or
    ``"log"``, and both mean the log.  Any other value is refused.
    """

    count: int = 0
    mode: InitVar[str] = "log"
    snapshot_every: int = 64

    def __post_init__(self, mode: str):
        if mode not in ("full", "log"):
            raise DeploymentError(
                f"replication mode must be 'full' or 'log', got {mode!r}"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReplicationSpec":
        # no field holds ``mode``, so the shared codec would drop it
        # unchecked
        return cls(mode=data.get("mode", "log"), **cls._init_args(data))


@dataclass(frozen=True)
class ObservabilitySpec(_Record):
    """The instrumentation knobs compiled onto a federation.

    ``sample_rate`` is the fraction of logical client calls traced when
    tracing is on (the run-level ``--trace`` switch decides *whether*;
    the spec decides *how much*); ``slow_call_ms`` flags spans at least
    that slow; the capacities bound the span ring buffer and the
    structured event log.  All four are live-tunable: the reconciler
    applies observability-only diffs to a running federation.  Old spec
    files without this section parse as the defaults.
    """

    sample_rate: float = 1.0
    slow_call_ms: float = 50.0
    event_log_capacity: int = 1024
    span_capacity: int = 4096


@dataclass(frozen=True)
class FaultSiteSpec(_Record):
    """One fault-injection site (pattern allowed) with its probability."""

    site: str
    probability: float


@dataclass(frozen=True)
class FaultCampaignSpec(_Record):
    """The declared fault campaign; ``armed`` decides whether the
    compiler actually configures the sites (scenarios arm it only for
    ``--faults`` runs, but the campaign itself is part of the spec)."""

    sites: Tuple[FaultSiteSpec, ...] = ()
    armed: bool = False

    def effective_sites(self) -> Tuple[FaultSiteSpec, ...]:
        """The sites that materialize on a deployed federation."""
        return self.sites if self.armed else ()


@dataclass(frozen=True)
class ConcernSpec(_Record):
    """One concern selection (the pipeline's ``Si``) in spec form."""

    concern: str
    params: Dict[str, Any] = field(default_factory=dict)
    after: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ApplicationSpec(_Record):
    """The application every node hosts: PIM source + concern plan.

    Exactly one of ``builder`` (a registered application-builder name;
    ``scenario:<name>`` resolves to that scenario's PIM) or
    ``model_xmi`` (path to an XMI model file) must be set.
    """

    name: str
    builder: Optional[str] = None
    model_xmi: Optional[str] = None
    concerns: Tuple[ConcernSpec, ...] = ()


@dataclass(frozen=True)
class UserSpec(_Record):
    """A provisioned principal (credential store entry on every node)."""

    name: str
    password: str
    roles: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DeploymentSpec(_Record):
    """The whole desired deployment, as one JSON-round-trippable value."""

    name: str
    application: ApplicationSpec
    nodes: Tuple[NodeSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    replication: ReplicationSpec = ReplicationSpec()
    faults: FaultCampaignSpec = FaultCampaignSpec()
    users: Tuple[UserSpec, ...] = ()
    qos_profiles: Tuple[QoSProfile, ...] = ()
    client_qos: Optional[str] = None
    observability: ObservabilitySpec = ObservabilitySpec()
    sim_latency_ms: float = 0.5
    real_latency_ms: float = 0.0
    delivery_workers: int = 2
    seed: int = 0
    #: how routed hops travel ("inproc", "socket", or "process" — one
    #: worker process per node); the default is omitted from the
    #: serialized form and the digest, so a spec that never mentions
    #: transports hashes exactly as before
    transport: str = "inproc"

    # -- introspection ----------------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return [node.name for node in self.nodes]

    def servants(self) -> List[Tuple[str, ServantSpec]]:
        """Every (partition key, servant spec) pair, in declaration order."""
        return [
            (partition.key, servant)
            for partition in self.partitions
            for servant in partition.servants
        ]

    def profile(self, name: str) -> QoSProfile:
        for profile in self.qos_profiles:
            if profile.name == name:
                return profile
        raise DeploymentError(f"spec {self.name!r} has no QoS profile {name!r}")

    def read_only_by_type(self) -> Dict[str, frozenset]:
        """Read-only operations unioned per servant type — the bus-level
        classification granularity (migrated and promoted servant copies
        keep their classification because it follows the type)."""
        merged: Dict[str, set] = {}
        for _partition, servant in self.servants():
            merged.setdefault(servant.type_name, set()).update(
                servant.read_only_ops
            )
        return {name: frozenset(ops) for name, ops in merged.items()}

    # -- validation ---------------------------------------------------------------

    def problems(self) -> List[str]:
        """Every referential-integrity violation (empty = valid)."""
        problems: List[str] = []
        if not self.name:
            problems.append("spec name must be non-empty")
        if not self.nodes:
            problems.append("spec declares no nodes")
        node_names = [node.name for node in self.nodes]
        for name in sorted({n for n in node_names if node_names.count(n) > 1}):
            problems.append(f"duplicate node name {name!r}")
        for node in self.nodes:
            if node.workers < 0:
                problems.append(
                    f"node {node.name!r}: workers must be >= 0, "
                    f"got {node.workers}"
                )
        app = self.application
        if (app.builder is None) == (app.model_xmi is None):
            problems.append(
                f"application {app.name!r} must set exactly one of "
                "'builder' or 'model_xmi'"
            )
        concern_names = [concern.concern for concern in app.concerns]
        for name in sorted(
            {c for c in concern_names if concern_names.count(c) > 1}
        ):
            problems.append(f"duplicate concern selection {name!r}")
        for concern in app.concerns:
            for dep in concern.after:
                if dep not in concern_names:
                    problems.append(
                        f"concern {concern.concern!r} is ordered after "
                        f"unknown concern {dep!r}"
                    )
        profile_names = [profile.name for profile in self.qos_profiles]
        for name in sorted(
            {p for p in profile_names if profile_names.count(p) > 1}
        ):
            problems.append(f"duplicate QoS profile {name!r}")
        if self.client_qos is not None and self.client_qos not in profile_names:
            problems.append(
                f"client_qos references unknown QoS profile {self.client_qos!r}"
            )
        known_nodes = set(node_names)
        seen_partitions: set = set()
        seen_servants: set = set()
        for partition in self.partitions:
            if not partition.key or "/" in partition.key:
                problems.append(
                    f"partition key {partition.key!r} must be a non-empty "
                    "single path segment"
                )
            if partition.key in seen_partitions:
                problems.append(f"duplicate partition key {partition.key!r}")
            seen_partitions.add(partition.key)
            if partition.node is not None and partition.node not in known_nodes:
                problems.append(
                    f"partition {partition.key!r} names unknown node "
                    f"{partition.node!r}"
                )
            for servant in partition.servants:
                if servant.name in seen_servants:
                    problems.append(f"duplicate servant name {servant.name!r}")
                seen_servants.add(servant.name)
                if not servant.name.startswith(f"{partition.key}/"):
                    problems.append(
                        f"servant {servant.name!r} is not under its "
                        f"partition key {partition.key!r}"
                    )
                if not servant.type_name:
                    problems.append(
                        f"servant {servant.name!r} has an empty type name"
                    )
                if servant.qos is not None and servant.qos not in profile_names:
                    problems.append(
                        f"servant {servant.name!r} references unknown QoS "
                        f"profile {servant.qos!r}"
                    )
                try:
                    round_tripped = json.loads(json.dumps(servant.state))
                except (TypeError, ValueError):
                    problems.append(
                        f"servant {servant.name!r} state is not JSON-shaped"
                    )
                else:
                    if round_tripped != servant.state:
                        problems.append(
                            f"servant {servant.name!r} state does not "
                            "survive a JSON round-trip"
                        )
        if self.replication.count < 0:
            problems.append(
                f"replication count must be >= 0, got {self.replication.count}"
            )
        elif self.replication.count >= max(len(self.nodes), 1):
            if self.replication.count > 0:
                problems.append(
                    f"replication count {self.replication.count} must be "
                    f"smaller than the node count {len(self.nodes)} "
                    "(every standby needs a distinct successor node)"
                )
        if self.replication.snapshot_every < 1:
            problems.append(
                f"replication snapshot_every must be >= 1, "
                f"got {self.replication.snapshot_every}"
            )
        fault_sites = [site.site for site in self.faults.sites]
        for name in sorted({s for s in fault_sites if fault_sites.count(s) > 1}):
            problems.append(f"duplicate fault site {name!r}")
        for site in self.faults.sites:
            if not 0.0 <= site.probability <= 1.0:
                problems.append(
                    f"fault site {site.site!r}: probability "
                    f"{site.probability} out of [0, 1]"
                )
        user_names = [user.name for user in self.users]
        for name in sorted({u for u in user_names if user_names.count(u) > 1}):
            problems.append(f"duplicate user {name!r}")
        if not 0.0 <= self.observability.sample_rate <= 1.0:
            problems.append(
                f"observability sample_rate {self.observability.sample_rate} "
                "out of [0, 1]"
            )
        if self.observability.slow_call_ms < 0:
            problems.append(
                f"observability slow_call_ms must be >= 0, "
                f"got {self.observability.slow_call_ms}"
            )
        if self.observability.event_log_capacity < 1:
            problems.append(
                f"observability event_log_capacity must be >= 1, "
                f"got {self.observability.event_log_capacity}"
            )
        if self.observability.span_capacity < 1:
            problems.append(
                f"observability span_capacity must be >= 1, "
                f"got {self.observability.span_capacity}"
            )
        if self.sim_latency_ms < 0 or self.real_latency_ms < 0:
            problems.append("latencies must be >= 0")
        for field_name in ("sim_latency_ms", "real_latency_ms"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                problems.append(f"{field_name} must be finite, got {value}")
        if self.delivery_workers < 1:
            problems.append(
                f"delivery_workers must be >= 1, got {self.delivery_workers}"
            )
        transports = ("inproc", "socket", "process")
        if self.transport not in transports:
            problems.append(
                f"transport must be one of {transports}, got {self.transport!r}"
            )
        return problems

    def validate(self) -> "DeploymentSpec":
        """Raise :class:`DeploymentError` listing every violation."""
        problems = self.problems()
        if problems:
            raise DeploymentError(
                f"deployment spec {self.name!r} is invalid:\n  - "
                + "\n  - ".join(problems)
            )
        return self

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON form (``from_dict`` restores an equal spec)."""
        data = {"format": SPEC_FORMAT, **super().to_dict()}
        if self.transport == "inproc":
            # omit-when-default: transport choice must not perturb the
            # digest of a spec that never mentions it
            del data["transport"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeploymentSpec":
        if not isinstance(data, dict):
            raise DeploymentError(
                f"deployment spec must be a JSON object, got {type(data).__name__}"
            )
        declared = data.get("format", SPEC_FORMAT)
        if declared != SPEC_FORMAT:
            raise DeploymentError(
                f"unsupported spec format {declared!r} (expected {SPEC_FORMAT!r})"
            )
        try:
            return super().from_dict(data)
        except KeyError as exc:
            raise DeploymentError(
                f"deployment spec is missing required key {exc.args[0]!r}"
            ) from None

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeploymentError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- identity -----------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The digest input: ``to_dict`` minus advisory placement hints
        (partition ``node`` is derived from the ring, not declared)."""
        data = self.to_dict()
        for partition in data["partitions"]:
            partition.pop("node", None)
        return data

    def digest(self) -> str:
        """Stable content hash of the declared deployment."""
        canon = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """A short human summary (the CLI's --check output)."""
        servant_count = sum(len(p.servants) for p in self.partitions)
        lines = [
            f"deployment spec {self.name!r}:",
            f"  application: {self.application.name} "
            f"({'builder ' + repr(self.application.builder) if self.application.builder else 'xmi ' + repr(self.application.model_xmi)}, "
            f"{len(self.application.concerns)} concern(s))",
            f"  nodes:       {len(self.nodes)} "
            f"({', '.join(self.node_names)})",
            f"  partitions:  {len(self.partitions)} "
            f"({servant_count} servant(s))",
            f"  replication: {self.replication.count} standby(s)/partition"
            + (
                f" (snapshot every {self.replication.snapshot_every})"
                if self.replication.count
                else ""
            ),
            f"  faults:      {len(self.faults.sites)} site(s), "
            f"{'armed' if self.faults.armed else 'disarmed'}",
            f"  users:       {len(self.users)}",
            f"  qos:         {len(self.qos_profiles)} profile(s)"
            + (f", client default {self.client_qos!r}" if self.client_qos else ""),
            f"  observe:     sample {self.observability.sample_rate:.0%}, "
            f"slow >= {self.observability.slow_call_ms:g} ms, "
            f"events <= {self.observability.event_log_capacity}, "
            f"spans <= {self.observability.span_capacity}",
            f"  digest:      {self.digest()}",
        ]
        return "\n".join(lines)
