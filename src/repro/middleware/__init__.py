"""S10 — Simulated middleware substrate.

The paper's concerns — distribution, transactions, security — are
*middleware services*.  Real CORBA/J2EE infrastructure is unavailable (and
out of scope for a laptop reproduction), so this package implements an
in-process equivalent that exercises the same code paths the generated
concrete aspects target (see the substitution table in DESIGN.md):

* :mod:`repro.middleware.clock` — logical simulation clock;
* :mod:`repro.middleware.faults` — deterministic fault injection;
* :mod:`repro.middleware.envelope` — envelopes (the call itself, its
  correlation id, propagated context and QoS policy), reply futures,
  and the ordered interceptor-chain element pipeline every delivery
  runs through;
* :mod:`repro.middleware.transport` — pluggable transports: in-process
  synchronous and queued-asynchronous (delivery threads);
* :mod:`repro.middleware.bus` — message bus with pass-by-value
  marshalling, latency accounting and delivery statistics;
* :mod:`repro.middleware.naming` — naming service (bind/resolve);
* :mod:`repro.middleware.rpc` — object request broker with dynamic
  proxies, remote object references, and client/server interceptors;
* :mod:`repro.middleware.locks` — strict two-phase lock manager with
  wait-for-graph deadlock detection;
* :mod:`repro.middleware.txn` — flat transaction manager with two-phase
  commit over enlisted resources and object-snapshot resources;
* :mod:`repro.middleware.security` — principals, credential store,
  authentication, ACL-based access control, audit log.
"""

from repro.middleware.clock import SimClock
from repro.middleware.faults import FaultInjector, FaultSpec
from repro.middleware.bus import MessageBus
from repro.middleware.envelope import (
    DEFAULT_QOS,
    ONEWAY_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
    current_delivery_context,
)
from repro.middleware.transport import (
    InProcessTransport,
    QueuedTransport,
    Transport,
)
from repro.middleware.naming import NamingService
from repro.middleware.rpc import ObjectRef, Orb, RemoteProxy
from repro.middleware.locks import LockManager, LockMode
from repro.middleware.txn import (
    ObjectSnapshotResource,
    Transaction,
    TransactionManager,
    TransactionStatus,
)
from repro.middleware.security import (
    AccessController,
    Acl,
    AuditLog,
    AuthenticationService,
    Credential,
    CredentialStore,
    Principal,
)

__all__ = [
    "SimClock",
    "FaultInjector",
    "FaultSpec",
    "MessageBus",
    "Envelope",
    "QoS",
    "DEFAULT_QOS",
    "ONEWAY_QOS",
    "ReplyFuture",
    "InterceptorChain",
    "current_delivery_context",
    "Transport",
    "InProcessTransport",
    "QueuedTransport",
    "NamingService",
    "Orb",
    "ObjectRef",
    "RemoteProxy",
    "LockManager",
    "LockMode",
    "TransactionManager",
    "Transaction",
    "TransactionStatus",
    "ObjectSnapshotResource",
    "Principal",
    "Credential",
    "CredentialStore",
    "AuthenticationService",
    "Acl",
    "AccessController",
    "AuditLog",
]
