"""Security service: principals, authentication, ACLs, audit.

The security concern's generated aspect authenticates callers and guards
protected operations through :class:`AccessController`.  Credentials are
bearer tokens with a simulated-clock expiry; authorization is role- or
user-based ACL entries with ``fnmatch`` resource patterns, deny by
default; every decision is recorded in the :class:`AuditLog`.
"""

from __future__ import annotations

import fnmatch
import hashlib
import itertools
import os
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import AccessDeniedError, AuthenticationError, SecurityError
from repro.middleware.clock import SimClock

_token_counter = itertools.count(1)


@dataclass(frozen=True)
class Principal:
    """An authenticated identity with a role set."""

    name: str
    roles: FrozenSet[str] = frozenset()

    def has_role(self, role: str) -> bool:
        return role in self.roles


@dataclass(frozen=True)
class Credential:
    """A bearer token bound to a principal, valid until ``expires_at``."""

    token: str
    principal: Principal
    expires_at: float


class CredentialStore:
    """Username → salted-hash password store with role assignments."""

    def __init__(self):
        self._users: Dict[str, Tuple[bytes, bytes, FrozenSet[str]]] = {}

    @staticmethod
    def _hash(password: str, salt: bytes) -> bytes:
        return hashlib.sha256(salt + password.encode("utf-8")).digest()

    def add_user(self, name: str, password: str, roles: Iterable[str] = ()) -> None:
        if name in self._users:
            raise SecurityError(f"user {name!r} already exists")
        salt = os.urandom(16)
        self._users[name] = (salt, self._hash(password, salt), frozenset(roles))

    def remove_user(self, name: str) -> None:
        self._users.pop(name, None)

    def verify(self, name: str, password: str) -> Principal:
        record = self._users.get(name)
        if record is None:
            raise AuthenticationError(f"unknown user {name!r}")
        salt, digest, roles = record
        if self._hash(password, salt) != digest:
            raise AuthenticationError(f"bad password for user {name!r}")
        return Principal(name, roles)


class AuthenticationService:
    """Issues and validates expiring credentials against a store."""

    def __init__(
        self,
        store: CredentialStore,
        clock: Optional[SimClock] = None,
        ttl_ms: float = 60_000.0,
    ):
        self.store = store
        self.clock = clock or SimClock()
        self.ttl_ms = ttl_ms
        self._active: Dict[str, Credential] = {}

    def login(self, name: str, password: str) -> Credential:
        principal = self.store.verify(name, password)
        credential = Credential(
            token=f"tok-{next(_token_counter)}",
            principal=principal,
            expires_at=self.clock.now() + self.ttl_ms,
        )
        self._active[credential.token] = credential
        return credential

    def validate(self, token: Optional[str]) -> Credential:
        if not token:
            raise AuthenticationError("no credentials supplied")
        credential = self._active.get(token)
        if credential is None:
            raise AuthenticationError("unknown or revoked token")
        if self.clock.now() >= credential.expires_at:
            del self._active[token]
            raise AuthenticationError("credential expired")
        return credential

    def logout(self, token: str) -> None:
        self._active.pop(token, None)


@dataclass(frozen=True)
class AclEntry:
    subject: str          #: ``user:alice`` or ``role:teller``
    resource_pattern: str
    actions: FrozenSet[str]


class Acl:
    """Deny-by-default access-control list."""

    def __init__(self):
        self._entries: List[AclEntry] = []

    def allow_user(self, user: str, resource_pattern: str, actions: Iterable[str]) -> None:
        self._entries.append(AclEntry(f"user:{user}", resource_pattern, frozenset(actions)))

    def allow_role(self, role: str, resource_pattern: str, actions: Iterable[str]) -> None:
        self._entries.append(AclEntry(f"role:{role}", resource_pattern, frozenset(actions)))

    def permits(self, principal: Principal, resource: str, action: str) -> bool:
        subjects: Set[str] = {f"user:{principal.name}"}
        subjects.update(f"role:{role}" for role in principal.roles)
        for entry in self._entries:
            if entry.subject not in subjects:
                continue
            if action not in entry.actions and "*" not in entry.actions:
                continue
            if fnmatch.fnmatchcase(resource, entry.resource_pattern):
                return True
        return False


@dataclass(frozen=True)
class AuditRecord:
    # slotted: the trail keeps one record per access decision for the
    # life of the process, so each must stay a few words
    __slots__ = ("timestamp", "principal", "resource", "action", "outcome")

    timestamp: float
    principal: str
    resource: str
    action: str
    outcome: str  #: ``allow`` | ``deny`` | ``auth-failure``


class AuditLog:
    """Append-only audit trail of access decisions."""

    def __init__(self):
        self.records: List[AuditRecord] = []

    def record(self, timestamp, principal, resource, action, outcome) -> None:
        # callers build the resource per call (``Class.member``); the
        # trail holds one shared copy of each
        self.records.append(
            AuditRecord(timestamp, principal, sys.intern(resource), action, outcome)
        )

    def denials(self) -> List[AuditRecord]:
        return [r for r in self.records if r.outcome != "allow"]

    def for_principal(self, name: str) -> List[AuditRecord]:
        return [r for r in self.records if r.principal == name]


class AccessController:
    """Authentication + authorization + audit in one check."""

    def __init__(
        self,
        auth: AuthenticationService,
        acl: Acl,
        audit: Optional[AuditLog] = None,
    ):
        self.auth = auth
        self.acl = acl
        self.audit = audit or AuditLog()

    def check_access(self, token: Optional[str], resource: str, action: str) -> Principal:
        """Validate the token and the permission; raises on either failure."""
        clock = self.auth.clock
        try:
            credential = self.auth.validate(token)
        except AuthenticationError:
            self.audit.record(clock.now(), "<anonymous>", resource, action, "auth-failure")
            raise
        principal = credential.principal
        if not self.acl.permits(principal, resource, action):
            self.audit.record(clock.now(), principal.name, resource, action, "deny")
            raise AccessDeniedError(
                f"{principal.name} may not {action} on {resource}"
            )
        self.audit.record(clock.now(), principal.name, resource, action, "allow")
        return principal
