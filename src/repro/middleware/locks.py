"""Strict two-phase lock manager with deadlock detection.

Locks are held until the owning transaction releases them all (strict
2PL — the transaction manager releases at commit/rollback).  A request
that cannot be granted never blocks: it either detects a deadlock through
the wait-for graph (a transaction that waits on itself, directly or
transitively) and raises :class:`~repro.errors.DeadlockError`, or raises
:class:`~repro.errors.LockTimeoutError` to model a would-block conflict
the caller may retry.  The table itself is guarded by a mutex so the
concurrent dispatcher's worker threads see consistent state; because the
protocol raises instead of waiting, the mutex cannot participate in a
deadlock cycle.
"""

from __future__ import annotations

import enum
from typing import Dict, Set

from repro.analysis.witness import named_rlock
from repro.errors import DeadlockError, LockTimeoutError


class LockMode(enum.Enum):
    READ = "read"
    WRITE = "write"


class _LockEntry:
    __slots__ = ("mode", "holders")

    def __init__(self, mode: LockMode):
        self.mode = mode
        self.holders: Set[str] = set()


class LockManager:
    """Lock table keyed by arbitrary string resource keys."""

    def __init__(self):
        self._table: Dict[str, _LockEntry] = {}
        self._held_by_tx: Dict[str, Set[str]] = {}
        #: wait-for graph: refused transaction -> the holders it waited on
        self._waits_for: Dict[str, Set[str]] = {}
        # one mutex guards the whole lock table: acquire/release from
        # concurrent dispatcher workers must see a consistent table and
        # wait-for graph (the 2PL protocol itself never blocks — it
        # raises — so a plain mutex cannot deadlock here)
        self._mutex = named_rlock("locks.table")
        #: statistics for the lock-contention benchmark
        self.grants = 0
        self.conflicts = 0
        self.deadlocks = 0

    # -- acquisition -----------------------------------------------------------

    def acquire(self, txid: str, key: str, mode: LockMode) -> None:
        """Grant ``mode`` on ``key`` to ``txid`` or raise on conflict."""
        with self._mutex:
            self._acquire_locked(txid, key, mode)

    def _acquire_locked(self, txid: str, key: str, mode: LockMode) -> None:
        entry = self._table.get(key)
        if entry is None:
            entry = _LockEntry(mode)
            entry.holders.add(txid)
            self._table[key] = entry
            self._held_by_tx.setdefault(txid, set()).add(key)
            self.grants += 1
            return
        if txid in entry.holders:
            if mode is LockMode.WRITE and entry.mode is LockMode.READ:
                if entry.holders == {txid}:
                    entry.mode = LockMode.WRITE  # upgrade
                    self.grants += 1
                    return
                self._conflict(txid, entry.holders - {txid}, key)
            self.grants += 1  # re-entrant grant
            return
        if mode is LockMode.READ and entry.mode is LockMode.READ:
            entry.holders.add(txid)
            self._held_by_tx.setdefault(txid, set()).add(key)
            self.grants += 1
            return
        self._conflict(txid, entry.holders, key)

    def _conflict(self, txid: str, holders: Set[str], key: str) -> None:
        """Register wait edges, detect deadlock, raise the right error."""
        self.conflicts += 1
        self._waits_for.setdefault(txid, set()).update(holders)
        if self._waits_on_itself(txid):
            self.deadlocks += 1
            self._forget_waits(txid)
            raise DeadlockError(
                f"transaction {txid} deadlocked acquiring {key!r} "
                f"(held by {sorted(holders)})"
            )
        raise LockTimeoutError(
            f"transaction {txid} would block acquiring {key!r} "
            f"(held by {sorted(holders)})"
        )

    def _waits_on_itself(self, txid: str) -> bool:
        """True when ``txid`` lies on a cycle of the wait-for graph."""
        seen: Set[str] = set()
        pending = list(self._waits_for.get(txid, ()))
        while pending:
            waited_on = pending.pop()
            if waited_on == txid:
                return True
            if waited_on not in seen:
                seen.add(waited_on)
                pending.extend(self._waits_for.get(waited_on, ()))
        return False

    def _forget_waits(self, txid: str) -> None:
        """Drop ``txid`` from the wait-for graph, as waiter and as holder."""
        self._waits_for.pop(txid, None)
        for holders in self._waits_for.values():
            holders.discard(txid)

    # -- release ------------------------------------------------------------------

    def release_all(self, txid: str) -> int:
        """Release every lock of ``txid`` (commit/rollback); returns the count."""
        with self._mutex:
            return self._release_all_locked(txid)

    def _release_all_locked(self, txid: str) -> int:
        keys = self._held_by_tx.pop(txid, set())
        for key in keys:
            entry = self._table.get(key)
            if entry is None:
                continue
            entry.holders.discard(txid)
            if not entry.holders:
                del self._table[key]
        # waits on txid are now resolvable
        self._forget_waits(txid)
        return len(keys)

    # -- queries ---------------------------------------------------------------------

    def holders_of(self, key: str) -> Set[str]:
        with self._mutex:
            entry = self._table.get(key)
            return set(entry.holders) if entry else set()

    def mode_of(self, key: str):
        with self._mutex:
            entry = self._table.get(key)
            return entry.mode if entry else None

    def locks_held(self, txid: str) -> Set[str]:
        with self._mutex:
            return set(self._held_by_tx.get(txid, set()))
