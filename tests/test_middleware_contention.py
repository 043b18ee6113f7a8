"""Locks and faults under contention; thread-local transaction state.

The satellite coverage for the concurrent dispatcher's foundations:
the lock manager must stay consistent when hammered from worker threads,
fault injection must replay deterministically for a fixed seed and honor
pattern sites, the transaction manager's current-transaction tracking
must be invisible across threads, and envelope context (transaction id,
credentials) must survive every invocation style — synchronous, async
reply futures, oneway deliveries, and cross-node nested dispatch.
"""

import threading

import pytest

from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    MiddlewareError,
    TransactionError,
)
from repro.middleware import (
    FaultInjector,
    LockManager,
    LockMode,
    Orb,
    TransactionManager,
)


# ---------------------------------------------------------------------------
# lock manager under contention
# ---------------------------------------------------------------------------


class TestLockContention:
    def test_write_lock_is_exclusive_across_threads(self):
        locks = LockManager()
        holding = {"flag": False}
        violations = []
        timeouts = [0]
        counter = [0]
        counter_lock = threading.Lock()

        def worker():
            for _ in range(200):
                with counter_lock:
                    counter[0] += 1
                    txid = f"t{counter[0]}"
                try:
                    locks.acquire(txid, "hot", LockMode.WRITE)
                except LockTimeoutError:
                    timeouts[0] += 1
                    continue
                if holding["flag"]:
                    violations.append(txid)
                holding["flag"] = True
                holding["flag"] = False
                locks.release_all(txid)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not violations, f"write lock held twice: {violations[:3]}"
        assert locks.holders_of("hot") == set()
        assert locks.grants + locks.conflicts >= 800

    def test_read_locks_share_write_upgrades_conflict(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.READ)
        locks.acquire("t2", "k", LockMode.READ)
        assert locks.holders_of("k") == {"t1", "t2"}
        with pytest.raises(LockTimeoutError):
            locks.acquire("t1", "k", LockMode.WRITE)
        locks.release_all("t2")
        locks.acquire("t1", "k", LockMode.WRITE)
        assert locks.mode_of("k") is LockMode.WRITE

    def test_deadlock_detected_in_cross_order(self):
        locks = LockManager()
        locks.acquire("t1", "a", LockMode.WRITE)
        locks.acquire("t2", "b", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t1", "b", LockMode.WRITE)
        with pytest.raises(DeadlockError):
            locks.acquire("t2", "a", LockMode.WRITE)
        assert locks.deadlocks == 1

    def test_release_unblocks_waiters(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "k", LockMode.WRITE)
        locks.release_all("t1")
        locks.acquire("t2", "k", LockMode.WRITE)
        assert locks.holders_of("k") == {"t2"}

    def test_concurrent_disjoint_keys_stay_consistent(self):
        locks = LockManager()
        errors = []

        def worker(i):
            txid = f"w{i}"
            try:
                for r in range(100):
                    for key in (f"k{i}-a", f"k{i}-b"):
                        locks.acquire(txid, key, LockMode.WRITE)
                    assert locks.locks_held(txid) == {f"k{i}-a", f"k{i}-b"}
                    locks.release_all(txid)
            except Exception as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(not locks.locks_held(f"w{i}") for i in range(4))


# ---------------------------------------------------------------------------
# fault injector: determinism, wildcards, thread-safety
# ---------------------------------------------------------------------------


class TestFaultDeterminism:
    def _trace(self, seed, checks=200, probability=0.2):
        injector = FaultInjector(seed)
        injector.configure("bus.deliver", probability)
        outcomes = []
        for _ in range(checks):
            try:
                injector.check("bus.deliver")
            except MiddlewareError:
                outcomes.append(True)
            else:
                outcomes.append(False)
        return outcomes

    def test_same_seed_replays_identically(self):
        assert self._trace(42) == self._trace(42)

    def test_different_seeds_diverge(self):
        assert self._trace(1) != self._trace(2)

    def test_counters_match_trace(self):
        injector = FaultInjector(7)
        injector.configure("txn.prepare", 0.5)
        fired = 0
        for _ in range(100):
            try:
                injector.check("txn.prepare")
            except MiddlewareError:
                fired += 1
        assert injector.injected["txn.prepare"] == fired
        assert fired > 0


class TestFaultWildcards:
    def test_pattern_site_matches_layer(self):
        injector = FaultInjector()
        injector.configure("bus.*", 1.0)
        with pytest.raises(MiddlewareError):
            injector.check("bus.deliver")
        with pytest.raises(MiddlewareError):
            injector.check("bus.marshal")
        injector.check("txn.prepare")  # other layers untouched

    def test_exact_site_takes_precedence_over_pattern(self):
        injector = FaultInjector()
        injector.configure("bus.*", 1.0)
        injector.configure("bus.deliver", 0.0)
        injector.check("bus.deliver")  # exact 0.0 wins
        with pytest.raises(MiddlewareError):
            injector.check("bus.other")

    def test_injected_counters_use_concrete_site(self):
        injector = FaultInjector()
        injector.configure("bus.*", 1.0)
        for _ in range(2):
            with pytest.raises(MiddlewareError):
                injector.check("bus.deliver")
        with pytest.raises(MiddlewareError):
            injector.check("bus.flush")
        assert injector.injected == {"bus.deliver": 2, "bus.flush": 1}

    def test_scripted_pattern_fail_next(self):
        injector = FaultInjector()
        injector.fail_next("txn.*", count=2)
        with pytest.raises(MiddlewareError):
            injector.check("txn.prepare")
        with pytest.raises(MiddlewareError):
            injector.check("txn.commit")
        injector.check("txn.prepare")  # budget exhausted

    def test_pattern_uses_configured_exception(self):
        class Boom(MiddlewareError):
            pass

        injector = FaultInjector()
        injector.configure("naming.*", 1.0, exception=Boom)
        with pytest.raises(Boom):
            injector.check("naming.resolve")

    def test_clear_removes_pattern(self):
        injector = FaultInjector()
        injector.configure("bus.*", 1.0)
        injector.clear("bus.*")
        injector.check("bus.deliver")

    def test_thread_safety_counts_are_exact(self):
        injector = FaultInjector(3)
        injector.configure("hot.site", 0.5)
        fired = [0] * 4

        def worker(i):
            for _ in range(500):
                try:
                    injector.check("hot.site")
                except MiddlewareError:
                    fired[i] += 1

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert injector.injected["hot.site"] == sum(fired)
        assert 0 < sum(fired) < 2000


# ---------------------------------------------------------------------------
# thread-local transaction and context state
# ---------------------------------------------------------------------------


class TestThreadLocalState:
    def test_transactions_are_invisible_across_threads(self):
        manager = TransactionManager()
        seen = {}
        gate = threading.Barrier(2)

        def worker(name):
            with manager.transaction() as tx:
                gate.wait(timeout=5)
                seen[name] = (manager.current() is tx, tx.txid)
                gate.wait(timeout=5)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen["w0"][0] and seen["w1"][0]
        assert seen["w0"][1] != seen["w1"][1]
        assert manager.current() is None
        assert manager.commits == 2

    def test_commit_from_wrong_thread_rejected(self):
        manager = TransactionManager()
        tx = manager.begin()
        error = []

        def other():
            try:
                manager.commit(tx)
            except TransactionError as exc:
                error.append(exc)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        assert error, "commit on a foreign thread must not find the tx current"
        manager.rollback(tx)

    def _probe_federation(self):
        """Two nodes with plain servants: a relay on one node calling a
        probe on the other through the federation."""
        from repro.runtime import Federation

        federation = Federation(seed=0)
        node_a = federation.join("node-a")
        node_b = federation.join("node-b")
        # partition keys owned by each node (found by hashing)
        key_a = next(
            f"p{i}" for i in range(100)
            if federation.node_for(f"p{i}") is node_a
        )
        key_b = next(
            f"p{i}" for i in range(100)
            if federation.node_for(f"p{i}") is node_b
        )
        seen = {}

        class Probe:
            def __init__(self, orb):
                self.orb = orb

            def who(self):
                ctx = self.orb.current_context()
                seen["credentials"] = ctx.get("credentials")
                seen["txn_id"] = ctx.get("txn_id")
                return "probed"

        class Relay:
            def relay(self):
                # no explicit context: the nested hop must inherit the
                # delivery context of the request being served
                return federation.call(f"{key_b}/Probe/0", "who")

        node_a.bind(f"{key_a}/Relay/0", Relay())
        node_b.bind(f"{key_b}/Probe/0", Probe(node_b.services.orb))
        return federation, key_a, seen

    def test_context_survives_cross_node_nested_dispatch(self):
        federation, key_a, seen = self._probe_federation()
        try:
            result = federation.call(
                f"{key_a}/Relay/0",
                "relay",
                context={"credentials": "tok-3", "txn_id": "T-13"},
            )
            assert result == "probed"
            assert seen == {"credentials": "tok-3", "txn_id": "T-13"}
        finally:
            federation.shutdown()

    def test_context_survives_nested_dispatch_on_async_path(self):
        federation, key_a, seen = self._probe_federation()
        try:
            future = federation.call_async(
                f"{key_a}/Relay/0",
                "relay",
                context={"credentials": "tok-4", "txn_id": "T-17"},
            )
            assert future.result(timeout_ms=5000) == "probed"
            assert seen == {"credentials": "tok-4", "txn_id": "T-17"}
        finally:
            federation.shutdown()

    def test_delivery_context_does_not_leak_between_requests(self):
        federation, key_a, seen = self._probe_federation()
        try:
            federation.call(
                f"{key_a}/Relay/0",
                "relay",
                context={"credentials": "tok-5", "txn_id": "T-19"},
            )
            seen.clear()
            federation.call(f"{key_a}/Relay/0", "relay")  # anonymous
            assert seen == {"credentials": None, "txn_id": None}
        finally:
            federation.shutdown()

    def test_orb_context_is_thread_local(self):
        orb = Orb()
        observed = {}
        gate = threading.Barrier(2)

        def worker(name):
            with orb.call_context(who=name):
                gate.wait(timeout=5)
                observed[name] = orb.current_context().get("who")
                gate.wait(timeout=5)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert observed == {"w0": "w0", "w1": "w1"}
        assert orb.current_context() == {}
