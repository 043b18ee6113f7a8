"""Middleware substrate tests: bus/RPC, naming, locks, txn, security, faults (S10)."""

import pytest

from repro.errors import (
    AccessDeniedError,
    AuthenticationError,
    DeadlockError,
    LockTimeoutError,
    MarshallingError,
    MiddlewareError,
    NamingError,
    NoTransactionError,
    RemoteInvocationError,
    SecurityError,
    TransactionAborted,
    TransactionError,
)
from repro.middleware import (
    Acl,
    AccessController,
    AuthenticationService,
    CredentialStore,
    FaultInjector,
    LockManager,
    LockMode,
    NamingService,
    ObjectSnapshotResource,
    Orb,
    SimClock,
    TransactionManager,
)
from repro.middleware.bus import ObjectRefData, marshal, wire_size
from repro.middleware.txn import Resource


class TestClock:
    def test_monotonic_advance(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_negative_rejected(self):
        with pytest.raises(MiddlewareError):
            SimClock().advance(-1)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, delta):
        clock = SimClock(5.0)
        with pytest.raises(MiddlewareError):
            clock.advance(delta)
        assert clock.now() == 5.0


class TestFaultInjector:
    def test_scripted_faults(self):
        faults = FaultInjector()
        faults.fail_next("x", 2)
        with pytest.raises(MiddlewareError):
            faults.check("x")
        with pytest.raises(MiddlewareError):
            faults.check("x")
        faults.check("x")  # exhausted
        assert faults.injected["x"] == 2

    def test_probability_deterministic_per_seed(self):
        def run(seed):
            faults = FaultInjector(seed)
            faults.configure("y", 0.5)
            outcomes = []
            for _ in range(40):
                try:
                    faults.check("y")
                    outcomes.append(0)
                except MiddlewareError:
                    outcomes.append(1)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_configure_validation(self):
        with pytest.raises(MiddlewareError):
            FaultInjector().configure("z", 1.5)
        with pytest.raises(MiddlewareError):
            FaultInjector().fail_next("z", 0)

    def test_clear(self):
        faults = FaultInjector()
        faults.fail_next("x")
        faults.clear("x")
        faults.check("x")

    def test_custom_exception_type(self):
        faults = FaultInjector()
        faults.configure("s", 1.0, exception=SecurityError, message="no")
        with pytest.raises(SecurityError):
            faults.check("s")


class TestMarshalling:
    def test_primitives_pass(self):
        for value in (1, 2.5, "s", True, None, b"raw"):
            assert marshal(value) == value

    def test_containers_deep_copied(self):
        original = {"xs": [1, {"y": 2}]}
        wire = marshal(original)
        wire["xs"].append(99)
        assert original == {"xs": [1, {"y": 2}]}

    def test_tuples_round_trip_as_tuples(self):
        # wire-type contract: containers keep their concrete type, so a
        # servant returning a tuple is observed as a tuple by the caller
        wire = marshal((1, [2, 3], {"k": (4,)}))
        assert wire == (1, [2, 3], {"k": (4,)})
        assert isinstance(wire, tuple)
        assert isinstance(wire[1], list)
        assert isinstance(wire[2]["k"], tuple)

    def test_lists_stay_lists(self):
        wire = marshal([1, (2, 3)])
        assert isinstance(wire, list)
        assert isinstance(wire[1], tuple)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(MarshallingError):
            marshal({1: "x"})

    def test_arbitrary_objects_rejected(self):
        with pytest.raises(MarshallingError):
            marshal(object())

    def test_registered_objects_become_refs(self):
        sentinel = object()
        ref = ObjectRefData("obj-1", "T")
        assert marshal(sentinel, lambda o: ref if o is sentinel else None) is ref

    def test_wire_size_positive(self):
        assert wire_size(["abc", 1, {"k": 2.0}]) > 0


class TestNaming:
    def test_bind_resolve_unbind(self):
        naming = NamingService()
        ref = ObjectRefData("obj-1", "T")
        naming.bind("services/a", ref)
        assert naming.resolve("services/a") is ref
        naming.unbind("services/a")
        with pytest.raises(NamingError):
            naming.resolve("services/a")

    def test_double_bind_rejected_rebind_allowed(self):
        naming = NamingService()
        r1, r2 = ObjectRefData("o1", "T"), ObjectRefData("o2", "T")
        naming.bind("x", r1)
        with pytest.raises(NamingError):
            naming.bind("x", r2)
        naming.rebind("x", r2)
        assert naming.resolve("x") is r2

    def test_name_normalization(self):
        naming = NamingService()
        naming.bind("a//b/", ObjectRefData("o", "T"))
        assert naming.resolve("/a/b") is not None

    def test_invalid_names(self):
        naming = NamingService()
        for bad in ("", "///", None):
            with pytest.raises(NamingError):
                naming.bind(bad, ObjectRefData("o", "T"))

    def test_list_with_prefix(self):
        naming = NamingService()
        naming.bind("svc/a", ObjectRefData("1", "T"))
        naming.bind("svc/b", ObjectRefData("2", "T"))
        naming.bind("other", ObjectRefData("3", "T"))
        assert naming.list("svc") == ["svc/a", "svc/b"]
        assert len(naming.list()) == 3

    def test_unbind_missing(self):
        with pytest.raises(NamingError):
            NamingService().unbind("ghost")


class Counter:
    def __init__(self):
        self.n = 0

    def incr(self, by=1):
        self.n += by
        return self.n

    def mutate(self, values):
        values.append(99)
        return values

    def boom(self):
        raise AccessDeniedError("nope")

    def _hidden(self):
        return "secret"


class TestRpc:
    def test_basic_invocation(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        proxy = orb.proxy("c")
        assert proxy.incr() == 1
        assert proxy.incr(by=4) == 5

    def test_pass_by_value(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        mine = [1]
        out = orb.proxy("c").mutate(mine)
        assert mine == [1] and out == [1, 99]

    def test_register_idempotent_per_object(self):
        orb = Orb()
        counter = Counter()
        r1 = orb.register(counter)
        r2 = orb.register(counter, name="alias")
        assert r1 is r2
        assert orb.proxy("alias").incr() == 1

    def test_library_exceptions_preserved(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        with pytest.raises(AccessDeniedError):
            orb.proxy("c").boom()

    def test_unknown_operation(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        with pytest.raises(RemoteInvocationError):
            orb.proxy("c").nothing()

    def test_private_operations_blocked(self):
        orb = Orb()
        ref = orb.register(Counter())
        with pytest.raises(RemoteInvocationError):
            orb.invoke(ref, "_hidden", (), {})

    def test_unregistered_object_id(self):
        orb = Orb()
        with pytest.raises(RemoteInvocationError):
            orb.proxy(ObjectRefData("ghost", "T")).anything()

    def test_latency_charged_to_clock(self):
        orb = Orb()
        orb.bus.latency_ms = 2.0
        orb.register(Counter(), name="c")
        orb.proxy("c").incr()
        assert orb.bus.clock.now() == 4.0  # request + reply

    def test_bus_statistics(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        orb.proxy("c").incr()
        assert orb.bus.messages_delivered == 1
        assert orb.bus.bytes_transferred > 0

    def test_call_context_propagates_to_server(self):
        orb = Orb()
        seen = {}

        class Svc:
            def who(self):
                seen.update(orb.current_context())
                return True

        orb.register(Svc(), name="svc")
        with orb.call_context(credentials="tok-1"):
            orb.proxy("svc").who()
        assert seen.get("credentials") == "tok-1"
        assert seen.get("__dispatching__") is True
        assert orb.current_context() == {}

    def test_interceptors_run(self):
        orb = Orb()
        calls = []
        orb.client_interceptors.append(lambda req: calls.append(("client", req.operation)))
        orb.server_interceptors.append(lambda req, s: calls.append(("server", req.operation)))
        orb.register(Counter(), name="c")
        orb.proxy("c").incr()
        assert calls == [("client", "incr"), ("server", "incr")]

    def test_server_interceptor_can_deny(self):
        orb = Orb()

        def deny(request, servant):
            raise AccessDeniedError("blocked")

        orb.server_interceptors.append(deny)
        orb.register(Counter(), name="c")
        with pytest.raises(AccessDeniedError):
            orb.proxy("c").incr()

    def test_references_hydrate_to_proxies(self):
        orb = Orb()

        class Factory:
            def make(self):
                counter = Counter()
                orb.register(counter)
                return counter

        orb.register(Factory(), name="f")
        remote_counter = orb.proxy("f").make()
        assert remote_counter.incr() == 1

    def test_transport_fault_surfaces(self):
        orb = Orb()
        orb.register(Counter(), name="c")
        orb.bus.faults.fail_next("bus.deliver")
        with pytest.raises(MiddlewareError):
            orb.proxy("c").incr()


class TestLocks:
    def test_read_sharing(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.READ)
        locks.acquire("t2", "k", LockMode.READ)
        assert locks.holders_of("k") == {"t1", "t2"}

    def test_write_exclusive(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "k", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "k", LockMode.READ)

    def test_reentrant_and_upgrade(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.READ)
        locks.acquire("t1", "k", LockMode.READ)
        locks.acquire("t1", "k", LockMode.WRITE)  # sole holder upgrade
        assert locks.mode_of("k") is LockMode.WRITE

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.READ)
        locks.acquire("t2", "k", LockMode.READ)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t1", "k", LockMode.WRITE)

    def test_release_all_frees(self):
        locks = LockManager()
        locks.acquire("t1", "a", LockMode.WRITE)
        locks.acquire("t1", "b", LockMode.WRITE)
        assert locks.release_all("t1") == 2
        locks.acquire("t2", "a", LockMode.WRITE)

    def test_deadlock_detected(self):
        locks = LockManager()
        locks.acquire("t1", "x", LockMode.WRITE)
        locks.acquire("t2", "y", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "x", LockMode.WRITE)
        with pytest.raises(DeadlockError):
            locks.acquire("t1", "y", LockMode.WRITE)
        assert locks.deadlocks == 1

    def test_deadlock_detected_through_a_chain_of_waits(self):
        locks = LockManager()
        for tx, key in (("t1", "a"), ("t2", "b"), ("t3", "c")):
            locks.acquire(tx, key, LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t1", "b", LockMode.WRITE)  # t1 waits on t2
        with pytest.raises(LockTimeoutError):
            locks.acquire("t2", "c", LockMode.WRITE)  # t2 waits on t3
        with pytest.raises(DeadlockError):
            locks.acquire("t3", "a", LockMode.WRITE)  # closes t3 -> t1 -> t2 -> t3
        assert locks.deadlocks == 1
        # once t2 commits, nobody waits on it: t1's next refusal is no deadlock
        locks.release_all("t2")
        locks.acquire("t3", "b", LockMode.WRITE)
        with pytest.raises(LockTimeoutError):
            locks.acquire("t1", "b", LockMode.WRITE)
        assert locks.deadlocks == 1

    def test_runtime_import_leaves_networkx_unloaded(self):
        # only the static lock-order analyzer uses networkx, and importing
        # it adds about 10 MB to every node and worker process
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro.cli, repro.runtime, repro.deploy.compiler; "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "False"

    def test_runtime_import_leaves_analyzer_and_scenario_runner_unloaded(self):
        # every named lock imports repro.analysis.witness, which runs the
        # package's __init__; the static analyzer must not ride along,
        # and neither may the scenario runner a node never uses
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        unneeded = [
            f"repro.analysis.{name}"
            for name in ("lockscan", "lockgraph", "baseline", "report")
        ] + ["repro.runtime.harness", "repro.runtime.scenarios"]
        probe = (
            "import sys, repro.cli, repro.runtime, repro.deploy.compiler; "
            f"print([name for name in {unneeded!r} if name in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_statistics(self):
        locks = LockManager()
        locks.acquire("t1", "k", LockMode.WRITE)
        try:
            locks.acquire("t2", "k", LockMode.WRITE)
        except LockTimeoutError:
            pass
        assert locks.grants >= 1 and locks.conflicts == 1


class Box:
    def __init__(self, value):
        self.value = value


class TestTransactions:
    def test_commit_applies(self):
        manager = TransactionManager()
        box = Box(1)
        with manager.transaction():
            manager.enlist_object(box)
            box.value = 2
        assert box.value == 2 and manager.commits == 1

    def test_rollback_restores_snapshot(self):
        manager = TransactionManager()
        box = Box(1)
        with pytest.raises(ValueError):
            with manager.transaction():
                manager.enlist_object(box)
                box.value = 99
                raise ValueError("fail")
        assert box.value == 1 and manager.aborts == 1

    def test_join_nesting_commits_once(self):
        manager = TransactionManager()
        box = Box(0)
        with manager.transaction():
            manager.enlist_object(box)
            box.value += 1
            with manager.transaction():
                box.value += 1
        assert box.value == 2 and manager.commits == 1

    def test_inner_failure_aborts_outer(self):
        manager = TransactionManager()
        box = Box(0)
        with pytest.raises(ValueError):
            with manager.transaction():
                manager.enlist_object(box)
                box.value = 5
                with manager.transaction():
                    raise ValueError("inner")
        assert box.value == 0
        assert manager.aborts == 1 and manager.commits == 0

    def test_rollback_only_marks(self):
        manager = TransactionManager()
        tx = manager.begin()
        tx.set_rollback_only("because")
        with pytest.raises(TransactionAborted):
            manager.commit(tx)
        assert manager.aborts == 1

    def test_enlist_outside_transaction(self):
        manager = TransactionManager()
        with pytest.raises(NoTransactionError):
            manager.enlist_object(Box(1))

    def test_prepare_vote_no_aborts_all(self):
        manager = TransactionManager()

        class VetoResource(Resource):
            def prepare(self):
                raise RuntimeError("vote no")

        box = Box(1)
        with pytest.raises(TransactionAborted):
            with manager.transaction() as tx:
                manager.enlist_object(box)
                box.value = 7
                tx.enlist(VetoResource())
        assert box.value == 1

    def test_injected_prepare_fault(self):
        manager = TransactionManager()
        manager.faults.fail_next("txn.prepare")
        box = Box(1)
        with pytest.raises(TransactionAborted):
            with manager.transaction():
                manager.enlist_object(box)
                box.value = 3
        assert box.value == 1

    def test_locks_released_after_commit(self):
        manager = TransactionManager()
        box = Box(1)
        with manager.transaction():
            manager.enlist_object(box)
        with manager.transaction():
            manager.enlist_object(box)  # would deadlock if locks leaked
        assert manager.commits == 2

    def test_write_lock_conflict_between_transactions(self):
        manager = TransactionManager()
        box = Box(1)
        outer = manager.begin()
        manager.enlist_object(box, outer)
        sibling = manager.begin(join=False)
        with pytest.raises(LockTimeoutError):
            manager.enlist_object(box, sibling)
        manager.rollback(sibling)
        manager.commit(outer)

    def test_commit_wrong_transaction_rejected(self):
        manager = TransactionManager()
        tx = manager.begin()
        manager.begin(join=False)
        with pytest.raises(TransactionError):
            manager.commit(tx)

    def test_enlist_idempotent_snapshot(self):
        manager = TransactionManager()
        box = Box(1)
        with pytest.raises(ValueError):
            with manager.transaction():
                manager.enlist_object(box)
                box.value = 2
                manager.enlist_object(box)  # must not re-snapshot mutated state
                box.value = 3
                raise ValueError()
        assert box.value == 1

    def test_snapshot_resource_direct(self):
        box = Box({"a": 1})
        resource = ObjectSnapshotResource(box)
        box.value = None
        resource.rollback()
        assert box.value == {"a": 1}


class TestSecurity:
    @pytest.fixture()
    def security(self):
        clock = SimClock()
        store = CredentialStore()
        store.add_user("alice", "pw", roles=["teller"])
        store.add_user("bob", "pw2", roles=["customer"])
        auth = AuthenticationService(store, clock, ttl_ms=1000)
        acl = Acl()
        acl.allow_role("teller", "Account.*", ["invoke"])
        acl.allow_user("bob", "Account.getBalance", ["invoke"])
        controller = AccessController(auth, acl)
        return {"clock": clock, "store": store, "auth": auth, "acl": acl, "ac": controller}

    def test_login_and_validate(self, security):
        cred = security["auth"].login("alice", "pw")
        assert security["auth"].validate(cred.token).principal.name == "alice"

    def test_bad_password(self, security):
        with pytest.raises(AuthenticationError):
            security["auth"].login("alice", "wrong")

    def test_unknown_user(self, security):
        with pytest.raises(AuthenticationError):
            security["auth"].login("eve", "x")

    def test_duplicate_user_rejected(self, security):
        with pytest.raises(SecurityError):
            security["store"].add_user("alice", "again")

    def test_token_expiry(self, security):
        cred = security["auth"].login("alice", "pw")
        security["clock"].advance(1001)
        with pytest.raises(AuthenticationError):
            security["auth"].validate(cred.token)

    def test_logout_revokes(self, security):
        cred = security["auth"].login("alice", "pw")
        security["auth"].logout(cred.token)
        with pytest.raises(AuthenticationError):
            security["auth"].validate(cred.token)

    def test_role_grant_allows(self, security):
        cred = security["auth"].login("alice", "pw")
        principal = security["ac"].check_access(cred.token, "Account.withdraw", "invoke")
        assert principal.name == "alice"

    def test_user_grant_allows(self, security):
        cred = security["auth"].login("bob", "pw2")
        security["ac"].check_access(cred.token, "Account.getBalance", "invoke")

    def test_deny_by_default(self, security):
        cred = security["auth"].login("bob", "pw2")
        with pytest.raises(AccessDeniedError):
            security["ac"].check_access(cred.token, "Account.withdraw", "invoke")

    def test_missing_token(self, security):
        with pytest.raises(AuthenticationError):
            security["ac"].check_access(None, "Account.withdraw", "invoke")

    def test_audit_trail(self, security):
        cred = security["auth"].login("bob", "pw2")
        security["ac"].check_access(cred.token, "Account.getBalance", "invoke")
        try:
            security["ac"].check_access(cred.token, "Account.withdraw", "invoke")
        except AccessDeniedError:
            pass
        try:
            security["ac"].check_access("bogus", "Account.withdraw", "invoke")
        except AuthenticationError:
            pass
        audit = security["ac"].audit
        assert len(audit.records) == 3
        assert [r.outcome for r in audit.records] == ["allow", "deny", "auth-failure"]
        assert len(audit.denials()) == 2
        assert len(audit.for_principal("bob")) == 2

    def test_audit_trail_retains_little_per_allowed_check(self, security):
        """The trail keeps every record, in order, at a bounded cost: the
        resource arrives as a fresh ``Class.member`` string each call
        (as ``JoinPoint.signature`` builds it) and the clock moves."""
        import tracemalloc

        auth, ac, clock = security["auth"], security["ac"], security["clock"]
        auth.ttl_ms = 1e9
        token = auth.login("alice", "pw").token
        members = ("deposit", "withdraw", "getBalance", "transfer")
        checks = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(checks):
                clock.advance(0.5)
                ac.check_access(token, f"Account.{members[i % 4]}", "invoke")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        records = ac.audit.records
        assert [r.resource for r in records] == [
            f"Account.{members[i % 4]}" for i in range(checks)
        ]
        assert all(r.outcome == "allow" and r.principal == "alice" for r in records)
        assert retained / checks <= 128, f"{retained / checks:.0f} B retained per check"

    def test_wildcard_actions(self, security):
        security["acl"].allow_role("customer", "Report.*", ["*"])
        cred = security["auth"].login("bob", "pw2")
        security["ac"].check_access(cred.token, "Report.daily", "generate")
