"""Worker-process nodes: ``transport: "process"`` deploys, wire calls, failover.

These tests spawn real OS processes (``repro.cli node serve``): a spec
with ``transport: "process"`` deploys through
``DeploymentCompiler.deploy`` like every other spec, and the ordinary
:class:`~repro.runtime.federation.Federation` routes to its worker
nodes.  The oracle is the in-process federation: the same spec deploys,
the same calls return the same values, and killing a worker *process*
produces the same observable sequence killing an in-process node does —
pre-effect :class:`~repro.errors.NodeDownError`, standby promotion onto
the ring successor, and the QoS retry budget landing the call on the
new primary.
"""

import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import diverging_copy

from repro.deploy import reconcile
from repro.deploy.compiler import DeploymentCompiler
from repro.deploy.spec import ReplicationSpec
from repro.errors import (
    DeploymentError,
    FederationError,
    NodeDownError,
    RemoteInvocationError,
    ReproError,
    SecurityError,
    ShippingError,
)
from repro.middleware.envelope import QoS
from repro.runtime.federation import FederationClient
from repro.runtime.harness import RunConfig
from repro.runtime.procfed import ANNOUNCE_PREFIX, RemoteNode, _worker_env
from repro.runtime.scenarios import get_scenario

RETRY = QoS(retries=4, timeout_ms=10000)


def deploy(nodes=3, replication=1):
    config = RunConfig(scenario="banking", nodes=nodes, clients=2, ops=10, seed=1)
    spec = get_scenario("banking").deployment_spec(config)
    return DeploymentCompiler().deploy(
        dataclasses.replace(
            spec,
            transport="process",
            replication=ReplicationSpec(count=replication),
        )
    )


def teller(federation):
    return FederationClient(federation, "alice", "pw", qos=RETRY)


def verb(transport, node, name, *args, **kwargs):
    """One CONTROL verb to a bare worker, as ``RemoteNode.call`` runs
    one (here with both argument fields always sent)."""
    payload = {"verb": name, "args": list(args), "kwargs": kwargs}
    return transport.control(node, payload)


def unread_at(endpoint):
    """Bytes a worker's connections received but the worker has not read
    (the kernel's per-socket receive queues, from ``/proc/net/tcp``)."""
    port = int(endpoint.rsplit(":", 1)[1])
    unread = 0
    with open("/proc/net/tcp") as table:
        next(table)
        for row in table:
            fields = row.split()
            established = fields[3] == "01"
            if established and int(fields[1].split(":")[1], 16) == port:
                unread += int(fields[4].split(":")[1], 16)
    return unread


@contextlib.contextmanager
def stopped(process):
    """SIGSTOP a worker: its connections stay open, nothing is served."""
    os.kill(process.pid, signal.SIGSTOP)
    # returns once every thread stopped: none can still read a request
    os.waitpid(process.pid, os.WUNTRACED)
    try:
        yield
    finally:
        if process.poll() is None:
            os.kill(process.pid, signal.SIGCONT)


def call_on_the_wire(client, worker, name, operation, *args):
    """Start ``client.call`` on a thread and return its future once the
    request frame sits unread at the (stopped) ``worker``."""
    executor = ThreadPoolExecutor(1)
    future = executor.submit(client.call, name, operation, *args)
    executor.shutdown(wait=False)
    deadline = time.monotonic() + 10
    while not unread_at(worker.endpoint):
        assert not future.done(), future.exception()
        assert time.monotonic() < deadline, "request never reached the worker"
        time.sleep(0.01)
    return future


needs_proc_net = pytest.mark.skipif(
    not os.path.exists("/proc/net/tcp"),
    reason="reads socket receive queues from /proc/net/tcp",
)


@pytest.fixture(scope="module")
def fed():
    federation = deploy()
    yield federation
    workers = [node.process for node in federation.nodes.values()]
    federation.shutdown()
    # status 0: each worker ran the stop verb, not the SIGKILL fallback
    assert [process.returncode for process in workers] == [0] * len(workers)


@pytest.fixture(scope="module")
def client(fed):
    return teller(fed)


class TestProcessFederation:
    def test_workers_are_separate_processes(self, fed):
        assert all(isinstance(node, RemoteNode) for node in fed.nodes.values())
        pids = {node.call("ping")["pid"] for node in fed.nodes.values()}
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_deployed_application_serves_calls(self, fed, client):
        assert client.call("branch-0/Account/0", "getBalance") == 1000.0
        assert client.call("branch-0/Account/0", "deposit", 50) == 1050.0
        assert client.call("branch-0/Account/0", "withdraw", 25) == 1025.0

    def test_refs_cross_the_wire_and_hydrate_on_the_worker(self, fed, client):
        assert client.call(
            "branch-1/Bank/0",
            "transfer",
            client.ref("branch-1/Account/0"),
            client.ref("branch-1/Account/1"),
            100,
        )
        assert client.call("branch-1/Account/0", "getBalance") == 900.0
        assert client.call("branch-1/Account/1", "getBalance") == 1100.0

    def test_protected_op_requires_credentials(self, fed):
        # bare federation calls carry no credentials
        with pytest.raises(SecurityError):
            fed.call(
                "branch-2/Bank/0",
                "transfer",
                fed.ref("branch-2/Account/0"),
                fed.ref("branch-2/Account/1"),
                1,
            )

    def test_oneway_ack_means_effect_landed(self, fed, client):
        client.oneway("branch-2/Account/2", "deposit", 5)
        assert fed.quiesce(10.0)
        assert client.call("branch-2/Account/2", "getBalance") == 1005.0

    def test_async_replies(self, fed, client):
        future = client.call_async("branch-2/Account/3", "deposit", 7)
        assert future.result(10000) == 1007.0

    def test_worker_faults_cross_as_degraded_exceptions(self, fed, client):
        with pytest.raises(RemoteInvocationError, match="insufficient funds"):
            client.call("branch-0/Account/1", "withdraw", 10**9)

    def test_routing_and_transport_stats(self, fed, client):
        client.call("branch-0/Account/0", "getBalance")
        assert sum(fed.stats()["routed"].values()) > 0
        assert fed.transport.stats()["roundtrips"] > 0
        worker = fed.node(fed.naming.owner_of("branch-0")).stats()
        assert worker["wire"]["requests_served"] > 0

    def test_gauges_sample_through_the_node_surface(self, fed):
        gauges = fed.observability.sample(fed)
        for name, node in fed.nodes.items():
            assert node.workers > 0
            assert gauges[f"node.{name}.dispatcher_workers"] == node.workers
            assert gauges[f"node.{name}.in_flight"] == 0
            assert gauges[f"node.{name}.routed_in_flight"] == 0

    def test_fault_sites_arm_on_the_workers(self, fed, client):
        fed.configure_fault("bus.deliver", 1.0)
        try:
            with pytest.raises(ReproError):
                client.call("branch-3/Account/0", "getBalance", qos=QoS())
        finally:
            fed.configure_fault("bus.deliver", 0.0)
        # the front-end's own injector never checks bus sites: the count
        # comes back from the worker that injected it
        assert "bus.deliver" not in fed.faults.injected
        assert fed.faults_injected()["bus.deliver"] >= 1
        assert client.call("branch-3/Account/0", "getBalance") == 1000.0

    def test_failed_replication_export_never_reruns_the_call(
        self, fed, client, monkeypatch
    ):
        """The export after a mutating call is best-effort: a worker that
        cannot answer it must not turn the call into a retried (and so
        duplicated) effect."""
        owner = fed.node(fed.naming.owner_of("branch-3"))

        def unreachable(names):
            raise NodeDownError("export timed out", node=owner.name)

        monkeypatch.setattr(owner, "export", unreachable)
        assert client.call("branch-3/Account/1", "deposit", 10) == 1010.0
        monkeypatch.undo()
        assert client.call("branch-3/Account/1", "getBalance") == 1010.0

    def test_pipelined_batch_is_one_frame_to_a_worker(self, fed, client):
        """A batch reaches a worker as one REQUEST frame, and a member's
        application error fails only that member's future."""
        names = [f"branch-5/Account/{i}" for i in range(3)]
        balances = [client.call(name, "getBalance") for name in names]
        roundtrips = fed._socket_transport.stats()["roundtrips"]
        with client.pipeline() as pipe:
            deposits = [pipe.call(name, "deposit", 5) for name in names]
            overdraft = pipe.call(names[0], "withdraw", 1e9)
        assert [future.result() for future in deposits] == [
            balance + 5 for balance in balances
        ]
        with pytest.raises(RemoteInvocationError, match="insufficient funds"):
            overdraft.result()
        assert fed._socket_transport.stats()["roundtrips"] == roundtrips + 1
        assert client.call(names[0], "getBalance") == balances[0] + 5

    def test_batch_replicates_a_worker_partition_once(self, fed, client):
        """A batch of deposits to one worker partition is one full sync
        (one export round trip of its 5 servants), not one per member."""
        names = [f"branch-4/Account/{i}" for i in range(4)]
        before = fed.replicas.stats()
        with client.pipeline() as pipe:
            deposits = [pipe.call(name, "deposit", 5) for name in names]
        assert [future.result() for future in deposits] == [1005.0] * 4
        after = fed.replicas.stats()
        assert after["syncs"] - before["syncs"] == 1
        assert after["log_appends"] - before["log_appends"] == 5

    def test_servant_objects_stay_in_the_worker(self, fed):
        with pytest.raises(FederationError, match="worker process"):
            fed.servant("branch-0/Account/0")
        with pytest.raises(FederationError, match="worker process"):
            fed.current_spec()
        with pytest.raises(FederationError, match="worker process"):
            reconcile.apply(fed, fed.spec)


class TestProcessMembership:
    def test_join_and_retire_worker_processes(self):
        fed = deploy(nodes=2)
        try:
            client = teller(fed)
            names = sorted(
                name for name in fed.naming.list() if "/Account/0" in name
            )
            for amount, name in enumerate(names, start=1):
                client.call(name, "deposit", amount)
            joined = fed.join(
                "node-j", deploy=lambda node: DeploymentCompiler.deploy_node(fed, node)
            )
            assert isinstance(joined, RemoteNode)
            assert fed.last_rebalance["moved"] > 0
            assert joined.naming.list()  # it owns the moved bindings now
            for amount, name in enumerate(names, start=1):
                assert client.call(name, "getBalance") == 1000.0 + amount
            retiree = fed.node("node-0")
            fed.retire("node-0")
            assert retiree.process.wait(timeout=10) == 0
            for amount, name in enumerate(names, start=1):
                assert client.call(name, "deposit", 1) == 1001.0 + amount
        finally:
            fed.shutdown()

    def test_join_refuses_a_package_its_steps_do_not_reproduce(self, shipped):
        # a worker replays the package it receives once, verified against
        # the shipped final model, instead of hosting a different app
        fed = deploy(nodes=1, replication=0)
        try:
            broken = diverging_copy(shipped)
            with pytest.raises(ShippingError):
                fed.join("node-bad", deploy=lambda node: node.install(broken))
            assert "node-bad" not in fed.nodes
        finally:
            fed.shutdown()


class TestProcessFailover:
    @needs_proc_net
    def test_kill_process_mid_delivery_fails_over_and_retries(self):
        """Federation.kill SIGKILLs the owner's process while a deposit
        sits unread on its socket.  The hop meets the dead connection
        mid-call; the node is down, so the failover element upgrades the
        fault to pre-effect, promotes the standby copies onto the ring
        successor (imported over the wire), and the QoS retry budget
        lands the very same call on the new primary — exactly once."""
        fed = deploy()
        try:
            client = teller(fed)
            owner = fed.naming.owner_of("branch-0")
            worker = fed.node(owner)
            assert client.call("branch-0/Account/0", "deposit", 111) == 1111.0
            with stopped(worker.process):
                future = call_on_the_wire(
                    client, worker, "branch-0/Account/0", "deposit", 9
                )
                fed.kill(owner)
            assert worker.process.poll() is not None
            assert future.result(timeout=30) == 1120.0
            assert fed.transport.stats()["disconnects"] >= 1
            assert fed.failovers == 1
            assert fed.naming.owner_of("branch-0") != owner
            assert owner not in fed.nodes
            # one deposit landed, on the promoted copy of the standby
            assert client.call("branch-0/Account/0", "getBalance") == 1120.0
        finally:
            fed.shutdown()

    @needs_proc_net
    def test_worker_dying_behind_the_federation_fails_over(self):
        """A worker process that dies on its own mid-call: the lost
        reply is upgraded to pre-effect only because the process has
        exited (``RemoteNode.alive`` polls it), so standbys are promoted
        and the retry budget re-delivers the call once."""
        fed = deploy()
        try:
            client = teller(fed)
            owner = fed.naming.owner_of("branch-0")
            worker = fed.node(owner)
            assert client.call("branch-0/Account/0", "deposit", 111) == 1111.0
            with stopped(worker.process):
                future = call_on_the_wire(
                    client, worker, "branch-0/Account/0", "deposit", 9
                )
                # hold the caller between the disconnect and the failover
                # element (it counts the disconnect under the transport's
                # stats lock first) until the kernel reports the exit, so
                # the classification is not a race with the process
                # teardown
                with fed.transport._stats_lock:
                    os.kill(worker.process.pid, signal.SIGKILL)
                    os.waitid(
                        os.P_PID, worker.process.pid, os.WEXITED | os.WNOWAIT
                    )
                    assert worker.alive is False
            assert future.result(timeout=30) == 1120.0
            assert fed.transport.stats()["disconnects"] >= 1
            assert fed.failovers == 1
            assert owner not in fed.nodes
            assert client.call("branch-0/Account/0", "getBalance") == 1120.0
        finally:
            fed.shutdown()

    @needs_proc_net
    def test_lost_reply_from_a_living_worker_is_not_retried(self):
        """A worker that is alive but does not answer (stopped here) lets
        the reply time out mid-call.  The fault stays non-retryable
        despite the retry budget: no failover, and once the worker runs
        again the deposit it received lands exactly once."""
        fed = deploy()
        try:
            client = teller(fed)
            owner = fed.naming.owner_of("branch-0")
            worker = fed.node(owner)
            # a short reply timeout, which the next dial takes once the
            # worker's pooled connections are dropped (a dial to a
            # stopped worker connects too, and its call fails mid-call)
            fed.transport.pool.timeout_s = 1.0
            fed.transport.pool.invalidate(worker.endpoint)
            assert client.call("branch-0/Account/2", "getBalance") == 1000.0
            with stopped(worker.process):
                with pytest.raises(NodeDownError) as excinfo:
                    client.call("branch-0/Account/2", "deposit", 5)
                assert excinfo.value.mid_call and not excinfo.value.pre_effect
                assert worker.alive
            assert fed.failovers == 0 and owner in fed.nodes
            deadline = time.monotonic() + 10
            while client.call("branch-0/Account/2", "getBalance") == 1000.0:
                assert time.monotonic() < deadline, "the deposit never landed"
                time.sleep(0.05)
            assert client.call("branch-0/Account/2", "getBalance") == 1005.0
        finally:
            fed.shutdown()

    @needs_proc_net
    def test_lost_reply_defers_the_sync_to_the_next_rebuild(self):
        """A worker hop whose reply timed out makes no export round trip
        to the worker it just failed to reach, which would wait out a
        second reply timeout: the deposit fails within 1.5x the pool's
        timeout and its partition is marked, so the next rebuild
        re-syncs it once the worker runs again."""
        fed = deploy()
        try:
            client = teller(fed)
            owner = fed.naming.owner_of("branch-0")
            worker = fed.node(owner)
            fed.transport.pool.timeout_s = 1.0
            fed.transport.pool.invalidate(worker.endpoint)
            assert client.call("branch-0/Account/2", "getBalance") == 1000.0
            with stopped(worker.process):
                started = time.monotonic()
                with pytest.raises(NodeDownError) as excinfo:
                    client.call("branch-0/Account/2", "deposit", 5)
                elapsed = time.monotonic() - started
                assert excinfo.value.mid_call and not excinfo.value.pre_effect
            assert elapsed < 1.5 * fed.transport.pool.timeout_s
            assert "branch-0" in fed.replicas._deferred
            deadline = time.monotonic() + 10
            while client.call("branch-0/Account/2", "getBalance") == 1000.0:
                assert time.monotonic() < deadline, "the deposit never landed"
                time.sleep(0.05)
            fed.replicas.rebuild()
            assert "branch-0" not in fed.replicas._deferred
            assert "branch-0" not in fed.replicas._export_failed
            [standby] = fed.replicas._groups["branch-0"].standbys
            _type_name, state = fed.replicas.take("branch-0", standby)["branch-0/Account/2"]
            assert state["balance"] == 1005.0
        finally:
            fed.shutdown()

    def test_kill_without_retry_budget_surfaces_node_down(self):
        fed = deploy()
        try:
            owner = fed.naming.owner_of("branch-0")
            fed.call("branch-0/Account/0", "getBalance", qos=QoS(retries=2))
            fed.kill(owner)
            with pytest.raises(NodeDownError) as excinfo:
                fed.call("branch-0/Account/0", "getBalance", qos=QoS())
            assert excinfo.value.pre_effect
        finally:
            fed.shutdown()


class TestNodeServeCli:
    def test_serve_announces_and_stops_over_the_wire(self):
        """The bare CLI surface: spawn, scan the announcement, ping,
        stop — no federation involved."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", "solo", "--endpoint", "tcp://127.0.0.1:0",
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
        )
        try:
            line = process.stdout.readline().decode()
            prefix, name, endpoint = line.split()
            assert prefix == ANNOUNCE_PREFIX and name == "solo"
            from repro.middleware.sockets import SocketTransport

            transport = SocketTransport({"solo": endpoint}.get)
            assert verb(transport, "solo", "ping")["node"] == "solo"
            assert verb(transport, "solo", "stop") == "solo"  # answered, then stopped
            transport.shutdown()
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_undeployed_worker_refuses_binds(self):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", "bare", "--endpoint", "tcp://127.0.0.1:0",
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
        )
        try:
            endpoint = process.stdout.readline().decode().split()[2]
            from repro.middleware.sockets import SocketTransport

            transport = SocketTransport({"bare": endpoint}.get)
            with pytest.raises(DeploymentError, match="no application deployed"):
                verb(transport, "bare", "create", "p/T/0", "T", {})
            with pytest.raises(RemoteInvocationError, match="unknown control verb 'dance'"):
                verb(transport, "bare", "dance")
            verb(transport, "bare", "stop")
            transport.shutdown()
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
