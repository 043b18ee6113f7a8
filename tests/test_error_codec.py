"""One error codec: a servant's exception reaches its caller by one rule.

An exception crosses a boundary in one wire form
(:func:`~repro.middleware.bus.error_to_wire`) and is rebuilt by one
function (:func:`~repro.middleware.bus.error_from_wire`), whether it
rides an in-process bus ``Response``, a batch member's reply, a
``FAULT`` frame or a ``CONTROL`` error reply.  So a caller sees the same
type, text and public attributes whichever path the error took, and a
library error keeps its type however its constructor is shaped.
"""

from types import SimpleNamespace

import pytest

from repro.errors import (
    NodeDownError,
    OclSyntaxError,
    PreconditionViolation,
    RemoteInvocationError,
    ReproError,
    TransactionAborted,
    ValidationError,
)
from repro.middleware.envelope import QoS, is_retryable
from repro.middleware.sockets import SocketTransport, WireServer
from repro.runtime import Federation

#: each error a servant or a control verb raises, built fresh per raise
ERRORS = {
    "ValidationError": lambda: ValidationError(["bad name"]),
    "TransactionAborted": lambda: TransactionAborted("tx-1", "lock conflict"),
    "OclSyntaxError": lambda: OclSyntaxError("unexpected token", position=3, text="a + "),
    "PreconditionViolation": lambda: PreconditionViolation("c"),
    "NodeDownError": lambda: NodeDownError(
        "m", node="n", pre_effect=False, mid_call=True
    ),
    "KeyError": lambda: KeyError("k"),
}


class Raiser:
    def fail(self, which):
        raise ERRORS[which]()


def _shape(exc):
    """What a caller can see of an error: type, text, public attributes."""
    public = {name: value for name, value in vars(exc).items() if not name.startswith("_")}
    return type(exc), str(exc), public


def _expected(which):
    original = ERRORS[which]()
    if isinstance(original, ReproError):
        return _shape(original)
    return RemoteInvocationError, f"remote raised KeyError: {original}", {}


@pytest.fixture(scope="module")
def paths():
    """The five paths an error can take to its caller, each a callable
    that raises ``ERRORS[which]`` on the far side and returns what the
    caller caught."""
    federations = {}
    for transport in ("inproc", "socket"):
        federation = Federation(latency_ms=0.0, transport=transport)
        federation.join("node-0").host(SimpleNamespace(Raiser=Raiser))
        federation.node("node-0").bind("p/Raiser/0", Raiser())
        federations[transport] = federation

    def control_handler(payload):
        raise ERRORS[payload["which"]]()

    server = WireServer(
        node="w", request_handler=lambda envelope: None, control_handler=control_handler
    )
    transport = SocketTransport({"w": server.start()}.get)

    def caught(call):
        with pytest.raises(Exception) as excinfo:
            call()
        return excinfo.value

    def call(federation):
        return lambda which: caught(
            lambda: federation.call("p/Raiser/0", "fail", which)
        )

    def batch_member(federation):
        def run(which):
            with federation.pipeline() as pipe:
                future = pipe.call("p/Raiser/0", "fail", which)
            return caught(lambda: future.result(timeout_ms=5000))

        return run

    yield {
        "inproc call": call(federations["inproc"]),
        "inproc batch member": batch_member(federations["inproc"]),
        "socket call": call(federations["socket"]),
        "socket batch member": batch_member(federations["socket"]),
        "control": lambda which: caught(
            lambda: transport.control("w", {"which": which})
        ),
    }
    transport.shutdown()
    server.stop()
    for federation in federations.values():
        federation.shutdown()


@pytest.mark.parametrize(
    "path",
    ["inproc call", "inproc batch member", "socket call", "socket batch member", "control"],
)
@pytest.mark.parametrize("which", sorted(ERRORS))
def test_an_error_reads_the_same_on_every_path(paths, path, which):
    error = paths[path](which)
    assert _shape(error) == _expected(which)
    # none of these errors may be re-delivered, and the rebuild says so
    assert getattr(error, "_remote_rebuilt", False)
    assert not is_retryable(error)


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_a_nested_dead_node_fault_runs_the_effect_once(transport):
    """A servant changes its state, then its own nested call hits a
    killed node.  The error reaches the caller naming that node, but it
    is not the hop's own fault: the caller's retry budget does not
    re-run the servant's effect, and no failover is triggered."""
    federation = Federation(latency_ms=0.0, transport=transport)

    class Inner:
        def ping(self):
            return "pong"

    class Outer:
        def __init__(self):
            self.effects = 0

        def act(self, inner):
            self.effects += 1  # the effect lands before the nested hop
            return federation.call(inner, "ping")

    module = SimpleNamespace(Inner=Inner, Outer=Outer)
    try:
        for i in range(3):
            federation.join(f"node-{i}").host(module)
        keys = [f"k{i}" for i in range(100)]
        outer_key = keys[0]
        outer_owner = federation.node_for(outer_key).name
        inner_key = next(
            key for key in keys if federation.node_for(key).name != outer_owner
        )
        inner_owner = federation.node_for(inner_key).name
        outer_name, inner_name = f"{outer_key}/Outer/0", f"{inner_key}/Inner/0"
        federation.node(outer_owner).bind(outer_name, Outer())
        federation.node(inner_owner).bind(inner_name, Inner())
        federation.enable_replication(1)
        federation.kill(inner_owner)
        with pytest.raises(NodeDownError) as caught:
            federation.call(outer_name, "act", inner_name, qos=QoS(retries=3))
        assert federation.servant(outer_name).effects == 1
        assert federation.failovers == 0
        assert caught.value.node == inner_owner
    finally:
        federation.shutdown()
