"""Worker-process nodes: the worker host and the front-end's node handle.

A deployment spec with ``transport: "process"`` runs every federation
member as its *own operating-system process*, serving its shard behind
a :class:`~repro.middleware.sockets.WireServer`; the front-end — the
process that runs the :class:`~repro.runtime.federation.Federation` and
routes calls — reaches each worker over real connections: true
parallel dispatch, one GIL per node.  There is no second federation:
the front-end runs the ordinary ``Federation`` (chain, QoS, failover,
replication, elastic membership), and only its nodes live elsewhere.

Two halves, meeting only at the wire protocol:

* :func:`serve_node` — the worker process body (``repro.cli node
  serve``).  It starts empty: one :class:`~repro.runtime.node.Node`
  plus a listener, announced on stdout as ``REPRO-NODE <name>
  <endpoint>``.  Routed calls arrive as REQUEST frames, served by
  :meth:`Node.serve` exactly as a socket-mode listener serves them;
  everything else arrives as CONTROL verbs, each one entry of
  :attr:`NodeHost.verbs`, keyed by the node-surface method it runs on
  the worker's own ``Node`` (``install`` replays the shipped
  :class:`~repro.core.shipping.ComponentPackage` once, verified against
  its final model, and weaves it; ``create`` / ``import_states`` /
  ``export`` / ``release`` move servant state, and so on).  A call and
  a verb alike are answered by one REPLY frame: the value, or the
  error raised.  The worker never sees the deployment spec or the ring.

* :class:`RemoteNode` — the front-end's handle on one worker: it spawns
  the process and offers the node surface the federation drives
  (``install``, ``create``, ``export``, ``import_states``, ``release``,
  ``add_user``, ``login``, fault configuration, ``kill``, ``stats``),
  each method one CONTROL round trip through :meth:`RemoteNode.call`,
  which returns the verb's value or raises its error.  Its ``naming``
  shard mirrors the worker's bindings, so routing resolves a
  worker-owned name without a round trip.

Failover follows the fail-stop contract the socket transport relies
on: a mid-call fault (request written, reply lost) is upgraded to
pre-effect only once the worker *process has exited* — a slow but
living worker never runs an effect twice.
"""

from __future__ import annotations

import contextlib
import os
import select
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.errors import (
    DeploymentError,
    FederationError,
    NamingError,
    RemoteInvocationError,
    ReproError,
)
from repro.middleware.bus import ObjectRefData
from repro.middleware.naming import NamingService
from repro.middleware.sockets import SocketTransport, WireServer
from repro.runtime.node import Node


# ---------------------------------------------------------------------------
# worker process body
# ---------------------------------------------------------------------------

#: stdout announcement prefix the spawner scans for
ANNOUNCE_PREFIX = "REPRO-NODE"

#: how long a spawned worker may take to announce its endpoint
STARTUP_TIMEOUT_S = 30.0


class NodeHost:
    """One worker's serving state: the node, its listener, its verbs."""

    def __init__(
        self,
        name: str,
        workers: int = 0,
        seed: int = 0,
        endpoint: str = "tcp://127.0.0.1:0",
    ):
        node = self.node = Node(name, workers=workers, seed=seed)
        self.server = WireServer(
            node=name,
            request_handler=node.serve,
            control_handler=self._serve_control,
            endpoint=endpoint,
        )
        #: the CONTROL verbs, keyed by the node-surface method each runs;
        #: arguments and results cross as wire values
        self.verbs: Dict[str, Callable[..., Any]] = {
            "ping": self._ping,
            "install": self._install,
            "create": node.create,
            "export": node.export,
            "import_states": node.import_states,
            "release": node.release,
            "add_user": node.add_user,
            "login": node.login,
            "configure_fault": node.configure_fault,
            "faults_injected": node.faults_injected,
            "mark_read_only": node.mark_read_only,
            "stats": self._stats,
            "stop": self._stop,
        }

    def _serve_control(self, payload: Dict[str, Any]) -> Any:
        """Run one verb; its value, or what it raises, crosses back as
        the listener's REPLY."""
        verb = self.verbs.get(payload["verb"])
        if verb is None:
            raise RemoteInvocationError(f"unknown control verb {payload['verb']!r}")
        return verb(*payload.get("args", ()), **payload.get("kwargs", {}))

    def _ping(self) -> Dict[str, Any]:
        return {"node": self.node.name, "pid": os.getpid()}

    def _install(self, package: str) -> None:
        from repro.core.shipping import ComponentPackage

        self.node.install(ComponentPackage.from_json(package))

    def _stats(self) -> Dict[str, Any]:
        stats = self.node.stats()
        stats["wire"] = {
            "requests_served": self.server.requests_served,
            "faults_returned": self.server.faults_returned,
            "protocol_errors": self.server.protocol_errors,
        }
        return stats

    def _stop(self) -> str:
        """End the worker once this verb's reply is sent."""
        self.server.stop_after_reply()
        return self.node.name


def serve_node(
    name: str,
    endpoint: str = "tcp://127.0.0.1:0",
    workers: int = 0,
    seed: int = 0,
    announce=None,
) -> int:
    """The ``repro.cli node serve`` body: host one worker until stopped.

    Prints ``REPRO-NODE <name> <endpoint>`` (flushed) once the listener
    is bound, which is how the spawning front-end learns the
    OS-assigned port, then blocks until a CONTROL ``stop`` arrives.
    """
    host = NodeHost(name, workers=workers, seed=seed, endpoint=endpoint)
    bound = host.server.start()
    stream = announce or sys.stdout
    print(f"{ANNOUNCE_PREFIX} {name} {bound}", file=stream, flush=True)
    try:
        host.server.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        host.server.stop()
    host.node.shutdown()
    return 0


# ---------------------------------------------------------------------------
# the front-end's handle on one worker
# ---------------------------------------------------------------------------


def _worker_env() -> Dict[str, str]:
    """The child environment: this repro package importable, verbatim."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    return env


def _stderr_tail(path: str, limit: int = 2000) -> str:
    try:
        with open(path, "rb") as handle:
            tail = handle.read()[-limit:].decode("utf-8", "replace")
    except OSError:
        return ""
    return f"; worker stderr:\n{tail}" if tail.strip() else ""


def _read_announcement(process: subprocess.Popen, stderr_path: str) -> str:
    """Scan the worker's stdout for its bound-endpoint announcement."""
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    stream = process.stdout
    buffer = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeploymentError(
                "worker did not announce its endpoint within "
                f"{STARTUP_TIMEOUT_S:g}s" + _stderr_tail(stderr_path)
            )
        ready, _w, _x = select.select([stream], [], [], min(remaining, 0.5))
        if not ready:
            if process.poll() is not None:
                raise DeploymentError(
                    f"worker exited with status {process.returncode} "
                    "before announcing its endpoint" + _stderr_tail(stderr_path)
                )
            continue
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            raise DeploymentError(
                "worker closed stdout before announcing its endpoint"
                + _stderr_tail(stderr_path)
            )
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            parts = line.decode("utf-8", "replace").split()
            if len(parts) == 3 and parts[0] == ANNOUNCE_PREFIX:
                return parts[2]


class RemoteNode:
    """The node surface, served by one worker process over CONTROL verbs.

    Routed calls do not go through this object: the federation sends
    them as REQUEST frames, checking the node is alive on its own side
    as it does for every transport.  CONTROL verbs travel on the
    same socket transport and its one exchange, so its pool,
    statistics and failure classification cover both.  Results stay
    wire values — the front-end hosts no servants, so references come
    back as :class:`ObjectRefData`.
    """

    def __init__(
        self,
        name: str,
        process: subprocess.Popen,
        endpoint: str,
        stderr_path: str,
        transport: SocketTransport,
        workers: int = 0,
        seed: int = 0,
    ):
        self.name = name
        self.process = process
        self.endpoint = endpoint
        self.stderr_path = stderr_path
        #: the federation's transport; it must resolve ``name`` to
        #: ``endpoint`` until :meth:`shutdown` returns
        self._transport = transport
        #: construction parameters, read by Federation.current_spec()
        self.workers = workers
        self.seed = seed
        self.deployed = False
        #: the worker's bindings as the front-end routes them — the
        #: naming shard the federation puts on its ring
        self.naming = NamingService()
        self._alive = True

    @classmethod
    def spawn(
        cls,
        name: str,
        endpoint: str,
        transport: SocketTransport,
        workers: int = 0,
        seed: int = 0,
    ) -> "RemoteNode":
        """Start ``repro.cli node serve`` and wait for its announcement."""
        stderr_file = tempfile.NamedTemporaryFile(
            mode="wb", prefix=f"repro-worker-{name}-", suffix=".log", delete=False,
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "node", "serve",
                "--name", name,
                "--endpoint", endpoint,
                "--workers", str(workers),
                "--seed", str(seed),
            ],
            env=_worker_env(),
            stdout=subprocess.PIPE,
            stderr=stderr_file,
        )
        stderr_file.close()
        try:
            bound = _read_announcement(process, stderr_file.name)
        except BaseException:
            process.kill()
            process.wait()
            process.stdout.close()
            with contextlib.suppress(OSError):
                os.unlink(stderr_file.name)
            raise
        return cls(name, process, bound, stderr_file.name, transport, workers, seed)

    @property
    def alive(self) -> bool:
        """False once killed or retired — or once the worker process
        exited on its own: only then may failover treat a mid-call
        fault as pre-effect."""
        return self._alive and self.process.poll() is None

    @alive.setter
    def alive(self, value: bool) -> None:
        self._alive = value

    def call(self, verb: str, *args, **kwargs) -> Any:
        """Run node-surface method ``verb`` on the worker: one CONTROL
        round trip, returning the verb's value; its failure raises here
        with its own type.  Empty ``args`` and ``kwargs`` stay off the
        wire, so a verb without arguments costs no more to encode and
        decode than its name."""
        payload: Dict[str, Any] = {"verb": verb}
        if args:
            payload["args"] = list(args)
        if kwargs:
            payload["kwargs"] = kwargs
        return self._transport.control(self.name, payload)

    # -- the node surface ------------------------------------------------------

    def install(self, package) -> None:
        self.call("install", package.to_json())
        self.deployed = True

    def create(
        self, name: str, type_name: str, state: Dict[str, Any]
    ) -> ObjectRefData:
        ref = self.call("create", name, type_name, dict(state))
        self.naming.rebind(name, ref)
        return ref

    def export(self, names: Iterable[str]) -> List[Tuple[str, str, Dict[str, Any]]]:
        return self.call("export", list(names))

    def import_states(
        self, entries: Iterable[Tuple[str, str, Dict[str, Any]]]
    ) -> List[ObjectRefData]:
        entries = list(entries)
        refs = self.call("import_states", entries)
        for (name, _type_name, _state), ref in zip(entries, refs):
            self.naming.rebind(name, ref)
        return refs

    def release(self, names: Iterable[str]) -> None:
        names = list(names)
        self.call("release", names)
        for name in names:
            with contextlib.suppress(NamingError):
                self.naming.unbind(name)

    def servant(self, ref: ObjectRefData) -> Any:
        raise FederationError(
            f"{ref.object_id!r} lives in worker process {self.name!r}: the "
            "front-end holds no servant objects of worker-owned bindings"
        )

    def add_user(self, name: str, password: str, roles=()) -> None:
        self.call("add_user", name, password, roles=list(roles))

    def login(self, user: str, password: str) -> str:
        return self.call("login", user, password)

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        self.call("configure_fault", site, probability, **kwargs)

    def faults_injected(self) -> Dict[str, int]:
        return self.call("faults_injected") if self.alive else {}

    def mark_read_only(self, type_name: str, operations) -> None:
        self.call("mark_read_only", type_name, sorted(operations))

    def kill(self) -> None:
        """Fail-stop: SIGKILL the worker process and reap it."""
        self._alive = False
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def stats(self) -> Dict[str, Any]:
        if not self.alive:
            return {"node": self.name, "alive": False}
        return self.call("stats")

    def shutdown(self) -> None:
        """Stop the worker (polite CONTROL first, then the OS)."""
        if self.process.poll() is None:
            with contextlib.suppress(ReproError, OSError):
                self.call("stop")
        self._alive = False
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        with contextlib.suppress(OSError):
            os.unlink(self.stderr_path)

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "" if self.alive else " DOWN"
        return f"<RemoteNode {self.name} pid={self.process.pid}{state}>"
