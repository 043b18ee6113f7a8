"""Wire transport: cross-process scaling + socket loopback overhead.

Two claims, one file:

1. **Scaling** — a CPU-bound workload routed over the socket wire to
   worker *processes* scales with the number of workers, because each
   worker owns its own interpreter: target >= 2x going 1 -> 4 node
   processes (CI floor 1.5x).  The in-process federation cannot show
   this on any machine — every node shares one GIL.  The measurement
   records ``cores`` honestly: on a single-core container the floor is
   unreachable and is therefore only enforced where ``cores >= 4``
   (the CI runners).

2. **Overhead** — the price of the wire itself: the same trivial
   workload through the in-process transport vs the loopback socket
   transport, reported as an overhead ratio and per-call microseconds.
   This bounds what the scaling half has to amortize.

Results land in ``BENCH_wire.json`` with a machine-readable ``floor``
so CI can enforce the scaling bar without eyeballing.

Run standalone:  python benchmarks/bench_wire.py
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

from _benchjson import write_bench_json

from repro.deploy.compiler import DeploymentCompiler, register_application
from repro.deploy.spec import (
    ApplicationSpec,
    ConcernSpec,
    DeploymentSpec,
    NodeSpec,
    PartitionSpec,
    ServantSpec,
)
from repro.runtime import Federation
from repro.uml import (
    add_class,
    add_operation,
    add_package,
    apply_stereotype,
    ensure_primitives,
    new_model,
)

#: CPU rounds per grind call — the work each routed request pins a
#: worker-process core with (~2 ms of pure interpreter time)
ROUNDS = 20_000
#: total grind calls per topology, spread over the client threads
OPS = 240
#: concurrent closed-loop client threads driving the front-end
CLIENTS = 8
#: worker-process counts compared: scaling = throughput[4] / throughput[1]
TOPOLOGIES = (1, 4)
#: acceptance floor enforced by CI (target is 2x); only meaningful
#: where the host actually has the cores to parallelize onto
FLOOR = 1.5
FLOOR_MIN_CORES = 4

#: calls per overhead measurement (trivial op, both transports)
OVERHEAD_OPS = 400


# ---------------------------------------------------------------------------
# the CPU-bound application, shipped to workers as generated code
# ---------------------------------------------------------------------------


def build_grinder():
    """A one-class PIM: ``Grinder.grind(rounds)`` burns pure CPU."""
    resource, model = new_model("hashwork")
    prims = ensure_primitives(model)
    pkg = add_package(model, "work")
    grinder = add_class(pkg, "Grinder")
    grind = add_operation(
        grinder,
        "grind",
        [("rounds", prims["Integer"])],
        return_type=prims["Integer"],
    )
    apply_stereotype(
        grind,
        "PythonBody",
        body=(
            "h = 1469598103934665603\n"
            "for i in range(rounds):\n"
            "    h = ((h ^ i) * 1099511628211) & 0xFFFFFFFFFFFFFFFF\n"
            "return h % 1000000007"
        ),
    )
    return resource


register_application("hashwork", build_grinder)


def grinder_spec(nodes: int, partitions_per_node: int = 2) -> DeploymentSpec:
    n_partitions = max(nodes * partitions_per_node, 1)
    return DeploymentSpec(
        name="hashwork",
        application=ApplicationSpec(
            name="hashwork",
            builder="hashwork",
            concerns=(
                ConcernSpec(
                    concern="distribution",
                    params={
                        "server_classes": ["Grinder"],
                        "registry_prefix": "work",
                    },
                ),
            ),
        ),
        nodes=tuple(NodeSpec(name=f"node-{i}") for i in range(nodes)),
        partitions=tuple(
            PartitionSpec(
                key=f"part-{k}",
                servants=(
                    ServantSpec(name=f"part-{k}/Grinder/0", type_name="Grinder"),
                ),
            )
            for k in range(n_partitions)
        ),
        seed=1,
        transport="process",
    )


def _drive(call, names, ops, clients):
    """Closed-loop client threads; returns (elapsed_s, results)."""
    counter = {"next": 0}
    lock = threading.Lock()
    results = []
    errors = []

    def loop():
        while True:
            with lock:
                i = counter["next"]
                if i >= ops:
                    return
                counter["next"] = i + 1
            try:
                results.append(call(names[i % len(names)]))
            except Exception as exc:  # noqa: BLE001 - a failed op fails the bench
                errors.append(exc)
                return

    threads = [threading.Thread(target=loop) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    assert len(results) == ops
    return elapsed


def run_scaling():
    """Routed grind throughput at each worker-process count."""
    expected = None
    points = {}
    for nodes in TOPOLOGIES:
        spec = grinder_spec(nodes)
        names = [f"{p.key}/Grinder/0" for p in spec.partitions]
        federation = DeploymentCompiler().deploy(spec)
        try:
            # every grind(ROUNDS) returns the same digest — assert it so
            # a worker that dropped or corrupted work cannot pass
            probe = federation.call(names[0], "grind", ROUNDS)
            if expected is None:
                expected = probe
            assert probe == expected
            elapsed = _drive(
                lambda name, fed=federation: fed.call(name, "grind", ROUNDS),
                names,
                OPS,
                CLIENTS,
            )
            stats = federation.transport.stats()
        finally:
            federation.shutdown()
        points[nodes] = {
            "ops": OPS,
            "duration_s": elapsed,
            "throughput_ops_s": OPS / elapsed,
            "roundtrips": stats["roundtrips"],
        }
    low, high = TOPOLOGIES
    scaling = (
        points[high]["throughput_ops_s"] / points[low]["throughput_ops_s"]
    )
    cores = os.cpu_count() or 1
    return {
        "rounds_per_call": ROUNDS,
        "clients": CLIENTS,
        "topologies": list(TOPOLOGIES),
        "per_workers": {str(k): v for k, v in points.items()},
        "scaling": scaling,
        "floor": FLOOR,
        "cores": cores,
        # a single-core host cannot parallelize worker processes; the
        # floor is only a promise where the hardware can honor it
        "floor_enforced": cores >= FLOOR_MIN_CORES,
    }


# ---------------------------------------------------------------------------
# loopback overhead: socket hops vs in-process hops
# ---------------------------------------------------------------------------


class Counter:
    def __init__(self):
        self.value = 0.0

    def bump(self, amount):
        self.value += amount
        return self.value


MODULE = SimpleNamespace(Counter=Counter)


def _loopback_throughput(transport):
    federation = Federation(latency_ms=0.0, transport=transport)
    try:
        for i in range(2):
            federation.add_node(f"node-{i}").host(None, MODULE)
        names = []
        for k in range(4):
            name = f"part-{k}/Counter/0"
            federation.node_for(f"part-{k}").bind(name, Counter())
            names.append(name)
        elapsed = _drive(
            lambda name: federation.call(name, "bump", 1.0),
            names,
            OVERHEAD_OPS,
            clients=4,
        )
        return OVERHEAD_OPS / elapsed
    finally:
        federation.shutdown()


def run_overhead():
    inproc = _loopback_throughput("inproc")
    socket = _loopback_throughput("socket")
    return {
        "ops": OVERHEAD_OPS,
        "inproc_ops_s": inproc,
        "socket_ops_s": socket,
        # how many in-process calls one socket call costs
        "overhead_ratio": inproc / socket,
        "socket_call_us": 1e6 / socket,
        "inproc_call_us": 1e6 / inproc,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_all():
    scaling = run_scaling()
    overhead = run_overhead()
    payload = {"scaling": scaling, "overhead": overhead, **{
        # headline numbers hoisted for the CI gate
        "speedup": scaling["scaling"],
        "floor": scaling["floor"],
        "floor_enforced": scaling["floor_enforced"],
        "cores": scaling["cores"],
    }}
    payload["passed"] = (
        payload["speedup"] >= payload["floor"]
        if payload["floor_enforced"]
        else True
    )
    return payload


def main():
    payload = run_all()
    scaling = payload["scaling"]
    overhead = payload["overhead"]
    print(
        f"cross-process grind({ROUNDS}) x {OPS} ops, "
        f"{CLIENTS} client threads, {payload['cores']} core(s):"
    )
    for workers in TOPOLOGIES:
        point = scaling["per_workers"][str(workers)]
        print(
            f"  {workers} worker process(es): "
            f"{point['throughput_ops_s']:8.0f} ops/s "
            f"({point['duration_s']:.3f}s)"
        )
    enforced = "enforced" if payload["floor_enforced"] else (
        f"not enforced on < {FLOOR_MIN_CORES} cores"
    )
    print(
        f"  scaling {payload['speedup']:.2f}x "
        f"(target >= 2x, floor {FLOOR}x, {enforced})"
    )
    print("loopback socket overhead (trivial op):")
    print(f"  inproc: {overhead['inproc_ops_s']:8.0f} ops/s "
          f"({overhead['inproc_call_us']:.0f} us/call)")
    print(f"  socket: {overhead['socket_ops_s']:8.0f} ops/s "
          f"({overhead['socket_call_us']:.0f} us/call)")
    print(f"  overhead ratio {overhead['overhead_ratio']:.2f}x")
    path = write_bench_json("wire", payload)
    print(f"results written to {path}")
    assert payload["passed"], (
        f"scaling {payload['speedup']:.2f}x below the {FLOOR}x floor "
        f"on a {payload['cores']}-core host"
    )


if __name__ == "__main__":
    main()
