"""S17 — declarative deployment: compile + bootstrap cost at scale.

One claim under test: lowering a :class:`~repro.deploy.DeploymentSpec`
through the compiler must stay cheap relative to the federation it
materializes — the declarative API may not cost meaningfully more than
the imperative wiring it replaced.  The probe is a **16-node /
64-servant** spec (16 partitions x 4 accounts, the banking application
refined through three concerns):

* ``compile_s`` — phase 1 only: validate, resolve the PIM, bind and
  schedule the concern plan (no side effects);
* ``bootstrap_s`` — phase 2: create 16 nodes, refine the application
  once on the vendor lifecycle, ship the package, weave its one
  derivation on every node, bind 64 servants, provision
  users/classification/replication;
* ``reconcile_s`` — one spec diff (join a 17th node) applied live.

A smoke assertion also exercises correctness: every declared servant is
resolvable and a routed call works after bootstrap.

Results land in ``BENCH_deploy.json`` (uploaded with the other BENCH
artifacts).  Run standalone:  python benchmarks/bench_deploy.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from _benchjson import write_bench_json

from repro.deploy import (
    DeploymentCompiler,
    NodeSpec,
    PartitionSpec,
    ReplicationSpec,
    ServantSpec,
    apply as apply_spec,
)
from repro.runtime.harness import RunConfig
from repro.runtime.scenarios import get_scenario

NODES = 16
PARTITIONS = 16
ACCOUNTS_PER_PARTITION = 4  # 64 servants total
BEST_OF = 3


def build_spec():
    """16 nodes, 64 Account servants, banking app + 3 concerns."""
    scenario = get_scenario("banking")
    config = RunConfig(
        scenario="banking", nodes=NODES, entities_per_node=1, seed=1,
        workers=0, concurrent=False, sim_latency_ms=0.0,
    )
    base = scenario.deployment_spec(config)
    partitions = []
    for p in range(PARTITIONS):
        key = f"branch-{p}"
        servants = []
        for i in range(ACCOUNTS_PER_PARTITION):
            name = f"{key}/Account/{i}"
            servants.append(
                ServantSpec(
                    name=name,
                    type_name="Account",
                    state={"number": name, "balance": 1_000.0},
                    read_only_ops=("getBalance",),
                )
            )
        partitions.append(PartitionSpec(key=key, servants=tuple(servants)))
    return replace(
        base,
        name="bench-deploy",
        partitions=tuple(partitions),
        replication=ReplicationSpec(count=1),
    )


def main() -> None:
    spec = build_spec()
    servant_count = sum(len(p.servants) for p in spec.partitions)
    assert servant_count == PARTITIONS * ACCOUNTS_PER_PARTITION

    compiler = DeploymentCompiler()
    compile_s = min(
        _timed(lambda: compiler.compile(spec)) for _ in range(BEST_OF)
    )

    started = time.perf_counter()
    federation = compiler.deploy(spec)
    bootstrap_s = time.perf_counter() - started
    try:
        # bootstrap smoke: everything declared is live
        for _key, servant_spec in spec.servants():
            assert federation.servant(servant_spec.name) is not None
        assert federation.call("branch-0/Account/0", "getBalance") == 1_000.0

        target = replace(
            spec,
            name="bench-deploy-grown",
            nodes=spec.nodes + (NodeSpec(name=f"node-{NODES}", workers=0),),
        )
        started = time.perf_counter()
        plan = apply_spec(federation, target)
        reconcile_s = time.perf_counter() - started
        moved = federation.last_rebalance.get("moved", 0)
        assert [action.kind for action in plan.actions] == ["join"]
    finally:
        federation.shutdown()

    payload = {
        "nodes": NODES,
        "servants": servant_count,
        "concerns": len(spec.application.concerns),
        "spec_digest": spec.digest(),
        "compile_s": round(compile_s, 6),
        "bootstrap_s": round(bootstrap_s, 6),
        "bootstrap_per_node_s": round(bootstrap_s / NODES, 6),
        "reconcile_join_s": round(reconcile_s, 6),
        "reconcile_bindings_moved": moved,
    }
    path = write_bench_json("deploy", payload)
    print(
        f"deploy bench: compile {compile_s * 1e3:.1f} ms, bootstrap "
        f"{bootstrap_s:.3f} s ({NODES} nodes / {servant_count} servants, "
        f"{bootstrap_s / NODES * 1e3:.0f} ms/node), reconcile join "
        f"{reconcile_s * 1e3:.1f} ms ({moved} bindings moved)"
    )
    print(f"results written to {path}")


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


if __name__ == "__main__":
    main()
