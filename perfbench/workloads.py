"""The four call workloads: deployment specs, seeded operations, oracles.

Every workload is closed-loop (each client thread waits for its reply
before issuing the next call) at zero injected latency, with faults and
the program's own tracing off.  Operations are generated from the seed
before anything is timed; the program only ever sees the generated
calls.  Each workload checks its own oracle after the run:

* echo: every reply is the running count of its Counter, and each
  Counter's final ``value`` equals the bumps issued to it (warm-up
  included);
* bank: money is conserved exactly against the client-side tally, no
  balance is negative, no standby lags its log, and no failover ran.
"""

from __future__ import annotations

import random
import threading
from array import array
from typing import Dict, List, Optional

# -- echo ---------------------------------------------------------------------

ECHO_APPLICATION = "perfbench-counter"
ECHO_PARTITIONS = 4
ECHO_NODES = 2
#: warm-up bumps per Counter (they count in set-up time and in the oracle)
ECHO_WARMUP_ROUNDS = 16
#: generated operations per timed second: far above any plausible rate,
#: so a run ends on its deadline, not on an exhausted operation list
ECHO_OPS_PER_SECOND = 60_000

# -- bank ---------------------------------------------------------------------

BANK_NODES = 3
BANK_WORKERS = 2
BANK_BRANCHES = 6
BANK_ACCOUNTS = 4
BANK_CLIENTS = 2
#: seeded far above what a run can withdraw, so "insufficient funds"
#: cannot occur at any run length this benchmark allows
BANK_BALANCE = 1_000_000.0
BANK_SNAPSHOT_EVERY = 64
BANK_OPS_PER_SECOND = 12_000

TRANSFER, DEPOSIT, WITHDRAW, GET_BALANCE = KINDS = range(4)

#: the banking scenario's mix, and its read-mostly partner
WRITE_MIX = ((0.40, TRANSFER), (0.25, DEPOSIT), (0.25, WITHDRAW), (0.10, GET_BALANCE))
READ_MIX = ((0.90, GET_BALANCE), (0.10, DEPOSIT))


def is_refusal(exc: BaseException) -> bool:
    """The application's own refusal: a withdraw past the balance."""
    return isinstance(exc, ValueError) and "insufficient funds" in str(exc)


# ---------------------------------------------------------------------------
# applications and specs
# ---------------------------------------------------------------------------


def build_counter_pim():
    """A one-class PIM: ``Counter.bump(amount)`` returns the running value."""
    from repro.uml import (
        add_attribute,
        add_class,
        add_operation,
        add_package,
        apply_stereotype,
        ensure_primitives,
        new_model,
    )

    resource, model = new_model("counter")
    prims = ensure_primitives(model)
    pkg = add_package(model, "echo")
    counter = add_class(pkg, "Counter")
    add_attribute(counter, "value", prims["Real"])
    bump = add_operation(
        counter, "bump", [("amount", prims["Real"])], return_type=prims["Real"]
    )
    apply_stereotype(
        bump, "PythonBody", body="self.value += amount\nreturn self.value"
    )
    return resource


def register_counter_application() -> None:
    from repro.deploy.compiler import register_application

    register_application(ECHO_APPLICATION, build_counter_pim)


def echo_binding(index: int) -> str:
    return f"counter-{index}/Counter/0"


def echo_spec(seed: int, transport: str):
    """2 serial nodes, 4 single-Counter partitions, distribution only."""
    from repro.deploy.spec import (
        ApplicationSpec,
        ConcernSpec,
        DeploymentSpec,
        NodeSpec,
        PartitionSpec,
        ServantSpec,
    )

    register_counter_application()
    return DeploymentSpec(
        name=f"perfbench-echo-{transport}",
        application=ApplicationSpec(
            name=ECHO_APPLICATION,
            builder=ECHO_APPLICATION,
            concerns=(
                ConcernSpec(
                    concern="distribution",
                    params={"server_classes": ["Counter"], "registry_prefix": "echo"},
                ),
            ),
        ),
        nodes=tuple(NodeSpec(name=f"node-{i}") for i in range(ECHO_NODES)),
        partitions=tuple(
            PartitionSpec(
                key=f"counter-{k}",
                servants=(
                    ServantSpec(
                        name=echo_binding(k), type_name="Counter", state={"value": 0.0}
                    ),
                ),
            )
            for k in range(ECHO_PARTITIONS)
        ),
        sim_latency_ms=0.0,
        real_latency_ms=0.0,
        seed=seed,
        transport=transport,
    )


def bank_account(branch: int, index: int) -> str:
    return f"branch-{branch}/Account/{index}"


def bank_bank(branch: int) -> str:
    return f"branch-{branch}/Bank/0"


def bank_spec(seed: int):
    """The banking scenario's application (distribution, transactions,
    security) on 3 concurrent nodes with log replication."""
    from repro.deploy.spec import (
        DeploymentSpec,
        NodeSpec,
        PartitionSpec,
        ReplicationSpec,
        ServantSpec,
        UserSpec,
    )
    from repro.runtime.scenarios import get_scenario

    scenario = get_scenario("banking")
    partitions = []
    for b in range(BANK_BRANCHES):
        servants = [ServantSpec(name=bank_bank(b), type_name="Bank")]
        for i in range(BANK_ACCOUNTS):
            name = bank_account(b, i)
            servants.append(
                ServantSpec(
                    name=name,
                    type_name="Account",
                    state={"number": name, "balance": BANK_BALANCE},
                    read_only_ops=("getBalance",),
                )
            )
        partitions.append(PartitionSpec(key=f"branch-{b}", servants=tuple(servants)))
    return DeploymentSpec(
        name="perfbench-bank",
        application=scenario.application_spec(),
        nodes=tuple(
            NodeSpec(name=f"node-{i}", workers=BANK_WORKERS) for i in range(BANK_NODES)
        ),
        partitions=tuple(partitions),
        replication=ReplicationSpec(
            count=1, mode="log", snapshot_every=BANK_SNAPSHOT_EVERY
        ),
        users=tuple(
            UserSpec(name=user, password=password, roles=tuple(roles))
            for user, password, roles in scenario.users
        ),
        sim_latency_ms=0.0,
        real_latency_ms=0.0,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Run:
    """One deployed federation plus the workload's clients and tallies."""

    def __init__(self, federation, clients: List):
        self.federation = federation
        self.clients = clients
        #: next operation index per client (warm-up does not consume any)
        self.position = [0] * len(clients)
        # The spec's latency knobs cover the federation hop; each node's
        # bus also charges 0.5 ms of simulated time per delivery.  That
        # clock expires credentials after 60 simulated seconds, and a
        # FederationClient never logs in again, so after ~30k deliveries
        # on a node every later call of a teller fails authentication.
        # No injected latency anywhere keeps the node clocks at zero.
        for node in federation.nodes.values():
            node.services.bus.latency_ms = 0.0

    def shutdown(self) -> None:
        self.federation.shutdown()


class EchoWorkload:
    """One client bumping 4 Counters round-robin: the bare routed call."""

    clients = 1

    def __init__(self, name: str, transport: str):
        self.name = name
        self.transport = transport

    def spec(self, seed: int):
        return echo_spec(seed, self.transport)

    def generate(self, seed: int, seconds: float) -> List[array]:
        """Counter indices, round-robin in a seed-chosen order."""
        order = list(range(ECHO_PARTITIONS))
        random.Random(seed).shuffle(order)
        count = max(int(seconds * ECHO_OPS_PER_SECOND), 1000)
        return [array("B", (order[i % ECHO_PARTITIONS] for i in range(count)))]

    def attach(self, federation, ops: List[array]) -> Run:
        from repro.runtime.federation import FederationClient

        run = Run(federation, [FederationClient(federation)])
        run.ops = ops
        run.names = [echo_binding(k) for k in range(ECHO_PARTITIONS)]
        run.issued = [0] * ECHO_PARTITIONS
        run.mismatches = 0
        return run

    def warm_up(self, run: Run) -> None:
        for _ in range(ECHO_WARMUP_ROUNDS):
            for k in range(ECHO_PARTITIONS):
                self._bump(run, k)

    def _bump(self, run: Run, k: int) -> None:
        run.issued[k] += 1
        value = run.clients[0].call(run.names[k], "bump", 1.0)
        if value != float(run.issued[k]):
            run.mismatches += 1

    def operation(self, run: Run, client_index: int):
        """``op(i)`` executes operation ``i`` of the client's list."""
        ops = run.ops[client_index]
        bump = self._bump

        def op(i: int) -> None:
            bump(run, ops[i])

        return op, len(ops)

    def check(self, run: Run) -> List[str]:
        problems = []
        if run.mismatches:
            problems.append(f"{run.mismatches} bump replies were not the running count")
        for k, name in enumerate(run.names):
            value = run.federation.servant(name).value
            if value != float(run.issued[k]):
                problems.append(
                    f"{name}: value {value} != {run.issued[k]} bumps issued"
                )
        return problems


class BankWorkload:
    """Two tellers running a banking mix against 3 concurrent nodes."""

    clients = BANK_CLIENTS

    def __init__(self, name: str, mix):
        self.name = name
        self.mix = mix

    def spec(self, seed: int):
        return bank_spec(seed)

    def generate(self, seed: int, seconds: float) -> List[Dict[str, array]]:
        """Per client: kind, branch, two account indices and an amount.

        Each teller works its own branches (``branch % clients``): the
        program's two-phase locking never waits, it refuses a conflicting
        lock with ``LockTimeoutError``, so two tellers on one account
        would fail calls at random instead of measuring them.
        """
        count = max(int(seconds * BANK_OPS_PER_SECOND), 1000)
        return [
            _bank_ops(random.Random(seed * 1000 + c), self.mix, count, c, self.clients)
            for c in range(self.clients)
        ]

    def attach(self, federation, ops) -> Run:
        from repro.runtime.federation import FederationClient

        run = Run(
            federation,
            [FederationClient(federation, "alice", "pw") for _ in range(self.clients)],
        )
        run.ops = ops
        run.banks = [bank_bank(b) for b in range(BANK_BRANCHES)]
        run.accounts = [
            [bank_account(b, i) for i in range(BANK_ACCOUNTS)]
            for b in range(BANK_BRANCHES)
        ]
        run.refs = [[federation.ref(name) for name in row] for row in run.accounts]
        run.tally = [0.0] * self.clients
        run.bad_replies = 0
        run.initial_total = BANK_BALANCE * BANK_BRANCHES * BANK_ACCOUNTS
        return run

    def warm_up(self, run: Run) -> None:
        """Every client runs every kind on every branch: tokens are minted
        on every node and every woven join point's advice is memoized."""
        for c in range(self.clients):
            for b in range(BANK_BRANCHES):
                for kind in KINDS:
                    self._execute(run, c, kind, b, 0, 1, 1.0)

    def _execute(self, run, c, kind, b, x, y, amount) -> None:
        client = run.clients[c]
        if kind == TRANSFER:
            refs = run.refs[b]
            if client.call(run.banks[b], "transfer", refs[x], refs[y], amount) is not True:
                run.bad_replies += 1
        elif kind == DEPOSIT:
            client.call(run.accounts[b][x], "deposit", amount)
            run.tally[c] += amount
        elif kind == WITHDRAW:
            client.call(run.accounts[b][x], "withdraw", amount)
            run.tally[c] -= amount
        elif client.call(run.accounts[b][x], "getBalance") < 0:
            run.bad_replies += 1

    def operation(self, run: Run, client_index: int):
        ops = run.ops[client_index]
        kinds, branches, xs, ys, amounts = (
            ops["kind"], ops["branch"], ops["x"], ops["y"], ops["amount"],
        )
        execute = self._execute
        c = client_index

        def op(i: int) -> None:
            execute(run, c, kinds[i], branches[i], xs[i], ys[i], float(amounts[i]))

        return op, len(kinds)

    def check(self, run: Run) -> List[str]:
        federation = run.federation
        problems = []
        if run.bad_replies:
            problems.append(f"{run.bad_replies} replies were malformed")
        actual = 0.0
        for row in run.accounts:
            for name in row:
                balance = federation.servant(name).balance
                actual += balance
                if balance < 0:
                    problems.append(f"negative balance on {name}: {balance}")
        expected = run.initial_total + sum(run.tally)
        if actual != expected:
            problems.append(f"money not conserved: expected {expected}, found {actual}")
        lag = federation.replicas.replica_lag()
        if lag != 0:
            problems.append(f"replication lag {lag} at the end of the run")
        if federation.failovers:
            problems.append(f"{federation.failovers} failover(s) during the run")
        return problems


def _bank_ops(rng: random.Random, mix, count: int, client: int, clients: int) -> Dict[str, array]:
    kinds = array("B")
    branches = array("B")
    xs = array("B")
    ys = array("B")
    amounts = array("H")
    weights = [weight for weight, _ in mix]
    choices = [kind for _, kind in mix]
    for kind in rng.choices(choices, weights=weights, k=count):
        kinds.append(kind)
        branches.append(rng.randrange(BANK_BRANCHES // clients) * clients + client)
        x, y = rng.sample(range(BANK_ACCOUNTS), 2)
        xs.append(x)
        ys.append(y)
        amounts.append(rng.randrange(1, 20 if kind == TRANSFER else 50))
    return {"kind": kinds, "branch": branches, "x": xs, "y": ys, "amount": amounts}


WORKLOADS = {
    "echo_inproc": EchoWorkload("echo_inproc", "inproc"),
    "echo_socket": EchoWorkload("echo_socket", "socket"),
    "bank_write": BankWorkload("bank_write", WRITE_MIX),
    "bank_read": BankWorkload("bank_read", READ_MIX),
}


def drive(
    workload,
    run: Run,
    deadline_ns: int,
    recorder=None,
    span_budget: Optional[int] = None,
) -> Dict[str, object]:
    """Run every client thread closed-loop until the deadline.

    Returns ``latencies`` (per successful call, the client's wall time
    around it in ns), ``completed``, ``refused`` and ``failed`` counts, and
    up to five of the failures.  With a ``recorder``, each call is a root span and the
    run also stops once the recorder holds ``span_budget`` spans.
    """
    from time import perf_counter_ns

    latencies: List[array] = [array("q") for _ in run.clients]
    #: per client, live: completed, refused, failed
    outcome = [[0, 0, 0] for _ in run.clients]
    errors: List[BaseException] = []

    def client_loop(c: int) -> None:
        op, count = workload.operation(run, c)
        samples = latencies[c]
        counts = outcome[c]
        i = run.position[c]
        try:
            while i < count:
                if perf_counter_ns() >= deadline_ns:
                    break
                if recorder is not None:
                    if len(recorder.spans) >= span_budget:
                        break
                    root = recorder.open_root("client.call", c * 1_000_000_000 + i)
                started = perf_counter_ns()
                try:
                    op(i)
                except Exception as exc:  # noqa: BLE001 - classified, never swallowed
                    if is_refusal(exc):
                        counts[1] += 1
                    else:
                        counts[2] += 1
                        if len(errors) < 5:
                            errors.append(exc)
                else:
                    samples.append(perf_counter_ns() - started)
                    counts[0] += 1
                finally:
                    if recorder is not None:
                        recorder.close(root)
                i += 1
        finally:
            run.position[c] = i

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{c}")
        for c in range(len(run.clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = array("q")
    for samples in latencies:
        merged.extend(samples)
    return {
        "latencies": merged,
        "completed": sum(counts[0] for counts in outcome),
        "refused": sum(counts[1] for counts in outcome),
        "failed": sum(counts[2] for counts in outcome),
        "errors": errors,
    }
