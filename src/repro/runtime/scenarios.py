"""Built-in load scenarios: one per example application.

A :class:`Scenario` packages everything the harness needs to run a
configured application as a federation workload:

* a PIM builder and an ordered concern plan (the same model-driven
  configuration the examples demonstrate);
* entity setup — instances are created on the node that owns their
  partition key, so naming, routing, and transactions agree;
* a seeded client mix (:meth:`Scenario.pick` draws one operation from a
  per-client RNG, so each client's operation stream is reproducible
  independently of thread interleaving);
* an optional fault campaign (pattern sites — ``"bus.*"`` — applied
  federation-wide);
* invariants checked after the run against the servants' actual state —
  the whole-stack correctness oracle (money conservation, bid
  monotonicity, audit-denial accounting, at-most-once payment).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.witness import named_lock
from repro.deploy.spec import (
    ApplicationSpec,
    ConcernSpec,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    NodeSpec,
    PartitionSpec,
    QoSProfile,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
)
from repro.errors import InvocationTimeout, ReproError, ScenarioError
from repro.middleware.envelope import QoS
from repro.uml import (
    add_attribute,
    add_class,
    add_operation,
    add_package,
    apply_stereotype,
    classes_of,
    ensure_primitives,
    new_model,
)

OpThunk = Callable[[], Any]


class AsyncOp:
    """What an asynchronous pick thunk hands back to the harness.

    Wraps the in-flight :class:`~repro.middleware.envelope.ReplyFuture`;
    the harness resolves it within the client's in-flight window and
    only then runs ``on_success`` (scenario bookkeeping such as tallying
    a deposit's delta) and counts the outcome — so client-side oracles
    never credit an operation whose reply reported failure.
    """

    __slots__ = ("future", "on_success", "timeout_ms")

    def __init__(self, future, on_success=None, timeout_ms=None):
        self.future = future
        self.on_success = on_success
        self.timeout_ms = timeout_ms


def attach_late_success(future, action) -> None:
    """Run ``action(decoded_result)`` if/when ``future`` completes well.

    The timed-out-call hook: a delivery may still land after the caller
    gave up, and bookkeeping (e.g. a deposit's tally delta) must follow
    the *actual* outcome.  Goes through ``future.result()`` so the
    outcome is decoded exactly like a normal wait — a bus-level reply
    whose Response carries a wire error counts as failure, never as
    success with a raw Response payload.
    """

    def callback(done):
        try:
            value = done.result(timeout_ms=None)  # already completed
        except Exception:  # noqa: BLE001 - failure: nothing to book
            return
        action(value)

    future.add_done_callback(callback)


class Tally:
    """Thread-safe scratch counters shared by scenario clients."""

    def __init__(self):
        self._lock = named_lock("scenario.tally")
        self.numbers: Dict[str, float] = {}  # guarded_by: _lock
        self.sets: Dict[str, set] = {}  # guarded_by: _lock

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.numbers[key] = self.numbers.get(key, 0.0) + value

    def maximize(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.numbers.get(key, float("-inf")):
                self.numbers[key] = value

    def mark(self, key: str, member: str) -> None:
        with self._lock:
            self.sets.setdefault(key, set()).add(member)

    def number(self, key: str, default: float = 0.0) -> float:
        with self._lock:
            return self.numbers.get(key, default)

    def members(self, key: str) -> set:
        with self._lock:
            return set(self.sets.get(key, set()))


class Scenario:
    """Base scenario: subclasses fill in the model, mix, and invariants."""

    name = "scenario"
    description = ""
    #: (site-pattern, probability) pairs applied when the run enables faults
    fault_campaign: List[Tuple[str, float]] = []
    #: (user, password, roles) provisioned on every node
    users: List[Tuple[str, str, List[str]]] = []
    #: standby copies per partition (> 0 enables replicated failover)
    replica_count: int = 0
    #: replication log snapshot+truncate threshold (entries retained)
    replication_snapshot_every: int = 64
    #: default QoS handed to every harness client (None = DEFAULT_QOS);
    #: elastic scenarios set a retry budget so failover re-delivery is
    #: automatic for pre-effect dead-node faults
    client_qos: Optional[QoS] = None

    # -- configuration ---------------------------------------------------------

    def build_pim(self):
        raise NotImplementedError

    def concerns(self) -> List[Tuple[str, Dict[str, Any]]]:
        raise NotImplementedError

    # -- declarative deployment -------------------------------------------------

    def servant_layout(self, config) -> List[PartitionSpec]:
        """The scenario's entities as partition/servant specs.

        Every scenario implements this: :meth:`deployment_spec`
        assembles a full :class:`~repro.deploy.DeploymentSpec` from it
        and the harness builds the federation through the
        :class:`~repro.deploy.DeploymentCompiler`, so ``setup`` is
        workload logic only.
        """
        raise ScenarioError(
            f"scenario {self.name!r} declares no servant_layout; every "
            "scenario deploys from a DeploymentSpec"
        )

    def application_spec(self) -> ApplicationSpec:
        """The application section: this scenario's PIM + concern plan."""
        return ApplicationSpec(
            name=self.name,
            builder=f"scenario:{self.name}",
            concerns=tuple(
                ConcernSpec(concern=concern, params=dict(params))
                for concern, params in self.concerns()
            ),
        )

    def deployment_spec(self, config) -> DeploymentSpec:
        """The declarative deployment of one run."""
        partitions = self.servant_layout(config)
        qos_profiles: List[QoSProfile] = []
        client_qos = None
        if self.client_qos is not None:
            qos_profiles.append(
                QoSProfile(
                    name="client",
                    timeout_ms=self.client_qos.timeout_ms,
                    retries=self.client_qos.retries,
                    oneway=self.client_qos.oneway,
                )
            )
            client_qos = "client"
        return DeploymentSpec(
            name=self.name,
            application=self.application_spec(),
            nodes=tuple(
                NodeSpec(
                    name=f"node-{i}",
                    workers=config.workers if config.concurrent else 0,
                    seed=config.seed * 31 + i,
                )
                for i in range(config.nodes)
            ),
            partitions=tuple(partitions),
            # a standby needs a distinct successor node: a topology
            # smaller than replica_count+1 degrades to what it can hold
            # (the pre-spec runtime behaved the same way — standbys
            # simply had nowhere to land)
            replication=ReplicationSpec(
                count=min(self.replica_count, max(config.nodes - 1, 0)),
                snapshot_every=self.replication_snapshot_every,
            ),
            faults=FaultCampaignSpec(
                sites=tuple(
                    FaultSiteSpec(site=site, probability=probability)
                    for site, probability in self.fault_campaign
                ),
                armed=config.faults,
            ),
            users=tuple(
                UserSpec(name=user, password=password, roles=tuple(roles))
                for user, password, roles in self.users
            ),
            qos_profiles=tuple(qos_profiles),
            client_qos=client_qos,
            sim_latency_ms=config.sim_latency_ms,
            real_latency_ms=config.real_latency_ms,
            delivery_workers=config.delivery_workers,
            seed=config.seed,
            # "inproc" is omitted from the serialized spec, so runs
            # that never select a transport keep their historic digests
            transport=getattr(config, "transport", "inproc"),
        )

    @staticmethod
    def _spec_servants(federation) -> Tuple[Dict[str, Any], List[str]]:
        """(live servants by name, names in declaration order) for every
        servant the deployed spec declared — the common bookkeeping of
        single-servant-type scenarios' ``setup``."""
        servants: Dict[str, Any] = {}
        names: List[str] = []
        for _key, servant_spec in federation.spec.servants():
            servants[servant_spec.name] = federation.servant(servant_spec.name)
            names.append(servant_spec.name)
        return servants, names

    def setup(self, federation, config) -> Dict[str, Any]:
        raise NotImplementedError

    def client_user(self, client_index: int) -> Optional[Tuple[str, str]]:
        """The (user, password) a client authenticates as; None = anonymous."""
        if not self.users:
            return None
        user = self.users[client_index % len(self.users)]
        return user[0], user[1]

    # -- workload ---------------------------------------------------------------

    def pick(self, rng, federation, state, client, client_index):
        """Draw one operation: returns ``(label, thunk)``."""
        raise NotImplementedError

    # -- open-loop driving -------------------------------------------------------

    #: scenario-tuned overrides for the open-loop driver's defaults
    #: (the run's ``open_loop`` block wins over both)
    open_loop_defaults: Dict[str, Any] = {}
    #: True = this scenario only makes sense open-loop (its oracle reads
    #: the load report); the harness rejects closed-loop runs of it
    requires_open_loop = False

    def open_loop_keys(self, state) -> List[str]:
        """Partition keys the Zipf popularity distribution ranges over."""
        raise NotImplementedError

    def open_loop_op(self, rng, federation, state, client, key):
        """Draw one operation against partition ``key``: ``(label, thunk)``.

        The open-loop counterpart of :meth:`pick` — the *driver* chose
        the partition (Zipf popularity), the scenario only chooses what
        to do there.
        """
        raise NotImplementedError

    def churn_plan(self, config) -> List[Tuple[int, str, Callable]]:
        """Membership events for a ``--churn`` run.

        Returns ``(at_op, label, action)`` triples; the harness fires
        ``action(federation, state)`` once ``at_op`` operations have
        been issued (between operations on the sequential driver, from
        a monitor thread on the concurrent one).  Default: no plan —
        ``--churn`` on a scenario without one is a scenario error.
        """
        return []

    @staticmethod
    def _roulette(rng, weighted):
        """Pick from ``[(weight, value), ...]`` with one RNG draw."""
        total = sum(weight for weight, _ in weighted)
        point = rng.random() * total
        acc = 0.0
        for weight, value in weighted:
            acc += weight
            if point < acc:
                return value
        return weighted[-1][1]

    # -- verification -------------------------------------------------------------

    def invariants(self, federation, state) -> List[str]:
        """Violation descriptions; empty = the run kept every invariant."""
        raise NotImplementedError

    def fingerprint(self, federation, state) -> List[str]:
        """Stable lines describing the final servant state (digest input)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# banking — money conservation under transactional transfers
# ---------------------------------------------------------------------------


class BankingScenario(Scenario):
    name = "banking"
    description = (
        "branch-partitioned accounts; transactional transfers, deposits, "
        "withdrawals; invariant: money is conserved exactly"
    )
    fault_campaign = [
        ("bus.*", 0.02),
        ("txn.prepare", 0.02),
        ("federation.route", 0.01),
    ]
    users = [("alice", "pw", ["teller"])]

    ACCOUNTS_PER_BRANCH = 4
    INITIAL_BALANCE = 1_000.0

    def build_pim(self):
        resource, model = new_model("bank")
        prims = ensure_primitives(model)
        pkg = add_package(model, "accounts")
        account = add_class(pkg, "Account")
        add_attribute(account, "number", prims["String"])
        add_attribute(account, "balance", prims["Real"])
        deposit = add_operation(
            account, "deposit", [("amount", prims["Real"])], return_type=prims["Real"]
        )
        apply_stereotype(
            deposit, "PythonBody", body="self.balance += amount\nreturn self.balance"
        )
        withdraw = add_operation(
            account, "withdraw", [("amount", prims["Real"])], return_type=prims["Real"]
        )
        apply_stereotype(
            withdraw,
            "PythonBody",
            body=(
                "if amount > self.balance:\n"
                "    raise ValueError('insufficient funds')\n"
                "self.balance -= amount\n"
                "return self.balance"
            ),
        )
        balance = add_operation(account, "getBalance", return_type=prims["Real"])
        apply_stereotype(balance, "PythonBody", body="return self.balance")
        bank = add_class(pkg, "Bank")
        transfer = add_operation(
            bank,
            "transfer",
            [("source", None), ("target", None), ("amount", prims["Real"])],
            return_type=prims["Boolean"],
        )
        apply_stereotype(
            transfer,
            "PythonBody",
            body="source.withdraw(amount)\ntarget.deposit(amount)\nreturn True",
        )
        return resource

    def concerns(self):
        return [
            (
                "distribution",
                {"server_classes": ["Account", "Bank"], "registry_prefix": "bank"},
            ),
            (
                "transactions",
                {
                    "transactional_ops": [
                        "Bank.transfer",
                        "Account.withdraw",
                        "Account.deposit",
                    ],
                    "state_classes": ["Account"],
                },
            ),
            (
                "security",
                {
                    "protected_ops": ["Bank.transfer"],
                    "role_grants": {"teller": ["Bank.*"]},
                },
            ),
        ]

    def servant_layout(self, config):
        """One Bank + N Accounts per branch partition; ``getBalance`` is
        the read-only op (its routed calls skip the replication sync)."""
        partitions = []
        n_branches = max(1, config.nodes * config.entities_per_node)
        for b in range(n_branches):
            key = f"branch-{b}"
            servants = [
                ServantSpec(name=f"{key}/Bank/0", type_name="Bank")
            ]
            for i in range(self.ACCOUNTS_PER_BRANCH):
                name = f"{key}/Account/{i}"
                servants.append(
                    ServantSpec(
                        name=name,
                        type_name="Account",
                        state={"number": name, "balance": self.INITIAL_BALANCE},
                        read_only_ops=("getBalance",),
                    )
                )
            partitions.append(PartitionSpec(key=key, servants=tuple(servants)))
        return partitions

    def setup(self, federation, config):
        """Workload bookkeeping only — servants were materialized by the
        deployment compiler from this scenario's spec."""
        branches = []
        servants: Dict[str, Any] = {}
        initial_total = 0.0
        for partition in federation.spec.partitions:
            accounts = []
            for servant_spec in partition.servants:
                servants[servant_spec.name] = federation.servant(
                    servant_spec.name
                )
                if "/Account/" in servant_spec.name:
                    accounts.append(servant_spec.name)
                    initial_total += servant_spec.state.get("balance", 0.0)
            branches.append(
                {"bank": f"{partition.key}/Bank/0", "accounts": accounts}
            )
        return {
            "config": config,
            "branches": branches,
            "servants": servants,
            "initial_total": initial_total,
            "tally": Tally(),
        }

    #: the synchronous client mix (subclasses override the weights and
    #: may add kinds handled by their _banking_op override)
    MIX = [
        (0.40, "transfer"),
        (0.25, "deposit"),
        (0.25, "withdraw"),
        (0.10, "getBalance"),
    ]

    def pick(self, rng, federation, state, client, client_index):
        branch = rng.choice(state["branches"])
        tally = state["tally"]
        kind = self._roulette(rng, self.MIX)
        return self._banking_op(kind, rng, branch, tally, client)

    def _banking_op(self, kind, rng, branch, tally, client):
        """One synchronous banking operation — shared by the elastic mix."""
        if kind == "transfer":
            source, target = rng.sample(branch["accounts"], 2)
            amount = float(rng.randrange(1, 20))
            source_ref = client.ref(source)
            target_ref = client.ref(target)

            def transfer():
                client.call(branch["bank"], "transfer", source_ref, target_ref, amount)

            return "Bank.transfer", transfer
        if kind == "deposit":
            account = rng.choice(branch["accounts"])
            amount = float(rng.randrange(1, 50))

            def deposit():
                client.call(account, "deposit", amount)
                tally.add("delta", amount)

            return "Account.deposit", deposit
        if kind == "withdraw":
            account = rng.choice(branch["accounts"])
            amount = float(rng.randrange(1, 50))

            def withdraw():
                client.call(account, "withdraw", amount)
                tally.add("delta", -amount)

            return "Account.withdraw", withdraw
        account = rng.choice(branch["accounts"])

        def get_balance():
            client.call(account, "getBalance")

        return "Account.getBalance", get_balance

    def invariants(self, federation, state):
        violations = []
        actual = sum(
            servant.balance
            for name, servant in state["servants"].items()
            if "/Account/" in name
        )
        expected = state["initial_total"] + state["tally"].number("delta")
        if actual != expected:
            violations.append(
                f"money not conserved: expected {expected}, found {actual}"
            )
        for name, servant in state["servants"].items():
            if "/Account/" in name and servant.balance < 0:
                violations.append(f"negative balance on {name}: {servant.balance}")
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} balance={servant.balance:.0f}"
            for name, servant in sorted(state["servants"].items())
            if "/Account/" in name
        ]


# ---------------------------------------------------------------------------
# banking_openloop — offered load, bounded lateness, goodput SLO
# ---------------------------------------------------------------------------


class OpenLoopBankingScenario(BankingScenario):
    name = "banking_openloop"
    description = (
        "banking mix offered open-loop on virtual time: Zipf-hot branches, "
        "bounded-lateness admission; oracles: money conserved, every "
        "admitted op within the latency SLO, shed fraction bounded"
    )
    #: open-loop runs measure the service model, not fault recovery —
    #: the campaign stays empty so --faults is an explicit choice
    fault_campaign: List[Tuple[str, float]] = []
    requires_open_loop = True
    open_loop_defaults = {
        "users": 10_000,
        "arrival": "poisson:4000",
        "zipf_s": 1.1,
        "max_lateness_ms": 50.0,
        "service_time_ms": 0.2,
        # under the default (sub-saturation) offered load the admission
        # gate should barely fire; overload runs raise this bound
        "max_shed_fraction": 0.05,
    }

    def open_loop_keys(self, state):
        return [branch["bank"].split("/", 1)[0] for branch in state["branches"]]

    def open_loop_op(self, rng, federation, state, client, key):
        index = state.get("_branch_by_key")
        if index is None:
            index = state["_branch_by_key"] = {
                branch["bank"].split("/", 1)[0]: branch
                for branch in state["branches"]
            }
        kind = self._roulette(rng, self.MIX)
        return self._banking_op(kind, rng, index[key], state["tally"], client)

    def invariants(self, federation, state):
        """Money conservation (inherited) plus the SLO oracle."""
        violations = super().invariants(federation, state)
        report = state.get("open_loop_report")
        if report is None:
            violations.append("open-loop scenario ran without a load report")
            return violations
        limit = report.config["max_shed_fraction"]
        if report.shed_fraction > limit:
            violations.append(
                f"shed fraction {report.shed_fraction:.4f} exceeds "
                f"allowed {limit:.4f}"
            )
        # bounded lateness makes this structural: an admitted op waits at
        # most max_lateness_ms and is served in service_time_ms, so even
        # the slowest admitted response must sit within the SLO
        slo = report.slo_ms
        if report.response["count"] and report.response["max_ms"] > slo + 1e-6:
            violations.append(
                f"admitted response {report.response['max_ms']:.3f} ms "
                f"breaches the {slo:.3f} ms SLO"
            )
        lateness_bound = report.config["max_lateness_ms"]
        if report.lateness["count"] and (
            report.lateness["max_ms"] > lateness_bound + 1e-6
        ):
            violations.append(
                f"admitted lateness {report.lateness['max_ms']:.3f} ms "
                f"exceeds the {lateness_bound:.3f} ms admission bound"
            )
        return violations


def _add_touch_probe(resource):
    """Give Account a ``touch`` op + ``touches`` counter — the delivery
    oracle both the async (at-most-once oneway) and elastic
    (exactly-once under churn) scenarios count against."""
    model = resource.roots[0]
    prims = ensure_primitives(model)
    account = next(c for c in classes_of(model) if c.name == "Account")
    add_attribute(account, "touches", prims["Integer"])
    touch = add_operation(account, "touch", return_type=prims["Integer"])
    apply_stereotype(
        touch, "PythonBody", body="self.touches += 1\nreturn self.touches"
    )
    return resource


# ---------------------------------------------------------------------------
# banking_async — futures, oneways, and pipelined bursts under faults
# ---------------------------------------------------------------------------


class AsyncBankingScenario(BankingScenario):
    name = "banking_async"
    description = (
        "banking client mix issued asynchronously: reply futures with a "
        "retry/timeout QoS, fire-and-forget oneway touches, pipelined "
        "deposit bursts; invariants: money conserved under in-flight "
        "futures, oneway effects at most once"
    )
    #: the timeout/retry fault campaign: transport faults on both layers
    #: (retried by the async QoS budget) plus prepare-phase aborts
    #: (application-level — never retried, rolled back server-side)
    fault_campaign = [
        ("federation.route", 0.02),
        ("bus.*", 0.02),
        ("txn.prepare", 0.02),
    ]

    #: per-call QoS of the asynchronous mix: bounded waiting, transport
    #: faults retried twice before the client sees them
    ASYNC_QOS = QoS(timeout_ms=30_000.0, retries=2)
    #: oneway deliveries never retry — that is what keeps them at-most-once
    ONEWAY_QOS = QoS(oneway=True, retries=0)
    BURST_SIZE = 4

    def build_pim(self):
        return _add_touch_probe(super().build_pim())

    def pick(self, rng, federation, state, client, client_index):
        branch = rng.choice(state["branches"])
        tally = state["tally"]
        kind = self._roulette(
            rng,
            [
                (0.30, "transfer"),
                (0.20, "deposit"),
                (0.20, "withdraw"),
                (0.10, "getBalance"),
                (0.10, "touch"),
                (0.10, "burst"),
            ],
        )
        if kind == "transfer":
            source, target = rng.sample(branch["accounts"], 2)
            amount = float(rng.randrange(1, 20))
            source_ref = client.ref(source)
            target_ref = client.ref(target)

            def transfer():
                return AsyncOp(
                    client.call_async(
                        branch["bank"],
                        "transfer",
                        source_ref,
                        target_ref,
                        amount,
                        qos=self.ASYNC_QOS,
                    )
                )

            return "Bank.transfer", transfer
        if kind == "deposit":
            account = rng.choice(branch["accounts"])
            amount = float(rng.randrange(1, 50))

            def deposit():
                return AsyncOp(
                    client.call_async(account, "deposit", amount, qos=self.ASYNC_QOS),
                    on_success=lambda _value: tally.add("delta", amount),
                )

            return "Account.deposit", deposit
        if kind == "withdraw":
            account = rng.choice(branch["accounts"])
            amount = float(rng.randrange(1, 50))

            def withdraw():
                return AsyncOp(
                    client.call_async(account, "withdraw", amount, qos=self.ASYNC_QOS),
                    on_success=lambda _value: tally.add("delta", -amount),
                )

            return "Account.withdraw", withdraw
        if kind == "touch":
            account = rng.choice(branch["accounts"])

            def touch():
                # attempts are counted client-side *before* the send: the
                # at-most-once oracle is servant touches <= attempts
                tally.add(f"touch_attempts:{account}")
                client.oneway(account, "touch", qos=self.ONEWAY_QOS)

            return "Account.touch", touch
        if kind == "burst":
            accounts = rng.sample(
                branch["accounts"],
                min(self.BURST_SIZE, len(branch["accounts"])),
            )
            amounts = [float(rng.randrange(1, 25)) for _ in accounts]

            def burst():
                # consecutive same-node calls ride one envelope: the whole
                # burst pays a single transport hop
                pipe = client.pipeline(max_batch=self.BURST_SIZE, qos=self.ASYNC_QOS)
                futures = [
                    pipe.call(account, "deposit", amount)
                    for account, amount in zip(accounts, amounts)
                ]
                pipe.flush()
                first_error = None
                for future, amount in zip(futures, amounts):
                    try:
                        future.result(timeout_ms=30_000.0)
                    except InvocationTimeout as exc:
                        # a timed-out member may still land before the
                        # harness quiesces: re-attach the delta so the
                        # money-conservation oracle cannot fire on a
                        # deposit that actually happened
                        attach_late_success(
                            future,
                            lambda _value, amount=amount: tally.add("delta", amount),
                        )
                        if first_error is None:
                            first_error = exc
                    except Exception as exc:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = exc
                    else:
                        tally.add("delta", amount)
                if first_error is not None:
                    raise first_error

            return "Account.depositBurst", burst
        account = rng.choice(branch["accounts"])

        def get_balance():
            client.call(account, "getBalance")

        return "Account.getBalance", get_balance

    def invariants(self, federation, state):
        violations = super().invariants(federation, state)
        tally = state["tally"]
        for name, servant in state["servants"].items():
            if "/Account/" not in name:
                continue
            attempts = int(tally.number(f"touch_attempts:{name}"))
            touches = servant.touches
            if touches > attempts:
                violations.append(
                    f"{name}: {touches} oneway effects exceed {attempts} "
                    "attempts (at-most-once broken)"
                )
            if not state["config"].faults and touches != attempts:
                violations.append(
                    f"{name}: {touches} oneway effects != {attempts} attempts "
                    "(fault-free runs must deliver exactly once)"
                )
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} balance={servant.balance:.0f} touches={servant.touches}"
            for name, servant in sorted(state["servants"].items())
            if "/Account/" in name
        ]


# ---------------------------------------------------------------------------
# banking_elastic — membership churn: kill + failover, join, retire
# ---------------------------------------------------------------------------


class ElasticBankingScenario(BankingScenario):
    name = "banking_elastic"
    description = (
        "banking mix under membership churn: a node is killed mid-run "
        "(replicated standbys promoted, pre-effect calls retried), a new "
        "node joins (only its rehashed shard migrates), a node retires "
        "gracefully; invariants: money conserved, touch effects exactly "
        "once per success, every name still resolvable"
    )
    #: churn is the fault model here; the optional --faults campaign adds
    #: transport noise on top (retried under the same client QoS budget)
    fault_campaign = [("federation.route", 0.01)]
    users = [("alice", "pw", ["teller"])]
    #: one standby per partition — enough to survive one crash at a time;
    #: the churn/kill oracles below (money conserved, exactly-once touch)
    #: therefore exercise log replay, truncation, and log-riding failover
    #: promotion on every run
    replica_count = 1
    replication_snapshot_every = 32
    #: the retry budget that makes failover transparent for pre-effect
    #: faults; application errors are still never retried
    client_qos = QoS(timeout_ms=30_000.0, retries=2)

    JOINED_NODE = "node-elastic"

    #: the banking mix plus the exactly-once probe: every *successful*
    #: synchronous touch must leave exactly one increment — a failover
    #: retry that duplicated an effect, or a migration that lost one,
    #: both break the equality
    MIX = [
        (0.35, "transfer"),
        (0.20, "deposit"),
        (0.20, "withdraw"),
        (0.15, "touch"),
        (0.10, "getBalance"),
    ]

    def build_pim(self):
        return _add_touch_probe(super().build_pim())

    # -- deployment -------------------------------------------------------------
    #
    # The compiler refines the vendor lifecycle once and every node
    # weaves the shipped package's derivation, for *every*
    # spec-declared scenario; the elastic scenario only needs the joiner
    # hook below to weave that same derivation on a node joining mid-run
    # — migration ships servant state, the package ships the code to
    # host it.

    @staticmethod
    def deploy_node(federation, node) -> None:
        """Install the federation's shipped package on one node."""
        from repro.deploy.compiler import DeploymentCompiler

        DeploymentCompiler.deploy_node(federation, node)

    # -- the churn campaign ---------------------------------------------------

    def churn_plan(self, config):
        if config.nodes < 2:
            raise ScenarioError(
                "banking_elastic churn needs >= 2 nodes (failover must "
                "have somewhere to promote to)"
            )
        quarter = max(1, config.ops // 4)
        victim = f"node-{config.nodes - 1}"

        def kill(federation, state):
            federation.kill(victim)

        def join(federation, state):
            run_config = state["config"]
            federation.join(
                self.JOINED_NODE,
                workers=run_config.workers if run_config.concurrent else 0,
                seed=run_config.seed * 31 + 97,
                deploy=lambda node: self.deploy_node(federation, node),
            )

        def retire(federation, state):
            federation.retire("node-0")

        return [
            (quarter, f"kill {victim}", kill),
            (2 * quarter, f"join {self.JOINED_NODE}", join),
            (3 * quarter, "retire node-0", retire),
        ]

    # -- workload --------------------------------------------------------------

    def _banking_op(self, kind, rng, branch, tally, client):
        if kind == "touch":
            account = rng.choice(branch["accounts"])

            def touch():
                # synchronous: a success IS one effect — counted only
                # after the call returned, so touches == successes holds
                # even when a pre-effect fault consumed retry attempts
                client.call(account, "touch")
                tally.add(f"touch_ok:{account}")

            return "Account.touch", touch
        return super()._banking_op(kind, rng, branch, tally, client)

    # -- oracles: judged against the LIVE servants ------------------------------

    def _live_servants(self, federation, state):
        """(name, servant) via current routing — setup-time references go
        stale the moment a shard migrates or fails over."""
        pairs = []
        for branch in state["branches"]:
            for name in [branch["bank"], *branch["accounts"]]:
                pairs.append((name, federation.servant(name)))
        return pairs

    def invariants(self, federation, state):
        violations = []
        # settle membership first: a node killed late in the run may not
        # have been promoted yet (no traffic hit its shard afterwards)
        federation.reconcile()
        tally = state["tally"]
        total = 0.0
        try:
            live = self._live_servants(federation, state)
        except ReproError as exc:
            return [f"binding lost after churn: {exc}"]
        for name, servant in live:
            if "/Account/" not in name:
                continue
            total += servant.balance
            if servant.balance < 0:
                violations.append(f"negative balance on {name}: {servant.balance}")
            successes = int(tally.number(f"touch_ok:{name}"))
            if servant.touches != successes:
                violations.append(
                    f"{name}: {servant.touches} touch effects != "
                    f"{successes} successful touches (exactly-once broken "
                    "by churn)"
                )
        expected = state["initial_total"] + tally.number("delta")
        if total != expected:
            violations.append(
                f"money not conserved under churn: expected {expected}, "
                f"found {total}"
            )
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} balance={servant.balance:.0f} touches={servant.touches}"
            for name, servant in sorted(self._live_servants(federation, state))
            if "/Account/" in name
        ]


# ---------------------------------------------------------------------------
# auction — serialized bidding, monotonic highest bid
# ---------------------------------------------------------------------------


class AuctionScenario(Scenario):
    name = "auction"
    description = (
        "item-partitioned auctions; concurrent bidding serialized per "
        "servant; invariant: final highest bid == max accepted bid"
    )
    fault_campaign = [("bus.*", 0.03)]
    users: List[Tuple[str, str, List[str]]] = []

    def build_pim(self):
        resource, model = new_model("auction")
        prims = ensure_primitives(model)
        pkg = add_package(model, "market")
        auction = add_class(pkg, "Auction")
        add_attribute(auction, "item", prims["String"])
        add_attribute(auction, "highestBid", prims["Real"])
        add_attribute(auction, "highestBidder", prims["String"])
        bid = add_operation(
            auction,
            "bid",
            [("who", prims["String"]), ("amount", prims["Real"])],
            return_type=prims["Boolean"],
        )
        apply_stereotype(
            bid,
            "PythonBody",
            body=(
                "if amount <= self.highestBid:\n"
                "    return False\n"
                "self.highestBid = amount\n"
                "self.highestBidder = who\n"
                "return True"
            ),
        )
        status = add_operation(auction, "status", return_type=prims["Real"])
        apply_stereotype(status, "PythonBody", body="return self.highestBid")
        return resource

    def concerns(self):
        return [
            (
                "distribution",
                {"server_classes": ["Auction"], "registry_prefix": "market"},
            ),
            ("logging", {"log_patterns": ["Auction.bid"]}),
        ]

    def servant_layout(self, config):
        partitions = []
        n_items = max(1, config.nodes * config.entities_per_node)
        for k in range(n_items):
            key = f"item-{k}"
            partitions.append(
                PartitionSpec(
                    key=key,
                    servants=(
                        ServantSpec(
                            name=f"{key}/Auction/0",
                            type_name="Auction",
                            state={
                                "item": key,
                                "highestBid": 0.0,
                                "highestBidder": "",
                            },
                            read_only_ops=("status",),
                        ),
                    ),
                )
            )
        return partitions

    def setup(self, federation, config):
        servants, items = self._spec_servants(federation)
        return {
            "config": config,
            "items": items,
            "servants": servants,
            "tally": Tally(),
        }

    def pick(self, rng, federation, state, client, client_index):
        item = rng.choice(state["items"])
        tally = state["tally"]
        kind = self._roulette(rng, [(0.7, "bid"), (0.3, "status")])
        if kind == "bid":
            amount = float(rng.randrange(1, 10_000))
            who = f"client-{client_index}"

            def bid():
                if client.call(item, "bid", who, amount):
                    tally.maximize(f"best:{item}", amount)

            return "Auction.bid", bid

        def status():
            client.call(item, "status")

        return "Auction.status", status

    def invariants(self, federation, state):
        violations = []
        for name in state["items"]:
            servant = state["servants"][name]
            best = state["tally"].number(f"best:{name}", 0.0)
            if servant.highestBid != best:
                violations.append(
                    f"{name}: highestBid {servant.highestBid} != "
                    f"max accepted bid {best}"
                )
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} bid={servant.highestBid:.0f} by={servant.highestBidder}"
            for name, servant in sorted(state["servants"].items())
        ]


# ---------------------------------------------------------------------------
# medical_records — role-based access, audit accounting
# ---------------------------------------------------------------------------


class MedicalRecordsScenario(Scenario):
    name = "medical_records"
    description = (
        "patient-partitioned records; doctors update, nurses read-only; "
        "invariant: revisions == successful updates, denials all audited"
    )
    fault_campaign = [("txn.prepare", 0.08)]
    users = [("dr_ada", "pw", ["doctor"]), ("nina", "pw", ["nurse"])]

    def build_pim(self):
        resource, model = new_model("clinic")
        prims = ensure_primitives(model)
        pkg = add_package(model, "records")
        record = add_class(pkg, "PatientRecord")
        add_attribute(record, "patientId", prims["String"])
        add_attribute(record, "diagnosis", prims["String"])
        add_attribute(record, "revision", prims["Integer"])
        read = add_operation(record, "read", return_type=prims["String"])
        apply_stereotype(read, "PythonBody", body="return self.diagnosis")
        update = add_operation(
            record, "update", [("text", prims["String"])], return_type=prims["Integer"]
        )
        apply_stereotype(
            update,
            "PythonBody",
            body=(
                "if text == '':\n"
                "    raise ValueError('empty diagnosis')\n"
                "self.diagnosis = text\n"
                "self.revision += 1\n"
                "return self.revision"
            ),
        )
        return resource

    def concerns(self):
        return [
            (
                "distribution",
                {"server_classes": ["PatientRecord"], "registry_prefix": "clinic"},
            ),
            (
                "transactions",
                {
                    "transactional_ops": ["PatientRecord.update"],
                    "state_classes": ["PatientRecord"],
                },
            ),
            (
                "security",
                {
                    "protected_ops": ["PatientRecord.read", "PatientRecord.update"],
                    "role_grants": {
                        "doctor": ["PatientRecord.*"],
                        "nurse": ["PatientRecord.read"],
                    },
                },
            ),
        ]

    def client_user(self, client_index):
        user = self.users[client_index % 2]
        return user[0], user[1]

    def _is_doctor(self, client_index):
        return client_index % 2 == 0

    def servant_layout(self, config):
        partitions = []
        n_records = max(1, config.nodes * config.entities_per_node)
        for k in range(n_records):
            key = f"patient-{k}"
            partitions.append(
                PartitionSpec(
                    key=key,
                    servants=(
                        ServantSpec(
                            name=f"{key}/PatientRecord/0",
                            type_name="PatientRecord",
                            state={
                                "patientId": key,
                                "diagnosis": "healthy",
                                "revision": 0,
                            },
                            read_only_ops=("read",),
                        ),
                    ),
                )
            )
        return partitions

    def setup(self, federation, config):
        servants, records = self._spec_servants(federation)
        return {
            "config": config,
            "records": records,
            "servants": servants,
            "tally": Tally(),
        }

    def pick(self, rng, federation, state, client, client_index):
        record = rng.choice(state["records"])
        tally = state["tally"]
        if self._is_doctor(client_index):
            kind = self._roulette(
                rng, [(0.40, "read"), (0.55, "update"), (0.05, "empty-update")]
            )
            if kind == "read":

                def read():
                    client.call(record, "read")

                return "PatientRecord.read", read
            if kind == "update":
                text = f"dx-{rng.randrange(1, 10_000)}"

                def update():
                    client.call(record, "update", text)
                    tally.add(f"updates:{record}")

                return "PatientRecord.update", update

            def empty_update():
                client.call(record, "update", "")

            return "PatientRecord.update", empty_update
        # nurses: mostly reads, plus update attempts that must be denied
        kind = self._roulette(rng, [(0.7, "read"), (0.3, "update")])
        if kind == "read":

            def read():
                client.call(record, "read")

            return "PatientRecord.read", read

        def denied_update():
            tally.add("nurse_update_attempts")
            client.call(record, "update", "nurse-note")

        return "PatientRecord.update", denied_update

    def invariants(self, federation, state):
        violations = []
        for name in state["records"]:
            servant = state["servants"][name]
            expected = int(state["tally"].number(f"updates:{name}"))
            if servant.revision != expected:
                violations.append(
                    f"{name}: revision {servant.revision} != "
                    f"successful updates {expected}"
                )
        denials = sum(
            len(node.services.audit.denials())
            for node in federation.nodes.values()
        )
        attempts = int(state["tally"].number("nurse_update_attempts"))
        if state["config"].faults:
            # a faulted request may die before the access check: the
            # audit trail can only under-count scripted attempts
            if denials > attempts:
                violations.append(
                    f"denials {denials} exceed nurse update attempts {attempts}"
                )
        elif denials != attempts:
            violations.append(
                f"audit denials {denials} != nurse update attempts {attempts}"
            )
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} rev={servant.revision} dx={servant.diagnosis}"
            for name, servant in sorted(state["servants"].items())
        ]


# ---------------------------------------------------------------------------
# component_shipping — ship once, weave on every node, pay at most once
# ---------------------------------------------------------------------------


class ComponentShippingScenario(Scenario):
    name = "component_shipping"
    description = (
        "a vendor lifecycle is refined once and shipped as a component "
        "package whose derivation every node weaves; invariant: each order "
        "is paid at most once"
    )
    fault_campaign = [("txn.prepare", 0.05)]
    users = [("carol", "pw", ["cashier"])]

    ORDER_TOTAL = 25.0

    def build_pim(self):
        resource, model = new_model("orders")
        prims = ensure_primitives(model)
        pkg = add_package(model, "shop")
        order = add_class(pkg, "Order")
        add_attribute(order, "total", prims["Real"])
        add_attribute(order, "paid", prims["Boolean"])
        pay = add_operation(
            order, "pay", [("amount", prims["Real"])], return_type=prims["Boolean"]
        )
        apply_stereotype(
            pay,
            "PythonBody",
            body=(
                "if self.paid:\n"
                "    raise ValueError('already paid')\n"
                "if amount < self.total:\n"
                "    raise ValueError('partial payment refused')\n"
                "self.paid = True\n"
                "return True"
            ),
        )
        is_paid = add_operation(order, "isPaid", return_type=prims["Boolean"])
        apply_stereotype(is_paid, "PythonBody", body="return self.paid")
        return resource

    def concerns(self):
        return [
            (
                "transactions",
                {"transactional_ops": ["Order.pay"], "state_classes": ["Order"]},
            ),
            (
                "security",
                {
                    "protected_ops": ["Order.pay"],
                    "role_grants": {"cashier": ["Order.*"]},
                },
            ),
        ]

    # the ship-once deployment this scenario used to hand-code is now
    # the compiler's standard path for every spec

    def servant_layout(self, config):
        partitions = []
        n_orders = max(1, config.nodes * config.entities_per_node * 3)
        for k in range(n_orders):
            key = f"order-{k}"
            partitions.append(
                PartitionSpec(
                    key=key,
                    servants=(
                        ServantSpec(
                            name=f"{key}/Order/0",
                            type_name="Order",
                            state={"total": self.ORDER_TOTAL, "paid": False},
                            read_only_ops=("isPaid",),
                        ),
                    ),
                )
            )
        return partitions

    def setup(self, federation, config):
        servants, orders = self._spec_servants(federation)
        return {
            "config": config,
            "orders": orders,
            "servants": servants,
            "tally": Tally(),
        }

    def pick(self, rng, federation, state, client, client_index):
        order = rng.choice(state["orders"])
        tally = state["tally"]
        kind = self._roulette(rng, [(0.5, "pay"), (0.5, "isPaid")])
        if kind == "pay":

            def pay():
                client.call(order, "pay", self.ORDER_TOTAL)
                tally.mark("paid", order)
                tally.add(f"pays:{order}")

            return "Order.pay", pay

        def is_paid():
            client.call(order, "isPaid")

        return "Order.isPaid", is_paid

    def invariants(self, federation, state):
        violations = []
        paid_set = state["tally"].members("paid")
        for name in state["orders"]:
            servant = state["servants"][name]
            if servant.paid != (name in paid_set):
                violations.append(
                    f"{name}: paid flag {servant.paid} disagrees with "
                    f"client-observed payments"
                )
            pays = int(state["tally"].number(f"pays:{name}"))
            if pays > 1:
                violations.append(f"{name}: paid {pays} times (at most once allowed)")
        return violations

    def fingerprint(self, federation, state):
        return [
            f"{name} paid={servant.paid}"
            for name, servant in sorted(state["servants"].items())
        ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS: Dict[str, Scenario] = {
    spec.name: spec
    for spec in (
        BankingScenario(),
        OpenLoopBankingScenario(),
        AsyncBankingScenario(),
        ElasticBankingScenario(),
        AuctionScenario(),
        MedicalRecordsScenario(),
        ComponentShippingScenario(),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ScenarioError(f"unknown scenario {name!r} (known: {known})") from None
