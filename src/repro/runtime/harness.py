"""Scenario harness: build a federation, drive seeded clients, verify.

The harness turns a :class:`~repro.runtime.scenarios.Scenario` into a
run:

1. compile the scenario's :class:`~repro.deploy.DeploymentSpec` into an
   N-node federation (serial or concurrent dispatchers): the configured
   application is refined once, shipped, and replayed on every node, its
   entities are bound on their home shards, and the fault campaign is
   armed when the run asks for faults;
2. run M clients, each with its own seeded RNG, so every client's
   operation stream is reproducible regardless of interleaving — in
   sequential mode the whole run is deterministic and
   :meth:`ScenarioResult.digest` is stable across repeats;
3. join, snapshot metrics, and check the scenario's invariants against
   the servants' actual state.

Closed-loop clients: each client issues its next operation as soon as the
previous one completes.  ``think_time_ms`` models user pacing (an open
holdoff between operations).

Open-loop runs: with :attr:`RunConfig.open_loop` the clients are not
scripted threads but simulated users driven by the
:class:`~repro.runtime.load.OpenLoopDriver` on a virtual-time scheduler —
an arrival schedule offers operations regardless of completions, Zipf
popularity heats a few shards, and bounded-lateness admission sheds what
the SLO already lost.  ``think_time_ms`` is rejected there: pacing is
the schedule's job, and a think-time would quietly re-close the loop.

Churn: with ``RunConfig.churn`` the scenario's churn plan (membership
events — node kill, live join, graceful retire) fires at fixed points
in the issued-op stream: between operations on the sequential driver's
single thread (so a fixed seed fixes the interleaving and the digest),
from a monitor thread watching the shared op counter on the concurrent
driver.  Events whose threshold is never reached fire after the last
client op, so a plan always completes.

Asynchronous scenarios: a pick thunk may return an
:class:`~repro.runtime.scenarios.AsyncOp` instead of ``None`` — the
harness then keeps up to ``window`` replies in flight per client,
resolving the oldest future (and attributing its outcome to the issuing
operation's label) whenever the window fills, and drains every pending
future and oneway delivery (``federation.quiesce``) before invariants
are checked — so money-conservation-style oracles always see a settled
system, never a half-landed batch.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis.witness import named_condition
from repro.errors import InvocationTimeout, ReproError, ScenarioError
from repro.runtime.federation import Federation, FederationClient
from repro.runtime.metrics import format_series_table
from repro.runtime.scenarios import (
    AsyncOp,
    Scenario,
    attach_late_success,
    get_scenario,
)


@dataclass
class RunConfig:
    """Everything that parameterizes one scenario run."""

    scenario: str
    nodes: int = 3
    clients: int = 8
    ops: int = 400
    seed: int = 1
    workers: int = 4
    concurrent: bool = True
    sim_latency_ms: float = 0.5
    real_latency_ms: float = 0.0
    think_time_ms: float = 0.0
    faults: bool = False
    entities_per_node: int = 2
    #: max in-flight async replies per client before the oldest is resolved
    window: int = 4
    #: delivery threads of the federation's queued (async) transport
    delivery_workers: int = 2
    #: how routed hops travel: "inproc" (caller thread) or "socket"
    #: (every hop crosses a real wire connection to the owner node's
    #: listener).  The default never enters the spec digest, so inproc
    #: runs hash as they always did
    transport: str = "inproc"
    #: arm the scenario's churn plan (node kill / join / retire mid-run)
    churn: bool = False
    #: digest of the DeploymentSpec this run builds from (set by the
    #: runner) — scenario digests include it, so topology drift changes
    #: the digest
    spec_digest: Optional[str] = None
    #: the deployment's replication policy (count/snapshot_every; set by
    #: the runner) — surfaced by ``simulate --describe`` so replication
    #: drift is visible before a run, and folded into the spec digest
    #: above
    replication: Optional[Dict[str, Any]] = None
    #: enable distributed tracing for this run.  A *run-level* toggle on
    #: purpose: the deployment spec (and therefore ``spec_digest``) is
    #: identical traced and untraced, so turning tracing on can never
    #: move a scenario digest
    trace: bool = False
    #: the deployment's observability knobs (sample rate, slow-call
    #: threshold, ring capacities; set by the runner) — surfaced by
    #: ``simulate --describe``
    observability: Optional[Dict[str, Any]] = None
    #: open-loop driving: None = closed-loop clients; a dict (possibly
    #: empty) switches the run to the virtual-time open-loop driver and
    #: overrides its knobs (users, arrival, zipf_s, max_lateness_ms,
    #: service_time_ms, sample_every_ms, max_shed_fraction).  ``ops`` is
    #: then the total *offered* arrivals, and ``clients`` only sizes the
    #: connection pool the simulated users share
    open_loop: Optional[Dict[str, Any]] = None

    def describe(self) -> Dict[str, Any]:
        """Every field by name, in field order."""
        described = {member.name: getattr(self, member.name) for member in fields(self)}
        if self.open_loop is not None:
            # a schedule object override serializes as its spec dict
            described["open_loop"] = {
                key: value.to_dict() if hasattr(value, "to_dict") else value
                for key, value in sorted(self.open_loop.items())
            }
        return described


@dataclass
class ScenarioResult:
    """Outcome of one run: counts, metrics, invariants, fingerprint."""

    scenario: str
    config: Dict[str, Any]
    duration_s: float
    ops: int
    succeeded: int
    failed: int
    outcomes: Dict[str, Dict[str, int]]
    metrics: Dict[str, Any]
    federation_stats: Dict[str, Any]
    invariant_violations: List[str]
    faults_injected: Dict[str, int] = field(default_factory=dict)
    fingerprint: List[str] = field(default_factory=list)
    #: the observability export (spans, events, gauges) of a traced run;
    #: None when the run was untraced.  Never part of :meth:`digest` —
    #: timing-shaped data must not perturb outcome hashes
    trace: Optional[Dict[str, Any]] = None
    #: the open-loop :class:`~repro.runtime.load.LoadReport` as a dict
    #: (None on closed-loop runs).  Its *counts* already reach the
    #: digest through ``outcomes`` (shed rides each label); the latency
    #: summaries themselves stay out of the hash — virtual-time numbers
    #: are deterministic, but wall-clock-adjacent fields must never be
    open_loop: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> bool:
        return not self.invariant_violations

    @property
    def throughput_ops_s(self) -> float:
        return self.ops / self.duration_s if self.duration_s > 0 else 0.0

    def digest(self) -> str:
        """Stable hash of the run's observable outcome (not its timing).

        Deterministic for sequential runs with a fixed seed; concurrent
        runs may legitimately vary with thread interleaving.
        """
        canon = json.dumps(
            {
                "scenario": self.scenario,
                "outcomes": self.outcomes,
                "fingerprint": self.fingerprint,
                # topology drift detection: two runs with identical
                # outcomes but different deployment specs must not
                # collide on one digest
                "spec": self.config.get("spec_digest"),
            },
            sort_keys=True,
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def replication_summary(self) -> Optional[Dict[str, Any]]:
        """The run's replication-path counters (None when disabled):
        syncs performed/skipped, log appends, snapshot+truncate cycles,
        and the current/max replica lag watermark deficits."""
        stats = self.federation_stats.get("replication")
        if not stats:
            return None
        return {
            "syncs": stats.get("syncs"),
            "skipped_syncs": stats.get("skipped_syncs"),
            "log_appends": stats.get("log_appends"),
            "snapshots": stats.get("snapshots"),
            "replica_lag": stats.get("replica_lag"),
            "max_replica_lag": stats.get("max_replica_lag"),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "duration_s": self.duration_s,
            "ops": self.ops,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "throughput_ops_s": self.throughput_ops_s,
            "outcomes": self.outcomes,
            "metrics": self.metrics,
            "federation": self.federation_stats,
            "replication": self.replication_summary(),
            "invariant_violations": self.invariant_violations,
            "faults_injected": self.faults_injected,
            "fingerprint": self.fingerprint,
            "trace": self.trace,
            "open_loop": self.open_loop,
            "digest": self.digest(),
            "passed": self.passed,
        }

    def report(self) -> str:
        lines = [
            f"scenario {self.scenario}: {self.ops} ops over "
            f"{self.config['nodes']} node(s), {self.config['clients']} client(s) "
            f"({'concurrent' if self.config['concurrent'] else 'sequential'})",
            f"  duration:   {self.duration_s:.3f}s"
            f"   throughput: {self.throughput_ops_s:.0f} ops/s",
            f"  succeeded:  {self.succeeded}   failed: {self.failed}",
        ]
        if self.open_loop:
            load = self.open_loop
            goodput = load["goodput"]
            response = load["response"]
            lines.append(
                f"  open-loop:  offered {load['offered']}"
                f"  ok {load['completed_ok']}  failed {load['failed']}"
                f"  shed {load['shed']} ({load['shed_fraction']:.1%})"
            )
            lines.append(
                f"  goodput:    {goodput['goodput_ops_s']:.0f} ops/s of "
                f"{goodput['offered_ops_s']:.0f} offered "
                f"({goodput['goodput_fraction']:.1%}) over "
                f"{load['virtual_duration_ms'] / 1000.0:.2f}s virtual"
            )
            lines.append(
                f"  response:   p50 {response['p50_ms']:.3f}  "
                f"p99 {response['p99_ms']:.3f}  "
                f"p99.9 {response['p999_ms']:.3f}  "
                f"max {response['max_ms']:.3f} ms  "
                f"(SLO {load['slo_ms']:.3f} ms)"
            )
        ops = self.metrics.get("operations", {})
        if ops:
            lines.extend(format_series_table(ops, indent="  "))
        routed = self.federation_stats.get("routed", {})
        if routed:
            share = ", ".join(f"{node}={count}" for node, count in routed.items())
            lines.append(f"  routing:    {share}")
        replication = self.replication_summary()
        if replication:
            lines.append(
                f"  replication: {replication['syncs']} sync(s), "
                f"{replication['skipped_syncs']} skipped, "
                f"{replication['log_appends']} append(s), "
                f"{replication['snapshots']} snapshot(s), "
                f"max lag {replication['max_replica_lag']}"
            )
        if self.faults_injected:
            injected = ", ".join(
                f"{site}={count}"
                for site, count in sorted(self.faults_injected.items())
            )
            lines.append(f"  faults:     {injected}")
        if self.invariant_violations:
            lines.append("  INVARIANT VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.invariant_violations)
        else:
            lines.append("  invariants: OK")
        return "\n".join(lines)


class ScenarioRunner:
    """Builds the federation and drives one scenario run."""

    def __init__(self, scenario, config: RunConfig):
        self.spec: Scenario = (
            get_scenario(scenario) if isinstance(scenario, str) else scenario
        )
        self.config = config
        if config.clients < 1:
            raise ScenarioError("need at least one client")
        if config.nodes < 1:
            raise ScenarioError("need at least one node")
        if config.ops < 1:
            raise ScenarioError("need at least one operation")
        if config.concurrent and config.workers < 1:
            raise ScenarioError(
                "concurrent dispatch needs workers >= 1 (use --serial for "
                "the sequential baseline)"
            )
        if config.open_loop is not None:
            if config.think_time_ms > 0:
                raise ScenarioError(
                    "think_time_ms is closed-loop pacing (each client waits "
                    "between its own operations); an open-loop run's pacing "
                    "is the arrival schedule — drop think_time_ms or drop "
                    "open_loop"
                )
            # effective knobs = driver defaults < scenario tuning < run block
            config.open_loop = {
                **self.spec.open_loop_defaults,
                **config.open_loop,
            }
        elif self.spec.requires_open_loop:
            raise ScenarioError(
                f"scenario {self.spec.name!r} is open-loop only (its oracle "
                "judges a load report) — run it with --open-loop"
            )
        #: the declarative deployment of this run
        self.deployment = self.spec.deployment_spec(config)
        config.spec_digest = self.deployment.digest()
        config.replication = self.deployment.replication.to_dict()
        config.observability = self.deployment.observability.to_dict()

    # -- construction -----------------------------------------------------------

    def build(self) -> Federation:
        """Materialize the run's federation: the scenario's
        :class:`~repro.deploy.DeploymentSpec` compiled through the
        :class:`~repro.deploy.DeploymentCompiler` — topology, woven
        application, servants, users, read-only classification, QoS
        defaults, fault campaign, and replication all come from the
        spec.
        """
        from repro.deploy.compiler import DeploymentCompiler

        federation = DeploymentCompiler().deploy(self.deployment)
        if self.config.trace:
            federation.observability.enable_tracing()
        return federation

    def _client_rng(self, client_index: int) -> random.Random:
        return random.Random(self.config.seed * 1_000_003 + 7_919 * client_index)

    def _budgets(self) -> List[int]:
        config = self.config
        base, extra = divmod(config.ops, config.clients)
        return [base + (1 if i < extra else 0) for i in range(config.clients)]

    # -- execution ----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        config = self.config
        federation = self.build()
        try:
            state = self.spec.setup(federation, config)
            self._issued = 0
            self._issued_cond = named_condition("harness.issued")
            #: per-client op counters feeding deterministic trace ids
            self._op_counts = [0] * config.clients
            self._churn: List[Tuple[int, str, Any]] = []
            if config.churn:
                self._churn = sorted(
                    self.spec.churn_plan(config), key=lambda event: event[0]
                )
                if not self._churn:
                    raise ScenarioError(
                        f"scenario {self.spec.name!r} has no churn plan "
                        "(--churn needs one)"
                    )
            clients = []
            for i in range(config.clients):
                user = self.spec.client_user(i)
                clients.append(
                    FederationClient(
                        federation,
                        *(user or (None, None)),
                        qos=self.spec.client_qos,
                    )
                )
            rngs = [self._client_rng(i) for i in range(config.clients)]
            outcomes: List[Dict[str, Dict[str, int]]] = [
                {} for _ in range(config.clients)
            ]
            budgets = self._budgets()

            federation.metrics.start()
            load_report = None
            if config.open_loop is not None:
                from repro.runtime.load import OpenLoopDriver

                load_report = OpenLoopDriver(
                    federation, self.spec, state, config, clients
                ).run()
            elif config.concurrent:
                self._run_concurrent(federation, state, clients, rngs, outcomes, budgets)
            else:
                self._run_sequential(federation, state, clients, rngs, outcomes, budgets)
            # settle the system before measuring or judging it: every
            # oneway and stray async delivery must land first
            if not federation.quiesce(timeout_s=60.0):
                raise ScenarioError(
                    "asynchronous deliveries did not quiesce within 60s"
                )
            federation.observability.sample(federation)
            federation.metrics.stop()

            if load_report is not None:
                merged = load_report.outcomes
            else:
                merged = self._merge_outcomes(outcomes)
            succeeded = sum(r.get("ok", 0) for r in merged.values())
            failed = sum(
                count
                for results in merged.values()
                for key, count in results.items()
                if key != "ok"
            )
            return ScenarioResult(
                scenario=self.spec.name,
                config=config.describe(),
                duration_s=federation.metrics.elapsed_s(),
                ops=succeeded + failed,
                succeeded=succeeded,
                failed=failed,
                outcomes=merged,
                metrics=federation.metrics.snapshot(),
                federation_stats=federation.stats(),
                invariant_violations=self.spec.invariants(federation, state),
                faults_injected=federation.faults_injected(),
                fingerprint=self.spec.fingerprint(federation, state),
                trace=(
                    federation.observability.export(federation.metrics)
                    if config.trace
                    else None
                ),
                open_loop=(
                    load_report.to_dict() if load_report is not None else None
                ),
            )
        finally:
            federation.shutdown()

    def _step(
        self, federation, state, client, rng, outcome, client_index
    ) -> Optional[Tuple[str, AsyncOp]]:
        """Issue one operation; async issues come back as pending entries."""
        label, thunk = self.spec.pick(rng, federation, state, client, client_index)
        results = outcome.setdefault(label, {})
        pending: Optional[Tuple[str, AsyncOp]] = None
        tracer = federation.observability.tracer
        op_index = self._op_counts[client_index]
        self._op_counts[client_index] = op_index + 1
        try:
            with tracer.client_span(
                label,
                tracer.trace_id_for(self.config.seed, client_index, op_index),
            ):
                value = thunk()
        except ReproError as exc:
            key = type(exc).__name__
            results[key] = results.get(key, 0) + 1
        else:
            if isinstance(value, AsyncOp):
                # outcome attributed at resolution time, not issue time
                pending = (label, value)
            else:
                results["ok"] = results.get("ok", 0) + 1
        if self.config.think_time_ms > 0:
            import time

            time.sleep(self.config.think_time_ms / 1000.0)
        return pending

    @staticmethod
    def _resolve(entry: Tuple[str, AsyncOp], outcome) -> None:
        """Wait for one in-flight reply; count it under its own label.

        The wait honours the op's timeout (falling back to the
        envelope's QoS timeout).  A timed-out call counts as failed, but
        its success bookkeeping is re-attached as a done-callback: if
        the delivery lands after all (before the harness quiesces), the
        scenario's tallies still agree with the servant state —
        timeouts must never fake a lost effect.
        """
        label, op = entry
        results = outcome.setdefault(label, {})
        try:
            if op.timeout_ms is None:
                value = op.future.result()
            else:
                value = op.future.result(timeout_ms=op.timeout_ms)
        except InvocationTimeout as exc:
            if op.on_success is not None:
                attach_late_success(op.future, op.on_success)
            key = type(exc).__name__
            results[key] = results.get(key, 0) + 1
        except ReproError as exc:
            key = type(exc).__name__
            results[key] = results.get(key, 0) + 1
        else:
            if op.on_success is not None:
                op.on_success(value)
            results["ok"] = results.get("ok", 0) + 1

    def _client_step(
        self,
        federation,
        state,
        client,
        rng,
        outcome,
        index: int,
        pending: "Deque[Tuple[str, AsyncOp]]",
    ) -> None:
        entry = self._step(federation, state, client, rng, outcome, index)
        with self._issued_cond:
            self._issued += 1
            self._issued_cond.notify_all()
        if entry is not None:
            pending.append(entry)
        while len(pending) > self.config.window:
            self._resolve(pending.popleft(), outcome)

    def _drain(self, pending, outcome) -> None:
        while pending:
            self._resolve(pending.popleft(), outcome)

    # -- churn (membership events scripted by the scenario) -----------------------

    def _fire_due_churn(self, federation, state) -> None:
        """Run every churn event whose op threshold has been reached.

        Called between operations on the sequential driver's one thread,
        so a fixed seed gives a fixed interleaving of ops and membership
        events — the digest-determinism the elastic scenario asserts.
        """
        while self._churn and self._issued >= self._churn[0][0]:
            _at, _label, action = self._churn.pop(0)
            action(federation, state)
            # membership events are exactly when levels move: sample the
            # gauges at each churn edge so the time series brackets it
            federation.observability.sample(federation)

    def _finish_churn(self, federation, state) -> None:
        """Fire any event whose threshold was never reached (op budget
        smaller than the plan expected) so the plan always completes."""
        while self._churn:
            _at, _label, action = self._churn.pop(0)
            action(federation, state)
            federation.observability.sample(federation)

    def _run_sequential(
        self, federation, state, clients, rngs, outcomes, budgets
    ) -> None:
        """Round-robin the clients' scripts on one thread (deterministic
        for synchronous scenarios; async replies land on delivery threads)."""
        remaining = list(budgets)
        pendings: List[Deque[Tuple[str, AsyncOp]]] = [
            deque() for _ in range(self.config.clients)
        ]
        while any(remaining):
            for i in range(self.config.clients):
                if remaining[i] > 0:
                    self._fire_due_churn(federation, state)
                    remaining[i] -= 1
                    self._client_step(
                        federation, state, clients[i], rngs[i], outcomes[i], i,
                        pendings[i],
                    )
        self._finish_churn(federation, state)
        for i in range(self.config.clients):
            self._drain(pendings[i], outcomes[i])

    def _run_concurrent(
        self, federation, state, clients, rngs, outcomes, budgets
    ) -> None:
        errors: List[BaseException] = []
        clients_done = threading.Event()

        def churn_loop() -> None:
            try:
                for at, _label, action in list(self._churn):
                    with self._issued_cond:
                        self._issued_cond.wait_for(
                            lambda: self._issued >= at or clients_done.is_set()
                        )
                    action(federation, state)
                    federation.observability.sample(federation)
                self._churn = []
            except BaseException as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)

        def loop(i: int) -> None:
            pending: Deque[Tuple[str, AsyncOp]] = deque()
            try:
                for _ in range(budgets[i]):
                    self._client_step(
                        federation, state, clients[i], rngs[i], outcomes[i], i,
                        pending,
                    )
                self._drain(pending, outcomes[i])
            except BaseException as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(i,), name=f"client-{i}")
            for i in range(self.config.clients)
        ]
        churn_thread = None
        if self._churn:
            churn_thread = threading.Thread(target=churn_loop, name="churn")
            churn_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        clients_done.set()
        with self._issued_cond:
            self._issued_cond.notify_all()
        if churn_thread is not None:
            churn_thread.join()
        if errors:
            raise errors[0]

    @staticmethod
    def _merge_outcomes(outcomes) -> Dict[str, Dict[str, int]]:
        merged: Dict[str, Dict[str, int]] = {}
        for outcome in outcomes:
            for label, results in outcome.items():
                into = merged.setdefault(label, {})
                for key, count in results.items():
                    into[key] = into.get(key, 0) + count
        return {
            label: dict(sorted(results.items()))
            for label, results in sorted(merged.items())
        }


def run_scenario(scenario, **config) -> ScenarioResult:
    """One-call convenience over :class:`ScenarioRunner`: ``config`` is
    :class:`RunConfig`'s fields by keyword."""
    name = scenario if isinstance(scenario, str) else scenario.name
    return ScenarioRunner(scenario, RunConfig(scenario=name, **config)).run()
