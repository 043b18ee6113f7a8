"""Observability plane: tracing, bounded histograms, gauges, event log.

Covers the acceptance criteria of the observability PR:

* digest determinism — a traced run of the elastic churn scenario hashes
  identically to an untraced one (tracing is a run-level toggle, never
  part of the spec digest or outcome hash);
* the failover span oracle — the traced churn run contains a hop span
  carrying a ``failover`` event whose retried child lands on a different
  (promoted) node;
* histogram accuracy — p50/p95/p99/p99.9 within 1% relative error of
  exact nearest-rank on a 1M-sample reference distribution, at fixed
  ``BUCKETS``-slot memory;
* metrics retry semantics — exactly one sample per logical call across
  QoS retries and failover re-deliveries, zero samples for label-less
  batch envelopes;
* the frozen measurement window, the spec round-trip, and the
  reconciler's live observability retune.
"""

import json
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.deploy import (
    DeploymentCompiler,
    DeploymentDiff,
    ObservabilitySpec,
    apply as apply_spec,
)
from repro.errors import MiddlewareError
from repro.middleware.envelope import QoS
from repro.runtime import MetricsRegistry, RunConfig, run_scenario
from repro.runtime.metrics import percentile_of_sorted
from repro.runtime.observability import (
    BUCKETS,
    MAX_TRACKED,
    MIN_TRACKED,
    TRACE_KEY,
    EventLog,
    LogHistogram,
    Observability,
    Tracer,
)
from repro.runtime.scenarios import get_scenario

ELASTIC = dict(
    nodes=3, clients=4, ops=160, seed=1, concurrent=False, churn=True
)


@pytest.fixture(scope="module")
def traced_run():
    return run_scenario("banking_elastic", trace=True, **ELASTIC)


@pytest.fixture(scope="module")
def untraced_run():
    return run_scenario("banking_elastic", **ELASTIC)


def banking_spec():
    config = RunConfig(
        scenario="banking",
        nodes=2,
        clients=2,
        ops=20,
        seed=1,
        workers=2,
        entities_per_node=1,
    )
    return get_scenario("banking").deployment_spec(config)


# ---------------------------------------------------------------------------
# bounded histogram
# ---------------------------------------------------------------------------


def test_histogram_percentiles_within_one_percent_at_fixed_memory():
    rng = random.Random(42)
    hist = LogHistogram()
    samples = []
    for _ in range(1_000_000):
        value = rng.lognormvariate(-7.0, 1.2)  # ~100 ns .. tens of ms
        samples.append(value)
        hist.add(value)
    samples.sort()
    for fraction in (0.50, 0.95, 0.99, 0.999):
        exact = percentile_of_sorted(samples, fraction)
        estimate = hist.percentile(fraction)
        assert abs(estimate - exact) / exact <= 0.01, fraction
    # fixed memory: the bucket array never grows with the sample count
    assert len(hist.counts) == BUCKETS
    assert hist.count == 1_000_000
    assert hist.mean() == pytest.approx(sum(samples) / len(samples))


def test_histogram_extremes_stay_exact():
    hist = LogHistogram()
    assert hist.percentile(0.5) == 0.0
    hist.add(0.0042)
    assert hist.percentile(0.5) == pytest.approx(0.0042, rel=0.0075)
    # a single sample pins every percentile between exact min and max
    assert hist.percentile(0.0) == hist.percentile(1.0)
    # out-of-range values clamp into edge buckets, min/max stay exact
    hist.add(MIN_TRACKED / 10)
    hist.add(MAX_TRACKED * 2)
    assert hist.min_seen == MIN_TRACKED / 10
    assert hist.max_seen == MAX_TRACKED * 2
    assert hist.percentile(1.0) == MAX_TRACKED * 2
    snapshot = hist.snapshot()
    assert snapshot["count"] == 3
    assert snapshot["buckets"] == BUCKETS


def test_series_summary_has_p999():
    registry = MetricsRegistry()
    registry.start()
    for i in range(1000):
        registry.record("op", "node-0", 0.001 * (1 + i % 10))
    summary = registry.snapshot()["operations"]["op"]
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert summary["p99_ms"] <= summary["p999_ms"]
    assert summary["p999_ms"] == pytest.approx(10.0, rel=0.01)


# ---------------------------------------------------------------------------
# measurement window + report
# ---------------------------------------------------------------------------


def test_elapsed_freezes_at_last_sample_without_stop():
    registry = MetricsRegistry()
    registry.start()
    registry.record("op", "node-0", 0.001)
    frozen = registry.elapsed_s()
    assert frozen > 0.0
    time.sleep(0.02)
    # never stopped: the window must not keep growing with wall clock
    assert registry.elapsed_s() == frozen
    assert registry.throughput_ops_s() == pytest.approx(1.0 / frozen)
    # stop() still takes precedence once called
    registry.stop()
    assert registry.elapsed_s() >= frozen


def test_elapsed_zero_when_nothing_recorded():
    registry = MetricsRegistry()
    assert registry.elapsed_s() == 0.0
    registry.start()
    assert registry.elapsed_s() == 0.0
    assert registry.throughput_ops_s() == 0.0


def test_report_renders_per_node_latency_table():
    registry = MetricsRegistry()
    registry.start()
    registry.record("Bank.transfer", "node-0", 0.002)
    registry.record("Bank.transfer", "node-1", 0.003, error=True)
    registry.stop()
    report = registry.report()
    # both tables use the shared formatter: operation AND node rows
    # carry the full percentile columns
    assert report.count("p50 ms") == 2
    node_lines = [l for l in report.splitlines() if l.startswith("node-")]
    assert len(node_lines) == 2
    for line in node_lines:
        assert len(line.split()) >= 5  # name, count, err, p50, p95, p99


# ---------------------------------------------------------------------------
# metrics element retry semantics
# ---------------------------------------------------------------------------


def _envelope(label, retries=0):
    return SimpleNamespace(
        context={},
        operation=label or "<batch>",
        args=[],
        label=label,
        target="node-1",
        attempt=0,
        qos=QoS(retries=retries),
    )


def _drive(element, env, outcomes):
    """Replay the transport's retry loop over ``outcomes``, each a
    continuation taking the envelope."""
    last = None
    for attempt, thunk in enumerate(outcomes):
        env.attempt = attempt
        try:
            return element(env, thunk)
        except Exception as exc:  # noqa: BLE001 - loop mirrors transport
            last = exc
    raise last


def test_metrics_element_records_once_across_retries():
    registry = MetricsRegistry()
    registry.start()
    element = registry.element()
    env = _envelope("Bank.transfer", retries=2)

    def fail(envelope):
        raise MiddlewareError("injected")

    assert _drive(element, env, [fail, fail, lambda e: "ok"]) == "ok"
    series = registry.snapshot()["operations"]["Bank.transfer"]
    assert series["count"] == 1
    assert series["errors"] == 0


def test_metrics_element_records_final_failed_attempt():
    registry = MetricsRegistry()
    registry.start()
    element = registry.element()
    env = _envelope("Bank.transfer", retries=1)

    def fail(envelope):
        raise MiddlewareError("injected")

    with pytest.raises(MiddlewareError):
        _drive(element, env, [fail, fail])
    series = registry.snapshot()["operations"]["Bank.transfer"]
    assert series["count"] == 1
    assert series["errors"] == 1


def test_metrics_element_skips_labelless_batch_envelopes():
    registry = MetricsRegistry()
    registry.start()
    element = registry.element()
    env = _envelope(None)
    assert element(env, lambda e: "ok") == "ok"
    assert registry.total_requests() == 0


# ---------------------------------------------------------------------------
# tracer unit behaviour
# ---------------------------------------------------------------------------


def _hop_env(label, context, target="node-1", retries=0):
    return SimpleNamespace(
        context=context,
        operation=label,
        args=[],
        label=label,
        target=target,
        attempt=0,
        qos=QoS(retries=retries),
    )


def test_trace_ids_are_deterministic():
    assert Tracer.trace_id_for(7, 1, 3) == "00000007-0001-000003"
    assert Tracer.trace_id_for(7, 1, 3) == Tracer.trace_id_for(7, 1, 3)
    tracer = Tracer(sample_rate=0.5)
    picks = [tracer.sampled(Tracer.trace_id_for(1, 0, i)) for i in range(300)]
    assert picks == [
        tracer.sampled(Tracer.trace_id_for(1, 0, i)) for i in range(300)
    ]
    assert 0 < sum(picks) < 300  # neither all-in nor all-out


def test_tracer_tree_and_critical_path():
    tracer = Tracer(slow_call_ms=0.0)
    tracer.enabled = True
    trace_id = Tracer.trace_id_for(7, 1, 3)
    hop_element = tracer.element()
    bus_element = tracer.bus_element("node-1")

    with tracer.client_span("Bank.op", trace_id):
        env = _hop_env("Bank.op", {TRACE_KEY: tracer.current_headers()})

        def deliver(envelope):
            bus_env = _hop_env("op", dict(envelope.context))
            return bus_element(bus_env, lambda e: {"result": None})

        hop_element(env, deliver)

    tree = tracer.trace_tree(trace_id)
    assert len(tree) == 1
    root = tree[0]
    assert root["span"]["kind"] == "client"
    assert root["span"]["span_id"] == f"{trace_id}.0"
    hop = root["children"][0]
    assert hop["span"]["kind"] == "hop"
    assert hop["span"]["target"] == "node-1"
    bus = hop["children"][0]
    assert bus["span"]["kind"] == "bus"
    assert bus["span"]["status"] == "ok"
    path = tracer.critical_path(trace_id)
    assert [span.kind for span in path] == ["client", "hop", "bus"]
    assert tracer.slowest() == [trace_id]
    # slow_call_ms=0 marks every finished span slow
    assert tracer.slow_count == 3
    assert all(span.slow for span in tracer.spans())


def test_tracer_disabled_and_unsampled_are_noops():
    tracer = Tracer()
    with tracer.client_span("op", Tracer.trace_id_for(1, 0, 0)) as span:
        assert span is None
    env = _hop_env("op", {})
    assert tracer.element()(env, lambda e: "ok") == "ok"
    assert tracer.spans() == []
    tracer.enabled = True
    tracer.sample_rate = 0.0
    with tracer.client_span("op", Tracer.trace_id_for(1, 0, 0)) as span:
        assert span is None
    assert tracer.spans() == []


def test_tracer_ring_drops_oldest_and_counts():
    tracer = Tracer(capacity=2)
    tracer.enabled = True
    for index in range(4):
        with tracer.client_span("op", Tracer.trace_id_for(1, 0, index)):
            pass
    assert len(tracer.spans()) == 2
    assert tracer.dropped == 2
    export = tracer.export()
    assert export["span_count"] == 2
    assert export["dropped"] == 2
    tracer.reset()
    assert tracer.spans() == [] and tracer.dropped == 0


def test_event_log_is_bounded_with_monotonic_seqs():
    log = EventLog(capacity=2)
    for index in range(5):
        log.emit("tick", index=index)
    assert len(log) == 2
    assert log.dropped == 3
    assert [record["seq"] for record in log.records()] == [4, 5]
    assert log.last("tick")["index"] == 4
    assert log.records("other") == []
    log.set_capacity(1)
    assert log.capacity == 1
    assert [record["seq"] for record in log.records()] == [5]


def test_observability_facade_configure_and_describe():
    obs = Observability(seed=3)
    obs.configure(
        {
            "sample_rate": 0.5,
            "slow_call_ms": 1.0,
            "span_capacity": 16,
            "event_log_capacity": 8,
        }
    )
    described = obs.describe()
    assert described["sample_rate"] == 0.5
    assert described["slow_call_ms"] == 1.0
    assert described["span_capacity"] == 16
    assert described["event_log_capacity"] == 8
    assert described["tracing"] is False
    obs.enable_tracing()
    assert obs.describe()["tracing"] is True
    record = obs.emit("kill", node="node-0")
    assert record["kind"] == "kill" and record["seq"] == 1


# ---------------------------------------------------------------------------
# traced elastic churn run: digests, failover oracle, events, gauges
# ---------------------------------------------------------------------------


def test_traced_run_digest_matches_untraced(traced_run, untraced_run):
    assert traced_run.config["spec_digest"] == untraced_run.config["spec_digest"]
    assert traced_run.digest() == untraced_run.digest()
    assert untraced_run.trace is None
    assert untraced_run.to_dict()["trace"] is None
    assert traced_run.trace is not None
    assert traced_run.to_dict()["trace"]["tracer"]["span_count"] > 0


def test_traced_run_failover_span_lands_on_promoted_node(traced_run):
    spans = traced_run.trace["tracer"]["spans"]
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span["parent_id"], []).append(span)
    failed = [
        span
        for span in spans
        if span["kind"] == "hop"
        and any(e.get("event") == "failover" for e in span["events"])
    ]
    assert failed, "no hop span recorded the failover promotion"
    promoted = [
        child
        for span in failed
        for child in by_parent.get(span["span_id"], [])
        if child["kind"] == "hop" and child["target"] != span["target"]
    ]
    assert promoted, "failover retry did not land on a different node"
    assert any(
        any(e.get("event") == "retry" for e in child["events"])
        for child in promoted
    )


def test_traced_run_meters_each_logical_call_once(traced_run):
    # QoS retries and failover re-deliveries happened (the failover span
    # test proves it), yet every logical client call produced exactly
    # one metrics sample
    per_op = traced_run.metrics["operations"]
    assert sum(series["count"] for series in per_op.values()) == traced_run.ops


def test_traced_run_event_log_and_gauges(traced_run):
    events = traced_run.trace["events"]
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    kinds = {event["kind"] for event in events}
    assert {"replication_enabled", "kill", "failover", "join", "retire"} <= kinds
    kill = next(e for e in events if e["kind"] == "kill")
    failover = next(e for e in events if e["kind"] == "failover")
    assert failover["node"] == kill["node"]
    assert failover["seq"] > kill["seq"]
    gauges = traced_run.trace["gauges"]
    assert any(
        name.startswith("node.") and name.endswith(".in_flight")
        for name in gauges
    )
    assert "replication.lag" in gauges
    assert "replication.max_lag" in gauges
    for series in gauges.values():
        assert series["samples"] >= 1


# ---------------------------------------------------------------------------
# spec + reconciler
# ---------------------------------------------------------------------------


def test_observability_spec_roundtrip_and_defaults():
    spec = ObservabilitySpec(
        sample_rate=0.5, slow_call_ms=10.0, event_log_capacity=64,
        span_capacity=128,
    )
    assert ObservabilitySpec.from_dict(spec.to_dict()) == spec
    # old spec JSON without the section parses to defaults
    assert ObservabilitySpec.from_dict({}) == ObservabilitySpec()
    deployment = banking_spec()
    assert deployment.observability == ObservabilitySpec()
    parsed = type(deployment).from_json(deployment.to_json())
    assert parsed.observability == deployment.observability
    assert "observe:" in deployment.describe()


def test_observability_spec_validation():
    deployment = banking_spec()
    bad = replace(deployment, observability=ObservabilitySpec(sample_rate=1.5))
    assert any("sample" in p for p in bad.problems())
    bad = replace(
        deployment, observability=ObservabilitySpec(slow_call_ms=-1.0)
    )
    assert any("slow" in p for p in bad.problems())
    bad = replace(
        deployment, observability=ObservabilitySpec(event_log_capacity=0)
    )
    assert bad.problems()
    bad = replace(deployment, observability=ObservabilitySpec(span_capacity=0))
    assert bad.problems()


def test_observability_knobs_do_not_move_spec_digest():
    deployment = banking_spec()
    tuned = replace(
        deployment,
        observability=ObservabilitySpec(sample_rate=0.25, slow_call_ms=5.0),
    )
    # the knobs ARE part of the spec digest (they're declared config)...
    assert deployment.digest() != tuned.digest()
    # ...but the default section digests identically to its absence in
    # older spec JSON, so pre-observability specs keep their digest
    legacy = json.loads(deployment.to_json())
    del legacy["observability"]
    reparsed = type(deployment).from_dict(legacy)
    assert reparsed.digest() == deployment.digest()


def test_reconciler_retunes_observability_live():
    deployment = banking_spec()
    target = replace(
        deployment,
        observability=ObservabilitySpec(
            sample_rate=0.25,
            slow_call_ms=5.0,
            event_log_capacity=32,
            span_capacity=256,
        ),
    )
    diff = DeploymentDiff.between(deployment, target)
    assert not diff.empty
    assert diff.observability_change == target.observability
    plan = diff.plan()
    assert [action.kind for action in plan.actions] == ["set_observability"]
    assert "observability" in diff.describe()
    federation = DeploymentCompiler().deploy(deployment)
    try:
        apply_spec(federation, target)
        assert federation.observability.tracer.sample_rate == 0.25
        assert federation.observability.tracer.slow_call_ms == 5.0
        assert federation.observability.tracer.capacity == 256
        assert federation.observability.events.capacity == 32
        # extract_spec round-trips the live knobs: the reconciler now
        # sees a converged topology
        assert federation.current_spec().observability == target.observability
        assert DeploymentDiff.between(
            federation.current_spec(), target
        ).empty
    finally:
        federation.shutdown()


def test_deploy_plan_sets_only_non_default_observability():
    spec = banking_spec()
    assert spec.observability == ObservabilitySpec()
    kinds = [action.kind for action in DeploymentCompiler().compile(spec).actions]
    assert "set_observability" not in kinds
    tuned = replace(spec, observability=ObservabilitySpec(sample_rate=0.25))
    plan = DeploymentCompiler().compile(tuned)
    (action,) = [a for a in plan.actions if a.kind == "set_observability"]
    assert action.payload["observability"]["sample_rate"] == 0.25


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_trace_renders_span_trees(traced_run, tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(json.dumps(traced_run.to_dict()), encoding="utf-8")
    assert cli_main(["trace", str(results), "--slowest", "2"]) == 0
    out = capsys.readouterr().out
    assert "span(s)" in out
    assert "(client)" in out and "(hop" in out
    assert cli_main(["trace", str(results), "--errors"]) == 0
    capsys.readouterr()
    # a bare --trace-out export renders identically
    export = tmp_path / "trace.json"
    export.write_text(json.dumps(traced_run.trace), encoding="utf-8")
    assert cli_main(["trace", str(export), "--slowest", "1"]) == 0
    out = capsys.readouterr().out
    assert "(client)" in out
    # a specific trace id
    trace_id = traced_run.trace["tracer"]["spans"][0]["trace_id"]
    assert cli_main(["trace", str(export), "--trace-id", trace_id]) == 0


def test_cli_trace_rejects_untraced_results(tmp_path, capsys):
    results = tmp_path / "plain.json"
    results.write_text(json.dumps({"trace": None}), encoding="utf-8")
    assert cli_main(["trace", str(results)]) == 2
    assert "no trace data" in capsys.readouterr().err


def test_cli_simulate_describe_includes_observability(capsys):
    assert (
        cli_main(
            ["simulate", "--scenario", "banking_elastic", "--serial", "--describe"]
        )
        == 0
    )
    described = json.loads(capsys.readouterr().out)
    assert described["trace"] is False
    assert described["observability"] == ObservabilitySpec().to_dict()


def test_cli_simulate_trace_flags_in_help(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["simulate", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--trace" in out and "--trace-out" in out
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["trace", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--slowest" in out and "--errors" in out and "--trace-id" in out
