"""Tests of the benchmark itself: arithmetic, oracles, and the command.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
from spans import (  # noqa: E402
    PARENT,
    SpanRecorder,
    make_span,
    percentile,
    self_times,
    summarize,
    tie_remote_roots,
)
from workloads import WORKLOADS  # noqa: E402

# ---------------------------------------------------------------------------
# self time and percentiles on synthetic spans
# ---------------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    root = make_span("client.call", 0, 100, rid=1)
    a = make_span("a", 10, 60, parent=root, rid=1)
    b = make_span("b", 20, 30, parent=a, rid=1)
    c = make_span("c", 70, 90, parent=root, rid=1)
    assert self_times([root, a, b, c]) == [30, 40, 10, 20]
    # over a tree, the self times add up to the root's duration
    assert sum(self_times([root, a, b, c])) == 100


def test_unfinished_spans_are_ignored():
    root = make_span("root", 0, 100)
    open_child = make_span("open", 10, 0, parent=root)
    assert self_times([root, open_child]) == [100]


def test_summarize_aggregates_by_name():
    root = make_span("client.call", 0, 100)
    spans = [
        root,
        make_span("x", 0, 30, parent=root),
        make_span("x", 40, 50, parent=root),
        make_span("y", 60, 100, parent=root),
    ]
    summary = summarize(spans)
    assert summary["x"] == {"count": 2, "self_ns": 40, "total_ns": 40}
    assert summary["client.call"]["self_ns"] == 20


def test_listener_roots_are_charged_where_the_client_waited():
    root = make_span("client.call", 0, 100, rid=7)
    roundtrip = make_span("sockets.roundtrip", 5, 95, parent=root, rid=7, corr=42)
    send = make_span("sockets.send", 10, 30, parent=roundtrip, rid=7)
    wait = make_span("sockets.await_reply", 30, 90, parent=roundtrip, rid=7)
    # the listener preempted the sender and finished during the wait
    served = make_span("node.invoke", 20, 70, rid=42, remote=True)
    stray = make_span("wire.decode", 31, 32, rid=99, remote=True)
    spans = [root, roundtrip, send, wait, served, stray]
    assert tie_remote_roots(spans, "sockets.roundtrip") == (1, 1)
    assert served[PARENT] is roundtrip
    summary = summarize(spans)
    assert summary["sockets.send"]["self_ns"] == 20 - 10
    assert summary["sockets.await_reply"]["self_ns"] == 60 - 40
    assert summary["sockets.await_reply"]["total_ns"] == 60
    assert summary["sockets.roundtrip"]["self_ns"] == 90 - 20 - 60
    tied = [root, roundtrip, send, wait, served]
    assert sum(self_times(tied)) == 100


def test_percentile_is_nearest_rank_with_tail_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 99) == (99, 1)
    assert percentile(values, 100) == (100, 0)
    # ties at the percentile are not "beyond" it
    assert percentile([1, 2, 2, 2], 50) == (2, 0)
    assert percentile([5], 99) == (5, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_timing_values_count_every_call_stalls_included():
    # 98 calls of 100 us, then one stalled call of 100 ms, then one of 1 ms
    latencies = [100_000] * 98 + [100_000_000, 1_000_000]
    phase = {"slices": [(latencies, 200_000_000, 10_000_000, 1.0)]}
    info = {}
    values = bench.timing_values(phase, info)
    assert values["throughput_ops_s"] == 100 / 0.2
    assert values["latency_p50_us"] == 100.0
    assert values["latency_p99_us"] == 1000.0
    assert values["cpu_us_per_op"] == 100.0
    assert info["latency_samples"] == 100 and info["latency_p99_beyond"] == 1
    assert info["unscaled"] == values


def test_timing_values_scale_each_slice_by_the_host_speed():
    # the same 10 calls of 100 us, once at reference speed and once while
    # the host ran at half speed and everything took twice as long
    phase = {
        "slices": [
            ([100_000] * 10, 1_000_000, 1_000_000, 1.0),
            ([200_000] * 10, 2_000_000, 2_000_000, 0.5),
        ]
    }
    info = {}
    values = bench.timing_values(phase, info)
    assert values == {
        "throughput_ops_s": 20 / 0.002,
        "latency_p50_us": 100.0,
        "latency_p99_us": 100.0,
        "cpu_us_per_op": 100.0,
    }
    assert info["unscaled"]["latency_p99_us"] == 200.0
    assert info["unscaled"]["throughput_ops_s"] == 20 / 0.003
    assert info["host_speed"]["min"] == 0.5


def test_host_speed_is_one_at_the_reference_reading():
    import hostspeed

    ref = hostspeed.CAL_REF_NS
    assert hostspeed.speed(ref, ref) == 1.0
    assert hostspeed.speed(2 * ref, 2 * ref) == 0.5
    assert hostspeed.calibration_ns() > 0


# ---------------------------------------------------------------------------
# the recorder and the patcher
# ---------------------------------------------------------------------------


def test_recorder_links_a_handed_off_thread_to_its_dispatch_span():
    recorder = SpanRecorder()
    root = recorder.open_root("client.call", 3)
    dispatch = recorder.open("dispatch")
    seen = {}

    def worker():
        with recorder.handoff(dispatch):
            span = recorder.open("orb.invoke")
            recorder.close(span)
            seen["span"] = span
        orphan = recorder.open("wire.decode")
        recorder.close(orphan)
        seen["orphan"] = orphan

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close(dispatch)
    recorder.close(root)
    assert seen["span"][PARENT] is dispatch
    assert seen["orphan"][PARENT] is None
    assert dispatch[PARENT] is root


def test_patcher_restores_every_entry_point():
    from repro.deploy.compiler import DeploymentCompiler
    from repro.middleware import wire
    from repro.middleware.envelope import Envelope
    from repro.middleware.transport import InProcessTransport

    before = {
        "deploy_node": vars(DeploymentCompiler)["deploy_node"],
        "from_wire": vars(Envelope)["from_wire"],
        "submit": vars(InProcessTransport)["submit"],
        "encode": wire.encode_value,
    }
    workload = WORKLOADS["echo_inproc"]
    spec = workload.spec(1)
    seconds, _speed, run = bench.set_up(workload, spec, workload.generate(1, 0.1))
    try:
        chain_before = list(run.federation.chain.names())
        patcher = layers.Patcher()
        recorder = SpanRecorder()
        layers.install_setup(patcher, recorder)
        layers.install_hot_path(patcher, recorder, layers.Counters(), run.federation)
        assert vars(InProcessTransport)["submit"] is not before["submit"]
        patcher.restore()
        assert vars(DeploymentCompiler)["deploy_node"] is before["deploy_node"]
        assert vars(Envelope)["from_wire"] is before["from_wire"]
        assert vars(InProcessTransport)["submit"] is before["submit"]
        assert wire.encode_value is before["encode"]
        assert run.federation.chain.names() == chain_before
    finally:
        run.shutdown()
    assert seconds > 0


def test_patcher_refuses_an_entry_point_that_is_gone():
    class Layer:
        def present(self):
            return 1

    patcher = layers.Patcher()
    with pytest.raises(AttributeError, match="Layer.renamed"):
        patcher.wrap(Layer, "renamed", lambda fn: fn)
    patcher.restore()
    assert Layer().present() == 1


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _deployed(name):
    workload = WORKLOADS[name]
    _seconds, _speed, run = bench.set_up(
        workload, workload.spec(3), workload.generate(3, 0.1)
    )
    return workload, run


def test_echo_oracle_holds_and_fails_on_a_skipped_bump():
    workload, run = _deployed("echo_inproc")
    try:
        assert workload.check(run) == []
        op, _count = workload.operation(run, 0)
        for i in range(8):
            op(i)
        assert workload.check(run) == []
        run.issued[0] += 1  # a bump counted as issued but never sent
        problems = workload.check(run)
        assert len(problems) == 1 and "bumps issued" in problems[0]
    finally:
        run.shutdown()


def test_bank_oracle_holds_and_fails_on_a_dropped_deposit():
    workload, run = _deployed("bank_write")
    try:
        assert workload.check(run) == []
        op, _count = workload.operation(run, 1)
        for i in range(20):
            op(i)
        assert workload.check(run) == []
        run.tally[0] += 25.0  # the teller booked a deposit the bank never got
        problems = workload.check(run)
        assert any("money not conserved" in problem for problem in problems)
    finally:
        run.shutdown()


class _FailingEveryThird:
    """A workload whose every third call raises before it is sent."""

    def __init__(self, inner):
        self.inner = inner

    def operation(self, run, client_index):
        op, count = self.inner.operation(run, client_index)

        def failing(i):
            if i % 3 == 2:
                raise ConnectionError("injected")
            op(i)

        return failing, count

    def check(self, run):
        return self.inner.check(run)


def test_a_failed_call_fails_the_run_though_the_money_balances():
    workload, run = _deployed("bank_write")
    failing = _FailingEveryThird(workload)
    try:
        phase = bench.timed_phase(failing, run, 0.3)
        assert phase["failed"] > 0 and phase["completed"] > 0
        # the failed deposits were never tallied: money alone still balances
        assert workload.check(run) == []
        info = {}
        problems = bench.check(failing, run, [phase], info)
        assert problems == [f"{phase['failed']} call(s) failed"]
        assert info["errors"][0] == "ConnectionError: injected"
    finally:
        run.shutdown()


def test_node_clocks_stand_still_so_credentials_never_expire():
    workload, run = _deployed("bank_write")
    try:
        op, _count = workload.operation(run, 0)
        for i in range(20):
            op(i)
        assert {node.services.clock.now() for node in run.federation.nodes.values()} == {0.0}
    finally:
        run.shutdown()


def test_bank_tellers_never_share_a_branch():
    ops = WORKLOADS["bank_write"].generate(5, 0.1)
    for client, client_ops in enumerate(ops):
        assert {b % len(ops) for b in client_ops["branch"]} == {client}


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    declared = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == [
        tuple(metric) for metric in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(metric) for metric in layers.PER_LAYER
    ]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


def _run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "trace, section", [("0", "end_to_end"), ("1", "per_layer")]
)
def test_command_prints_every_metric_with_its_unit(trace, section):
    done = _run_command(
        "--workload", "echo_inproc", "--seed", "4", "--seconds", "2", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_command_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_command(
        "--workload", "echo_inproc", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode == 2
    assert done.stdout == ""
