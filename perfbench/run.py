#!/usr/bin/env python3
"""The woven federation's benchmark: one command, four call workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo_inproc --seed 1 --seconds 20 --trace 0

Each run deploys the workload's ``DeploymentSpec`` through
``DeploymentCompiler.deploy`` (several times, to take the median set-up
time), drives the federation closed-loop from this process at zero
injected latency, checks the workload's oracle, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  Timings are scaled to the
reference host speed read by ``hostspeed.py`` around every set-up and
every slice of the timed phase.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run,
whose spans are also written to ``perfbench/out/``.  The line before the
result is a JSON ``info`` object (interpreter, CPUs, sample and tail
counts, host speed, unscaled figures, set-up times, socket endpoints).  A wrong answer prints
``"correct": false`` with no metrics and exits 1, and so does a run in
which any call failed; a checkout without the program under test exits 2
without printing a result.  README.md beside
this file describes the workloads, the metrics and how they are measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"

#: (metric, unit, better) — every end-to-end metric, from untraced runs
END_TO_END = [
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("cpu_us_per_op", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: set-ups per untraced run, split before and after the timed phase so
#: one burst of machine noise cannot reach all of them (median reported)
SETUPS_BEFORE = 8
SETUPS_AFTER = 7
#: set-ups per traced run (median of each traced set-up phase reported)
TRACED_SETUPS = 3
#: the timed phase runs in slices this long, each followed by a host-speed
#: reading; clients start no call after a slice's end and none is cut
SLICE_NS = 100_000_000
#: every run hashes strings with this seed: with a random seed per process,
#: dict and set layouts differ from run to run and moved whole runs' figures
#: by about 10% on an otherwise quiet host
HASH_SEED = "0"
#: spans the traced phase may hold in memory before it stops early
SPAN_BUDGET = 250_000


def pin_to_one_cpu():
    """Run every thread of this process on one CPU; returns it (or None).

    Called before any thread starts, so client, dispatcher-pool and
    listener threads all inherit the mask.  On a small VM a thread handoff
    across CPUs wakes a halted virtual CPU, and whether the scheduler puts
    the two ends of a handoff on one CPU or two changes a socket hop's cost
    about twofold, for seconds at a time: runs flip between the two modes
    at random.  Pinning keeps every run in the same mode, at a price: every
    figure is a one-CPU figure, so the cost of waking a thread on another
    CPU is not measured, and a change that saves only that cannot show.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def with_fixed_hash_seed():
    """Re-execute this script under ``PYTHONHASHSEED=HASH_SEED`` unless it
    already runs under it.  The process image is replaced: no child starts."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("echo_inproc", "echo_socket", "bank_write", "bank_read"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(workload, spec, ops, recorder=None, rid=None):
    """Spec to warmed federation: deploy, log in, warm up. Returns
    ``(seconds, speed, run)``, ``speed`` the host's over the set-up."""
    from hostspeed import calibration_ns, speed

    from repro.deploy.compiler import DeploymentCompiler

    before = calibration_ns()
    root = recorder.open_root("setup", rid) if recorder is not None else None
    started = time.perf_counter()
    try:
        federation = DeploymentCompiler().deploy(spec)
        try:
            run = workload.attach(federation, ops)
            workload.warm_up(run)
        except BaseException:
            federation.shutdown()
            raise
        seconds = time.perf_counter() - started
    finally:
        if root is not None:
            recorder.close(root)
    return seconds, speed(before, calibration_ns()), run


def set_up_repeatedly(workload, spec, ops, repeats, recorder=None):
    """Set up ``repeats`` times; keep the last federation.  Returns every
    set-up's ``(seconds, speed)`` and the run."""
    setups = []
    run = None
    for r in range(repeats):
        if run is not None:
            run.shutdown()
            run = None
        gc.collect()
        seconds, host_speed, run = set_up(workload, spec, ops, recorder, r)
        setups.append((seconds, host_speed))
    return setups, run


def timed_phase(workload, run, seconds, recorder=None, span_budget=None):
    """Drive the clients for ``seconds``, in slices of ``SLICE_NS``.

    Returns :func:`workloads.drive`'s counts and first errors summed over
    the slices, and ``slices``: per slice the successful calls' latencies
    (ns), its wall and process CPU time (ns, every thread) and the host's
    speed, from the calibration readings just before and after it.
    """
    from hostspeed import calibration_ns, speed
    from workloads import drive

    gc.collect()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    phase = {"slices": [], "completed": 0, "refused": 0, "failed": 0, "errors": []}
    reading = calibration_ns()
    while time.perf_counter_ns() < deadline:
        cpu_started = time.process_time_ns()
        started = time.perf_counter_ns()
        part = drive(workload, run, min(started + SLICE_NS, deadline), recorder, span_budget)
        wall = time.perf_counter_ns() - started
        cpu = time.process_time_ns() - cpu_started
        after = calibration_ns()
        phase["slices"].append((part["latencies"], wall, cpu, speed(reading, after)))
        reading = after
        for key in ("completed", "refused", "failed"):
            phase[key] += part[key]
        phase["errors"].extend(part["errors"][: max(0, 5 - len(phase["errors"]))])
        if not part["completed"] + part["refused"] + part["failed"]:
            break  # the operation list or the span budget is used up
    return phase


def scaled_throughput(phase):
    """Completed calls per second of wall time at the reference speed."""
    slices = phase["slices"]
    calls = sum(len(latencies) for latencies, _, _, _ in slices)
    return calls / (sum(wall * s for _, wall, _, s in slices) / 1e9)


def timing_values(phase, info):
    """The four timing metrics over every call of the timed phase, each
    slice's times scaled by the host's speed over it.

    No call is left out, so a stall the program causes (a collection
    pause, a snapshot, a pool stall) counts in full.  ``info`` gets the
    same four figures unscaled, and the spread of the host's speed.
    """
    from spans import median, percentile

    slices = phase["slices"]
    raw = sorted(x for latencies, _, _, _ in slices for x in latencies)
    if not raw:
        raise RuntimeError("no call completed: raise --seconds")
    scaled = sorted(x * s for latencies, _, _, s in slices for x in latencies)
    calls = len(raw)
    p50, p50_beyond = percentile(scaled, 50)
    p99, p99_beyond = percentile(scaled, 99)
    info["latency_samples"] = calls
    info["latency_p50_beyond"] = p50_beyond
    info["latency_p99_beyond"] = p99_beyond
    if p99_beyond < 10:
        info["warning"] = f"only {p99_beyond} samples beyond p99"
    speeds = sorted(s for _, _, _, s in slices)
    info["host_speed"] = {
        "slices": len(slices),
        "min": speeds[0],
        "median": median(speeds),
        "max": speeds[-1],
    }
    info["unscaled"] = {
        "throughput_ops_s": calls / (sum(wall for _, wall, _, _ in slices) / 1e9),
        "latency_p50_us": percentile(raw, 50)[0] / 1000.0,
        "latency_p99_us": percentile(raw, 99)[0] / 1000.0,
        "cpu_us_per_op": sum(cpu for _, _, cpu, _ in slices) / 1000.0 / calls,
    }
    return {
        "throughput_ops_s": scaled_throughput(phase),
        "latency_p50_us": p50 / 1000.0,
        "latency_p99_us": p99 / 1000.0,
        "cpu_us_per_op": sum(cpu * s for _, _, cpu, s in slices) / 1000.0 / calls,
    }


def socket_evidence(federation):
    """Endpoints of a socket federation, and whether all are loopback."""
    import ipaddress

    from repro.middleware.sockets import parse_endpoint

    found = {}
    for name in sorted(federation.nodes):
        endpoint = federation.transport.endpoints(name)
        family, address = parse_endpoint(endpoint)
        found[name] = {
            "endpoint": endpoint,
            "loopback": family == "tcp" and ipaddress.ip_address(address[0]).is_loopback,
        }
    return found


def base_info(args, workload, cpu):
    return {
        "pinned_cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": workload.clients,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def finish(info, correct, attempted, failed, metrics):
    """Print the info line and the result line; the exit code."""
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def check(workload, run, phases, info):
    """The workload's oracle, and no failed call.  Refusals and the first
    failures go to ``info``."""
    info["refused"] = sum(phase["refused"] for phase in phases)
    errors = [f"{type(exc).__name__}: {exc}" for phase in phases for exc in phase["errors"]]
    if errors:
        info["errors"] = errors
    problems = workload.check(run)
    failed = sum(phase["failed"] for phase in phases)
    if failed:
        # a failed deposit is never tallied, so money still balances:
        # the oracle alone would pass a run whose calls fail
        problems.append(f"{failed} call(s) failed")
    return problems


def run_untraced(args, workload, cpu):
    from spans import median

    info = base_info(args, workload, cpu)
    spec = workload.spec(args.seed)
    ops = workload.generate(args.seed, args.seconds)
    setups, run = set_up_repeatedly(workload, spec, ops, SETUPS_BEFORE)
    try:
        phase = timed_phase(workload, run, args.seconds)
        if run.federation.transport_mode == "socket":
            info["sockets"] = socket_evidence(run.federation)
            info["roundtrips"] = run.federation.transport.stats()["roundtrips"]
        problems = check(workload, run, [phase], info)
    finally:
        run.shutdown()
    attempted = phase["completed"] + phase["refused"] + phase["failed"]
    info["failed_frac"] = phase["failed"] / attempted if attempted else 0.0
    if problems:
        info["oracle"] = problems
        return finish(info, False, max(attempted, 1), phase["failed"], {})
    values = timing_values(phase, info)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    later, run = set_up_repeatedly(workload, spec, ops, SETUPS_AFTER)
    run.shutdown()
    setups += later
    info["setup_s_unscaled"] = [seconds for seconds, _ in setups]
    info["setup_speed"] = [host_speed for _, host_speed in setups]
    values["setup_s"] = median([seconds * host_speed for seconds, host_speed in setups])
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _better in END_TO_END
    }
    return finish(info, True, attempted, phase["failed"], metrics)


def run_traced(args, workload, cpu):
    import layers
    from spans import SpanRecorder

    info = base_info(args, workload, cpu)
    spec = workload.spec(args.seed)
    ops = workload.generate(args.seed, args.seconds)

    setup_recorder = SpanRecorder()
    patcher = layers.Patcher()
    layers.install_setup(patcher, setup_recorder)
    try:
        _setups, run = set_up_repeatedly(
            workload, spec, ops, TRACED_SETUPS, setup_recorder
        )
    finally:
        patcher.restore()
    try:
        untraced = timed_phase(workload, run, args.seconds / 2.0)
        recorder = SpanRecorder()
        counters = layers.Counters()
        before = layers.program_counters(run.federation)
        layers.install_hot_path(patcher, recorder, counters, run.federation)
        # the retained spans would make every cyclic collection slower
        # and charge those pauses to whichever layer was running
        gc.collect()
        gc.disable()
        try:
            traced = timed_phase(
                workload, run, args.seconds / 2.0, recorder, SPAN_BUDGET
            )
        finally:
            gc.enable()
            patcher.restore()
        after = layers.program_counters(run.federation)
        problems = check(workload, run, [untraced, traced], info)
        lag = run.federation.replicas.replica_lag() if run.federation.replicas else 0
    finally:
        run.shutdown()
    attempted = sum(p["completed"] + p["refused"] + p["failed"] for p in (untraced, traced))
    failed = untraced["failed"] + traced["failed"]
    if problems:
        info["oracle"] = problems
        return finish(info, False, max(attempted, 1), failed, {})
    ops_traced = traced["completed"]
    values, diagnostics = layers.per_layer_metrics(
        recorder, counters, ops_traced, before, after
    )
    values.update(layers.setup_metrics(setup_recorder))
    values["replication.max_lag"] = float(lag)
    values["trace.overhead_ratio"] = scaled_throughput(traced) / scaled_throughput(untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    recorder.write(str(spans_path))
    info.update(diagnostics)
    info["traced_ops"] = ops_traced
    info["untraced_ops"] = untraced["completed"]
    info["spans_file"] = str(spans_path.relative_to(HERE.parent))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in layers.PER_LAYER
    }
    return finish(info, True, attempted, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing ({SOURCE / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    if args.trace:
        return run_traced(args, workload, cpu)
    return run_untraced(args, workload, cpu)


if __name__ == "__main__":
    with_fixed_hash_seed()
    sys.exit(main())
