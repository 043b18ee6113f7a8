"""Open-loop load harness: generators, virtual time, driver, SLO oracle."""

import random
import threading

import pytest

from repro.errors import MiddlewareError, ScenarioError
from repro.middleware.clock import SimClock
from repro.runtime import run_scenario
from repro.runtime.load import (
    BurstyStepSchedule,
    ConstantSchedule,
    DiurnalSineSchedule,
    PoissonSchedule,
    UserPopulation,
    VirtualTimeScheduler,
    ZipfSampler,
    parse_arrival,
)

# ---------------------------------------------------------------------------
# Zipf popularity
# ---------------------------------------------------------------------------


def test_zipf_rank_frequencies_match_exponent():
    keys = [f"branch-{i}" for i in range(20)]
    sampler = ZipfSampler(keys, s=1.0)
    rng = random.Random(5)
    draws = 200_000
    counts = {}
    for _ in range(draws):
        key = sampler.sample(rng)
        counts[key] = counts.get(key, 0) + 1
    # the rank order is the sorted key list
    for rank in (1, 2, 3, 5, 10):
        expected = sampler.probability(rank)
        observed = counts[sampler.keys[rank - 1]] / draws
        assert observed == pytest.approx(expected, rel=0.05)
    # rank-1 should be ~rank x as popular as rank-k for s=1
    assert counts[sampler.keys[0]] / counts[sampler.keys[9]] == pytest.approx(
        10.0, rel=0.15
    )


def test_zipf_zero_exponent_is_uniform():
    sampler = ZipfSampler(["a", "b", "c", "d"], s=0.0)
    for rank in range(1, 5):
        assert sampler.probability(rank) == pytest.approx(0.25)


def test_zipf_sampling_is_seed_deterministic():
    sampler = ZipfSampler([f"k{i}" for i in range(16)], s=1.3)
    first = [sampler.sample(random.Random(9)) for _ in range(1)]
    runs = [
        [sampler.sample(rng) for _ in range(500)]
        for rng in (random.Random(42), random.Random(42))
    ]
    assert runs[0] == runs[1]
    assert first  # rank list stable regardless of construction order


def test_zipf_rejects_bad_input():
    with pytest.raises(ScenarioError):
        ZipfSampler([], s=1.0)
    with pytest.raises(ScenarioError):
        ZipfSampler(["a"], s=-0.5)
    with pytest.raises(ScenarioError):
        ZipfSampler(["a", "b"]).probability(3)


# ---------------------------------------------------------------------------
# arrival schedules
# ---------------------------------------------------------------------------

SCHEDULES = [
    ConstantSchedule(2_000),
    PoissonSchedule(2_000),
    BurstyStepSchedule(500, 4_000, period_ms=200.0, duty=0.25),
    DiurnalSineSchedule(1_000, amplitude=0.8, period_ms=1_000.0),
]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
def test_schedule_arrivals_are_monotone_nonnegative_and_seeded(schedule):
    stream = schedule.arrivals(31)
    first = [next(stream) for _ in range(2_000)]
    assert all(t >= 0.0 for t in first)
    assert all(b >= a for a, b in zip(first, first[1:]))
    again = schedule.arrivals(31)
    assert [next(again) for _ in range(2_000)] == first


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
def test_schedule_rate_is_nonnegative_everywhere(schedule):
    for t in range(0, 5_000, 7):
        assert schedule.rate_at(float(t)) >= 0.0


def test_poisson_mean_gap_matches_rate():
    schedule = PoissonSchedule(1_000)  # 1 op/ms
    stream = schedule.arrivals(3)
    arrivals = [next(stream) for _ in range(20_000)]
    mean_gap = arrivals[-1] / len(arrivals)
    assert mean_gap == pytest.approx(1.0, rel=0.05)


def test_thinned_schedules_track_their_intensity():
    # arrivals in the burst phase should outnumber the base phase by
    # roughly burst/base, window by window
    schedule = BurstyStepSchedule(500, 4_000, period_ms=200.0, duty=0.5)
    stream = schedule.arrivals(11)
    arrivals = [next(stream) for _ in range(30_000)]
    burst = sum(1 for t in arrivals if (t % 200.0) < 100.0)
    base = len(arrivals) - burst
    assert burst / max(base, 1) == pytest.approx(8.0, rel=0.2)


def test_constant_schedule_is_rng_free():
    schedule = ConstantSchedule(100)
    one = schedule.arrivals(1)
    two = schedule.arrivals(999)
    assert [next(one) for _ in range(50)] == [next(two) for _ in range(50)]


def test_parse_arrival_round_trips_every_shape():
    assert parse_arrival("constant:250").to_dict() == {
        "kind": "constant",
        "rate_per_s": 250.0,
    }
    assert parse_arrival("poisson:1000").rate_at(0) == 1000.0
    bursty = parse_arrival("bursty:100:900:50:0.2")
    assert bursty.to_dict()["duty"] == 0.2
    diurnal = parse_arrival("diurnal:300:0.5:1000")
    assert diurnal.peak_rate() == pytest.approx(450.0)


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "warp:1",
        "poisson",
        "poisson:0",
        "poisson:fast",
        "constant:-5",
        "bursty:100:50:100",  # burst < base
        "bursty:100:900:100:1.5",  # duty out of range
        "diurnal:100:2:1000",  # amplitude > 1
        "diurnal:100:0.5:0",  # period <= 0
    ],
)
def test_parse_arrival_rejects_bad_specs(spec):
    with pytest.raises(ScenarioError):
        parse_arrival(spec)


# ---------------------------------------------------------------------------
# virtual-time scheduler
# ---------------------------------------------------------------------------


def test_scheduler_dispatches_in_time_order_with_fifo_ties():
    sched = VirtualTimeScheduler()
    fired = []
    sched.schedule_at(5.0, lambda t, p: fired.append(p), "late")
    sched.schedule_at(1.0, lambda t, p: fired.append(p), "early")
    sched.schedule_at(5.0, lambda t, p: fired.append(p), "late-tie")
    assert sched.run() == 3
    assert fired == ["early", "late", "late-tie"]
    assert sched.clock.now() == 5.0


def test_scheduler_heap_never_goes_backwards():
    sched = VirtualTimeScheduler()
    sched.schedule_at(10.0, lambda t, p: None)
    sched.run()
    with pytest.raises(MiddlewareError):
        sched.schedule_at(9.999, lambda t, p: None)
    with pytest.raises(MiddlewareError):
        sched.schedule_after(-0.1, lambda t, p: None)


def test_scheduler_time_is_monotone_under_random_event_chains():
    rng = random.Random(17)
    sched = VirtualTimeScheduler()
    seen = []

    def hop(t_ms, depth):
        seen.append(t_ms)
        if depth < 60:
            sched.schedule_after(rng.random() * 5.0, hop, depth + 1)

    for i in range(10):
        sched.schedule_at(rng.random() * 3.0, hop, 0)
    sched.run()
    assert seen == sorted(seen)
    assert sched.dispatched == len(seen)


def test_scheduler_horizon_leaves_future_events_queued():
    sched = VirtualTimeScheduler()
    fired = []
    for due in (1.0, 2.0, 50.0):
        sched.schedule_at(due, lambda t, p: fired.append(t))
    assert sched.run(until_ms=10.0) == 2
    assert fired == [1.0, 2.0]
    assert len(sched) == 1
    assert sched.run() == 1  # the horizon never drops events


# ---------------------------------------------------------------------------
# SimClock under concurrency
# ---------------------------------------------------------------------------


def test_simclock_racing_advances_are_lossless_and_monotone():
    clock = SimClock()
    threads = 8
    per_thread = 2_000
    delta = 0.25
    observed = []

    def pump():
        for _ in range(per_thread):
            observed.append(clock.advance(delta))

    workers = [threading.Thread(target=pump) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    # lossless: no advance is ever dropped by a race
    assert clock.now() == pytest.approx(threads * per_thread * delta)
    # each thread's own returned timestamps never decrease
    assert all(b >= a for a, b in zip(observed, observed[1:]) if b and a)


def test_simclock_rejects_negative_delta():
    clock = SimClock()
    with pytest.raises(MiddlewareError):
        clock.advance(-0.001)
    assert clock.now() == 0.0


def test_simclock_advance_to_is_forward_only():
    clock = SimClock(start=100.0)
    assert clock.advance_to(50.0) == 100.0  # backwards attempt: no-op
    assert clock.advance_to(150.0) == 150.0


# ---------------------------------------------------------------------------
# user population
# ---------------------------------------------------------------------------


def test_user_population_is_array_backed_and_counts_activity():
    population = UserPopulation(1_000)
    population.issued[3] += 2
    population.ok[3] += 1
    population.shed[3] += 1
    population.issued[999] += 1
    stats = population.stats()
    assert stats == {"size": 1_000, "active": 2, "max_ops_one_user": 2}
    with pytest.raises(ScenarioError):
        UserPopulation(0)


# ---------------------------------------------------------------------------
# open-loop runs through the harness
# ---------------------------------------------------------------------------

OPEN_LOOP_SMALL = dict(
    nodes=2,
    clients=4,
    ops=3_000,
    seed=11,
    concurrent=False,
    real_latency_ms=0.0,
)


def test_open_loop_run_is_digest_deterministic_and_meets_slo():
    block = dict(users=50_000, arrival="poisson:2000", zipf_s=1.1)
    first = run_scenario("banking_openloop", open_loop=dict(block), **OPEN_LOOP_SMALL)
    second = run_scenario("banking_openloop", open_loop=dict(block), **OPEN_LOOP_SMALL)
    assert first.passed, first.invariant_violations
    assert first.digest() == second.digest()
    load = first.open_loop
    assert load["offered"] == OPEN_LOOP_SMALL["ops"]
    assert load["users"]["size"] == 50_000
    # coordinated omission is measured: intended-vs-actual lateness is
    # reported, and no admitted op ever waited past the admission bound
    assert load["lateness"]["count"] == load["admitted"]
    assert load["lateness"]["max_ms"] <= load["config"]["max_lateness_ms"] + 1e-6
    assert load["response"]["max_ms"] <= load["slo_ms"] + 1e-6
    # queue-depth gauges were sampled on the virtual clock
    gauges = first.metrics["gauges"]
    assert any(name.startswith("load.") for name in gauges)


def test_open_loop_overload_sheds_instead_of_collapsing():
    result = run_scenario(
        "banking_openloop",
        open_loop=dict(
            users=20_000,
            arrival="constant:30000",  # far past 2 nodes x 1 channel capacity
            service_time_ms=0.2,
            max_lateness_ms=5.0,
            max_shed_fraction=1.0,
        ),
        **OPEN_LOOP_SMALL,
    )
    load = result.open_loop
    assert load["shed"] > 0
    assert 0.0 < load["goodput"]["goodput_fraction"] < 1.0
    # the money oracle still holds: shed ops had no effect, admitted
    # ones committed — and every admitted op still met the SLO
    assert result.passed, result.invariant_violations
    assert load["response"]["max_ms"] <= load["slo_ms"] + 1e-6


def test_open_loop_zipf_concentrates_load_on_the_hot_shard():
    result = run_scenario(
        "banking_openloop",
        open_loop=dict(users=10_000, arrival="poisson:2000", zipf_s=1.5),
        **OPEN_LOOP_SMALL,
    )
    stations = result.open_loop["stations"]
    offered = sorted(
        (s["admitted"] + s["shed"] for s in stations.values()), reverse=True
    )
    assert len(offered) >= 2
    assert offered[0] > 2 * offered[1]  # rank-1 partitions dominate


def test_think_time_is_rejected_under_open_loop():
    with pytest.raises(ScenarioError, match="think_time"):
        run_scenario(
            "banking_openloop",
            think_time_ms=5.0,
            open_loop=dict(users=100),
            **{k: v for k, v in OPEN_LOOP_SMALL.items()},
        )


def test_open_loop_only_scenario_rejects_closed_loop_runs():
    with pytest.raises(ScenarioError, match="open-loop"):
        run_scenario("banking_openloop", **OPEN_LOOP_SMALL)


def test_unknown_open_loop_option_is_rejected():
    with pytest.raises(ScenarioError, match="zipf_exponent"):
        run_scenario(
            "banking_openloop",
            open_loop=dict(users=100, zipf_exponent=2.0),
            **OPEN_LOOP_SMALL,
        )
