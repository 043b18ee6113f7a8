"""E15 — batched pipeline execution vs N sequential ``engine.apply`` calls.

The 10-concern banking scenario: the Fig. 2 bank PIM extended with extra
functional classes, refined along ten concern dimensions (the three paper
concerns' shape, times a spread of marker concerns), each GMT gating on
OCL pre/postconditions that scan the model.

Sequential baseline: one :meth:`TransformationEngine.apply` per CMT —
ten transactions, and every condition pays its own ``allInstances``
walks.  Pipeline: plan → schedule → execute, independent concerns
grouped into batches sharing one transaction, one demarcated savepoint,
and per-phase OCL extent caches; compiled-condition cache hits are
reported by the run's :class:`~repro.pipeline.executor.PipelineStats`.

Run standalone for the speedup summary (used by CI and CHANGES.md)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
"""

from __future__ import annotations

import time

from conftest import make_bank

from repro.core import Concern, GenericTransformation
from repro.core.registry import ConcernRegistry
from repro.pipeline import ConfigurationPlan, PipelineExecutor, Scheduler
from repro.repository import ModelRepository
from repro.transform import TransformationEngine
from repro.uml import add_attribute, add_class, add_operation, add_package
from repro.uml.model import ensure_primitives, find_element


N_CONCERNS = 10

# shared gating idioms: identical condition text across concerns is the
# compile cache's bread and butter (parsed once, hit N-1 times)
WELL_FORMED = "Class.allInstances()->forAll(c | c.name <> '')"
HAS_OPERATIONS = (
    "Class.allInstances()->exists(c | c.operations->notEmpty())"
)
NO_CLASH = "Class.allInstances()->forAll(c | c.name <> marker_name)"
MARKED = "Class.allInstances()->exists(c | c.name = marker_name)"


def make_banking_model(extra_classes: int = 20):
    """The bank PIM plus functional ballast (the '10-concern banking model')."""
    resource, model = make_bank()
    prims = ensure_primitives(model)
    pkg = add_package(model, "services")
    for i in range(extra_classes):
        cls = add_class(pkg, f"Service{i}")
        add_attribute(cls, "state", prims["Real"])
        add_operation(
            cls, "serve", [("x", prims["Real"])], return_type=prims["Real"]
        )
    return resource, model


def make_marker_concern(i: int) -> GenericTransformation:
    """One synthetic concern dimension: gate on the model, add a marker class."""
    concern = Concern(
        f"concern{i}",
        f"synthetic concern dimension {i}",
        viewpoint=HAS_OPERATIONS.replace("exists", "select"),
    )
    gmt = GenericTransformation(f"T_concern{i}", concern)
    gmt.parameter("marker_name", type=str, description="class the rule adds")
    gmt.precondition("well-formed", WELL_FORMED)
    gmt.precondition("has-operations", HAS_OPERATIONS)
    gmt.precondition("no-clash", NO_CLASH)
    gmt.postcondition("marked", MARKED)

    @gmt.rule("add-marker", "introduce the concern's marker class")
    def _add_marker(ctx):
        pkg = find_element(ctx.model, "services")
        cls = add_class(pkg, ctx.require_param("marker_name"))
        ctx.record(sources=[pkg], targets=[cls], note="marker")

    return gmt


def build_registry() -> ConcernRegistry:
    registry = ConcernRegistry()
    for i in range(N_CONCERNS):
        registry.register(make_marker_concern(i))
    return registry


def concrete_transformations(registry):
    return [
        registry.get(f"concern{i}").specialize(marker_name=f"Marker{i}")
        for i in range(N_CONCERNS)
    ]


def build_plan() -> ConfigurationPlan:
    plan = ConfigurationPlan()
    for i in range(N_CONCERNS):
        plan.select(f"concern{i}", marker_name=f"Marker{i}")
    return plan


def run_sequential(registry) -> None:
    """N independent engine.apply calls (today's one-at-a-time loop)."""
    resource, _ = make_banking_model()
    engine = TransformationEngine(ModelRepository(resource))
    for cmt in concrete_transformations(registry):
        engine.apply(cmt)


def run_pipeline(registry, savepoints: bool = False):
    """One batched pipeline run; returns the stats object."""
    resource, _ = make_banking_model()
    repository = ModelRepository(resource)
    steps = build_plan().bind(registry)
    schedule = Scheduler().schedule(steps)
    executor = PipelineExecutor(repository, savepoints=savepoints)
    result = executor.run(schedule)
    assert len(result.applications) == N_CONCERNS
    return result.stats


def bench_sequential_10_concerns(benchmark):
    registry = build_registry()
    benchmark(lambda: run_sequential(registry))


def bench_pipeline_10_concerns(benchmark):
    registry = build_registry()
    benchmark(lambda: run_pipeline(registry))


def bench_pipeline_10_concerns_with_savepoints(benchmark):
    registry = build_registry()
    benchmark(lambda: run_pipeline(registry, savepoints=True))


def measure_speedup(rounds: int = 5):
    """Best-of-N wall-clock comparison; returns (sequential_s, pipeline_s, stats).

    The two sides' rounds interleave, and which side runs first
    alternates from round to round, so a host slowdown that lasts
    through part of the measurement hits both sides instead of one."""
    registry = build_registry()
    # warm-up: imports, compile cache, code paths
    run_sequential(registry)
    stats = run_pipeline(registry)

    sides = (lambda: run_sequential(registry), lambda: run_pipeline(registry))
    best = [float("inf"), float("inf")]
    for round_index in range(rounds):
        for side in (0, 1) if round_index % 2 == 0 else (1, 0):
            best[side] = min(best[side], _timed(sides[side]))
    sequential, pipeline = best
    return sequential, pipeline, stats


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def bench_batched_beats_sequential(benchmark):
    """The acceptance check, benchmark-shaped: batched ≥1.3× faster."""
    sequential, pipeline, stats = benchmark.pedantic(
        measure_speedup, args=(3,), rounds=1, iterations=1
    )
    assert pipeline < sequential / 1.3, (
        f"batched pipeline ({pipeline * 1000:.1f} ms) is not ≥1.3x faster "
        f"than sequential applies ({sequential * 1000:.1f} ms)"
    )
    assert stats.ocl_extents.hits > 0


def main() -> int:
    sequential, pipeline, stats = measure_speedup()
    print(f"10-concern banking scenario ({N_CONCERNS} CMTs):")
    print(f"  sequential engine.apply:  {sequential * 1000:8.1f} ms")
    print(f"  batched pipeline:         {pipeline * 1000:8.1f} ms")
    print(f"  speedup:                  {sequential / pipeline:8.2f}x")
    print(stats.report())
    from repro.ocl import default_compile_cache

    cache = default_compile_cache()
    print(
        f"process compile cache since import: {cache.hits} hits, "
        f"{cache.misses} misses ({len(cache)} distinct expressions)"
    )
    return 0 if pipeline < sequential / 1.3 else 1


if __name__ == "__main__":
    raise SystemExit(main())
