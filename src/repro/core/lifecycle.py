"""The MDA lifecycle driver: refine, generate, weave — end to end.

This is the §2 process as an executable object:

1. the developer starts from a functional PIM in a repository;
2. for each concern, :meth:`MdaLifecycle.apply_concern` selects the
   registered generic transformation, specializes it with the
   application-specific parameters ``Si``, applies it through the engine
   (preconditions → rules → postconditions, demarcated and undoable), and
   *generates the concrete aspect from the same Si*;
3. :meth:`MdaLifecycle.build_application` runs the functional code
   generator on the refined model, then weaves the generated classes and
   deploys the concrete aspects **in transformation application order**
   (their precedence).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.errors import BatchExecutionError, WorkflowError
from repro.metamodel.instances import ModelResource
from repro.pipeline import ConfigurationPlan, PipelineExecutor, PipelineResult, Scheduler
from repro.repository import ModelRepository
from repro.transform.engine import ApplicationResult, TransformationEngine
from repro.codegen.aspect_backend import generate_aspect_module
from repro.codegen.python_backend import compile_model
from repro.core.aspect import ConcreteAspect
from repro.core.aspect_generator import generate_concrete_aspect
from repro.core.precedence import AspectDeploymentPlan
from repro.core.registry import ConcernRegistry
from repro.core.runtime import MiddlewareServices
from repro.core.transformation import ConcreteTransformation


def application_classes(module) -> List[type]:
    """The classes a generated functional module defines (the weaver's
    targets): its own classes, enumerations aside."""
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and not issubclass(value, enum.Enum)
    ]


class MdaLifecycle:
    """Drives one application through concern-oriented refinement to code."""

    def __init__(
        self,
        resource: ModelResource,
        registry: Optional[ConcernRegistry] = None,
        services: Optional[MiddlewareServices] = None,
        workflow=None,
    ):
        if registry is None:
            from repro.core.registry import default_registry

            registry = default_registry()
        self.repository = ModelRepository(resource)
        self.engine = TransformationEngine(self.repository)
        self.registry = registry
        self.services = services or MiddlewareServices.create()
        self.workflow = workflow
        self.plan = AspectDeploymentPlan()
        self.applied: List[Tuple[ConcreteTransformation, ConcreteAspect]] = []
        #: stats of the most recent pipeline run (None before the first)
        self.last_pipeline_stats = None
        self._module = None

    # -- refinement ------------------------------------------------------------

    @property
    def applied_concerns(self) -> List[str]:
        return [cmt.concern for cmt, _ in self.applied]

    def apply_concern(self, concern_name: str, **parameters) -> ApplicationResult:
        """Specialize and apply the concern's GMT; generate its CA.

        Single-concern convenience over :meth:`apply_plan`: a one-selection
        plan runs through the pipeline (one batch, one savepoint).  The
        concrete aspect is queued on the deployment plan at the position
        corresponding to this application (precedence = application order).
        """
        plan = ConfigurationPlan().select(concern_name, **parameters)
        result = self.apply_plan(plan)
        return result.applications[-1]

    def apply_plan(self, plan: ConfigurationPlan) -> PipelineResult:
        """Drive a multi-concern configuration through the pipeline.

        Plan → schedule (precedence DAG, batched) → execute (one
        demarcated savepoint per batch) → concrete aspects queued in
        schedule order.  Workflow prerequisites already satisfied by this
        lifecycle's application history impose no edges.
        """
        history = self.applied_concerns
        if self.workflow is not None:
            for concern_name in plan.concerns:
                if not self.workflow.is_allowed(
                    concern_name, history + [c for c in plan.concerns if c != concern_name]
                ):
                    raise WorkflowError(
                        f"workflow does not allow concern {concern_name!r} after "
                        f"{history}"
                    )
        elif set(plan.concerns) & set(history):
            duplicate = sorted(set(plan.concerns) & set(history))
            raise WorkflowError(
                f"concern(s) {duplicate} were already applied to this lifecycle"
            )
        steps = plan.bind(self.registry, satisfied=history)
        schedule = Scheduler(workflow=self.workflow, satisfied=history).schedule(
            steps
        )
        if not self.repository.history.versions:
            self.repository.commit("initial PIM")
        executor = PipelineExecutor(self.repository, engine=self.engine)
        try:
            result = executor.run(schedule)
        except BatchExecutionError as exc:
            # batches committed before the failure are permanently in the
            # repository — mirror them in the lifecycle state so retries
            # and build_application stay consistent with the model
            if exc.partial_result is not None:
                self._queue_aspects(schedule, exc.partial_result)
            raise
        self._queue_aspects(schedule, result)
        self.last_pipeline_stats = result.stats
        return result

    def _queue_aspects(self, schedule, result: PipelineResult) -> None:
        """Queue the CA of every step the pipeline actually applied."""
        applied_names = {r.transformation for r in result.applications}
        for step in schedule.order():
            if step.name not in applied_names:
                continue
            ca = generate_concrete_aspect(step.concrete)
            self.plan.add(ca)
            self.applied.append((step.concrete, ca))

    def remaining_concerns(self) -> List[str]:
        """Registered concerns not applied yet (the paper's to-do list)."""
        done = set(self.applied_concerns)
        return [c for c in self.registry.concerns() if c not in done]

    # -- generation --------------------------------------------------------------

    def generate_functional_code(self, module_name: str = "generated_app"):
        """Run the functional code generator over the refined model."""
        model = self.repository.resource.roots[0]
        self._module = compile_model(model, module_name)
        return self._module

    def generate_aspect_sources(self) -> Dict[str, str]:
        """Emit every queued concrete aspect as a source artifact."""
        return {
            ca.name: generate_aspect_module(ca) for _, ca in self.applied
        }

    # -- weaving -------------------------------------------------------------------

    def application_classes(self) -> List[type]:
        """The classes defined by the generated functional module."""
        if self._module is None:
            self.generate_functional_code()
        return application_classes(self._module)

    def build_application(self, module_name: str = "generated_app"):
        """Generate the functional module, weave it, deploy the aspects.

        Returns the ready-to-use module: its classes are instrumented and
        every concrete aspect is live, in application order.
        """
        module = self.generate_functional_code(module_name)
        self.plan.deploy(
            self.services.weaver, self.services, self.application_classes()
        )
        return module

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> str:
        """Fig. 2 as text: Ti<Si> → Ai<Si> pairs in precedence order."""
        lines = ["transformation -> aspect (precedence = application order):"]
        for rank, (cmt, ca) in enumerate(self.applied):
            lines.append(f"  {rank}: {cmt.name}  ->  {ca.name}")
        lines.append(self.repository.demarcation.report())
        return "\n".join(lines)
