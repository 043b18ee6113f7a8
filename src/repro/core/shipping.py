"""Shipping and reuse of refined components (§2's closing questions).

The paper ends §2 asking: *"Should we ship only the last, most specialized
model, together with the implementation, or should we ship all the
intermediate models, together with the transformations and the set of
parameters that specialize each transformation? How should a developer
make reuse of the models, transformations, and aspects [...]?"*

This module implements the second option and makes it verifiable:

* :func:`ship` packs a finished lifecycle into a self-contained
  :class:`ComponentPackage` — the initial PIM (XMI), the ordered list of
  (concern, ``Si``) refinement steps, the final model (XMI), and the
  generated concrete-aspect sources.  Everything is JSON-serializable.
* :func:`replay` re-runs the shipped steps on the shipped initial model
  (in a fresh environment, against the receiver's registry) and verifies —
  via a structural fingerprint — that the replayed model is equivalent to
  the shipped final model.  A receiver can therefore audit, re-target, or
  re-parameterize the component instead of trusting an opaque artifact.
* :class:`Derivation` is what every node hosting the component weaves
  against its own services, derived once per process: :func:`ship`
  keeps the vendor's on the package it returns, and a package parsed
  from JSON derives its own by one verified replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codegen.python_backend import generate_module, load_module
from repro.core.aspect_generator import generate_concrete_aspect
from repro.core.lifecycle import MdaLifecycle, application_classes
from repro.core.precedence import AspectDeploymentPlan
from repro.core.transformation import ConcreteTransformation
from repro.errors import ReproError
from repro.metamodel.instances import MObject, ModelResource
from repro.uml.metamodel import UML
from repro.uml.model import qualified_name
from repro.xmi import parse_xmi, xmi_string


class ShippingError(ReproError):
    """The package is malformed or the replay diverged from the shipped model."""


@dataclass(frozen=True)
class ShippedStep:
    """One refinement step: which concern, specialized with which Si."""

    concern: str
    transformation: str
    parameters: Dict[str, object]


@dataclass(frozen=True)
class Derivation:
    """The node-independent result of a refinement: the functional
    module's source, generated from the final model, and the applied
    concrete transformations in application order.  Concrete aspects
    are derived per node (:meth:`weave`): one caches the runtime aspect
    it builds, which closes over one node's services."""

    source: str
    transformations: Tuple[ConcreteTransformation, ...]

    @classmethod
    def of(cls, lifecycle) -> "Derivation":
        """The derivation of a refined :class:`MdaLifecycle`."""
        return cls(
            generate_module(lifecycle.repository.resource.roots[0]),
            tuple(cmt for cmt, _ca in lifecycle.applied),
        )

    def weave(self, services, module_name: str):
        """Build one node's application: a fresh module of the generated
        classes, woven on ``services.weaver``, with one new concrete
        aspect per transformation deployed in application order."""
        module = load_module(self.source, module_name)
        plan = AspectDeploymentPlan()
        for cmt in self.transformations:
            plan.add(generate_concrete_aspect(cmt))
        plan.deploy(services.weaver, services, application_classes(module))
        return module


@dataclass
class ComponentPackage:
    """Everything needed to reproduce (and audit) a refined component."""

    name: str
    initial_model_xmi: str
    final_model_xmi: str
    steps: List[ShippedStep] = field(default_factory=list)
    aspect_sources: Dict[str, str] = field(default_factory=dict)
    #: this process's derivation of the package; never serialized or
    #: compared (see :meth:`derivation`)
    _derivation: Optional[Derivation] = field(
        default=None, init=False, repr=False, compare=False
    )

    def derivation(self) -> Derivation:
        """What every node hosting the package weaves: the vendor's, for
        a package :func:`ship` returned; otherwise derived on first use
        by a verified :func:`replay` against the default registry, so
        steps that do not reproduce the shipped final model raise
        :class:`ShippingError` instead of hosting a different app."""
        if self._derivation is None:
            self._derivation = Derivation.of(replay(self))
        return self._derivation

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "repro-component-package/1",
                "name": self.name,
                "initial_model_xmi": self.initial_model_xmi,
                "final_model_xmi": self.final_model_xmi,
                "steps": [
                    {
                        "concern": s.concern,
                        "transformation": s.transformation,
                        "parameters": s.parameters,
                    }
                    for s in self.steps
                ],
                "aspect_sources": self.aspect_sources,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ComponentPackage":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ShippingError(f"not a component package: {exc}") from exc
        if data.get("format") != "repro-component-package/1":
            raise ShippingError("unknown package format")
        return cls(
            name=data["name"],
            initial_model_xmi=data["initial_model_xmi"],
            final_model_xmi=data["final_model_xmi"],
            steps=[
                ShippedStep(s["concern"], s["transformation"], s["parameters"])
                for s in data["steps"]
            ],
            aspect_sources=dict(data["aspect_sources"]),
        )


def _check_json_parameters(name: str, parameters: Dict[str, object]) -> None:
    try:
        round_tripped = json.loads(json.dumps(parameters))
    except (TypeError, ValueError) as exc:
        raise ShippingError(
            f"parameters of {name!r} are not JSON-serializable: {exc}"
        ) from exc
    if round_tripped != parameters:
        raise ShippingError(f"parameters of {name!r} do not survive JSON round-trip")


def ship(lifecycle) -> ComponentPackage:
    """Pack a lifecycle's history into a shippable component package.

    Requires at least one applied concern; the initial PIM is taken from
    the lifecycle's first repository commit (``MdaLifecycle`` commits the
    PIM before the first transformation).  The returned package keeps the
    lifecycle's :class:`Derivation`, so nodes in this process weave the
    vendor's refinement instead of replaying it.
    """
    if not lifecycle.applied:
        raise ShippingError("nothing to ship: no concern has been applied")
    versions = lifecycle.repository.history.versions
    if not versions:
        raise ShippingError("repository has no committed versions")
    initial_roots, _ = versions[0].materialize()
    initial = ModelResource(lifecycle.repository.resource.name)
    for root in initial_roots:
        initial.add_root(root)

    steps = []
    for cmt, _ca in lifecycle.applied:
        _check_json_parameters(cmt.name, cmt.parameters)
        steps.append(
            ShippedStep(cmt.concern, cmt.generic.name, cmt.parameters)
        )
    package = ComponentPackage(
        name=lifecycle.repository.resource.name,
        initial_model_xmi=xmi_string(initial),
        final_model_xmi=xmi_string(lifecycle.repository.resource),
        steps=steps,
        aspect_sources=lifecycle.generate_aspect_sources(),
    )
    package._derivation = Derivation.of(lifecycle)
    return package


# ---------------------------------------------------------------------------
# structural fingerprint (identity-free model equality)
# ---------------------------------------------------------------------------


def _element_path(obj: MObject) -> str:
    """A name-based path identifying an element independent of uuids."""
    named = qualified_name(obj)
    if named and obj.meta_class.has_feature("name") and obj.is_set("name"):
        return f"{obj.meta_class.name}:{named}"
    # unnamed elements (tagged values, parameters without names, ends):
    # anchor at the container path plus feature/index
    container = obj.container
    if container is None:
        return f"{obj.meta_class.name}:<root>"
    feature = obj.containing_feature
    siblings = container.get(feature.name)
    if feature.many:
        index = next(i for i, s in enumerate(siblings) if s is obj)
    else:
        index = 0
    return f"{_element_path(container)}/{feature.name}[{index}]:{obj.meta_class.name}"


def model_fingerprint(resource: ModelResource) -> List[str]:
    """A sorted, uuid-free structural summary of every element and slot."""
    from repro.metamodel.instances import MList
    from repro.metamodel.kernel import MetaReference

    lines: List[str] = []
    for obj in resource.all_contents():
        path = _element_path(obj)
        for feature in obj.meta_class.all_features().values():
            value = obj._slots.get(feature.name)
            # empty collections are indistinguishable from unset slots (a
            # lazily-materialized empty MList is not a model difference)
            if value is None or (isinstance(value, MList) and not value):
                continue

            if isinstance(feature, MetaReference):
                targets = list(value) if isinstance(value, MList) else [value]
                if feature.containment:
                    rendered = f"#{len(targets)}"
                else:
                    rendered = ",".join(sorted(_element_path(t) for t in targets))
            else:
                items = list(value) if isinstance(value, MList) else [value]
                rendered = ",".join(repr(i) for i in items)
            lines.append(f"{path}|{feature.name}={rendered}")
    return sorted(lines)


def replay(
    package: ComponentPackage,
    registry=None,
    services=None,
    verify: bool = True,
):
    """Re-run a shipped component's refinement steps; returns the lifecycle.

    With ``verify`` (default) the replayed model's structural fingerprint
    must equal the shipped final model's; divergence (e.g. the receiver's
    registry has a different transformation under the same concern name)
    raises :class:`ShippingError`.
    """
    resource = parse_xmi(package.initial_model_xmi, UML.package)
    lifecycle = MdaLifecycle(resource, registry=registry, services=services)
    for step in package.steps:
        lifecycle.apply_concern(step.concern, **step.parameters)
    if verify:
        expected = model_fingerprint(parse_xmi(package.final_model_xmi, UML.package))
        actual = model_fingerprint(lifecycle.repository.resource)
        if expected != actual:
            missing = [line for line in expected if line not in set(actual)]
            extra = [line for line in actual if line not in set(expected)]
            raise ShippingError(
                "replayed model diverges from the shipped final model "
                f"({len(missing)} line(s) missing, {len(extra)} extra); "
                f"first differences: {missing[:2] + extra[:2]}"
            )
    return lifecycle
