"""Property-based whole-model tests: random UML models survive every
structural pipeline (validation, XMI round-trip, cloning, undo) unchanged,
and the flat containment walk visits what the recursive walk visited."""

from hypothesis import given, settings, strategies as st

from repro.core.shipping import model_fingerprint
from repro.metamodel import validate
from repro.metamodel.instances import ModelResource, deep_clone
from repro.repository import ModelRepository
from repro.uml import (
    UML,
    add_attribute,
    add_class,
    add_operation,
    add_package,
    apply_stereotype,
    ensure_primitives,
    new_model,
)
from repro.uml.model import add_parameter
from repro.xmi import parse_xmi, xmi_string

_name = st.from_regex(r"[A-Z][a-z]{1,6}", fullmatch=True)


@st.composite
def random_models(draw):
    """A random, well-formed UML model with classes, features, marks."""
    resource, model = new_model("random")
    prims = ensure_primitives(model)
    prim_list = list(prims.values())
    n_packages = draw(st.integers(1, 2))
    classes = []
    used_names = set()

    def fresh(prefix):
        base = draw(_name)
        name = f"{prefix}{base}"
        suffix = 0
        while name in used_names:
            suffix += 1
            name = f"{prefix}{base}{suffix}"
        used_names.add(name)
        return name

    for p in range(n_packages):
        pkg = add_package(model, f"pkg{p}")
        for _ in range(draw(st.integers(1, 4))):
            cls = add_class(pkg, fresh("C"))
            classes.append(cls)
            for _ in range(draw(st.integers(0, 3))):
                add_attribute(
                    cls,
                    fresh("attr").lower(),
                    draw(st.sampled_from(prim_list)),
                    lower=draw(st.integers(0, 1)),
                )
            for _ in range(draw(st.integers(0, 2))):
                op = add_operation(
                    cls,
                    fresh("op").lower(),
                    return_type=draw(st.sampled_from(prim_list)),
                )
                if draw(st.booleans()):
                    apply_stereotype(
                        op, "Marked", weight=draw(st.integers(0, 100))
                    )
    # random single inheritance among earlier classes (acyclic by order)
    for i, cls in enumerate(classes[1:], start=1):
        if draw(st.booleans()):
            parent = classes[draw(st.integers(0, i - 1))]
            cls.superclasses.append(parent)
    return resource


@given(random_models())
@settings(max_examples=25, deadline=None)
def test_random_models_are_well_formed(resource):
    assert validate(resource) == []


@given(random_models())
@settings(max_examples=25, deadline=None)
def test_xmi_roundtrip_preserves_fingerprint(resource):
    restored = parse_xmi(xmi_string(resource), UML.package)
    assert validate(restored) == []
    assert model_fingerprint(restored) == model_fingerprint(resource)


@given(random_models())
@settings(max_examples=25, deadline=None)
def test_double_roundtrip_is_stable(resource):
    once = parse_xmi(xmi_string(resource), UML.package)
    twice = parse_xmi(xmi_string(once), UML.package)
    assert model_fingerprint(once) == model_fingerprint(twice)


@given(random_models())
@settings(max_examples=25, deadline=None)
def test_deep_clone_preserves_fingerprint(resource):
    clones, _ = deep_clone(resource.roots)
    clone_resource = ModelResource(resource.name)
    for clone in clones:
        clone_resource.add_root(clone)
    assert model_fingerprint(clone_resource) == model_fingerprint(resource)
    assert validate(clone_resource) == []


@given(random_models())
@settings(max_examples=20, deadline=None)
def test_commit_checkout_preserves_fingerprint(resource):
    before = model_fingerprint(resource)
    repo = ModelRepository(resource)
    version = repo.commit("state")
    # mutate arbitrarily, then restore
    model = resource.roots[0]
    pkg = add_package(model, "scratch")
    add_class(pkg, "Scratch")
    repo.checkout(version.id)
    assert model_fingerprint(resource) == before


@given(random_models())
@settings(max_examples=20, deadline=None)
def test_transformation_undo_preserves_fingerprint(resource):
    from hypothesis import assume

    from repro.core.registry import default_registry
    from repro.transform import TransformationEngine
    from repro.uml import classes_of

    # logging's postcondition needs at least one operation to mark
    assume(any(list(c.operations) for c in classes_of(resource.roots[0])))
    before = model_fingerprint(resource)
    repo = ModelRepository(resource)
    engine = TransformationEngine(repo)
    engine.apply(default_registry().get("logging").specialize(log_patterns=["*.*"]))
    assert model_fingerprint(resource) != before
    repo.undo()
    assert model_fingerprint(resource) == before


# ---------------------------------------------------------------------------
# the containment walk against the recursive reference
# ---------------------------------------------------------------------------


def _recursive_contents(obj):
    """The reference walk: a generator per ancestor, each containment
    list copied when the walk reaches it."""
    for ref in obj.meta_class.containment_references():
        value = obj._slots.get(ref.name)
        if value is None:
            continue
        for child in list(value if ref.many else [value]):
            yield child
            yield from _recursive_contents(child)


def _recursive_resource_contents(resource):
    for root in resource.roots:
        yield root
        yield from _recursive_contents(root)


def _twin(resource):
    clones, _ = deep_clone(resource.roots)
    twin = ModelResource(resource.name)
    for clone in clones:
        twin.add_root(clone)
    return twin


def _grow(obj, tag):
    """Add one child to ``obj``, where its kind can hold one."""
    kind = obj.meta_class.name
    if kind in ("Model", "Package"):
        add_class(obj, f"Grown{tag}")
    elif kind == "Class":
        add_attribute(obj, f"grown{tag}")
    elif kind == "Operation":
        add_parameter(obj, f"grown{tag}", None)


def _walk_growing(contents, grow_handed, grow_container):
    """The labels ``contents`` yields while its caller adds a child to
    the object just handed at each position in ``grow_handed``, and one
    to that object's container at each position in ``grow_container``."""
    labels = []
    for position, obj in enumerate(contents):
        labels.append((obj.meta_class.name, obj._slots.get("name")))
        if position in grow_handed:
            _grow(obj, f"h{position}")
        if position in grow_container and obj.container is not None:
            _grow(obj.container, f"c{position}")
    return labels


_positions = st.sets(st.integers(0, 40), max_size=8)


@given(random_models(), _positions, _positions)
@settings(max_examples=40, deadline=None)
def test_the_flat_walk_visits_what_the_recursive_walk_visits(
    resource, grow_handed, grow_container
):
    """Same objects in the same order, from the resource and from every
    object; and a caller that grows the model as it walks sees the same
    walk: a child added to the object just handed is visited, one added
    to a list already reached is not."""
    assert list(resource.all_contents()) == list(
        _recursive_resource_contents(resource)
    )
    for obj in resource.all_contents():
        assert list(obj.all_contents()) == list(_recursive_contents(obj))
    twin, flat_root, recursive_root = (_twin(resource) for _ in range(3))
    assert _walk_growing(
        resource.all_contents(), grow_handed, grow_container
    ) == _walk_growing(_recursive_resource_contents(twin), grow_handed, grow_container)
    assert _walk_growing(
        flat_root.roots[0].all_contents(), grow_handed, grow_container
    ) == _walk_growing(
        _recursive_contents(recursive_root.roots[0]), grow_handed, grow_container
    )
