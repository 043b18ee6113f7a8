"""deep_clone semantics: internal remapping, external preservation."""

import pytest

from helpers import FULL_BANK_PARAMS

from repro.metamodel import (
    INTEGER,
    STRING,
    UNBOUNDED,
    MetamodelBuilder,
    MetaReference,
    ModelResource,
    validate,
)
from repro.metamodel.instances import MList, MObject, deep_clone


class TestDeepClone:
    def test_attributes_copied(self, library_metamodel):
        Book = library_metamodel["Book"]
        b = Book(title="T")
        b.tags.extend(["a", "b"])
        (clone,), mapping = deep_clone([b])
        assert clone is not b
        assert clone.title == "T"
        assert list(clone.tags) == ["a", "b"]
        assert mapping[b.uuid] is clone

    def test_containment_tree_cloned(self, library_metamodel):
        Shelf, Book = library_metamodel["Shelf"], library_metamodel["Book"]
        s = Shelf()
        b1, b2 = Book(title="A"), Book(title="B")
        s.books.extend([b1, b2])
        (clone,), mapping = deep_clone([s])
        assert [c.title for c in clone.books] == ["A", "B"]
        assert all(c.container is clone for c in clone.books)

    def test_internal_cross_references_remapped(self, library_metamodel):
        Shelf, Book, Author = (
            library_metamodel["Shelf"],
            library_metamodel["Book"],
            library_metamodel["Author"],
        )
        s, b, a = Shelf(), Book(title="T"), Author(name="N")
        s.books.append(b)
        b.authors.append(a)
        clones, mapping = deep_clone([s, a])
        s2, a2 = clones
        b2 = s2.books[0]
        assert list(b2.authors) == [a2]
        assert list(a2.books) == [b2]
        assert validate([s2, b2, a2]) == []

    def test_external_references_preserved(self, library_metamodel):
        Shelf, Book = library_metamodel["Shelf"], library_metamodel["Book"]
        s1, s2 = Shelf(), Shelf()
        inside, outside = Book(title="in"), Book(title="out")
        s1.books.append(inside)
        s2.books.append(outside)
        inside.sequel = outside
        (clone,), _ = deep_clone([s1])  # outside not part of the clone forest
        assert clone.books[0].sequel is outside

    def test_clone_is_independent(self, library_metamodel):
        Shelf, Book = library_metamodel["Shelf"], library_metamodel["Book"]
        s = Shelf()
        b = Book(title="T")
        s.books.append(b)
        (clone,), _ = deep_clone([s])
        b.title = "changed"
        s.books.append(Book(title="extra"))
        assert clone.books[0].title == "T"
        assert len(clone.books) == 1

    def test_clone_detached_from_resource(self, library_metamodel):
        Shelf = library_metamodel["Shelf"]
        s = Shelf()
        res = ModelResource("r")
        res.add_root(s)
        (clone,), _ = deep_clone([s])
        assert clone.resource is None

    def test_self_reference_remapped(self, library_metamodel):
        Shelf, Book = library_metamodel["Shelf"], library_metamodel["Book"]
        s = Shelf()
        b = Book(title="T")
        s.books.append(b)
        b.sequel = b
        (clone,), _ = deep_clone([s])
        b2 = clone.books[0]
        assert b2.sequel is b2


# ---------------------------------------------------------------------------
# the raw-layer clone against the high-level replay it replaced
# ---------------------------------------------------------------------------


def _replayed_clone(roots):
    """deep_clone as it was built on the high-level layer: every copied
    slot replayed through ``set``/``append``, so the notifying raw
    layer maintained containment and opposites.  The reference the
    raw-layer clone must match."""
    roots = list(roots)
    mapping, originals = {}, {}
    for root in roots:
        for obj in [root, *root.all_contents()]:
            mapping[id(obj)] = MObject(obj.meta_class)
            originals[id(obj)] = obj
    for oid, original in originals.items():
        clone = mapping[oid]
        for feature in original.meta_class.all_features().values():
            value = original._slots.get(feature.name)
            if value is None:
                continue
            if isinstance(feature, MetaReference):
                opp = feature.opposite
                if opp is not None and not feature.containment:
                    if opp.containment:
                        continue
                    self_key = (feature.owning_class.qualified_name, feature.name)
                    opp_key = (opp.owning_class.qualified_name, opp.name)
                    if self_key > opp_key:
                        continue
                for item in list(value) if feature.many else [value]:
                    target = mapping.get(id(item), item)
                    if feature.many:
                        clone.get(feature.name).append(target)
                    else:
                        clone.set(feature.name, target)
            elif feature.many:
                clone.get(feature.name).extend(list(value))
            else:
                clone._slot_set(feature, value)
    clones = [mapping[id(r)] for r in roots]
    return clones, {originals[k].uuid: v for k, v in mapping.items()}


def _layout(clones):
    """Every object of a cloned forest in containment order, with its
    slots (in order), container and containing feature; objects of the
    forest are named by position, others kept as they are."""
    objects = []
    for root in clones:
        objects.append(root)
        objects.extend(root.all_contents())
    position = {id(obj): i for i, obj in enumerate(objects)}

    def name(value):
        if isinstance(value, MObject):
            return ("forest", position[id(value)]) if id(value) in position else value
        return value

    return [
        (
            obj.meta_class,
            [
                (key, [name(v) for v in value] if isinstance(value, MList) else name(value))
                for key, value in obj._slots.items()
            ],
            name(obj.container),
            obj.containing_feature,
            obj.resource,
        )
        for obj in objects
    ]


@pytest.fixture()
def linked():
    """A metamodel with every kind of link: containment with a parent
    pointer, many-to-many and one-to-one opposite pairs, and plain
    references."""
    b = MetamodelBuilder("linked")
    team, person, project, desk = (
        b.metaclass(n) for n in ("Team", "Person", "Project", "Desk")
    )
    b.attribute(person, "name", STRING)
    b.attribute(person, "nicknames", STRING, upper=UNBOUNDED)
    b.attribute(person, "level", INTEGER, default=1)
    b.reference(team, "members", person, upper=UNBOUNDED, containment=True, opposite="team")
    b.reference(person, "team", team)
    b.reference(team, "desks", desk, upper=UNBOUNDED, containment=True)
    b.reference(person, "projects", project, upper=UNBOUNDED, opposite="staff")
    b.reference(project, "staff", person, upper=UNBOUNDED)
    b.reference(person, "desk", desk, opposite="owner")
    b.reference(desk, "owner", person)
    b.reference(person, "mentor", person)
    b.build()
    return team, person, project, desk


def _linked_forest(linked):
    Team, Person, Project, Desk = linked
    team = Team()
    p1, p2, p3, p4 = (Person(name=n) for n in ("p1", "p2", "p3", "p4"))
    team.members.extend([p1, p2, p3, p4])
    d1, d2 = Desk(), Desk()
    team.desks.extend([d1, d2])
    x1, x2 = Project(), Project()
    # staff lists in an order the copy does not visit them in
    x1.staff.extend([p3, p1])
    x2.staff.extend([p2, p3, p1])
    p3.projects.remove(x1)
    p3.projects.append(x1)
    d2.owner = p1
    p2.desk = d1
    p3.mentor = p1
    p1.nicknames.extend(["one", "uno"])
    # empty collections, materialized
    p2.get("nicknames")
    p4.get("projects")
    p3.unset("level")  # a defaulted attribute, unset
    return [team, x1, x2]


class TestRawLayerClone:
    def test_same_forest_as_the_replayed_clone(self, linked):
        roots = _linked_forest(linked)
        raw, raw_map = deep_clone(roots)
        replayed, replayed_map = _replayed_clone(roots)
        assert _layout(raw) == _layout(replayed)
        assert list(raw_map) == list(replayed_map)
        # the copied pair's other side lists its sources in copy order
        x1, x2 = raw[1], raw[2]
        assert [p.name for p in x1.staff] == ["p1", "p3"]
        assert [p.name for p in x2.staff] == ["p1", "p2", "p3"]
        assert validate(raw) == []

    def test_same_forest_for_a_refined_uml_model(self, lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        roots = lifecycle.repository.resource.roots
        raw, _ = deep_clone(roots)
        replayed, _ = _replayed_clone(roots)
        assert _layout(raw) == _layout(replayed)

    def test_same_forest_with_parent_pointers(self):
        b = MetamodelBuilder("tree")
        node = b.metaclass("Node")
        b.attribute(node, "label", STRING)
        b.reference(node, "children", node, upper=UNBOUNDED, containment=True, opposite="parent")
        b.reference(node, "parent", node)
        b.build()
        root = node(label="r")
        for i in range(3):
            child = node(label=f"c{i}")
            root.children.append(child)
            child.children.append(node(label=f"g{i}"))
        raw, _ = deep_clone([root])
        replayed, _ = _replayed_clone([root])
        assert _layout(raw) == _layout(replayed)
        assert all(c.parent is raw[0] for c in raw[0].children)

    def test_nothing_outside_the_forest_is_written(self, linked):
        Team, Person, Project, _Desk = linked
        team, project = Team(), Project()
        member = Person(name="m")
        team.members.append(member)
        member.projects.append(project)
        (clone,), _ = deep_clone([team])
        assert list(clone.members[0].projects) == [project]
        assert list(project.staff) == [member]

    def test_the_clone_builds_no_notification(self, linked, monkeypatch):
        import repro.metamodel.instances as instances

        built = []

        class Counting(instances.Notification):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        roots = _linked_forest(linked)
        monkeypatch.setattr(instances, "Notification", Counting)
        deep_clone(roots)
        assert built == []
