"""Unit tests for the meta-level definitions (S1 kernel)."""

import pytest

from repro.errors import MetamodelError
from repro.metamodel import (
    BOOLEAN,
    INTEGER,
    REAL,
    STRING,
    UNBOUNDED,
    MetaAttribute,
    MetaClass,
    MetaDataType,
    MetaEnum,
    MetaPackage,
    MetaReference,
)


class TestMetaPackage:
    def test_qualified_name_walks_ownership(self):
        root = MetaPackage("root")
        sub = MetaPackage("sub")
        root.add_subpackage(sub)
        cls = MetaClass("C", package=sub)
        assert cls.qualified_name == "root.sub.C"

    def test_duplicate_classifier_rejected(self):
        pkg = MetaPackage("p")
        MetaClass("C", package=pkg)
        with pytest.raises(MetamodelError):
            pkg.add_classifier(MetaClass("C"))

    def test_duplicate_subpackage_rejected(self):
        pkg = MetaPackage("p")
        pkg.add_subpackage(MetaPackage("s"))
        with pytest.raises(MetamodelError):
            pkg.add_subpackage(MetaPackage("s"))

    def test_resolve_descends_subpackages(self):
        root = MetaPackage("root")
        sub = MetaPackage("sub")
        root.add_subpackage(sub)
        cls = MetaClass("C", package=sub)
        assert root.resolve("sub.C") is cls

    def test_resolve_unknown_raises(self):
        root = MetaPackage("root")
        with pytest.raises(MetamodelError):
            root.resolve("nope.C")

    def test_all_classifiers_covers_subpackages(self):
        root = MetaPackage("root")
        sub = MetaPackage("sub")
        root.add_subpackage(sub)
        a = MetaClass("A", package=root)
        b = MetaClass("B", package=sub)
        assert set(root.all_classifiers()) == {a, b}

    def test_classifier_lookup_unknown_raises(self):
        with pytest.raises(MetamodelError):
            MetaPackage("p").classifier("X")


class TestPrimitiveTypes:
    def test_string(self):
        assert STRING.is_instance("x")
        assert not STRING.is_instance(3)

    def test_integer_excludes_bool(self):
        assert INTEGER.is_instance(3)
        assert not INTEGER.is_instance(True)

    def test_real_accepts_int(self):
        assert REAL.is_instance(1.5)
        assert REAL.is_instance(2)
        assert not REAL.is_instance(True)

    def test_boolean(self):
        assert BOOLEAN.is_instance(False)
        assert not BOOLEAN.is_instance(0)

    def test_custom_datatype(self):
        dt = MetaDataType("Bytes", (bytes,))
        assert dt.is_instance(b"x")
        assert not dt.is_instance("x")


class TestMetaEnum:
    def test_literal_membership(self):
        e = MetaEnum("Color", ["red", "green"])
        assert e.is_instance("red")
        assert not e.is_instance("blue")
        assert not e.is_instance(3)

    def test_duplicate_literal_rejected(self):
        e = MetaEnum("Color", ["red"])
        with pytest.raises(MetamodelError):
            e.add_literal("red")

    def test_default_is_first_literal(self):
        assert MetaEnum("E", ["a", "b"]).default == "a"
        assert MetaEnum("E2").default is None


class TestMetaClass:
    def test_inheritance_cycle_rejected(self):
        a = MetaClass("A")
        b = MetaClass("B", superclasses=[a])
        with pytest.raises(MetamodelError):
            a.add_superclass(b)
        with pytest.raises(MetamodelError):
            a.add_superclass(a)

    def test_conforms_to_transitively(self):
        a = MetaClass("A")
        b = MetaClass("B", superclasses=[a])
        c = MetaClass("C", superclasses=[b])
        assert c.conforms_to(a)
        assert c.conforms_to(c)
        assert not a.conforms_to(c)

    def test_all_features_merges_inherited(self):
        a = MetaClass("A")
        a.add_attribute("x", STRING)
        b = MetaClass("B", superclasses=[a])
        b.add_attribute("y", INTEGER)
        assert set(b.all_features()) == {"x", "y"}

    def test_duplicate_feature_name_rejected_across_hierarchy(self):
        a = MetaClass("A")
        a.add_attribute("x", STRING)
        b = MetaClass("B", superclasses=[a])
        with pytest.raises(MetamodelError):
            b.add_attribute("x", STRING)

    def test_abstract_class_not_instantiable(self):
        a = MetaClass("A", abstract=True)
        with pytest.raises(MetamodelError):
            a()

    def test_instantiation_with_kwargs(self):
        a = MetaClass("A")
        a.add_attribute("name", STRING)
        a.add_attribute("tags", STRING, upper=UNBOUNDED)
        obj = a(name="n", tags=["t1", "t2"])
        assert obj.name == "n"
        assert list(obj.tags) == ["t1", "t2"]

    def test_feature_lookup_unknown_raises(self):
        with pytest.raises(MetamodelError):
            MetaClass("A").feature("nope")


class TestFeatures:
    def test_attribute_cannot_be_class_typed(self):
        c = MetaClass("C")
        with pytest.raises(MetamodelError):
            MetaAttribute("bad", c)

    def test_reference_must_be_class_typed(self):
        with pytest.raises(MetamodelError):
            MetaReference("bad", STRING)

    def test_bad_multiplicities_rejected(self):
        c = MetaClass("C")
        with pytest.raises(MetamodelError):
            MetaReference("r", c, lower=2, upper=1)
        with pytest.raises(MetamodelError):
            MetaReference("r", c, lower=-1)
        with pytest.raises(MetamodelError):
            MetaReference("r", c, upper=0)

    def test_many_property(self):
        c = MetaClass("C")
        assert MetaReference("r", c, upper=UNBOUNDED).many
        assert MetaReference("r", c, upper=3).many
        assert not MetaReference("r", c).many

    def test_opposite_pairing_rules(self):
        a, b = MetaClass("A"), MetaClass("B")
        r1 = a.add_reference("bs", b, upper=UNBOUNDED)
        r2 = b.add_reference("a", a)
        r1.set_opposite(r2)
        assert r1.opposite is r2 and r2.opposite is r1
        r3 = b.add_reference("other", a)
        with pytest.raises(MetamodelError):
            r1.set_opposite(r3)

    def test_double_containment_opposites_rejected(self):
        a, b = MetaClass("A"), MetaClass("B")
        r1 = a.add_reference("bs", b, containment=True)
        r2 = b.add_reference("a", a, containment=True)
        with pytest.raises(MetamodelError):
            r1.set_opposite(r2)

    def test_annotations_chainable(self):
        c = MetaClass("C").annotate(doc="x", hint=1)
        assert c.annotations == {"doc": "x", "hint": 1}


class TestShapeCache:
    """A metaclass derives its superclass closure and merged features
    once; an edit anywhere in the metamodel shows through on next read."""

    @staticmethod
    def _read_everything(cls):
        return (
            cls.all_superclasses(),
            cls.all_features(),
            list(cls.references()),
            list(cls.containment_references()),
        )

    def test_edits_after_a_read_show_through_every_accessor(self):
        base = MetaClass("Base")
        mid = MetaClass("Mid", superclasses=[base])
        leaf = MetaClass("Leaf", superclasses=[mid])
        other = MetaClass("Other")
        self._read_everything(leaf)
        assert not leaf.conforms_to(other)

        # a feature added to a superclass reaches the subclass
        ref = base.add_reference("parts", other, upper=UNBOUNDED, containment=True)
        assert list(leaf.all_features()) == ["parts"]
        assert leaf.feature("parts") is ref
        assert leaf.has_feature("parts")
        assert list(leaf.references()) == [ref]
        assert list(leaf.containment_references()) == [ref]
        instance, part = leaf(), other()
        instance.parts.append(part)
        assert part.container is instance
        assert list(instance.all_contents()) == [part]

        # a superclass added to the subclass reaches closure and features
        extra = MetaClass("Extra")
        attr = extra.add_attribute("label", STRING)
        leaf.add_superclass(extra)
        assert leaf.all_superclasses() == [mid, extra, base]
        assert leaf.conforms_to(extra)
        assert leaf.feature("label") is attr
        assert list(leaf.all_features()) == ["parts", "label"]
        assert leaf(label="x").label == "x"

        # so does a superclass added further up the chain
        mid.add_superclass(other)
        assert leaf.conforms_to(other)
        assert leaf.all_superclasses() == [mid, extra, base, other]

    def test_cycles_are_still_refused_after_reads(self):
        a = MetaClass("A")
        b = MetaClass("B", superclasses=[a])
        c = MetaClass("C", superclasses=[b])
        self._read_everything(c)
        self._read_everything(a)
        with pytest.raises(MetamodelError, match="cycle"):
            a.add_superclass(c)
        assert a.all_superclasses() == []
        assert c.all_superclasses() == [b, a]

    def test_a_returned_dict_or_list_is_the_callers_own(self):
        a = MetaClass("A")
        a.add_attribute("x", STRING)
        b = MetaClass("B", superclasses=[a])
        b.add_attribute("y", INTEGER)
        features = b.all_features()
        features.clear()
        supers = b.all_superclasses()
        supers.append(b)
        assert list(b.all_features()) == ["x", "y"]
        assert b.all_superclasses() == [a]
        assert b.has_feature("x") and not b.conforms_to(MetaClass("Z"))

    def test_a_warm_deploy_walks_no_superclass_chain(self, monkeypatch):
        """A second deploy of the banking spec in one process edits no
        metaclass and derives no shape (before the cache, a deploy
        walked superclass chains about 4,300 times)."""
        from repro.deploy import DeploymentCompiler
        from repro.metamodel import kernel
        from repro.runtime.harness import RunConfig
        from repro.runtime.scenarios import get_scenario

        spec = get_scenario("banking").deployment_spec(
            RunConfig(scenario="banking", nodes=3)
        )
        DeploymentCompiler().deploy(spec).shutdown()
        derived = []

        class Counting(kernel._Shape):
            __slots__ = ()

            def __init__(self, meta, edits):
                derived.append(meta.name)
                super().__init__(meta, edits)

        monkeypatch.setattr(kernel, "_Shape", Counting)
        edits = MetaClass._edits
        DeploymentCompiler().deploy(spec).shutdown()
        assert derived == []
        assert MetaClass._edits == edits
