"""Meta-level definitions: packages, classifiers, classes, and features.

The kernel mirrors Essential MOF: a :class:`MetaPackage` owns
:class:`MetaClassifier` objects; a :class:`MetaClass` owns
:class:`MetaAttribute` and :class:`MetaReference` features and may inherit
from other metaclasses.  Instances of metaclasses are dynamic
:class:`~repro.metamodel.instances.MObject` objects created by *calling*
the metaclass.

A metaclass's *shape* — its superclass closure, merged feature map and
reference lists — is derived once and cached on the class.  Metamodels
are built up front and read on every model operation, so one
kernel-wide edit counter stands guard: :meth:`MetaClass.add_superclass`
and :meth:`MetaClass.add_feature` bump it, which invalidates every
cached shape at once (a feature added to a superclass must reach its
subclasses, whose caches it cannot see).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import MetamodelError

#: Marker for an unbounded upper multiplicity (``*`` in UML/MOF notation).
UNBOUNDED = -1


class MetaElement:
    """Common superclass of every element of a metamodel definition.

    Provides a ``name``, free-form ``annotations`` (a plain dict usable by
    tools, e.g. documentation strings or generator hints), and a qualified
    name computed by walking the ownership chain.
    """

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise MetamodelError(f"meta element needs a non-empty name, got {name!r}")
        self.name = name
        self.annotations: dict = {}
        self._owner: Optional[MetaElement] = None

    @property
    def owner(self) -> Optional["MetaElement"]:
        """The metamodel element that owns this one, if any."""
        return self._owner

    @property
    def qualified_name(self) -> str:
        """Dot-separated path from the root package to this element."""
        parts = [self.name]
        cur = self._owner
        while cur is not None:
            parts.append(cur.name)
            cur = cur._owner
        return ".".join(reversed(parts))

    def annotate(self, **entries) -> "MetaElement":
        """Attach annotation entries and return ``self`` (chainable)."""
        self.annotations.update(entries)
        return self

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.qualified_name}>"


class MetaPackage(MetaElement):
    """A namespace owning classifiers and sub-packages."""

    def __init__(self, name: str):
        super().__init__(name)
        self._classifiers: dict[str, MetaClassifier] = {}
        self._subpackages: dict[str, MetaPackage] = {}

    @property
    def classifiers(self) -> tuple:
        return tuple(self._classifiers.values())

    @property
    def subpackages(self) -> tuple:
        return tuple(self._subpackages.values())

    def add_classifier(self, classifier: "MetaClassifier") -> "MetaClassifier":
        if classifier.name in self._classifiers:
            raise MetamodelError(
                f"package {self.qualified_name} already has classifier {classifier.name!r}"
            )
        self._classifiers[classifier.name] = classifier
        classifier._owner = self
        return classifier

    def add_subpackage(self, package: "MetaPackage") -> "MetaPackage":
        if package.name in self._subpackages:
            raise MetamodelError(
                f"package {self.qualified_name} already has subpackage {package.name!r}"
            )
        self._subpackages[package.name] = package
        package._owner = self
        return package

    def classifier(self, name: str) -> "MetaClassifier":
        """Look up a directly-owned classifier by simple name."""
        try:
            return self._classifiers[name]
        except KeyError:
            raise MetamodelError(
                f"no classifier {name!r} in package {self.qualified_name}"
            ) from None

    def resolve(self, qualified: str) -> "MetaClassifier":
        """Resolve a classifier by path relative to this package.

        ``pkg.resolve("sub.Klass")`` descends through sub-packages.
        """
        parts = qualified.split(".")
        scope: MetaPackage = self
        for part in parts[:-1]:
            try:
                scope = scope._subpackages[part]
            except KeyError:
                raise MetamodelError(
                    f"no subpackage {part!r} under {scope.qualified_name}"
                ) from None
        return scope.classifier(parts[-1])

    def all_classifiers(self) -> Iterator["MetaClassifier"]:
        """All classifiers of this package and its sub-packages, depth-first."""
        yield from self._classifiers.values()
        for sub in self._subpackages.values():
            yield from sub.all_classifiers()

    def all_metaclasses(self) -> Iterator["MetaClass"]:
        for c in self.all_classifiers():
            if isinstance(c, MetaClass):
                yield c


class MetaClassifier(MetaElement):
    """Anything that can type a feature: data types, enums and classes."""

    @property
    def package(self) -> Optional[MetaPackage]:
        owner = self._owner
        return owner if isinstance(owner, MetaPackage) else None

    def is_instance(self, value) -> bool:
        """Whether ``value`` conforms to this classifier."""
        raise NotImplementedError


class MetaDataType(MetaClassifier):
    """A primitive data type backed by one or more Python types."""

    def __init__(self, name: str, python_types: tuple, default=None):
        super().__init__(name)
        self.python_types = python_types
        self.default = default

    def is_instance(self, value) -> bool:
        if not self.python_types:  # the ANY type accepts everything
            return True
        # bool is an int subclass in Python; keep Boolean and Integer disjoint.
        if bool not in self.python_types and isinstance(value, bool):
            return False
        return isinstance(value, self.python_types)


#: Built-in primitive types usable by every metamodel.
STRING = MetaDataType("String", (str,), default=None)
INTEGER = MetaDataType("Integer", (int,), default=None)
REAL = MetaDataType("Real", (float, int), default=None)
BOOLEAN = MetaDataType("Boolean", (bool,), default=None)
ANY = MetaDataType("Any", (), default=None)


class MetaEnumLiteral(MetaElement):
    """One literal of an enumeration; its value is its name string."""

    def __init__(self, name: str, enum: "MetaEnum"):
        super().__init__(name)
        self._owner = enum


class MetaEnum(MetaClassifier):
    """An enumeration type; values of enum-typed features are literal names."""

    def __init__(self, name: str, literals: Iterable[str] = ()):
        super().__init__(name)
        self._literals: dict[str, MetaEnumLiteral] = {}
        for lit in literals:
            self.add_literal(lit)

    @property
    def literals(self) -> tuple:
        return tuple(self._literals)

    def add_literal(self, name: str) -> MetaEnumLiteral:
        if name in self._literals:
            raise MetamodelError(f"enum {self.name} already has literal {name!r}")
        lit = MetaEnumLiteral(name, self)
        self._literals[name] = lit
        return lit

    def is_instance(self, value) -> bool:
        return isinstance(value, str) and value in self._literals

    @property
    def default(self):
        return next(iter(self._literals), None)


class MetaFeature(MetaElement):
    """A structural feature of a metaclass (attribute or reference)."""

    def __init__(
        self,
        name: str,
        type_: MetaClassifier,
        lower: int = 0,
        upper: int = 1,
        ordered: bool = True,
        changeable: bool = True,
    ):
        super().__init__(name)
        if not isinstance(type_, MetaClassifier):
            raise MetamodelError(f"feature {name!r} needs a MetaClassifier type")
        if upper != UNBOUNDED and upper < 1:
            raise MetamodelError(f"feature {name!r}: upper bound must be >=1 or UNBOUNDED")
        if upper != UNBOUNDED and lower > upper:
            raise MetamodelError(f"feature {name!r}: lower {lower} > upper {upper}")
        if lower < 0:
            raise MetamodelError(f"feature {name!r}: lower bound must be >= 0")
        self.type = type_
        self.lower = lower
        self.upper = upper
        self.ordered = ordered
        self.changeable = changeable

    @property
    def many(self) -> bool:
        """True when the feature holds a collection (upper bound != 1)."""
        return self.upper != 1

    @property
    def required(self) -> bool:
        return self.lower >= 1

    @property
    def owning_class(self) -> Optional["MetaClass"]:
        owner = self._owner
        return owner if isinstance(owner, MetaClass) else None

    def default_value(self):
        if self.many:
            return None  # collections are materialized lazily per object
        return None


class MetaAttribute(MetaFeature):
    """A feature typed by a data type or enumeration."""

    def __init__(self, name, type_, lower=0, upper=1, default=None, **kw):
        if isinstance(type_, MetaClass):
            raise MetamodelError(
                f"attribute {name!r} cannot be typed by a metaclass; use a reference"
            )
        super().__init__(name, type_, lower, upper, **kw)
        self.default = default

    def default_value(self):
        if self.many:
            return None
        if self.default is not None:
            return self.default
        return None


class MetaReference(MetaFeature):
    """A feature typed by a metaclass, optionally containing or bidirectional."""

    def __init__(self, name, type_, lower=0, upper=1, containment=False, **kw):
        if not isinstance(type_, MetaClass):
            raise MetamodelError(f"reference {name!r} must be typed by a metaclass")
        super().__init__(name, type_, lower, upper, **kw)
        self.containment = containment
        self.opposite: Optional[MetaReference] = None

    def set_opposite(self, other: "MetaReference") -> None:
        """Declare ``other`` as the inverse end of this reference.

        Both ends are linked; containment on both ends is rejected, as is
        re-linking an already-paired reference to a different opposite.
        """
        if not isinstance(other, MetaReference):
            raise MetamodelError("opposite must be a MetaReference")
        if self.opposite is not None and self.opposite is not other:
            raise MetamodelError(f"reference {self.qualified_name} already has an opposite")
        if other.opposite is not None and other.opposite is not self:
            raise MetamodelError(f"reference {other.qualified_name} already has an opposite")
        if self.containment and other.containment:
            raise MetamodelError("both ends of an opposite pair cannot be containment")
        self.opposite = other
        other.opposite = self


class _Shape:
    """What a metaclass derives from its own and inherited definitions,
    as of one value of :attr:`MetaClass._edits`.  Never mutated: the
    public accessors hand out copies."""

    __slots__ = ("edits", "superclasses", "features", "references", "containment")

    def __init__(self, meta: "MetaClass", edits: int):
        self.edits = edits
        supers: list[MetaClass] = []
        stack = list(meta._superclasses)
        while stack:
            cur = stack.pop(0)
            if cur not in supers:
                supers.append(cur)
                stack.extend(cur._superclasses)
        #: transitive superclasses, nearest first, without duplicates
        self.superclasses = tuple(supers)
        # a subclass's definition shadows an inherited same-named one
        features: dict[str, MetaFeature] = {}
        for sup in reversed(supers):
            features.update(sup._own_features)
        features.update(meta._own_features)
        self.features = features
        self.references = tuple(
            f for f in features.values() if isinstance(f, MetaReference)
        )
        self.containment = tuple(r for r in self.references if r.containment)


class MetaClass(MetaClassifier):
    """A metaclass: named type with features, inheritance, and instances.

    Calling a metaclass creates a dynamic instance::

        person = MetaClass("Person", package=pkg)
        person.add_attribute("name", STRING)
        p = person(name="Ada")
    """

    #: kernel-wide count of inheritance and feature edits; a cached
    #: shape stamped with an older count is stale
    _edits = 0

    def __init__(
        self,
        name: str,
        package: Optional[MetaPackage] = None,
        superclasses: Iterable["MetaClass"] = (),
        abstract: bool = False,
    ):
        super().__init__(name)
        self.abstract = abstract
        self._superclasses: list[MetaClass] = []
        self._own_features: dict[str, MetaFeature] = {}
        self._cached_shape: Optional[_Shape] = None
        for sup in superclasses:
            self.add_superclass(sup)
        if package is not None:
            package.add_classifier(self)

    # -- inheritance --------------------------------------------------------

    @property
    def superclasses(self) -> tuple:
        return tuple(self._superclasses)

    def add_superclass(self, sup: "MetaClass") -> None:
        if not isinstance(sup, MetaClass):
            raise MetamodelError(f"superclass of {self.name} must be a MetaClass")
        if sup is self or self in sup.all_superclasses():
            raise MetamodelError(f"inheritance cycle involving {self.name}")
        if sup not in self._superclasses:
            self._superclasses.append(sup)
            # after the edit: a shape derived concurrently is then stale
            MetaClass._edits += 1

    def _shape(self) -> _Shape:
        """This class's cached shape, derived again after any edit."""
        shape = self._cached_shape
        edits = MetaClass._edits
        if shape is None or shape.edits != edits:
            shape = self._cached_shape = _Shape(self, edits)
        return shape

    def all_superclasses(self) -> list:
        """Transitive superclasses, nearest first, without duplicates."""
        return list(self._shape().superclasses)

    def conforms_to(self, other: "MetaClass") -> bool:
        """True when instances of ``self`` are acceptable where ``other`` is expected."""
        return other is self or other in self._shape().superclasses

    # -- features ------------------------------------------------------------

    @property
    def own_features(self) -> tuple:
        return tuple(self._own_features.values())

    def _check_fresh_feature_name(self, name: str) -> None:
        if name in self._shape().features:
            raise MetamodelError(
                f"metaclass {self.qualified_name} already has a feature {name!r}"
            )

    def add_feature(self, feature: MetaFeature) -> MetaFeature:
        self._check_fresh_feature_name(feature.name)
        self._own_features[feature.name] = feature
        feature._owner = self
        MetaClass._edits += 1
        return feature

    def add_attribute(self, name, type_, lower=0, upper=1, default=None, **kw) -> MetaAttribute:
        return self.add_feature(MetaAttribute(name, type_, lower, upper, default, **kw))

    def add_reference(
        self, name, type_, lower=0, upper=1, containment=False, opposite=None, **kw
    ) -> MetaReference:
        ref = MetaReference(name, type_, lower, upper, containment, **kw)
        self.add_feature(ref)
        if opposite is not None:
            ref.set_opposite(opposite)
        return ref

    def all_features(self) -> dict:
        """Name → feature map including inherited features.

        A feature declared on a subclass shadows a same-named inherited one
        (the kernel forbids creating such shadows, but merged metamodels may
        contain them; nearest definition wins).
        """
        return dict(self._shape().features)

    def feature(self, name: str) -> MetaFeature:
        try:
            return self._shape().features[name]
        except KeyError:
            raise MetamodelError(
                f"metaclass {self.qualified_name} has no feature {name!r}"
            ) from None

    def has_feature(self, name: str) -> bool:
        return name in self._shape().features

    def references(self) -> Iterator[MetaReference]:
        return iter(self._shape().references)

    def containment_references(self) -> Iterator[MetaReference]:
        return iter(self._shape().containment)

    # -- instantiation -------------------------------------------------------

    def is_instance(self, value) -> bool:
        from repro.metamodel.instances import MObject

        return isinstance(value, MObject) and value.meta_class.conforms_to(self)

    def __call__(self, **kwargs):
        """Instantiate this metaclass; keyword arguments initialize features."""
        from repro.metamodel.instances import MObject

        if self.abstract:
            raise MetamodelError(f"cannot instantiate abstract metaclass {self.qualified_name}")
        obj = MObject(self)
        for key, value in kwargs.items():
            feature = self.feature(key)
            if feature.many:
                obj.get(key).extend(value)
            else:
                obj.set(key, value)
        return obj
