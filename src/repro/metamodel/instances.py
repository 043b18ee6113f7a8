"""Dynamic model instances: :class:`MObject`, :class:`MList`, :class:`ModelResource`.

Mutation model
--------------
All state lives in per-feature *slots*.  Two layers of mutation exist:

* **raw** operations (``_slot_set``, ``_slot_unset``, ``MList._raw_insert``,
  ``MList._raw_remove``) change exactly one slot, emit exactly one
  :class:`~repro.metamodel.notifications.Notification`, and maintain the
  *derived* container pointer for containment features — nothing else;
* **high-level** operations (``set``, ``unset``, ``append``, ``remove`` ...)
  validate types and multiplicities and orchestrate the raw operations
  needed to keep bidirectional (opposite) references consistent.

Because every raw change is notified, replaying inverted notifications in
reverse order restores any prior state — the foundation of the repository's
undo/redo (S5).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from repro.errors import (
    ContainmentError,
    ModelError,
    MultiplicityError,
    TypeConformanceError,
)
from repro.metamodel.kernel import (
    UNBOUNDED,
    MetaClass,
    MetaFeature,
    MetaReference,
)
from repro.metamodel.notifications import (
    Notification,
    NotificationKind,
    NotificationMixin,
)

_id_counter = itertools.count(1)


class _RootsFeature:
    """Sentinel pseudo-feature used for resource root add/remove notifications."""

    name = "<roots>"
    containment = True
    many = True


ROOTS_FEATURE = _RootsFeature()


def _walk(slots, containment, children) -> Iterator["MObject"]:
    """Depth-first over ``children``, each followed by its containment
    subtree, then over what the ``containment`` references hold in
    ``slots``: one generator however deep the tree, ``stack`` keeping
    each open ancestor's place.  A list is copied when the walk reaches
    it, so a child added to the object the caller was just handed is
    still visited, and one added to a list already reached is not."""
    refs = iter(containment)
    children = iter(list(children))
    stack = []
    while True:
        for child in children:
            yield child
            # descend into the child just handed
            stack.append((slots, refs, children))
            slots = child._slots
            refs = iter(child._meta._shape().containment)
            children = iter(())
            break
        else:
            # this list is done: on to the next one holding anything, or
            # back up to the parent's place
            for ref in refs:
                value = slots.get(ref.name)
                if value is not None:
                    children = iter(value._items[:] if ref.many else (value,))
                    break
            else:
                if not stack:
                    return
                slots, refs, children = stack.pop()


def _check_conformance(feature: MetaFeature, value) -> None:
    if not feature.type.is_instance(value):
        raise TypeConformanceError(
            f"value {value!r} does not conform to {feature.type.name} "
            f"(feature {feature.qualified_name})"
        )


class MObject(NotificationMixin):
    """A dynamic instance of a :class:`~repro.metamodel.kernel.MetaClass`.

    Features are accessed either reflectively (``obj.get("name")`` /
    ``obj.set("name", v)``) or as Python attributes (``obj.name = v``).
    Many-valued features always read as an :class:`MList`.
    """

    __slots__ = (
        "_meta",
        "_slots",
        "_container",
        "_containing_feature",
        "_resource",
        "_observers",
        "_uuid",
        "__weakref__",
    )

    def __init__(self, meta_class: MetaClass):
        object.__setattr__(self, "_meta", meta_class)
        object.__setattr__(self, "_slots", {})
        object.__setattr__(self, "_container", None)
        object.__setattr__(self, "_containing_feature", None)
        object.__setattr__(self, "_resource", None)
        object.__setattr__(self, "_observers", [])
        object.__setattr__(self, "_uuid", f"o{next(_id_counter)}")
        for feature in meta_class._shape().features.values():
            default = feature.default_value()
            if default is not None:
                self._slots[feature.name] = default

    # -- identity ------------------------------------------------------------

    @property
    def meta_class(self) -> MetaClass:
        return self._meta

    @property
    def uuid(self) -> str:
        """Process-unique, creation-ordered identifier (used by XMI and diffs)."""
        return self._uuid

    def isinstance_of(self, meta_class: MetaClass) -> bool:
        return self._meta.conforms_to(meta_class)

    # -- container / resource --------------------------------------------------

    @property
    def container(self) -> Optional["MObject"]:
        """The object that contains this one through a containment feature."""
        return self._container

    @property
    def containing_feature(self) -> Optional[MetaReference]:
        return self._containing_feature

    @property
    def resource(self) -> Optional["ModelResource"]:
        """The resource holding the containment tree this object is part of."""
        top = self
        while top._container is not None:
            top = top._container
        return top._resource

    def ancestors(self) -> Iterator["MObject"]:
        cur = self._container
        while cur is not None:
            yield cur
            cur = cur._container

    def all_contents(self) -> Iterator["MObject"]:
        """Depth-first iteration over the containment subtree (self excluded)."""
        return _walk(self._slots, self._meta._shape().containment, ())

    # -- notifications ---------------------------------------------------------

    def _notify(self, notification: Notification) -> None:
        self._dispatch(notification)
        resource = self.resource
        if resource is not None:
            resource._dispatch(notification)

    # -- raw layer ---------------------------------------------------------------

    def _raw_get(self, feature: MetaFeature):
        return self._slots.get(feature.name)

    def _slot_set(self, feature: MetaFeature, value) -> None:
        old = self._slots.get(feature.name)
        self._slots[feature.name] = value
        if isinstance(feature, MetaReference) and feature.containment:
            if isinstance(old, MObject):
                _clear_containment(old)
            if isinstance(value, MObject):
                _assign_containment(value, self, feature)
        self._notify(Notification(self, feature, NotificationKind.SET, old, value))

    def _slot_unset(self, feature: MetaFeature) -> None:
        old = self._slots.pop(feature.name, None)
        if isinstance(feature, MetaReference) and feature.containment:
            if isinstance(old, MObject):
                _clear_containment(old)
        self._notify(Notification(self, feature, NotificationKind.UNSET, old, None))

    # -- high-level access ---------------------------------------------------------

    def _resolve_feature(self, name: str) -> MetaFeature:
        return self._meta.feature(name)

    def get(self, name: str):
        """Read a feature; many-valued features return a live :class:`MList`."""
        feature = self._resolve_feature(name)
        if feature.many:
            current = self._slots.get(feature.name)
            if current is None:
                current = MList(self, feature)
                self._slots[feature.name] = current
            return current
        return self._slots.get(feature.name)

    def is_set(self, name: str) -> bool:
        feature = self._resolve_feature(name)
        value = self._slots.get(feature.name)
        if feature.many:
            return bool(value)
        return value is not None

    def set(self, name: str, value) -> None:
        """Assign a single-valued feature, keeping opposites consistent."""
        feature = self._resolve_feature(name)
        if feature.many:
            raise ModelError(
                f"feature {feature.qualified_name} is many-valued; mutate its collection"
            )
        if not feature.changeable:
            raise ModelError(f"feature {feature.qualified_name} is not changeable")
        if value is None:
            self.unset(name)
            return
        _check_conformance(feature, value)
        old = self._slots.get(feature.name)
        if old is value:
            return
        if isinstance(feature, MetaReference):
            self._set_reference(feature, old, value)
        else:
            self._slot_set(feature, value)

    def _set_reference(self, feature: MetaReference, old, value: "MObject") -> None:
        if feature.containment:
            _guard_containment_cycle(value, self)
            if value._container is not None and value._container is not self:
                value._container.remove_from(value._containing_feature.name, value)
            elif value._resource is not None:
                value._resource.remove_root(value)
        opposite = feature.opposite
        if opposite is not None:
            if old is not None:
                _raw_remove_link(old, opposite, self)
            _displace_single_opposite(value, feature, opposite, self)
        self._slot_set(feature, value)
        if opposite is not None:
            _raw_add_link(value, opposite, self)

    def unset(self, name: str) -> None:
        """Clear a feature (single-valued: remove value; many: remove all)."""
        feature = self._resolve_feature(name)
        if feature.many:
            self.get(name).clear()
            return
        old = self._slots.get(feature.name)
        if old is None:
            return
        if isinstance(feature, MetaReference) and feature.opposite is not None:
            _raw_remove_link(old, feature.opposite, self)
        self._slot_unset(feature)

    def remove_from(self, name: str, value) -> None:
        """Remove ``value`` from the many-valued feature ``name``."""
        self.get(name).remove(value)

    # -- attribute-style access ------------------------------------------------------

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        meta = object.__getattribute__(self, "_meta")
        if meta.has_feature(name):
            return self.get(name)
        raise AttributeError(
            f"{meta.qualified_name} instance has no feature or attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        if self._meta.has_feature(name):
            feature = self._meta.feature(name)
            if feature.many:
                collection = self.get(name)
                collection.clear()
                collection.extend(value)
            else:
                self.set(name, value)
            return
        raise AttributeError(
            f"{self._meta.qualified_name} instance has no feature {name!r}"
        )

    # -- lifecycle ----------------------------------------------------------------------

    def delete(self) -> None:
        """Detach this object from its container/resource and sever opposite links.

        Contained children are deleted recursively.  Unidirectional inbound
        references from *outside* the deleted subtree are not discoverable
        from here; use :meth:`ModelResource.purge` to also clean those.
        """
        for child in list(self.all_contents()):
            child._sever_cross_links()
        self._sever_cross_links()
        if self._container is not None:
            feature = self._containing_feature
            if feature.many:
                self._container.get(feature.name).remove(self)
            else:
                self._container.unset(feature.name)
        elif self._resource is not None:
            self._resource.remove_root(self)

    def _sever_cross_links(self) -> None:
        for feature in list(self._meta.all_features().values()):
            if not isinstance(feature, MetaReference) or feature.containment:
                continue
            if feature.opposite is None:
                continue
            if feature.many:
                collection = self._slots.get(feature.name)
                if collection:
                    for other in list(collection):
                        collection.remove(other)
            elif self._slots.get(feature.name) is not None:
                self.unset(feature.name)

    def __repr__(self):  # pragma: no cover - debugging aid
        label = self._slots.get("name")
        suffix = f" {label!r}" if isinstance(label, str) else f" {self._uuid}"
        return f"<{self._meta.name}{suffix}>"


# ---------------------------------------------------------------------------
# containment helpers
# ---------------------------------------------------------------------------


def _guard_containment_cycle(child: MObject, new_parent: MObject) -> None:
    if child is new_parent or any(a is child for a in new_parent.ancestors()):
        raise ContainmentError(
            f"containment cycle: {child!r} would contain its own ancestor"
        )


def _assign_containment(child: MObject, parent: MObject, feature: MetaReference) -> None:
    if child._container is not None and child._container is not parent:
        raise ContainmentError(
            f"{child!r} is already contained by {child._container!r}"
        )
    object.__setattr__(child, "_container", parent)
    object.__setattr__(child, "_containing_feature", feature)
    object.__setattr__(child, "_resource", None)


def _clear_containment(child: MObject) -> None:
    object.__setattr__(child, "_container", None)
    object.__setattr__(child, "_containing_feature", None)


# ---------------------------------------------------------------------------
# opposite-link helpers (raw, notification-emitting)
# ---------------------------------------------------------------------------


def _raw_add_link(target: MObject, opposite: MetaReference, source: MObject) -> None:
    """Record ``source`` on ``target``'s opposite slot (raw layer)."""
    if opposite.many:
        collection = target.get(opposite.name)
        if source not in collection:
            collection._raw_insert(len(collection), source)
    else:
        target._slot_set(opposite, source)


def _raw_remove_link(target: MObject, opposite: MetaReference, source: MObject) -> None:
    """Drop ``source`` from ``target``'s opposite slot (raw layer)."""
    if opposite.many:
        collection = target._slots.get(opposite.name)
        if collection is not None and source in collection:
            collection._raw_remove(collection.index(source))
    else:
        if target._slots.get(opposite.name) is source:
            target._slot_unset(opposite)


def _displace_single_opposite(
    value: MObject, feature: MetaReference, opposite: MetaReference, source: MObject
) -> None:
    """If ``value`` is already linked to another object through a single-valued
    opposite, sever that other object's forward link first."""
    if opposite.many:
        return
    previous = value._slots.get(opposite.name)
    if previous is None or previous is source:
        return
    if feature.many:
        collection = previous._slots.get(feature.name)
        if collection is not None and value in collection:
            collection._raw_remove(collection.index(value))
    else:
        if previous._slots.get(feature.name) is value:
            previous._slot_unset(feature)
    value._slot_unset(opposite)


# ---------------------------------------------------------------------------
# MList
# ---------------------------------------------------------------------------


class MList:
    """A live, owned collection backing a many-valued feature.

    Mutations validate type conformance and the upper multiplicity bound,
    maintain opposite references, and emit one notification per raw change.
    Reference-typed collections are *unique* (inserting an element twice
    raises :class:`~repro.errors.ModelError`); attribute collections may
    hold duplicates.
    """

    __slots__ = ("_owner", "_feature", "_items")

    def __init__(self, owner: MObject, feature: MetaFeature):
        self._owner = owner
        self._feature = feature
        self._items: list = []

    # -- raw layer ---------------------------------------------------------------

    def _raw_insert(self, index: int, value) -> None:
        self._items.insert(index, value)
        feature = self._feature
        if isinstance(feature, MetaReference) and feature.containment:
            _assign_containment(value, self._owner, feature)
        self._owner._notify(
            Notification(self._owner, feature, NotificationKind.ADD, None, value, index)
        )

    def _raw_remove(self, index: int):
        value = self._items.pop(index)
        feature = self._feature
        if isinstance(feature, MetaReference) and feature.containment:
            _clear_containment(value)
        self._owner._notify(
            Notification(self._owner, feature, NotificationKind.REMOVE, value, None, index)
        )
        return value

    # -- validation --------------------------------------------------------------

    def _check_insertable(self, value) -> None:
        feature = self._feature
        if not feature.changeable:
            raise ModelError(f"feature {feature.qualified_name} is not changeable")
        _check_conformance(feature, value)
        if feature.upper != UNBOUNDED and len(self._items) >= feature.upper:
            raise MultiplicityError(
                f"feature {feature.qualified_name} holds at most {feature.upper} values"
            )
        if isinstance(feature, MetaReference) and any(v is value for v in self._items):
            raise ModelError(
                f"{value!r} is already in {feature.qualified_name} (unique collection)"
            )

    # -- high-level mutation -------------------------------------------------------

    def insert(self, index: int, value) -> None:
        self._check_insertable(value)
        feature = self._feature
        if isinstance(feature, MetaReference):
            if feature.containment:
                _guard_containment_cycle(value, self._owner)
                if value._container is not None:
                    value._container.remove_from(value._containing_feature.name, value)
                elif value._resource is not None:
                    value._resource.remove_root(value)
            opposite = feature.opposite
            if opposite is not None:
                _displace_single_opposite(value, feature, opposite, self._owner)
        index = min(max(index, 0), len(self._items))
        self._raw_insert(index, value)
        if isinstance(feature, MetaReference) and feature.opposite is not None:
            _raw_add_link(value, feature.opposite, self._owner)

    def append(self, value) -> None:
        self.insert(len(self._items), value)

    def extend(self, values: Iterable) -> None:
        for value in values:
            self.append(value)

    def remove(self, value) -> None:
        for i, item in enumerate(self._items):
            if item is value or item == value:
                self._remove_at(i)
                return
        raise ModelError(f"{value!r} not in {self._feature.qualified_name}")

    def _remove_at(self, index: int):
        value = self._raw_remove(index)
        feature = self._feature
        if isinstance(feature, MetaReference) and feature.opposite is not None:
            _raw_remove_link(value, feature.opposite, self._owner)
        return value

    def pop(self, index: int = -1):
        if not self._items:
            raise ModelError(f"pop from empty {self._feature.qualified_name}")
        if index < 0:
            index += len(self._items)
        return self._remove_at(index)

    def clear(self) -> None:
        while self._items:
            self._remove_at(len(self._items) - 1)

    def __setitem__(self, index: int, value) -> None:
        if not isinstance(index, int):
            raise ModelError("MList only supports integer index assignment")
        size = len(self._items)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise ModelError(f"index {index} out of range for {self._feature.qualified_name}")
        self._remove_at(index)
        self.insert(index, value)

    # -- read access -----------------------------------------------------------------

    def index(self, value) -> int:
        for i, item in enumerate(self._items):
            if item is value or item == value:
                return i
        raise ValueError(f"{value!r} not in list")

    def __contains__(self, value) -> bool:
        return any(item is value or item == value for item in self._items)

    def __iter__(self):
        return iter(list(self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items[index])
        return self._items[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, MList):
            return self._items == other._items
        if isinstance(other, (list, tuple)):
            return self._items == list(other)
        return NotImplemented

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MList({self._feature.name}, {self._items!r})"


# ---------------------------------------------------------------------------
# ModelResource
# ---------------------------------------------------------------------------


class ModelResource(NotificationMixin):
    """A named holder of root objects; the unit of versioning and XMI export.

    Observers subscribed on a resource receive every notification emitted by
    any object inside its containment trees, plus root add/remove events
    (feature :data:`ROOTS_FEATURE`).  :attr:`revision` counts them, so
    two equal readings bracket an unchanged model.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._roots: list[MObject] = []
        self._observers = []
        #: notifications dispatched so far: every raw change in the
        #: resource's trees and every root added or removed
        self.revision = 0

    def _dispatch(self, notification: Notification) -> None:
        self.revision += 1
        NotificationMixin._dispatch(self, notification)

    @property
    def roots(self) -> tuple:
        return tuple(self._roots)

    def add_root(self, obj: MObject) -> MObject:
        if obj._container is not None:
            raise ContainmentError(f"{obj!r} is contained; cannot be a resource root")
        if obj._resource is self:
            return obj
        if obj._resource is not None:
            obj._resource.remove_root(obj)
        self._roots.append(obj)
        object.__setattr__(obj, "_resource", self)
        self._dispatch(
            Notification(self, ROOTS_FEATURE, NotificationKind.ADD, None, obj, len(self._roots) - 1)
        )
        return obj

    def remove_root(self, obj: MObject) -> None:
        try:
            index = next(i for i, r in enumerate(self._roots) if r is obj)
        except StopIteration:
            raise ModelError(f"{obj!r} is not a root of resource {self.name!r}") from None
        self._roots.pop(index)
        object.__setattr__(obj, "_resource", None)
        self._dispatch(
            Notification(self, ROOTS_FEATURE, NotificationKind.REMOVE, obj, None, index)
        )

    def all_contents(self) -> Iterator[MObject]:
        """Every object in the resource, depth-first from each root."""
        return _walk(None, (), self._roots)

    def objects_of(self, meta_class: MetaClass) -> Iterator[MObject]:
        """All instances (direct or via subclassing) of ``meta_class``."""
        for obj in self.all_contents():
            if obj.isinstance_of(meta_class):
                yield obj

    def find(self, meta_class: MetaClass, **attrs) -> Optional[MObject]:
        """First object of ``meta_class`` whose features equal ``attrs``."""
        for obj in self.objects_of(meta_class):
            if all(obj.get(k) == v for k, v in attrs.items()):
                return obj
        return None

    def by_uuid(self, uuid: str) -> Optional[MObject]:
        for obj in self.all_contents():
            if obj.uuid == uuid:
                return obj
        return None

    def purge(self, obj: MObject) -> None:
        """Delete ``obj`` and scrub any dangling unidirectional references to it
        (or to objects of its subtree) from the rest of the resource."""
        doomed = {id(obj)}
        doomed.update(id(c) for c in obj.all_contents())
        obj.delete()
        for other in self.all_contents():
            for feature in other.meta_class.all_features().values():
                if not isinstance(feature, MetaReference) or feature.containment:
                    continue
                if feature.many:
                    collection = other._slots.get(feature.name)
                    if collection is None:
                        continue
                    for item in list(collection):
                        if id(item) in doomed:
                            collection.remove(item)
                else:
                    value = other._slots.get(feature.name)
                    if value is not None and id(value) in doomed:
                        other.unset(feature.name)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<ModelResource {self.name!r} roots={len(self._roots)}>"


# ---------------------------------------------------------------------------
# deep cloning (used by repository snapshots and model diff baselines)
# ---------------------------------------------------------------------------


def deep_clone(roots: Iterable[MObject]):
    """Clone the containment subtrees of ``roots``.

    Returns ``(clones, mapping)`` where ``mapping`` maps original objects to
    their clones (by identity).  Cross-references *within* the cloned forest
    are remapped to the clones; references leaving the forest keep pointing
    at the original targets, and nothing outside the forest is written.

    The forest is built on the raw slot layer, without notifications or
    conformance checks: it is detached, and the originals' values already
    conform.  Each bidirectional pair is copied from one side only (the
    containment side if there is one, else the side whose (class, name)
    sorts first) and the other side is linked back as it is copied, so a
    many-valued opposite lists its sources in the order they are cloned.
    """
    roots = list(roots)
    mapping: dict[int, MObject] = {}
    originals: dict[int, MObject] = {}
    for root in roots:
        for obj in itertools.chain((root,), root.all_contents()):
            mapping[id(obj)] = MObject(obj._meta)
            originals[id(obj)] = obj

    for oid, original in originals.items():
        clone = mapping[oid]
        slots = clone._slots
        for feature in original._meta._shape().features.values():
            value = original._slots.get(feature.name)
            if value is None:
                continue
            if not isinstance(feature, MetaReference):
                slots[feature.name] = (
                    _raw_list(clone, feature, value._items) if feature.many else value
                )
                continue
            opposite = feature.opposite
            if opposite is not None and not feature.containment:
                if opposite.containment:
                    continue
                self_key = (feature.owning_class.qualified_name, feature.name)
                opp_key = (opposite.owning_class.qualified_name, opposite.name)
                if self_key > opp_key:
                    continue
            items = value._items if feature.many else (value,)
            targets = [mapping.get(id(item), item) for item in items]
            if not feature.many:
                slots[feature.name] = targets[0]
            elif targets:
                slots[feature.name] = _raw_list(clone, feature, targets)
            if feature.containment:
                for child in targets:
                    object.__setattr__(child, "_container", clone)
                    object.__setattr__(child, "_containing_feature", feature)
            if opposite is None:
                continue
            for item, target in zip(items, targets):
                if id(item) not in mapping:
                    continue
                if not opposite.many:
                    target._slots[opposite.name] = clone
                    continue
                back = target._slots.get(opposite.name)
                if back is None:
                    back = target._slots[opposite.name] = MList(target, opposite)
                if clone not in back._items:
                    back._items.append(clone)

    clones = [mapping[id(r)] for r in roots]
    return clones, {originals[k].uuid: v for k, v in mapping.items()}


def _raw_list(owner: MObject, feature: MetaFeature, items) -> MList:
    """A collection for ``owner``'s ``feature`` holding ``items`` as they are."""
    collection = MList(owner, feature)
    collection._items = list(items)
    return collection
