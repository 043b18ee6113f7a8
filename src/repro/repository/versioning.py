"""Snapshot-based version management for model resources.

A :class:`Version` is an immutable deep clone of the resource's containment
forest plus an identity map tracing every snapshot object back to the
*origin* uuid of the live object it was cloned from.  Checking a version
out replaces the resource contents with fresh clones of the snapshot and
returns the origin map for the new live objects, which lets bookkeeping
keyed by uuid (the demarcation table, trace links) survive checkouts.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import NoSuchVersionError
from repro.metamodel.instances import MObject, ModelResource, deep_clone

_version_counter = itertools.count(1)


class Version:
    """One committed snapshot of a resource."""

    def __init__(
        self,
        label: str,
        roots: List[MObject],
        origin_of: Dict[str, str],
        parent: Optional["Version"],
    ):
        self.id = f"v{next(_version_counter)}"
        self.label = label
        self.created_at = time.time()
        self.parent = parent
        self._roots = roots              # detached clones; never mutated
        #: snapshot-object uuid → origin uuid of the live object at commit time
        self.origin_of = origin_of

    @property
    def roots(self) -> Tuple[MObject, ...]:
        return tuple(self._roots)

    def materialize(self) -> Tuple[List[MObject], Dict[str, str]]:
        """Clone the snapshot into fresh, mutable objects.

        Returns ``(roots, origin_map)`` where ``origin_map`` maps each new
        object's uuid to the origin uuid recorded at commit time.
        """
        clones, by_snapshot_uuid = deep_clone(self._roots)
        origin_map = {
            clone.uuid: self.origin_of.get(snapshot_uuid, snapshot_uuid)
            for snapshot_uuid, clone in by_snapshot_uuid.items()
        }
        return clones, origin_map

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Version {self.id} {self.label!r}>"


class VersionHistory:
    """Linear-with-parents version history over one resource."""

    def __init__(self, resource: ModelResource):
        self.resource = resource
        self._versions: Dict[str, Version] = {}
        self._order: List[str] = []
        self.head: Optional[Version] = None
        #: the resource's revision when it last matched ``head``
        self._head_revision: Optional[int] = None
        #: live uuid → origin uuid (identity thread across checkouts)
        self._live_origin: Dict[str, str] = {}

    @property
    def versions(self) -> List[Version]:
        return [self._versions[v] for v in self._order]

    def head_is_current(self) -> bool:
        """Whether the resource has not changed since it last matched
        ``head`` (its commit or checkout), so the head's snapshot
        stands for the live model."""
        return self.head is not None and self.resource.revision == self._head_revision

    def origin_uuid(self, obj: MObject) -> str:
        """The identity key of a live object, stable across checkouts."""
        return self._live_origin.get(obj.uuid, obj.uuid)

    def commit(self, label: str) -> Version:
        """Snapshot the current resource state as a new version."""
        clones, by_origin = deep_clone(self.resource.roots)
        origin_of = {
            clone.uuid: self._live_origin.get(live_uuid, live_uuid)
            for live_uuid, clone in by_origin.items()
        }
        version = Version(label, clones, origin_of, parent=self.head)
        self._versions[version.id] = version
        self._order.append(version.id)
        self.head = version
        self._head_revision = self.resource.revision
        return version

    def get(self, version_id: str) -> Version:
        try:
            return self._versions[version_id]
        except KeyError:
            raise NoSuchVersionError(f"no version {version_id!r}") from None

    def checkout(self, version_id: str) -> Dict[str, str]:
        """Replace the resource contents with a clone of ``version_id``.

        Returns the new live-uuid → origin-uuid map (also retained
        internally for :meth:`origin_uuid`).  Object identities change:
        holders of references into the resource must re-resolve.
        """
        version = self.get(version_id)
        roots, origin_map = version.materialize()
        for root in list(self.resource.roots):
            self.resource.remove_root(root)
        for root in roots:
            self.resource.add_root(root)
        self._live_origin = dict(origin_map)
        self.head = version
        self._head_revision = self.resource.revision
        return origin_map
