"""The cluster catalog: every bucket's DDL under one revision.

Section 4.3.1: the cluster manager "supervises server configuration";
section 4.3.4: the Index Manager receives all index DDL.  One catalog
holds each bucket's design documents, GSI indexes (definition,
placement, state) and N1QL ``USING VIEW`` indexes; index names share
one namespace.  DDL validates, changes the catalog, and the manager
pushes it.  Every change bumps :attr:`Catalog.epoch` -- also the
plan-cache epoch -- and stamps what it makes with it, so a node holding
a view or index of another revision makes it again
(:meth:`~repro.cluster.node.Node.apply_catalog`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..common.errors import (BucketNotFoundError, IndexExistsError,
                             IndexNotFoundError, ViewExistsError,
                             ViewNotFoundError)

if TYPE_CHECKING:  # pragma: no cover
    from ..gsi.manager import IndexMeta
    from ..n1ql.catalog import ViewIndexInfo
    from ..views.mapreduce import ViewDefinition


class ViewEntry(NamedTuple):
    """A view, the revision that made it, and the ``USING VIEW`` index
    that reads it, if any."""

    definition: "ViewDefinition"
    revision: int
    index: "ViewIndexInfo | None" = None


class Catalog:
    """Design documents, GSI indexes and view indexes, cluster-wide."""

    def __init__(self):
        #: The one revision counter: every change bumps it.
        self.epoch = 0
        #: bucket -> {(design, view): ViewEntry}.
        self._views: dict[str, dict[tuple[str, str], ViewEntry]] = {}
        #: GSI index name -> IndexMeta.
        self._indexes: dict[str, "IndexMeta"] = {}

    def _bump(self) -> int:
        self.epoch += 1
        return self.epoch

    def has_bucket(self, bucket: str) -> bool:
        return bucket in self._views

    def add_bucket(self, bucket: str) -> None:
        self._views[bucket] = {}
        self._bump()

    def drop_bucket(self, bucket: str) -> None:
        """Forget the bucket with its views and indexes."""
        del self._views[bucket]
        self._indexes = {name: meta for name, meta in self._indexes.items()
                         if meta.definition.bucket != bucket}
        self._bump()

    # -- design documents ----------------------------------------------------

    def views(self, bucket: str) -> dict[tuple[str, str], ViewEntry]:
        """The bucket's views, keyed by ``(design, view)``."""
        views = self._views.get(bucket)
        if views is None:
            raise BucketNotFoundError(bucket)
        return views

    def view(self, bucket: str, design: str, view: str) -> "ViewDefinition":
        entry = self.views(bucket).get((design, view))
        if entry is None:
            raise ViewNotFoundError(design, view)
        return entry.definition

    def define_view(self, bucket: str, definition: "ViewDefinition",
                    index: "ViewIndexInfo | None" = None) -> None:
        """Add a view, and the ``USING VIEW`` index reading it if one is
        given: one change, refused whole if either name is taken."""
        views = self.views(bucket)
        if index is not None:
            self.require_free(index.name)
        if (definition.design, definition.name) in views:
            raise ViewExistsError(definition.full_name)
        views[definition.design, definition.name] = ViewEntry(
            definition, self._bump(), index)

    def drop_view(self, bucket: str, design: str, view: str) -> None:
        """Drop a view, and the ``USING VIEW`` index reading it if any."""
        if (design, view) not in self.views(bucket):
            raise ViewNotFoundError(design, view)
        del self._views[bucket][design, view]
        self._bump()

    # -- indexes: one namespace ------------------------------------------------

    def require_free(self, name: str) -> None:
        if name in self._indexes or any(
                info.name == name for info in self.view_indexes()):
            raise IndexExistsError(name)

    def add(self, meta: "IndexMeta") -> None:
        """Register a GSI index, stamped with the new revision."""
        self.require_free(meta.definition.name)
        self.views(meta.definition.bucket)
        meta.revision = self._bump()
        self._indexes[meta.definition.name] = meta

    def renew(self, meta: "IndexMeta") -> None:
        """Make the index again: each host starts an empty instance."""
        meta.revision = self._bump()

    def mark_ready(self, meta: "IndexMeta") -> None:
        """A built index is a new access path for the planner."""
        meta.state = "ready"
        self._bump()

    def remove(self, name: str) -> None:
        """Drop a GSI index, or a ``USING VIEW`` index with its view."""
        if self._indexes.pop(name, None) is None:
            info = next((info for info in self.view_indexes()
                         if info.name == name), None)
            if info is None:
                raise IndexNotFoundError(name)
            del self._views[info.bucket][info.design, info.view]
        self._bump()

    def get(self, name: str) -> "IndexMeta | None":
        return self._indexes.get(name)

    def require(self, name: str) -> "IndexMeta":
        meta = self._indexes.get(name)
        if meta is None:
            raise IndexNotFoundError(name)
        return meta

    def names(self) -> list[str]:
        """The GSI index names, sorted."""
        return sorted(self._indexes)

    def indexes_on(self, bucket: str) -> list["IndexMeta"]:
        return [meta for meta in self._indexes.values()
                if meta.definition.bucket == bucket]

    def ready_on(self, bucket: str) -> list["IndexMeta"]:
        """The built GSI indexes: planned, scanned and maintained."""
        return [meta for meta in self._indexes.values()
                if meta.definition.bucket == bucket and meta.state == "ready"]

    def placed_on(self, node: str) -> dict[str, "IndexMeta"]:
        """The GSI indexes with an instance on ``node``, by name."""
        return {name: meta for name, meta in self._indexes.items()
                if node in meta.nodes}

    def view_indexes(self, bucket: str | None = None) -> list["ViewIndexInfo"]:
        """The ``USING VIEW`` indexes, of one bucket or of all."""
        return [entry.index for name, views in self._views.items()
                if bucket in (None, name) for entry in views.values()
                if entry.index is not None]
