"""What the query service keeps in the cluster catalog.

Section 4.3.5: "This Query Service component provides catalog support
for the Query Service", covering keyspaces and index metadata.  The
planner reads the cluster catalog (:mod:`repro.cluster.catalog`) for
the access paths of a keyspace: its ready GSI indexes and the view
indexes ``CREATE INDEX ... USING VIEW`` made, described here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import N1qlSemanticError

#: Design doc that holds the N1QL-created views.
N1QL_DESIGN = "_n1ql"


@dataclass
class ViewIndexInfo:
    """Metadata for a CREATE INDEX ... USING VIEW index."""

    name: str
    bucket: str
    attribute: str      # dotted path the view emits
    design: str
    view: str
    is_primary: bool = False


def require_keyspace(catalog, name: str) -> None:
    """Refuse a statement naming a bucket the cluster catalog lacks."""
    if not catalog.has_bucket(name):
        raise N1qlSemanticError(f"keyspace {name!r} does not exist")
