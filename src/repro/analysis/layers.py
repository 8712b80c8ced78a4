"""Layer conformance over the module import graph.

The architecture is a DAG the paper draws directly: clients sit on top
of the cluster fabric, the fabric hosts the services, the services sit
on the KV engine and DCP streams, and everything shares ``common``.
Imports must flow strictly downward:

    =====  ==========================================
    rank   packages
    =====  ==========================================
    0      common
    1      storage
    2      kv
    3      dcp
    4      n1ql, gsi, views, xdcr, replication
    5      cluster
    6      client
    7      server, ycsb
    8      analysis, sanitize  (tooling)
    9      the ``repro`` facade __init__
    =====  ==========================================

Checks:

``layer-violation``
    An import whose importer's rank is not above the importee's, or
    whose importer or importee is a ``repro.*`` package the table does
    not rank at all (a package nobody placed is a package nobody
    checks).  Same-package imports are free; same-rank cross-package imports go
    through the declared interface modules only (collation, index
    definitions, view definitions).  ``if TYPE_CHECKING:`` imports are
    erased at runtime and exempt.  Deferred (function-body) imports are
    still layer-checked -- deferring an upward import hides the layering
    breach without removing it.

``layer-restricted``
    ``repro.kv.engine`` / ``repro.kv.hashtable`` hold node-local state a
    real deployment reaches only over the fabric; only kv, cluster, dcp,
    replication and the analysis tooling may import them (shared value
    types live in ``repro.kv.types``).

Because cross-package imports must go down the table, an import cycle
can only form inside one package, inside the tooling tier, or between
same-rank interface modules.  An eager ``from .a import name`` cycle
fails at import time, so every test importing either module fails.
"""

from __future__ import annotations

from .framework import Finding, register
from .project import DEFERRED, ModuleInfo, Project

RANKS = {
    "common": 0,
    "storage": 1, "admission": 1,
    "kv": 2,
    "dcp": 3,
    "n1ql": 4, "gsi": 4, "views": 4, "xdcr": 4, "replication": 4,
    "cluster": 5,
    "client": 6,
    "server": 7, "ycsb": 7,
    "analysis": 8, "sanitize": 8,
    "": 9,   # the repro facade __init__ re-exports from everywhere
}

TOOLING_RANK = 8

#: Same-rank cross-package imports allowed through these modules only:
#: they are the declared interfaces between sibling services.
INTERFACE_MODULES = frozenset({
    "repro.n1ql.collation",
    "repro.gsi.indexdef",
    "repro.views.viewindex",
    "repro.views.mapreduce",
})

#: Node-local engine internals; see ``layer-restricted`` above.
RESTRICTED_MODULES = frozenset({
    "repro.kv.engine",
    "repro.kv.hashtable",
})

RESTRICTED_IMPORTERS = frozenset({
    "kv", "cluster", "dcp", "replication",
    "analysis", "sanitize",
})


def package_of(module_name: str) -> str:
    """First path component under the ``repro`` root ('' for the facade
    ``repro`` / ``repro.__init__`` itself)."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return parts[0]
    if len(parts) == 1:
        return ""
    return parts[1]


def _resolve_importee(project: Project, target: str,
                      symbol: str | None) -> str | None:
    """The project module an import record actually lands in, or None
    for stdlib/external imports."""
    if symbol is not None and f"{target}.{symbol}" in project.modules:
        return f"{target}.{symbol}"
    if target in project.modules:
        return target
    return None


@register("flow", {
    "layer-violation":
        "imports flow strictly down the architecture DAG (client -> "
        "fabric -> services -> kv -> common); every repro.* package "
        "has a rank",
    "layer-restricted":
        "only kv, cluster, dcp, replication and the tooling import "
        "kv.engine / kv.hashtable; services reach the data service "
        "over the fabric",
})
def layer_conformance(context) -> list[Finding]:
    return analyze_layers(context.project)


def analyze_layers(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules.values():
        package = package_of(module.name)
        rank = RANKS.get(package)
        for record in module.imports:
            importee = _resolve_importee(project, record.target,
                                         record.symbol)
            if importee is None or record.kind == "type-checking":
                continue
            findings.extend(_check_record(module, record, importee,
                                          package, rank))
    return findings


def _check_record(module: ModuleInfo, record, importee: str,
                  package: str, rank: int | None) -> list[Finding]:
    findings = []
    importee_package = package_of(importee)
    importee_rank = RANKS.get(importee_package)
    deferred_note = " (deferred imports are still layer-checked)" \
        if record.kind == DEFERRED else ""
    if importee in RESTRICTED_MODULES \
            and package not in RESTRICTED_IMPORTERS \
            and package != importee_package:
        findings.append(Finding(
            check="layer-restricted", path=str(module.path),
            line=record.line, col=record.col,
            message=(
                f"{module.name} imports {importee}, which holds node-local "
                f"engine state; go through the fabric RPC layer (shared "
                f"value types live in repro.kv.types){deferred_note}"
            ),
        ))
    if package == importee_package:
        return findings
    if rank is None or importee_rank is None:
        unranked = [name for name, r in ((module.name, rank),
                                         (importee, importee_rank))
                    if r is None and name.split(".")[0] == "repro"]
        if unranked:
            findings.append(Finding(
                check="layer-violation", path=str(module.path),
                line=record.line, col=record.col,
                message=(
                    f"{module.name} imports {importee}, but the layer "
                    f"table (analysis/layers.py RANKS) does not rank "
                    f"{' or '.join(unranked)}; give the package a rank so "
                    f"its imports are checked{deferred_note}"
                ),
            ))
        return findings
    if rank == TOOLING_RANK and importee_rank == TOOLING_RANK:
        return findings  # tooling freely shares tooling
    if rank > importee_rank:
        return findings
    if rank == importee_rank and importee in INTERFACE_MODULES:
        return findings
    direction = ("sideways" if rank == importee_rank else "upward")
    findings.append(Finding(
        check="layer-violation", path=str(module.path),
        line=record.line, col=record.col,
        message=(
            f"{module.name} (layer {package or 'repro'!r}, rank {rank}) "
            f"imports {importee} (layer {importee_package!r}, rank "
            f"{importee_rank}) -- a {direction} import; dependencies must "
            f"flow client -> fabric -> services -> kv -> common"
            f"{deferred_note}"
        ),
    ))
    return findings
