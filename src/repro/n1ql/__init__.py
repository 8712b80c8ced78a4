"""N1QL: the SQL-for-JSON query language of section 3.2 -- lexer,
parser, expression evaluation with MISSING semantics, JSON collation,
access-path planner (KeyScan / IndexScan / PrimaryScan, covering
indexes, key-based joins), streaming operator pipeline, DML, and the
per-node query service.

Submodules are imported lazily: the GSI layer depends on
:mod:`repro.n1ql.collation`, and eagerly importing the query service
here would close an import cycle back into GSI.
"""

from .collation import MISSING, collate_key, compare

__all__ = [
    "Env",
    "Evaluator",
    "MISSING",
    "Planner",
    "QueryResult",
    "QueryService",
    "ViewIndexInfo",
    "collate_key",
    "compare",
    "parse",
    "print_expr",
]

_LAZY = {
    "ViewIndexInfo": ("catalog", "ViewIndexInfo"),
    "Env": ("expressions", "Env"),
    "Evaluator": ("expressions", "Evaluator"),
    "parse": ("parser", "parse"),
    "Planner": ("planner", "Planner"),
    "print_expr": ("printer", "print_expr"),
    "QueryResult": ("service", "QueryResult"),
    "QueryService": ("service", "QueryService"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib
        module_name, attr = _LAZY[name]
        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
