"""Whole-program index: modules, imports, definitions, re-exports.

Every check needs one coherent picture of the tree, parsed once: every
module's AST and source lines, its ``# repro: disable=`` suppression
table, its import records (eager vs. deferred vs.
``TYPE_CHECKING``-only), every class and function definition with its
parameter list and annotations, and the re-export surface of package
``__init__`` files (both eager ``from .x import Y`` and the lazy
``_LAZY`` + ``__getattr__`` pattern used by :mod:`repro.n1ql`).

:class:`Project` also owns dotted-name resolution: given ``repro.client.
smart_client.SmartClient.get`` (or a name that travels through one or
more re-exports) it finds the defining :class:`FuncInfo` /
:class:`ClassInfo` / :class:`ModuleInfo`.  The call-graph builder sits
on top of this.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: The one suppression tag.  Same-line ``disable=`` covers that line;
#: ``disable-next=`` on the line before covers multi-line statements.
#: Check names are unique across families, so one tag serves them all.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*(disable|disable-next)\s*=\s*([a-z0-9_,\- ]+)")


def parse_suppressions(source_lines: list[str]) -> dict[int, set[str]]:
    """Map line number -> check names disabled on that line ("all"
    disables every check)."""
    suppressed_lines: dict[int, set[str]] = {}
    for index, line in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        kind, names = match.groups()
        target = index + 1 if kind == "disable-next" else index
        names_set = {name.strip() for name in names.split(",") if name.strip()}
        suppressed_lines.setdefault(target, set()).update(names_set)
    return suppressed_lines


def module_name_for(path: Path) -> str:
    """Dotted module path for a file: everything from the ``repro``
    package component down; bare stem for scripts outside the package."""
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts[:-1]:
        package_parts = parts[parts.index("repro"):-1]
        if name == "__init__":
            return ".".join(package_parts)
        return ".".join(package_parts + [name])
    return name


def discover(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def last_component(node: ast.expr) -> str | None:
    """Last dotted segment of a Name/Attribute chain: ``self.client``
    -> ``client``; None for anything else."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def decorator_name(dec: ast.expr) -> str | None:
    """Last dotted segment of a decorator, looking through a call:
    ``@common.cost("O(1)")`` -> ``cost``."""
    return last_component(dec.func if isinstance(dec, ast.Call) else dec)


#: Import classification: only eager imports can create runtime import
#: cycles; TYPE_CHECKING imports are erased entirely and exempt from
#: layer conformance (they exist to make annotations resolvable).
EAGER, DEFERRED, TYPE_CHECKING_ONLY = "eager", "deferred", "type-checking"


@dataclass(frozen=True)
class ImportRecord:
    importer: str           #: dotted module doing the import
    target: str             #: dotted module being imported
    symbol: str | None      #: name imported from target (None = whole module)
    alias: str              #: local binding name
    line: int
    col: int
    kind: str               #: EAGER | DEFERRED | TYPE_CHECKING_ONLY


@dataclass
class FuncInfo:
    """One function, method, or synthesized lambda body."""

    fqn: str
    module: str
    cls: str | None                 #: owning class FQN, if a method
    name: str
    node: ast.AST                   #: FunctionDef / AsyncFunctionDef / Lambda
    line: int
    col: int
    params: list[str]               #: positional params (self/cls stripped)
    kwonly: list[str]
    has_vararg: bool
    has_kwarg: bool
    annotations: dict[str, ast.expr] = field(default_factory=dict)
    returns: ast.expr | None = None
    decorators: list[ast.expr] = field(default_factory=list)
    raises_decl: tuple[str, ...] | None = None
    is_property: bool = False

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def is_dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")

    def accepts(self, param: str) -> bool:
        return param in self.params or param in self.kwonly


@dataclass
class ClassInfo:
    fqn: str
    module: str
    name: str
    node: ast.ClassDef
    line: int
    bases: list[str] = field(default_factory=list)     #: raw dotted names
    methods: dict[str, FuncInfo] = field(default_factory=dict)
    #: class-body ``x: Ann`` and ``self.x = ...`` inferred types; values
    #: are class FQNs, filled in by the call-graph builder.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: raw class-body annotations (``x: Ann``), resolved lazily by the
    #: call-graph builder against the defining module's bindings.
    annotations: dict[str, ast.expr] = field(default_factory=dict)
    #: dict-typed attributes: attr -> value-class FQN (``x[k]``/``x.get``).
    attr_value_types: dict[str, str] = field(default_factory=dict)
    #: class-level tuples of exception names: ``_RETRYABLE = (A, B)``.
    exc_aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    decorators: list[ast.expr] = field(default_factory=list)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source_lines: list[str]
    is_package: bool
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    imports: list[ImportRecord] = field(default_factory=list)
    #: local name -> dotted target (module, or module-qualified symbol).
    bindings: dict[str, str] = field(default_factory=dict)
    #: module-level tuples of exception names.
    exc_aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _type_checking_ranges(tree: ast.Module) -> list[tuple[int, int]]:
    ranges = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_tc and node.body:
            last = max(
                getattr(n, "end_lineno", None) or 0
                for n in ast.walk(node)
                if hasattr(n, "lineno")
            )
            ranges.append((node.lineno, max(last, node.lineno)))
    return ranges


def _raises_declaration(node: ast.AST,
                        decorators: list[ast.expr]) -> tuple[str, ...] | None:
    """``@declared_raises("A", "B")`` on the def, or a first-level
    ``__raises__ = ("A", "B")`` statement in the body."""
    for dec in decorators:
        if isinstance(dec, ast.Call) \
                and decorator_name(dec) == "declared_raises":
            return tuple(
                arg.value for arg in dec.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
    for stmt in getattr(node, "body", []):
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__raises__"):
            value = stmt.value
            if isinstance(value, (ast.Tuple, ast.List)):
                return tuple(
                    elt.value for elt in value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                return (value.value,)
    return None


def _func_info(node: ast.FunctionDef | ast.AsyncFunctionDef, fqn: str,
               module: str, cls: str | None) -> FuncInfo:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args]
    if cls is not None and params and params[0] in ("self", "cls"):
        params = params[1:]
    annotations = {
        a.arg: a.annotation
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.annotation is not None
    }
    decorator_names = {decorator_name(d) for d in node.decorator_list}
    return FuncInfo(
        fqn=fqn,
        module=module,
        cls=cls,
        name=node.name,
        node=node,
        line=node.lineno,
        col=node.col_offset + 1,
        params=params,
        kwonly=[a.arg for a in args.kwonlyargs],
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        annotations=annotations,
        returns=node.returns,
        decorators=list(node.decorator_list),
        raises_decl=_raises_declaration(node, node.decorator_list),
        is_property=bool(decorator_names & {"property", "cached_property"}),
    )


def _exc_tuple(value: ast.expr) -> tuple[str, ...] | None:
    """A tuple/list of bare exception names, e.g. ``(A, B, C)``."""
    if not isinstance(value, (ast.Tuple, ast.List)) or not value.elts:
        return None
    names = []
    for elt in value.elts:
        if isinstance(elt, ast.Name):
            names.append(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.append(elt.attr)
        else:
            return None
    return tuple(names)


class Project:
    """The parsed tree plus its definition and resolution indexes."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.parse_errors: list[tuple[str, int, str]] = []

    # -- construction --------------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable[Path]) -> "Project":
        project = cls()
        for path in files:
            project.add_source(path, path.read_text(encoding="utf-8"))
        return project

    def add_source(self, path: Path, source: str) -> None:
        """Index one module from its text; ``path`` names the module
        (and decides its profile) but is never opened."""
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_errors.append((str(path), exc.lineno or 1,
                                      exc.msg or "syntax error"))
            return
        source_lines = source.splitlines()
        name = module_name_for(path)
        if name in self.modules:
            # Scripts outside the package are named by their bare stem
            # (two ``conftest.py``); key the later one by its path so
            # per-module checks still see every file.
            name = str(path)
        info = ModuleInfo(
            name=name,
            path=str(path),
            tree=tree,
            source_lines=source_lines,
            is_package=path.stem == "__init__",
            suppressions=parse_suppressions(source_lines),
        )
        self.modules[name] = info
        self._index_imports(info, _type_checking_ranges(tree))
        self._index_definitions(info)
        self._index_lazy_exports(info)

    def _resolve_relative(self, info: ModuleInfo, level: int,
                          target: str | None) -> str | None:
        if level == 0:
            return target
        anchor = info.name.split(".")
        if not info.is_package:
            anchor = anchor[:-1]
        drop = level - 1
        if drop:
            if drop >= len(anchor):
                return None
            anchor = anchor[:-drop]
        if target:
            anchor = anchor + target.split(".")
        return ".".join(anchor) if anchor else None

    def _index_imports(self, info: ModuleInfo,
                       tc_ranges: list[tuple[int, int]]) -> None:
        top_level = set(info.tree.body)
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any(first <= node.lineno <= last for first, last in tc_ranges):
                kind = TYPE_CHECKING_ONLY
            elif node in top_level:
                kind = EAGER
            else:
                kind = DEFERRED
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports.append(ImportRecord(
                        importer=info.name, target=alias.name, symbol=None,
                        alias=local, line=node.lineno,
                        col=node.col_offset + 1, kind=kind,
                    ))
                    info.bindings.setdefault(local, bound)
            else:
                target = self._resolve_relative(info, node.level, node.module)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports.append(ImportRecord(
                        importer=info.name, target=target, symbol=alias.name,
                        alias=local, line=node.lineno,
                        col=node.col_offset + 1, kind=kind,
                    ))
                    info.bindings.setdefault(local, f"{target}.{alias.name}")

    def _index_definitions(self, info: ModuleInfo) -> None:
        def visit_function(node, prefix: str, cls_fqn: str | None):
            fqn = f"{prefix}.{node.name}"
            func = _func_info(node, fqn, info.name, cls_fqn)
            self.functions[fqn] = func
            if cls_fqn is not None:
                self.classes[cls_fqn].methods[node.name] = func
            # Nested defs (timer callbacks, closures) are functions too.
            for stmt in ast.walk(node):
                if stmt is node:
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested_fqn = f"{fqn}.<locals>.{stmt.name}"
                    if nested_fqn not in self.functions:
                        self.functions[nested_fqn] = _func_info(
                            stmt, nested_fqn, info.name, None
                        )

        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node, info.name, None)
            elif isinstance(node, ast.ClassDef):
                cls_fqn = f"{info.name}.{node.name}"
                klass = ClassInfo(
                    fqn=cls_fqn, module=info.name, name=node.name,
                    node=node, line=node.lineno,
                    bases=[b for b in map(_dotted, node.bases) if b],
                    decorators=list(node.decorator_list),
                )
                self.classes[cls_fqn] = klass
                info.bindings.setdefault(node.name, cls_fqn)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit_function(stmt, cls_fqn, cls_fqn)
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name):
                        klass.annotations[stmt.target.id] = stmt.annotation
                    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Name):
                        names = _exc_tuple(stmt.value)
                        if names:
                            klass.exc_aliases[stmt.targets[0].id] = names
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                names = _exc_tuple(node.value)
                if names:
                    info.exc_aliases[node.targets[0].id] = names

        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.bindings.setdefault(node.name, f"{info.name}.{node.name}")

    def _index_lazy_exports(self, info: ModuleInfo) -> None:
        """The ``_LAZY = {"Name": ("submodule", "attr")}`` +
        ``__getattr__`` re-export pattern of package ``__init__`` files."""
        if not info.is_package:
            return
        for node in info.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "_LAZY"
                    and isinstance(node.value, ast.Dict)):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(value, (ast.Tuple, ast.List))
                        and len(value.elts) == 2
                        and all(isinstance(e, ast.Constant) for e in value.elts)):
                    continue
                submodule, attr = (e.value for e in value.elts)
                info.bindings.setdefault(
                    key.value, f"{info.name}.{submodule}.{attr}"
                )

    # -- resolution ----------------------------------------------------------------

    def resolve(self, dotted: str, _seen: frozenset = frozenset()):
        """Resolve a dotted name to a FuncInfo / ClassInfo / ModuleInfo,
        following re-export chains; None when it leaves the project."""
        if dotted in _seen or not dotted:
            return None
        _seen = _seen | {dotted}
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        if dotted in self.modules:
            return self.modules[dotted]
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.modules.get(prefix)
            if module is None:
                continue
            rest = parts[cut:]
            bound = module.bindings.get(rest[0])
            if bound is None:
                return None
            target = ".".join([bound] + rest[1:])
            return self.resolve(target, _seen)
        # A method of a resolvable class: Class.method.
        if len(parts) >= 2:
            owner = self.resolve(".".join(parts[:-1]), _seen)
            if isinstance(owner, ClassInfo):
                return self.lookup_method(owner, parts[-1])
        return None

    def lookup_method(self, klass: ClassInfo, name: str,
                      _seen: frozenset = frozenset()) -> FuncInfo | None:
        if klass.fqn in _seen:
            return None
        method = klass.methods.get(name)
        if method is not None:
            return method
        for base in klass.bases:
            resolved = self.resolve_in_module(klass.module, base)
            if isinstance(resolved, ClassInfo):
                found = self.lookup_method(resolved, name,
                                           _seen | {klass.fqn})
                if found is not None:
                    return found
        return None

    def lookup_attr_type(self, klass: ClassInfo, name: str,
                         _seen: frozenset = frozenset()) -> str | None:
        if klass.fqn in _seen:
            return None
        found = klass.attr_types.get(name)
        if found:
            return found
        for base in klass.bases:
            resolved = self.resolve_in_module(klass.module, base)
            if isinstance(resolved, ClassInfo):
                inherited = self.lookup_attr_type(resolved, name,
                                                  _seen | {klass.fqn})
                if inherited:
                    return inherited
        return None

    def resolve_in_module(self, module_name: str, dotted: str):
        """Resolve a possibly-unqualified dotted name as seen from inside
        ``module_name`` (its bindings, then the global namespace)."""
        module = self.modules.get(module_name)
        if module is not None:
            head, _, rest = dotted.partition(".")
            bound = module.bindings.get(head)
            if bound is not None:
                return self.resolve(f"{bound}.{rest}" if rest else bound)
            local = f"{module_name}.{dotted}"
            resolved = self.resolve(local)
            if resolved is not None:
                return resolved
        return self.resolve(dotted)

    def annotation_type(self, ann: ast.expr | None,
                        module_name: str) -> tuple[str, str | None]:
        """("class", fqn) | ("dict", value_fqn) | ("list", elem_fqn) |
        ("", None)."""
        if ann is None:
            return "", None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                parsed = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return "", None
            return self.annotation_type(parsed, module_name)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            kind, target = self.annotation_type(ann.left, module_name)
            if kind:
                return kind, target
            return self.annotation_type(ann.right, module_name)
        if isinstance(ann, (ast.Name, ast.Attribute)):
            dotted = _dotted(ann)
            if dotted is None:
                return "", None
            resolved = self.resolve_in_module(module_name, dotted)
            if isinstance(resolved, ClassInfo):
                return "class", resolved.fqn
            return "", None
        if isinstance(ann, ast.Subscript):
            head = _dotted(ann.value)
            if head is None:
                return "", None
            base = head.split(".")[-1].lower()
            slice_node = ann.slice
            if base == "optional":
                return self.annotation_type(slice_node, module_name)
            if base == "dict" and isinstance(slice_node, ast.Tuple) \
                    and len(slice_node.elts) == 2:
                value_kind, value = self.annotation_type(
                    slice_node.elts[1], module_name)
                return ("dict", value) if value_kind == "class" else ("", None)
            if base in ("list", "set", "tuple", "iterable", "iterator",
                        "sequence"):
                elts = (slice_node.elts[0]
                        if isinstance(slice_node, ast.Tuple) and slice_node.elts
                        else slice_node)
                elem_kind, elem = self.annotation_type(elts, module_name)
                return ("list", elem) if elem_kind == "class" else ("", None)
        return "", None


def _dotted(node: ast.expr) -> str | None:
    """Flatten a Name/Attribute chain to a dotted string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
