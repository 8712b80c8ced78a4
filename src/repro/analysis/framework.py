"""The finding type, the rule registry, and the CLI exit contract.

A *check* is a name (the suppression / ``--check`` identifier), a
family, the one-line invariant it guards, a ``strict_only`` bit, and a
function taking the per-run :class:`~repro.analysis.runner.Context`.
Analyses that decide several checks in one pass (exception flow yields
both escapes and swallows) register the same function under each name;
the run loop calls every distinct function once and keeps the findings
whose check was selected.

Adding an invariant is one decorated function plus one known-bad
fixture directory under ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..common.errors import InvalidArgumentError

#: The CLI exit contract, shared with repro-sanitize: CI gates on these
#: next to ruff.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

PROFILES = ("strict", "relaxed")

FAMILIES = ("lint", "flow", "hotpath", "bounds", "proto")


@dataclass(frozen=True)
class Finding:
    """One finding: where, which check, and what to do about it."""

    check: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.check}: {self.message}"


@dataclass(frozen=True)
class Check:
    name: str
    family: str
    invariant: str
    #: Not enforced on files resolving to the relaxed profile
    #: (``examples/``, ``benchmarks/``, fixture trees run without
    #: ``--profile strict``): harness code legitimately measures wall
    #: time, and a demo need not commit to a cost, raises, eviction or
    #: observability contract.
    strict_only: bool
    run: Callable[..., Iterable[Finding]]     #: takes the run's Context


_REGISTRY: dict[str, Check] = {}


def register(family: str, invariants: dict[str, str],
             strict_only: Iterable[str] = ()):
    """Decorator registering one analysis pass under every check name
    it can emit (``invariants`` maps name -> the invariant it guards)."""
    strict_only = frozenset(strict_only)

    def add(run):
        for name, invariant in invariants.items():
            if name in _REGISTRY:
                raise InvalidArgumentError(f"duplicate check name {name!r}")
            _REGISTRY[name] = Check(name, family, invariant,
                                    name in strict_only, run)
        return run

    return add


def all_checks() -> tuple[Check, ...]:
    """Every registered check, family by family in registration order
    (importing :mod:`repro.analysis` registers them all)."""
    return tuple(sorted(_REGISTRY.values(),
                        key=lambda check: FAMILIES.index(check.family)))


class UsageError(ValueError):
    """A bad command line (unknown check, empty path set): exit 2."""


def select_checks(arg: str | None) -> tuple[Check, ...]:
    """Parse ``--check <family|check>[,...]``; ``None`` selects all."""
    checks = all_checks()
    if arg is None:
        return checks
    wanted = {name.strip() for name in arg.split(",") if name.strip()}
    unknown = sorted(wanted - set(FAMILIES) - set(_REGISTRY))
    if unknown:
        raise UsageError(
            f"unknown check {', '.join(unknown)} (choose a family from "
            f"{', '.join(FAMILIES)} or a name from --report rules)"
        )
    return tuple(check for check in checks
                 if check.name in wanted or check.family in wanted)


def profile_for(path: Path, requested: str = "auto") -> str:
    """``auto`` resolves per file: strict inside the ``repro`` package
    tree (``src/repro``), relaxed for harness code outside it."""
    if requested != "auto":
        return requested
    parts = path.parts
    for index, part in enumerate(parts[:-1]):
        if part == "src" and index + 1 < len(parts) and parts[index + 1] == "repro":
            return "strict"
    return "relaxed"
