"""Command line front end: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage errors (unknown check, no
files, a file that does not parse) -- the contract repro-sanitize
shares, so CI gates on both the same way.

``--check`` takes families and check names, mixed freely
(``--check lint,layer-violation``).  ``--report`` replaces the checks
with one informational listing and always exits 0 -- deleting code or
adding a declaration is a decision the tool should motivate, not force:

``rules``      every (selected) check: family, strict-only, invariant
``dead-code``  public functions no entry point reaches and nothing names
``hot-set``    the derived hot set, each member with its provenance --
               the way to answer "is this function guarded?"
``scope``      the bounds scope (pump/timer/RPC/@hot_path reachable)
``protocols``  declared protocols, their bindings and transition sites
``raises``     ready-to-paste ``@declared_raises`` lines for entry
               points with undeclared escapes -- the workflow for
               bringing a new entry point under the contract
"""

from __future__ import annotations

import argparse
import sys

from .deadcode import analyze_dead_code
from .framework import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    PROFILES,
    UsageError,
    select_checks,
)
from .output import FORMATS, github_annotation
from .project import Project, discover
from .runner import Context, analyze

TOOL = "repro-analysis"


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


def _report_dead_code(context: Context) -> str:
    candidates = analyze_dead_code(context.graph)
    for candidate in candidates:
        print(f"{candidate.path}:{candidate.line}: dead-code: "
              f"{candidate.fqn}: {candidate.reason}")
    return _plural(len(candidates), "dead-code candidate")


def _print_reach(context: Context, reach) -> None:
    for fqn in sorted(reach.members):
        func = context.project.functions.get(fqn)
        print(f"{fqn}:{func.line if func else 0}: {reach.why(fqn)}")


def _report_hot_set(context: Context) -> str:
    hot_set = context.hot_set
    _print_reach(context, hot_set)
    return (f"{len(hot_set.members)} hot functions from "
            f"{len(hot_set.roots)} roots")


def _report_scope(context: Context) -> str:
    scope = context.bounds_scope
    _print_reach(context, scope)
    return (f"{len(scope.members)} functions in scope from "
            f"{len(scope.roots)} roots, "
            f"{len(context.containers.containers)} containers tracked")


def _report_protocols(context: Context) -> str:
    analysis = context.protocols
    inventory = analysis.inventory
    for name in sorted(analysis.specs):
        spec = analysis.specs[name]
        print(f"{spec.module}:{spec.line}: protocol {name} ({spec.kind}) "
              f"states={len(spec.states)} "
              f"transitions={len(spec.transitions)}"
              + (f" order={' -> '.join(spec.order)}" if spec.order else ""))
        for binding in inventory.bindings:
            if binding.spec is not spec:
                continue
            owner = binding.owner.rsplit(".", 1)[-1]
            print(f"  binding {owner}.{binding.attr} "
                  f"(module {binding.owner_module})")
            for site in inventory.sites:
                if site.binding is not binding:
                    continue
                dst = site.dst if site.dst is not None else \
                    (f"<param {site.param}>" if site.param else "<dynamic>")
                print(f"    {site.kind:<7} {site.path}:{site.line} "
                      f"{site.receiver} = {dst} in {site.func}")
    return (f"{len(analysis.specs)} protocols, "
            f"{len(inventory.bindings)} bindings, "
            f"{len(inventory.sites)} transition sites")


def _report_raises(context: Context) -> str:
    project = context.project
    undeclared = context.exception_flow.undeclared
    for fqn, missing in undeclared.items():
        func = project.functions[fqn]
        module = project.modules.get(func.module)
        path = module.path if module else func.module
        names = ", ".join(repr(name) for name in missing)
        print(f"{path}:{func.line}: {fqn}\n"
              f"    @declared_raises({names})")
    return f"{_plural(len(undeclared), 'entry point')} with undeclared escapes"


#: ``--report`` name -> printer returning its one-line summary.  The
#: ``rules`` report needs no project and is handled before discovery.
_REPORTS = {
    "dead-code": _report_dead_code,
    "hot-set": _report_hot_set,
    "scope": _report_scope,
    "protocols": _report_protocols,
    "raises": _report_raises,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the repro package: per-module "
                    "lint invariants, whole-program exception / option / "
                    "layer flow, hot-path costs, resource bounds and "
                    "protocol conformance, over one project index and "
                    "one call graph.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze as one program "
             "(default: src/repro)",
    )
    parser.add_argument(
        "--check", metavar="NAME[,NAME...]", default=None,
        help="run only these families (lint, flow, hotpath, bounds, "
             "proto) and/or checks (see --report rules)",
    )
    parser.add_argument(
        "--profile", choices=("auto",) + PROFILES, default="auto",
        help="auto (default) is strict under src/repro and relaxed "
             "elsewhere, e.g. examples/ and benchmarks/ harness code; "
             "relaxed switches the strict-only checks off",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="output_format",
        help="text (default) prints path:line:col lines; github emits "
             "::error workflow commands that become inline PR annotations",
    )
    parser.add_argument(
        "--report", choices=("rules", *_REPORTS), default=None,
        help="print one informational listing instead of running the "
             "checks (always exits 0)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        checks = select_checks(args.check)
    except UsageError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.report == "rules":
        for check in checks:
            strict = ", strict-only" if check.strict_only else ""
            print(f"{check.name} ({check.family}{strict})\n"
                  f"    {check.invariant}")
        return EXIT_CLEAN
    files = discover(args.paths)
    if not files:
        print(f"{TOOL}: no Python files under {list(args.paths)}",
              file=sys.stderr)
        return EXIT_USAGE
    project = Project.build(files)
    if project.parse_errors:
        for path, line, message in project.parse_errors:
            print(f"{TOOL}: {path}:{line}: {message}", file=sys.stderr)
        return EXIT_USAGE

    if args.report is not None:
        summary = _REPORTS[args.report](Context(project))
        if not args.quiet:
            print(f"{TOOL}: {summary} (informational; not a gate)")
        return EXIT_CLEAN

    findings = analyze(project, checks, args.profile).findings
    for finding in findings:
        if args.output_format == "github":
            print(github_annotation(
                finding.message, title=finding.check, path=finding.path,
                line=finding.line, col=finding.col,
            ))
        else:
            print(finding.format())
    if not args.quiet:
        print(f"{TOOL}: {_plural(len(findings), 'finding')} in "
              f"{len(files)} files ({_plural(len(checks), 'check')})")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
