"""Command line front end: ``python -m repro.sanitize [--seeds N]``.

Exit status mirrors repro.analysis so CI gates on both the same way:
0 when every scenario converges identically under every explored
schedule and no write races were tracked, 1 when anything was found,
2 on usage errors.

``--seeds N`` sizes the policy matrix (N seeded shuffles plus a smaller
adversarial band); when the flag is absent the ``REPRO_SANITIZE_SEEDS``
environment variable overrides the default, which is how CI runs a small
smoke matrix without patching the command line.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..analysis import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    FORMATS,
    github_annotation,
)
from ..common.errors import InvalidArgumentError
from .oracle import ScenarioReport, explore, policy_matrix
from .scenarios import get_scenarios

DEFAULT_SEEDS = 10
SEEDS_ENV = "REPRO_SANITIZE_SEEDS"


def _default_seeds() -> int:
    raw = os.environ.get(SEEDS_ENV)
    if raw is None:
        return DEFAULT_SEEDS
    try:
        seeds = int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"{SEEDS_ENV} must be an integer, got {raw!r}"
        ) from None
    if seeds < 1:
        raise InvalidArgumentError(f"{SEEDS_ENV} must be >= 1, got {seeds}")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="Schedule-interleaving race detector: replays scenarios "
                    "under seeded schedule policies, compares converged-state "
                    "digests, and tracks unmediated cross-pump writes.",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help=f"number of shuffled schedules per scenario (default "
             f"{DEFAULT_SEEDS}, or ${SEEDS_ENV} when set); an adversarial "
             f"band of starve-one and weighted policies scales along",
    )
    parser.add_argument(
        "--scenario", metavar="NAME[,NAME...]", default=None,
        help="run only these scenarios (see --list-scenarios)",
    )
    parser.add_argument(
        "--fixtures", action="store_true",
        help="run the deliberately broken fixture scenarios instead of the "
             "built-ins; they must produce findings, so this exits 1 when "
             "the detectors are working",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="output_format",
        help="text (default), or github to emit ::error workflow commands",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="print every scenario (built-ins and fixtures), then exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-scenario progress lines",
    )
    return parser


def _print_finding(message: str, title: str, output_format: str) -> None:
    if output_format == "github":
        print(github_annotation(message, title=f"repro-sanitize: {title}"))
    else:
        print(message)


def _report_scenario(report: ScenarioReport, output_format: str,
                     quiet: bool) -> None:
    if not quiet:
        digests = len({run.digest for run in report.runs})
        status = "clean" if report.clean else (
            f"{report.findings_count()} finding"
            f"{'' if report.findings_count() == 1 else 's'}"
        )
        print(
            f"repro-sanitize: scenario {report.scenario!r}: "
            f"{len(report.runs)} schedules, {digests} distinct digest"
            f"{'' if digests == 1 else 's'} -> {status}"
        )
    for race in report.races:
        _print_finding(race.format(), race.kind, output_format)
    for divergence in report.divergences:
        _print_finding(divergence.format(), "schedule-divergence",
                       output_format)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        seeds = args.seeds if args.seeds is not None else _default_seeds()
        if seeds < 1:
            raise InvalidArgumentError(f"--seeds must be >= 1, got {seeds}")
        if args.list_scenarios:
            for scenario in get_scenarios(None, include_fixtures=True):
                marker = " [fixture]" if scenario.expect_findings else ""
                print(f"{scenario.name}{marker}\n    {scenario.description}")
            return EXIT_CLEAN
        if args.fixtures:
            if args.scenario is not None:
                raise InvalidArgumentError(
                    "--fixtures and --scenario are mutually exclusive"
                )
            scenarios = [s for s in get_scenarios(None, include_fixtures=True)
                         if s.expect_findings]
        else:
            names = args.scenario.split(",") if args.scenario else None
            scenarios = get_scenarios(names)
    except InvalidArgumentError as exc:
        print(f"repro-sanitize: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not args.quiet:
        print(
            f"repro-sanitize: exploring {len(policy_matrix(seeds))} schedule "
            f"policies per scenario (--seeds {seeds})"
        )
    findings = 0
    undetected: list[str] = []
    for scenario in scenarios:
        report = explore(scenario, seeds)
        _report_scenario(report, args.output_format, args.quiet)
        findings += report.findings_count()
        if scenario.expect_findings and report.clean:
            undetected.append(scenario.name)
    if undetected:
        # A fixture the detectors missed is a bug in the sanitizer itself.
        print(
            f"repro-sanitize: fixture(s) produced no findings (detector "
            f"regression): {', '.join(undetected)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if not args.quiet:
        print(
            f"repro-sanitize: {findings} finding"
            f"{'' if findings == 1 else 's'} "
            f"in {len(scenarios)} scenario{'' if len(scenarios) == 1 else 's'}"
        )
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
