"""repro-sanitize: a schedule-interleaving race detector.

The repro core is asynchronous-everything: flushers, replicators, index
maintainers, and XDCR pumps all run cooperatively under one scheduler.
The design's load-bearing property is that the *converged* state never
depends on the order those pumps happened to run in.  This package
checks that property instead of assuming it:

* :mod:`~repro.sanitize.oracle` replays scenarios under many seeded
  schedule policies and compares canonical state digests -- any
  seed-dependent digest is a race, reported with the two minimal
  schedules that disagree;
* :mod:`~repro.sanitize.tracker` watches writes and DCP takes during
  each run and flags cross-pump mutations not mediated by the network
  fabric, plus double consumers of single-consumer streams;
* :mod:`~repro.sanitize.fixtures` carries deliberately broken scenarios
  proving the detectors actually detect.

Run it: ``python -m repro.sanitize --seeds 25`` (exit 0 clean, 1 on
findings, 2 on usage errors -- the same contract as repro.analysis).
"""

from .digest import cluster_state, diff_paths, state_digest
from .oracle import (
    DEFAULT_WEIGHTS,
    Divergence,
    RunRecord,
    ScenarioReport,
    explore,
    policy_matrix,
    run_scenario,
)
from .scenarios import (
    RunOutcome,
    Scenario,
    builtin_scenarios,
    get_scenarios,
    sanitized_cluster,
    scenario_registry,
)
from .tracker import RaceFinding, WriteRaceTracker, allowed_writers

__all__ = [
    "DEFAULT_WEIGHTS",
    "Divergence",
    "RaceFinding",
    "RunOutcome",
    "RunRecord",
    "Scenario",
    "ScenarioReport",
    "WriteRaceTracker",
    "allowed_writers",
    "builtin_scenarios",
    "cluster_state",
    "diff_paths",
    "explore",
    "get_scenarios",
    "policy_matrix",
    "run_scenario",
    "sanitized_cluster",
    "scenario_registry",
    "state_digest",
]
