"""Explicit-state DFS over bounded choice traces.

The explorer is *stateless*: it never snapshots a simulator.  Each
interleaving is one fresh scenario run resolved by a sparse
``{position: choice}`` trace — everything up to the last forced choice
replays deterministically, everything after takes the fault-free
default.  From each completed run it expands children by flipping one
decision at a position strictly after the trace's last forced position,
which enumerates every trace with at most ``depth`` non-default choices
exactly once (non-defaults are introduced left to right).

Bounds:

* ``depth`` — maximum non-default choices per trace (faults + crashes);
* ``crash_budget`` — of those, how many may be crash choices;
* ``max_runs`` — hard cap on runs for CI-bounded sweeps.

Terminal states are hashed (:func:`repro.check.oracle.state_hash`) over
protocol-visible state only, so the unique-state count measures genuine
outcome diversity, and pruned vs. unpruned explorations can be compared
set-to-set (the pruning-soundness property test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.check.scenarios import Chooser, RunResult, Scenario


@dataclass
class ExploreResult:
    """Aggregate outcome of one bounded exploration."""

    scenario: str
    runs_explored: int = 0
    #: Branch points suppressed by commutativity pruning, summed over
    #: runs — each would have multiplied the frontier by (n-1).
    points_pruned: int = 0
    #: Child traces not expanded because they exceeded depth/crash/run
    #: budgets (the bounded-ness of the small-scope search, made visible).
    expansions_skipped: int = 0
    unique_states: set[str] = field(default_factory=set)
    violations: list[RunResult] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _crash_choices(trace_choices: dict[int, int], run: RunResult) -> int:
    count = 0
    for position, choice in trace_choices.items():
        if choice == 0 or position >= len(run.trace):
            continue
        if run.trace[position].meta.get("point") == "crash":
            count += 1
    return count


def explore(
    scenario: Scenario,
    depth: int = 2,
    crash_budget: Optional[int] = None,
    max_runs: Optional[int] = None,
    pruning: bool = True,
    stop_on_violation: bool = True,
) -> ExploreResult:
    """Run ``scenario`` through every trace within the bounds."""
    if crash_budget is None:
        crash_budget = scenario.crash_budget
    result = ExploreResult(scenario=scenario.name)
    stack: list[dict[int, int]] = [{}]
    while stack:
        if max_runs is not None and result.runs_explored >= max_runs:
            result.truncated = True
            break
        prefix = stack.pop()
        run = scenario.run(Chooser(prefix), pruning=pruning)
        result.runs_explored += 1
        result.points_pruned += run.stats.get("pruned_points", 0)
        result.unique_states.add(run.state_hash)
        if run.violations:
            result.violations.append(run)
            if stop_on_violation:
                break
            continue
        # Expand: flip one decision strictly past the last forced one.
        frontier = max(prefix, default=-1) + 1
        used_depth = len(prefix)
        used_crashes = _crash_choices(prefix, run)
        for position in range(frontier, len(run.trace)):
            decision = run.trace[position]
            is_crash = decision.meta.get("point") == "crash"
            for alternative in range(1, decision.n):
                if used_depth + 1 > depth or (
                    is_crash and used_crashes + 1 > crash_budget
                ):
                    result.expansions_skipped += 1
                    continue
                child = dict(prefix)
                child[position] = alternative
                stack.append(child)
    return result
