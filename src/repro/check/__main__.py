"""CLI: ``python -m repro.check --suite warm-import --depth 2``.

Explores a named scenario suite within the given bounds, reports
explored/pruned counts, and on a violation minimizes the trace, writes
it as a JSON artifact (for CI upload), and exits nonzero -- as it does
when a default sweep's count is not the one ``Scenario.interleavings``
commits.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.check.explorer import explore
from repro.check.minimize import minimize
from repro.check.replay import counterexample_wire, emit_pytest
from repro.check.scenarios import SCENARIOS, get_scenario
from repro.speed.measure import Stopwatch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="bounded interleaving model checker for the QRPC protocol",
    )
    parser.add_argument(
        "--suite",
        action="append",
        dest="suites",
        choices=sorted(SCENARIOS),
        help="scenario suite to explore (repeatable; default: all)",
    )
    parser.add_argument("--depth", type=int, default=1, help="max non-default choices per trace")
    parser.add_argument(
        "--crashes",
        type=int,
        default=None,
        help="max crash choices per trace (default: the scenario's own budget)",
    )
    parser.add_argument("--max-runs", type=int, default=None, help="hard cap on runs")
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable commutativity pruning (full enumeration)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect every violation instead of stopping at the first",
    )
    parser.add_argument(
        "--artifact",
        default="check-counterexample.json",
        help="where to write the minimized counterexample on failure",
    )
    parser.add_argument(
        "--emit-test",
        default=None,
        help="also write a pytest regression file for the counterexample",
    )
    parser.add_argument("--list", action="store_true", help="list suites and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name:20s} {SCENARIOS[name].description}")
        return 0

    suites = args.suites or sorted(SCENARIOS)
    pruning = not args.no_prune
    default_sweep = pruning and args.crashes is None and args.max_runs is None
    exit_code = 0
    for name in suites:
        scenario = get_scenario(name)
        # CLI driver, not a simulated component: real wall time is the
        # right thing to report to the human running the sweep.
        with Stopwatch() as sweep:
            result = explore(
                scenario,
                depth=args.depth,
                crash_budget=args.crashes,
                max_runs=args.max_runs,
                pruning=pruning,
                stop_on_violation=not args.keep_going,
            )
        print(
            f"[{name}] explored {result.runs_explored} interleavings "
            f"({len(result.unique_states)} unique terminal states) in {sweep.wall_s:.1f}s; "
            f"pruned {result.points_pruned} commuting branch points; "
            f"skipped {result.expansions_skipped} over-budget expansions"
            + (" [truncated by --max-runs]" if result.truncated else "")
        )
        committed = scenario.interleavings.get(args.depth) if default_sweep else None
        if committed not in (None, result.runs_explored):
            exit_code = 1
            print(f"[{name}] COUNT MOVED: {committed} interleavings committed at depth {args.depth}")
        elif result.ok:
            print(f"[{name}] PASS")
        if result.ok:
            continue
        exit_code = 1
        violating = result.violations[0]
        print(f"[{name}] VIOLATION after {result.runs_explored} runs:")
        for line in violating.violations:
            print(f"  - {line}")
        print(f"[{name}] minimizing trace {violating.choices} ...")
        minimal, minimal_run = minimize(
            get_scenario(name), violating.choices, pruning=pruning
        )
        print(f"[{name}] minimal trace: {minimal}")
        for position, choice in sorted(minimal.items()):
            decision = minimal_run.trace[position]
            print(f"    @{position}: alternative {choice} of {decision.n} — {decision.meta}")
        wire = counterexample_wire(minimal_run, pruning=pruning)
        with open(args.artifact, "w") as handle:
            json.dump(wire, handle, indent=2, default=repr)
        print(f"[{name}] counterexample written to {args.artifact}")
        print(
            f"[{name}] replay: python -c \"from repro.check.replay import run_with_choices; "
            f"print(run_with_choices({name!r}, {minimal!r}, pruning={pruning}).violations)\""
        )
        if args.emit_test:
            with open(args.emit_test, "w") as handle:
                handle.write(emit_pytest(minimal_run, pruning=pruning))
            print(f"[{name}] regression test written to {args.emit_test}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
