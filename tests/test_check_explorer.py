"""Explorer machinery tests: Chooser semantics, state hashing,
budget enforcement, and the pruning-soundness hypothesis property."""

import ast
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.__main__ import main
from repro.check.explorer import explore
from repro.check.minimize import minimize
from repro.check.replay import run_with_choices
from repro.check.scenarios import (
    SCENARIOS,
    Chooser,
    WarmImportScenario,
    get_scenario,
)


class TinyWarmImport(WarmImportScenario):
    """Small-config warm-import for fast exhaustive sweeps in tests."""

    n_clients = 2
    adds_pipelined = 1


# -- Chooser ------------------------------------------------------------------


def test_chooser_positions_advance_and_default_to_zero():
    chooser = Chooser({1: 2})
    assert chooser(3, {"a": 1}) == 0
    assert chooser(4, {"b": 2}) == 2
    assert chooser(2, {}) == 0
    assert [d.chosen for d in chooser.trace] == [0, 2, 0]
    assert chooser.taken() == {1: 2}


def test_chooser_clamps_out_of_range_choice_to_default():
    chooser = Chooser({0: 99})
    assert chooser(4, {}) == 0
    assert chooser.taken() == {}


# -- determinism + state hashing ---------------------------------------------


def test_same_trace_replays_to_identical_state():
    scenario_a, scenario_b = TinyWarmImport(), TinyWarmImport()
    run_a = scenario_a.run(Chooser({5: 1}))
    run_b = scenario_b.run(Chooser({5: 1}))
    assert run_a.state_hash == run_b.state_hash
    assert run_a.state == run_b.state
    assert run_a.violations == run_b.violations
    assert [d.n for d in run_a.trace] == [d.n for d in run_b.trace]


def test_hashing_distinguishes_genuinely_different_outcomes():
    # conflict-export runs end with one winner and one conflict loser;
    # interleavings that flip the winner must hash differently.
    result = explore(get_scenario("conflict-export"), depth=1)
    assert result.ok
    assert len(result.unique_states) >= 2


# -- budget enforcement -------------------------------------------------------


def test_depth_zero_is_exactly_the_fault_free_run():
    scenario = TinyWarmImport()
    result = explore(scenario, depth=0)
    assert result.runs_explored == 1
    assert result.ok
    # Every alternative at every point was an over-budget expansion.
    base = scenario.run(Chooser())
    assert result.expansions_skipped == sum(d.n - 1 for d in base.trace)


def test_depth_one_enumerates_every_single_flip():
    scenario = TinyWarmImport()
    base = scenario.run(Chooser())
    result = explore(TinyWarmImport(), depth=1)
    assert result.ok
    assert result.runs_explored == 1 + sum(d.n - 1 for d in base.trace)


def test_crash_budget_limits_crash_expansions():
    with_crashes = explore(get_scenario("crash-during-drain"), depth=1, crash_budget=1)
    without = explore(get_scenario("crash-during-drain"), depth=1, crash_budget=0)
    base = get_scenario("crash-during-drain").run(Chooser())
    crash_points = sum(1 for d in base.trace if d.meta.get("point") == "crash")
    assert crash_points > 0
    assert with_crashes.runs_explored - without.runs_explored == crash_points


def test_coalesced_frame_faults_keep_members_at_most_once():
    """The reconnect backlog leaves as one rover.batch frame (the check
    fails a run where it does not); dropping it, replaying it late,
    losing its reply or crashing its sender while it is out must leave
    every member applied exactly once."""
    base = get_scenario("coalesced-drain").run(Chooser())
    assert base.ok
    assert any(d.meta.get("service") == "rover.batch" for d in base.trace)
    result = explore(get_scenario("coalesced-drain"), depth=1)
    assert result.ok, result.violations[0].violations


def test_max_runs_truncates():
    result = explore(TinyWarmImport(), depth=2, max_runs=5)
    assert result.truncated
    assert result.runs_explored == 5


# -- pruning soundness --------------------------------------------------------


@settings(max_examples=4, deadline=None)
@given(n_clients=st.integers(1, 2), adds=st.integers(1, 2))
def test_pruning_soundness_terminal_state_sets_match(n_clients, adds):
    """Commutativity pruning must not hide reachable terminal states.

    Pruned branch points cover only frames whose payload touches no
    contended-and-written object (different-object / read-read
    commutes); faults on those frames converge back to the default
    outcome.  So an exhaustive depth-1 sweep with pruning on must reach
    exactly the same terminal-state set as the full enumeration.
    """

    class Config(WarmImportScenario):
        pass

    Config.n_clients = n_clients
    Config.adds_pipelined = adds

    pruned = explore(Config(), depth=1, pruning=True, stop_on_violation=False)
    full = explore(Config(), depth=1, pruning=False, stop_on_violation=False)
    assert not pruned.violations and not full.violations
    assert pruned.points_pruned > 0
    assert pruned.runs_explored < full.runs_explored
    assert pruned.unique_states == full.unique_states


# -- the failure path: find, minimize, write, replay ------------------------


class PlantedViolation(TinyWarmImport):
    """Tiny warm-import with an invariant the protocol does not keep:
    no fault may ever hit one of client0's invoke requests."""

    name = "planted"
    description = "test-local: a planted invariant violation"

    def check(self, bed, harness, ctx):
        violations = super().check(bed, harness, ctx)
        for decision in bed.sim.decision_provider.trace:
            meta = decision.meta
            if (
                decision.chosen
                and meta.get("service") == "rover.invoke"
                and str(meta.get("request_id")).startswith("client0/")
            ):
                violations.append(f"planted: fault on invoke request {meta['request_id']}")
        return violations


def test_minimize_strips_every_choice_that_is_not_load_bearing():
    # Positions 8 and 11 of the fault-free trace: client0's last invoke
    # request, and a reply to client1 that has nothing to do with it.
    minimal, run = minimize(PlantedViolation(), {8: 1, 11: 1})
    assert minimal == {8: 1} == run.choices
    assert run.violations == ["planted: fault on invoke request client0/3"]
    with pytest.raises(ValueError):
        minimize(PlantedViolation(), {11: 1})


def test_cli_failure_path_minimizes_and_emits_a_replayable_regression(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(SCENARIOS, "planted", PlantedViolation)
    artifact, emitted = tmp_path / "counterexample.json", tmp_path / "test_planted.py"
    argv = ["--suite", "planted", "--depth", "2",
            "--artifact", str(artifact), "--emit-test", str(emitted)]
    assert main(argv) == 1

    out = capsys.readouterr().out
    assert "[planted] VIOLATION" in out
    found = ast.literal_eval(re.search(r"minimizing trace (\{.*\}) \.\.\.", out).group(1))
    wire = json.loads(artifact.read_text())
    minimal = {int(position): choice for position, choice in wire["choices"].items()}
    # No longer than what the explorer found, and nothing left to strip.
    assert minimal.items() <= found.items()
    for position in minimal:
        rest = {p: c for p, c in minimal.items() if p != position}
        assert not run_with_choices("planted", rest).violations
    assert wire["scenario"] == "planted" and wire["violations"]
    assert [d["position"] for d in wire["decisions"]] == sorted(minimal)

    # The emitted pytest replays to the same violation.
    namespace: dict = {}
    exec(compile(emitted.read_text(), str(emitted), "exec"), namespace)
    (replay,) = [fn for name, fn in namespace.items() if name.startswith("test_")]
    with pytest.raises(AssertionError) as failure:
        replay()
    assert failure.value.args[0] == wire["violations"]


def test_cli_fails_a_default_sweep_whose_count_is_not_the_committed_one(monkeypatch, capsys):
    class Tiny(TinyWarmImport):
        name = "tiny"

    monkeypatch.setitem(SCENARIOS, "tiny", Tiny)
    explored = explore(Tiny(), depth=1).runs_explored
    Tiny.interleavings = {1: explored}
    assert main(["--suite", "tiny", "--depth", "1"]) == 0
    Tiny.interleavings = {1: explored + 1}
    assert main(["--suite", "tiny", "--depth", "1"]) == 1
    assert f"[tiny] COUNT MOVED: {explored + 1} interleavings committed at depth 1" in (
        capsys.readouterr().out
    )
    # Only a default sweep is compared: a capped one, or another depth, is not.
    assert main(["--suite", "tiny", "--depth", "1", "--max-runs", str(explored)]) == 0
    assert main(["--suite", "tiny", "--depth", "0"]) == 0

