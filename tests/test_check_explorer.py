"""Explorer machinery tests: Chooser semantics, state hashing,
budget enforcement, and the pruning-soundness hypothesis property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.explorer import explore
from repro.check.scenarios import (
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
