"""Unit tests for the discrete-event simulator kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "latest")
    sim.run()
    assert fired == ["early", "late", "latest"]


def test_same_instant_fifo_tiebreak():
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.schedule(1.0, fired.append, index)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_a_nan_instant_is_refused_and_cannot_poison_the_clock():
    """``nan < now`` is false, so NaN used to pass both guards: with
    1.0, NaN and 0.5 queued, ``run()`` fired one callback and left
    ``now`` at NaN, after which every past instant was accepted."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1.0)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), fired.append, "nan")
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), fired.append, "nan")
    sim.schedule(0.5, fired.append, 0.5)
    assert sim.run() == 2
    assert fired == [0.5, 1.0] and sim.now == 1.0
    with pytest.raises(SimulationError):
        sim.schedule_at(0.25, fired.append, "past")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancelling_an_event_that_already_fired_leaves_the_books_alone():
    """It used to count as a cancellation of a queued event: ``pending()``
    went negative, and enough such cancels swept a queue of live events."""
    sim = Simulator()
    fired = [sim.schedule(0.0, lambda: None) for _ in range(100)]
    later = sim.schedule(5.0, lambda: None)
    sim.run(until=1.0)
    for event in fired:
        event.cancel()
    assert sim.pending() == 1 and sim.queued() == 1 and sim.compactions == 0
    assert not later.cancelled and not any(event.cancelled for event in fired)
    own = []
    own.append(sim.schedule(0.0, lambda: own[0].cancel()))  # cancels itself as it fires
    assert sim.run() == 2 and sim.pending() == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.run() == 0


def test_run_until_time_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    executed = sim.run(until=2.0)
    assert executed == 1
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advances to the boundary
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_until_predicate():
    sim = Simulator()
    state = {"count": 0}

    def tick():
        state["count"] += 1
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    satisfied = sim.run_until(lambda: state["count"] >= 5, timeout=100)
    assert satisfied
    assert state["count"] == 5


def test_run_until_times_out():
    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    satisfied = sim.run_until(lambda: False, timeout=10)
    assert not satisfied


def test_run_until_drains_queue_without_predicate():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert not sim.run_until(lambda: False, timeout=1e9)


def test_pending_counts_live_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    event.cancel()
    assert sim.pending() == 1


def test_step_runs_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_guard_trips():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, recurse)
    sim.run()
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# run() walks the queue inline; step() through _pop_next: the same program
# must fire the same events at the same instants either way.
# ---------------------------------------------------------------------------

#: Few distinct instants and delays, so buckets collide and a callback's
#: zero delay lands in the instant that is firing.
_INSTANTS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
_DELAYS = [0.0, 0.0, 0.25, 0.5, 1.0]
#: A burst schedules this many timers past everything and cancels them
#: all at once: more than COMPACT_MIN_CANCELLED, so the kernel sweeps.
_BURST = 70
_MAX_EVENTS = 300

_actions = st.one_of(
    st.tuples(st.just("later"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    st.tuples(st.just("burst"), st.sampled_from(_DELAYS)),
)
_programs = st.fixed_dictionaries(
    {
        "initial": st.lists(st.sampled_from(_INSTANTS), min_size=1, max_size=30),
        "cancel_first": st.lists(st.integers(0, 1_000), max_size=10),
        "burst_first": st.booleans(),
        "scripts": st.lists(st.lists(_actions, max_size=3), min_size=1, max_size=25),
        "boundaries": st.lists(st.sampled_from(_INSTANTS + [0.75, 2.5]), max_size=4),
    }
)


def _play(program, drive):
    """Run ``program`` on a fresh kernel; ``drive(sim, fired)`` runs the
    queue.  Returns what fired, as ``(label, now)``, and the kernel's
    clock and counts."""
    sim = Simulator()
    handles = []
    fired = []
    scripts = program["scripts"]

    def add(delay):
        label = len(handles)
        handles.append(sim.schedule(delay, fire, label))

    def burst(delay):
        timers = [sim.schedule(delay + 10.0, fire, -1) for _ in range(_BURST)]
        for timer in timers:
            timer.cancel()

    def fire(label):
        fired.append((label, sim.now))
        for kind, arg in scripts[label % len(scripts)]:
            if kind == "later" and len(handles) < _MAX_EVENTS:
                add(arg)
            elif kind == "cancel":
                handles[arg % len(handles)].cancel()
            elif kind == "burst":
                burst(arg)

    for instant in program["initial"]:
        add(instant)
    for index in program["cancel_first"]:
        handles[index % len(handles)].cancel()
    if program["burst_first"]:
        burst(0.0)
    drive(sim, fired)
    return fired, sim.now, sim.pending(), sim.queued(), sim.compactions


def _step_all(sim, fired):
    while sim.step():
        pass


@settings(max_examples=300, deadline=None)
@given(program=_programs)
def test_run_and_repeated_step_fire_the_same_sequence(program):
    boundaries = sorted(program["boundaries"])
    paused = []  # how many had fired when each run(until=) returned

    def by_run(sim, fired):
        for until in boundaries:
            sim.run(until=until)
            paused.append(len(fired))
        sim.run()

    ran = _play(program, by_run)
    stepped = _play(program, _step_all)
    assert ran[0] == stepped[0]  # the same callbacks, at the same instants
    assert paused == [sum(1 for _, at in stepped[0] if at <= until) for until in boundaries]
    assert ran[1] == max([stepped[1], *boundaries])  # run(until=) moves the clock to until
    assert ran[2:] == stepped[2:]  # pending, queued, compactions
    assert stepped[2:4] == (0, 0)


def test_the_programs_reach_a_sweep_during_a_run():
    """A burst from inside a callback compacts the queue under ``run``'s
    feet; what was queued behind it still fires, in order."""
    program = {
        "initial": [0.0, 0.5, 0.5, 1.0],
        "cancel_first": [],
        "burst_first": False,
        "scripts": [[("burst", 0.0), ("later", 0.0)], [("cancel", 2)], [], [("later", 0.25)]],
        "boundaries": [0.5],
    }
    fired, _, _, _, compactions = _play(program, lambda sim, fired: sim.run())
    assert compactions >= 1
    assert _play(program, _step_all)[0] == fired
