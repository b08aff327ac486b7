"""Additional cross-cutting property tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@settings(max_examples=60)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30)
)
def test_simulator_executes_in_nondecreasing_time_order(delays):
    """Whatever the scheduling order, execution times never go backwards
    and same-instant events keep submission order."""
    sim = Simulator()
    executed: list[tuple[float, int]] = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index: executed.append((sim.now, i)))
    sim.run()
    assert len(executed) == len(delays)
    times = [t for t, __ in executed]
    assert times == sorted(times)
    # FIFO within identical timestamps.
    by_time: dict[float, list[int]] = {}
    for t, index in executed:
        by_time.setdefault(t, []).append(index)
    for indices in by_time.values():
        assert indices == sorted(indices)


@settings(max_examples=60)
@given(
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=20),
)
def test_simulator_cancellation_property(cancel_mask):
    """Exactly the non-cancelled events fire."""
    sim = Simulator()
    fired: list[int] = []
    events = [
        sim.schedule(float(index), fired.append, index)
        for index in range(len(cancel_mask))
    ]
    for event, cancel in zip(events, cancel_mask):
        if cancel:
            event.cancel()
    sim.run()
    expected = [i for i, cancel in enumerate(cancel_mask) if not cancel]
    assert fired == expected
