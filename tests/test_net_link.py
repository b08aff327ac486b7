"""Link spec and connectivity policy tests."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    CSLIP_2_4,
    CSLIP_14_4,
    ETHERNET_10M,
    WAVELAN_2M,
    AlwaysDown,
    AlwaysUp,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
    STANDARD_LINKS,
)


class TestLinkSpec:
    def test_standard_links_ordered_fastest_first(self):
        bandwidths = [spec.bandwidth_bps for spec in STANDARD_LINKS]
        assert bandwidths == sorted(bandwidths, reverse=True)

    def test_paper_link_parameters(self):
        assert ETHERNET_10M.bandwidth_bps == 10_000_000
        assert WAVELAN_2M.bandwidth_bps == 2_000_000
        assert CSLIP_14_4.bandwidth_bps == 14_400
        assert CSLIP_2_4.bandwidth_bps == 2_400
        # VJ header compression on the serial links.
        assert CSLIP_14_4.header_bytes == 5
        assert CSLIP_2_4.header_bytes == 5

    def test_transfer_time_includes_latency(self):
        spec = LinkSpec("test", bandwidth_bps=8_000, latency_s=0.5, header_bytes=0)
        # 1000 bytes = 8000 bits = 1 second of serialization.
        assert spec.transfer_time(1000) == pytest.approx(1.5)

    def test_wire_bytes_fragmentation_overhead(self):
        spec = LinkSpec("test", 1e6, 0.0, header_bytes=40, mtu=100)
        assert spec.wire_bytes(50) == 50 + 40          # one fragment
        assert spec.wire_bytes(250) == 250 + 3 * 40    # three fragments
        assert spec.wire_bytes(0) == 40                # null message still framed

    def test_slow_link_dominates(self):
        payload = 10_000
        assert CSLIP_2_4.transfer_time(payload) > CSLIP_14_4.transfer_time(payload)
        assert CSLIP_14_4.transfer_time(payload) > WAVELAN_2M.transfer_time(payload)
        assert WAVELAN_2M.transfer_time(payload) > ETHERNET_10M.transfer_time(payload)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", 0, 0.1)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, -1)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, 0.0, mtu=0)
        with pytest.raises(ValueError):
            LinkSpec("bad", 1e6, 0.0, loss_rate=1.0)


class TestPolicies:
    def test_always_up(self):
        policy = AlwaysUp()
        assert policy.is_up(0) and policy.is_up(1e9)
        assert policy.next_transition(0) is None
        assert policy.up_through(0, 1e9)

    def test_always_down(self):
        policy = AlwaysDown()
        assert not policy.is_up(0)
        assert policy.next_transition(0) is None
        assert not policy.up_through(0, 1)

    def test_periodic_basic(self):
        policy = PeriodicSchedule(up_duration=10, down_duration=20)
        assert policy.is_up(0)
        assert policy.is_up(9.99)
        assert not policy.is_up(10)
        assert not policy.is_up(29.99)
        assert policy.is_up(30)

    def test_periodic_transitions(self):
        policy = PeriodicSchedule(up_duration=10, down_duration=20)
        assert policy.next_transition(0) == pytest.approx(10)
        assert policy.next_transition(15) == pytest.approx(30)
        assert policy.next_transition(30) == pytest.approx(40)

    def test_periodic_start_down(self):
        policy = PeriodicSchedule(up_duration=10, down_duration=20, start_up=False)
        assert not policy.is_up(0)
        assert policy.is_up(20)
        assert not policy.is_up(30)

    def test_periodic_phase_shift(self):
        policy = PeriodicSchedule(up_duration=10, down_duration=10, phase=5)
        assert not policy.is_up(0)  # before phase: opposite of start state
        assert policy.next_transition(0) == pytest.approx(5)
        assert policy.is_up(5)

    def test_periodic_up_through(self):
        policy = PeriodicSchedule(up_duration=10, down_duration=10)
        assert policy.up_through(1, 9)
        assert not policy.up_through(1, 11)
        assert not policy.up_through(12, 13)

    def test_interval_trace(self):
        trace = IntervalTrace([(10, 20), (50, 60)])
        assert not trace.is_up(5)
        assert trace.is_up(10)
        assert trace.is_up(15)
        assert not trace.is_up(20)  # half-open interval
        assert trace.is_up(55)
        assert not trace.is_up(70)

    def test_interval_trace_transitions(self):
        trace = IntervalTrace([(10, 20), (50, 60)])
        assert trace.next_transition(0) == 10
        assert trace.next_transition(15) == 20
        assert trace.next_transition(20) == 50
        assert trace.next_transition(55) == 60
        assert trace.next_transition(60) is None

    def test_interval_trace_validation(self):
        with pytest.raises(ValueError):
            IntervalTrace([(5, 5)])
        with pytest.raises(ValueError):
            IntervalTrace([(10, 20), (15, 30)])


@settings(max_examples=100)
@given(
    up=st.floats(min_value=0.1, max_value=100),
    down=st.floats(min_value=0.1, max_value=100),
    t=st.floats(min_value=0, max_value=10_000),
)
def test_periodic_transition_flips_state(up, down, t):
    """At the reported next transition, the up/down state actually changes."""
    policy = PeriodicSchedule(up_duration=up, down_duration=down)
    before = policy.is_up(t)
    transition = policy.next_transition(t)
    assert transition is not None and transition > t
    epsilon = min(up, down) / 1e4
    assert policy.is_up(transition + epsilon) != before


@settings(max_examples=100)
@given(
    starts=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000),
            st.floats(min_value=0.1, max_value=50),
        ),
        min_size=1,
        max_size=6,
    ),
    probe=st.floats(min_value=-10, max_value=1200),
)
def test_interval_trace_consistent_with_membership(starts, probe):
    """is_up agrees with direct interval membership."""
    intervals = []
    t = 0.0
    for gap, length in starts:
        begin = t + gap
        intervals.append((begin, begin + length))
        t = begin + length
    trace = IntervalTrace(intervals)
    expected = any(start <= probe < end for start, end in intervals)
    assert trace.is_up(probe) == expected


# ---------------------------------------------------------------------------
# bytes_dominate_from: the bytes-dominate rule as one number per spec
# ---------------------------------------------------------------------------


def _assert_threshold_is_the_rule(spec):
    """Exhaustively over [0, 4 * mtu]: ``n >= bytes_dominate_from``
    exactly when ``transmit_time(n) > latency_s``."""
    threshold = spec.bytes_dominate_from
    for n in range(4 * spec.mtu + 1):
        assert (n >= threshold) == (spec.transmit_time(n) > spec.latency_s), n


def _named_specs():
    from repro.live.transport import TCP

    return [*STANDARD_LINKS, TCP]


@pytest.mark.parametrize("spec", _named_specs(), ids=lambda spec: spec.name)
def test_bytes_dominate_from_is_the_rule_on_every_named_spec(spec):
    _assert_threshold_is_the_rule(spec)


def test_bytes_dominate_from_on_the_named_specs():
    thresholds = {spec.name: spec.bytes_dominate_from for spec in _named_specs()}
    assert thresholds == {
        "ethernet-10Mb": 586,
        "wavelan-2Mb": 461,
        "cslip-14.4k": 176,
        "cslip-2.4k": 41,
        "tcp": math.inf,  # a socket claims nothing of the wire
    }


@settings(max_examples=100, deadline=None)
@given(
    bandwidth=st.one_of(
        st.floats(min_value=1.0, max_value=1e12, allow_nan=False), st.just(math.inf)
    ),
    latency=st.one_of(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False), st.just(math.inf)
    ),
    header=st.integers(0, 64),
    mtu=st.integers(1, 1500),
)
def test_bytes_dominate_from_is_the_rule_on_drawn_specs(bandwidth, latency, header, mtu):
    _assert_threshold_is_the_rule(LinkSpec("drawn", bandwidth, latency, header, mtu))


def test_bytes_dominate_from_is_no_field_of_the_spec():
    """Cached on the instance, yet not a field: equality, hashing and
    ``repr`` are as they were, and ``replace`` computes it afresh."""
    before = repr(CSLIP_14_4)
    twin = dataclasses.replace(CSLIP_14_4)
    assert CSLIP_14_4.bytes_dominate_from == 176  # now cached on one of the two
    assert "bytes_dominate_from" not in {field.name for field in dataclasses.fields(LinkSpec)}
    assert repr(CSLIP_14_4) == before and twin == CSLIP_14_4 and hash(twin) == hash(CSLIP_14_4)
    assert dataclasses.replace(CSLIP_14_4, latency_s=0.5).bytes_dominate_from > 176
