"""Link specifications and connectivity policies.

The paper's testbed used four network configurations between an IBM
ThinkPad client and a DEC Alpha-class server:

========================  ============  =========  ==============
link                      bandwidth     latency    header model
========================  ============  =========  ==============
switched 10Mb/s Ethernet  10 Mbit/s     ~0.5 ms    40 B TCP/IP
2Mb/s AT&T WaveLAN        2 Mbit/s      ~2 ms      40 B TCP/IP
CSLIP over 14.4K dial-up  14.4 Kbit/s   ~100 ms    5 B (VJ compr.)
CSLIP over 2.4K dial-up   2.4 Kbit/s    ~150 ms    5 B (VJ compr.)
========================  ============  =========  ==============

(CSLIP = Serial Line IP with Van Jacobson TCP/IP header compression,
RFC 1144, exactly as in the paper.)  A :class:`LinkSpec` captures the
static characteristics; a :class:`ConnectivityPolicy` captures when the
link is up — always, on a periodic schedule (a user who docks for ten
minutes every hour), or following an explicit trace.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

#: Where the search for ``bytes_dominate_from`` gives up: no host
#: holds a payload this large.
_LARGEST_PAYLOAD = 1 << 64


@dataclass(frozen=True)
class LinkSpec:
    """Static characteristics of a point-to-point link.

    ``header_bytes`` is added per MTU-sized fragment, modelling
    TCP/IP (40 B) or VJ-compressed CSLIP (5 B) framing.
    """

    name: str
    bandwidth_bps: float
    latency_s: float
    header_bytes: int = 40
    mtu: int = 1460
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes actually carried for a payload, including framing."""
        fragments = max(1, math.ceil(payload_bytes / self.mtu))
        return payload_bytes + fragments * self.header_bytes

    def transmit_time(self, payload_bytes: int) -> float:
        """Serialization time (seconds) for a payload on this link."""
        return self.wire_bytes(payload_bytes) * 8.0 / self.bandwidth_bps

    def transfer_time(self, payload_bytes: int) -> float:
        """Serialization plus one-way propagation time."""
        return self.transmit_time(payload_bytes) + self.latency_s

    @cached_property
    def bytes_dominate_from(self) -> float:
        """The smallest payload ``n`` with ``transmit_time(n) >
        latency_s``: from there on a sender waits on its bytes more than
        on propagation.  ``inf`` when no payload gets there (a spec that
        claims nothing of the wire, such as a live socket's).

        Searched for with that very expression, which never falls as
        ``n`` grows, so ``n >= bytes_dominate_from`` *is* the rule, at
        every ``n``.  Computed once per spec, on first use; not a field,
        so it is in neither ``repr`` nor equality.
        """
        low, high = -1, 0  # the rule fails at ``low``, nothing is below 0
        while not self.transmit_time(high) > self.latency_s:
            if high > _LARGEST_PAYLOAD:
                return math.inf
            low, high = high, 2 * high + 1
        while high - low > 1:
            middle = (low + high) // 2
            if self.transmit_time(middle) > self.latency_s:
                high = middle
            else:
                low = middle
        return high


ETHERNET_10M = LinkSpec("ethernet-10Mb", 10_000_000.0, 0.0005)
WAVELAN_2M = LinkSpec("wavelan-2Mb", 2_000_000.0, 0.002)
CSLIP_14_4 = LinkSpec("cslip-14.4k", 14_400.0, 0.100, header_bytes=5, mtu=296)
CSLIP_2_4 = LinkSpec("cslip-2.4k", 2_400.0, 0.150, header_bytes=5, mtu=296)

#: The paper's four configurations, fastest first.
STANDARD_LINKS: tuple[LinkSpec, ...] = (
    ETHERNET_10M,
    WAVELAN_2M,
    CSLIP_14_4,
    CSLIP_2_4,
)


class ConnectivityPolicy:
    """When a link is up.

    Implementations must be pure functions of time so that transfers
    can be validated over an interval and transitions pre-scheduled.
    """

    def is_up(self, t: float) -> bool:
        raise NotImplementedError

    def next_transition(self, t: float) -> Optional[float]:
        """Earliest time strictly after ``t`` at which up/down flips.

        ``None`` means the state never changes again.
        """
        raise NotImplementedError

    def up_through(self, t0: float, t1: float) -> bool:
        """True iff the link stays up for the whole interval [t0, t1]."""
        if not self.is_up(t0):
            return False
        transition = self.next_transition(t0)
        return transition is None or transition > t1


class AlwaysUp(ConnectivityPolicy):
    """Permanently connected (the paper's office LAN case)."""

    def is_up(self, t: float) -> bool:
        return True

    def next_transition(self, t: float) -> Optional[float]:
        return None


class AlwaysDown(ConnectivityPolicy):
    """Permanently disconnected (pure disconnected operation)."""

    def is_up(self, t: float) -> bool:
        return False

    def next_transition(self, t: float) -> Optional[float]:
        return None


class PeriodicSchedule(ConnectivityPolicy):
    """Alternating up/down phases, e.g. 60 s up then 240 s down.

    ``phase`` shifts the pattern start; at ``t = phase`` the link
    enters its first up period (or down period if ``start_up`` is
    False).  Before ``phase`` the link is in the *opposite* of the
    starting state, so a phase can model "disconnected until first
    dock".
    """

    def __init__(
        self,
        up_duration: float,
        down_duration: float,
        start_up: bool = True,
        phase: float = 0.0,
    ) -> None:
        if up_duration <= 0 or down_duration <= 0:
            raise ValueError("durations must be positive")
        self.up_duration = up_duration
        self.down_duration = down_duration
        self.start_up = start_up
        self.phase = phase
        self._period = up_duration + down_duration

    def _boundaries(self, t: float) -> tuple[float, float, float]:
        """(cycle start, mid boundary, cycle end) for the cycle holding t.

        Both :meth:`is_up` and :meth:`next_transition` derive from
        these same values, so they can never disagree at a boundary no
        matter how floating point rounds.
        """
        first = self.up_duration if self.start_up else self.down_duration
        cycle = math.floor((t - self.phase) / self._period)
        start = self.phase + cycle * self._period
        mid = start + first
        end = self.phase + (cycle + 1) * self._period
        return start, mid, end

    def is_up(self, t: float) -> bool:
        if t < self.phase:
            return not self.start_up
        __, mid, end = self._boundaries(t)
        in_first = t < mid
        if t >= end:  # float rounding pushed t past its computed cycle
            in_first = True
        return in_first if self.start_up else not in_first

    def next_transition(self, t: float) -> Optional[float]:
        if t < self.phase:
            return self.phase
        __, mid, end = self._boundaries(t)
        if t < mid:
            return mid
        if t < end:
            return end
        # Float rounding put t at/past the computed cycle end: the next
        # boundary is the following cycle's mid point.
        return end + (self.up_duration if self.start_up else self.down_duration)


class IntervalTrace(ConnectivityPolicy):
    """Explicit up intervals ``[(start, end), ...]``; down elsewhere.

    Intervals must be sorted and non-overlapping.
    """

    def __init__(self, up_intervals: Sequence[tuple[float, float]]) -> None:
        previous_end = -math.inf
        for start, end in up_intervals:
            if start >= end:
                raise ValueError(f"empty interval ({start}, {end})")
            if start < previous_end:
                raise ValueError("intervals must be sorted and disjoint")
            previous_end = end
        self.intervals = [(float(s), float(e)) for s, e in up_intervals]
        self._starts = [s for s, __ in self.intervals]

    def is_up(self, t: float) -> bool:
        index = bisect.bisect_right(self._starts, t) - 1
        if index < 0:
            return False
        start, end = self.intervals[index]
        return start <= t < end

    def next_transition(self, t: float) -> Optional[float]:
        index = bisect.bisect_right(self._starts, t) - 1
        if index >= 0:
            start, end = self.intervals[index]
            if t < end:
                return end
        if index + 1 < len(self.intervals):
            return self.intervals[index + 1][0]
        return None
