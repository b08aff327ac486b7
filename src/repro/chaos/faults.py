"""Link-level fault injection.

A :class:`FaultyLink` interposes on one :class:`repro.net.simnet.Link`
through its ``fault_injector`` hook and rewrites each planned delivery
into drop / duplicate / corrupt / reorder outcomes, drawn from a
:func:`repro.sim.rng.make_rng` stream — so a given seed always injects
the same faults at the same virtual instants.

The model applies *at most one* fault per payload: a single uniform
draw falls into one of the cumulative probability bands.  Corruption
flips exactly one byte, preserving frame length, which is what the
transport's CRC seal is designed to catch (detection, not tolerance).
Injected duplicates are network-level replays: they consume no extra
line time and are not charged wire bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net.link import IntervalTrace
from repro.net.simnet import Delivery, Link
from repro.sim import make_rng


class ChaosError(Exception):
    """Fault-injection misuse (double install, bad plan, ...)."""


@dataclass(frozen=True)
class LinkFaultSpec:
    """Per-payload fault probabilities for one link direction pair.

    The four probabilities partition a single draw, so their sum must
    not exceed 1; the remainder is the clean-delivery band.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    #: How far behind the original the injected duplicate arrives.
    duplicate_delay_s: float = 0.5
    #: Extra delay applied to a reordered payload (enough for a later
    #: send to overtake it).
    reorder_delay_s: float = 2.0

    def __post_init__(self) -> None:
        total = self.drop + self.duplicate + self.corrupt + self.reorder
        for name, value in (
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
        ):
            if not 0.0 <= value <= 1.0:
                raise ChaosError(f"{name} probability {value} outside [0, 1]")
        if total > 1.0:
            raise ChaosError(f"fault probabilities sum to {total} > 1")
        if self.duplicate_delay_s < 0 or self.reorder_delay_s < 0:
            raise ChaosError("fault delays must be non-negative")


class FaultyLink:
    """Seeded fault injector for one link.

    Installs as the link's ``fault_injector``; every ``Link.send``
    consults :meth:`plan`.  Faults already decided by the link itself
    (its own ``loss_rate``) pass through untouched — the injector adds
    faults, it never un-drops.
    """

    def __init__(
        self,
        link: Link,
        spec: LinkFaultSpec,
        rng: Any,
        obs: Optional[Any] = None,
    ) -> None:
        self.link = link
        self.spec = spec
        self.rng = rng
        self.injected = {"drop": 0, "duplicate": 0, "corrupt": 0, "reorder": 0}
        self._m_faults = None
        if obs is not None:
            self._m_faults = obs.registry.counter(
                "chaos_link_faults_total",
                "Faults injected by FaultyLink, by kind",
                labelnames=("link", "kind"),
            )

    def install(self) -> "FaultyLink":
        if self.link.fault_injector is not None and self.link.fault_injector is not self:
            raise ChaosError(f"link {self.link.name} already has a fault injector")
        self.link.fault_injector = self
        return self

    def uninstall(self) -> None:
        if self.link.fault_injector is self:
            self.link.fault_injector = None

    def _count(self, kind: str) -> None:
        self.injected[kind] += 1
        if self._m_faults is not None:
            self._m_faults.labels(link=self.link.name, kind=kind).inc()

    def _corrupted(self, payload: bytes) -> bytes:
        if not payload:
            return b"\xff"
        mutated = bytearray(payload)
        index = self.rng.randrange(len(mutated))
        mutated[index] ^= self.rng.randrange(1, 256)
        return bytes(mutated)

    def plan(self, link: Link, delivery: Delivery) -> list[Delivery]:
        """Rewrite one planned delivery into its faulted form."""
        if delivery.fail_reason is not None:
            return [delivery]  # the link already lost it
        spec = self.spec
        draw = self.rng.random()
        edge = spec.drop
        if draw < edge:
            self._count("drop")
            return [Delivery(delivery.time, delivery.payload, "chaos drop")]
        edge += spec.duplicate
        if draw < edge:
            self._count("duplicate")
            return [
                delivery,
                Delivery(delivery.time + spec.duplicate_delay_s, delivery.payload),
            ]
        edge += spec.corrupt
        if draw < edge:
            self._count("corrupt")
            return [Delivery(delivery.time, self._corrupted(delivery.payload))]
        edge += spec.reorder
        if draw < edge:
            self._count("reorder")
            return [
                Delivery(delivery.time + spec.reorder_delay_s, delivery.payload)
            ]
        return [delivery]


def flaky_policies(seed: int, n_clients: int, horizon_s: float) -> list[IntervalTrace]:
    """Per-client flaky connectivity traces with a final stable window.

    Each client link flaps independently (seeded streams; up 90 s and
    down 180 s on average) over ``horizon_s``, then stays up from
    ``horizon_s + 500`` s so queued traffic can drain and convergence
    checks can run.  This is the connectivity half of a chaos scenario
    — the convergence suite consumes it instead of hand-rolling traces.
    """
    from repro.workloads import generate_connectivity_trace

    policies: list[IntervalTrace] = []
    for index in range(n_clients):
        windows = generate_connectivity_trace(
            seed=seed * 101 + index,
            horizon_s=horizon_s,
            mean_up_s=90.0,
            mean_down_s=180.0,
        )
        windows = [(s, min(e, horizon_s)) for s, e in windows if s < horizon_s]
        windows.append((horizon_s + 500.0, 1e9))
        policies.append(IntervalTrace(windows))
    return policies
