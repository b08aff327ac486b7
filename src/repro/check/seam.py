"""Decision-point instrumentation: turning nondeterminism into choices.

The simulated network and the crash machinery have a handful of places
where more than one outcome is legal.  This module exposes each as an
enumerable decision point through :meth:`repro.sim.Simulator.decide`:

* :class:`CheckInjector` sits in the ``Link.fault_injector`` seam and
  offers, per frame, **deliver / drop / duplicate(delayed) / delay**
  (plus **flap the link mid-transfer** when the scenario enables it),
  and per election-poll answer on a replication group's member mesh
  **deliver / drop / delay** — what an election decides, and when, is
  a function of which answers it has;
* :func:`arm_crash_points` wraps a client's stable-log flush so every
  durable record boundary offers **continue / crash-and-recover**;
* :func:`count_dispatch_while_down` wraps a client transport so the
  harness can assert that the scheduler never hands a frame to a
  carrier whose link is known-down (the stale-route-cache invariant).

Commutativity pruning lives here too: frames whose touched objects are
either uncontended (single client) or never written (read/read) cannot
change the terminal state by being reordered or replayed — retransmission
and at-most-once absorb any fault on them — so under pruning they are
forced to the default choice without consuming a decision point.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.net.link import ConnectivityPolicy
from repro.net.simnet import Delivery, Link
from repro.net.transport import BATCH_SERVICE, Transport


class SwitchablePolicy(ConnectivityPolicy):
    """An always-up link the checker can force down for a window.

    ``force_down(now, duration)`` opens one down-window; the caller is
    responsible for firing ``link._handle_transition()`` so in-flight
    transfers fail at the drop instant (mirroring what a scheduled
    policy transition would do).
    """

    def __init__(self) -> None:
        self._down_from = math.inf
        self._down_to = -math.inf

    def is_up(self, t: float) -> bool:
        return not (self._down_from <= t < self._down_to)

    def next_transition(self, t: float) -> Optional[float]:
        if t < self._down_from:
            return None if self._down_from == math.inf else self._down_from
        if t < self._down_to:
            return self._down_to
        return None

    def force_down(self, now: float, duration: float) -> None:
        self._down_from = now
        self._down_to = now + duration


class CheckHarness:
    """Per-run bookkeeping shared by the seams and the oracle."""

    #: How long a flapped link stays down, seconds.
    FLAP_HEAL_S = 0.5

    def __init__(
        self,
        sim: Any,
        contended: frozenset[str],
        written: frozenset[str],
        pruning: bool = True,
        flap_choices: bool = False,
        crash_budget: int = 0,
        dup_delay_s: float = 3.0,
        delay_s: float = 0.25,
    ) -> None:
        self.sim = sim
        #: URNs touched by two or more clients (ordering can matter).
        self.contended = contended
        #: URNs at least one client writes (read/read never branches).
        self.written = written
        self.pruning = pruning
        self.flap_choices = flap_choices
        self.crash_budget = crash_budget
        self.dup_delay_s = dup_delay_s
        self.delay_s = delay_s
        #: Branch points suppressed by commutativity pruning (each one
        #: would have multiplied the run set by its alternative count).
        self.pruned_points = 0
        self.decision_points = 0
        self.dispatch_while_down = 0
        self.crashes: list[tuple[str, list[str]]] = []
        self.conflicts: list[tuple[str, str]] = []
        self._crash_pending = False

    def branchable(self, urns: set[str]) -> bool:
        """Can reordering/replaying a frame touching ``urns`` matter?"""
        return bool(urns & self.contended) and bool(urns & self.written)


#: Frame-level alternatives, in decide() order.  Index 0 (deliver
#: unchanged) is the fault-free default every unexplored point takes.
FRAME_ALTERNATIVES = ("deliver", "drop", "dup", "delay", "flap")
#: What may happen to a voter's answer to an election poll (a replayed
#: answer is one the candidate has already counted).
POLL_SERVICE = "rover.ha.poll"
POLL_ALTERNATIVES = ("deliver", "drop", "delay")


class CheckInjector:
    """``Link.fault_injector`` that enumerates per-frame outcomes.

    Installed on every link of a checker testbed.  For each planned
    delivery it decodes the transport envelope (request/reply/datagram),
    works out which URNs the exchange touches (replies inherit their
    request's URNs via the RPC call id), and — unless pruning proves the
    frame unbranchable — asks the simulator to pick one of
    :data:`FRAME_ALTERNATIVES`.
    """

    def __init__(self, harness: CheckHarness, link: Link) -> None:
        self.harness = harness
        self.link = link
        self._call_urns: dict[str, set[str]] = {}
        self._call_service: dict[str, str] = {}

    # -- envelope inspection ------------------------------------------------

    def _body_urns(self, service: str, body: Any) -> set[str]:
        urns: set[str] = set()
        if isinstance(body, dict):
            urn = body.get("urn")
            if isinstance(urn, str):
                urns.add(urn)
            if service == BATCH_SERVICE:
                for member in body.get("requests", []):
                    if isinstance(member, dict):
                        urns |= self._body_urns(
                            member.get("service", ""), member.get("body")
                        )
        return urns

    def _describe(self, payload: bytes) -> dict:
        try:
            envelope = Transport._decode_payload(payload)
        except Exception:
            return {"kind": "opaque", "urns": set()}
        if not isinstance(envelope, dict):
            return {"kind": "opaque", "urns": set()}
        kind = envelope.get("kind")
        if kind == "request":
            service = envelope.get("service", "")
            urns = self._body_urns(service, envelope.get("body"))
            call_id = envelope.get("id")
            if isinstance(call_id, str):
                # Remember the exchange so the reply frame (which has
                # no body URN or service of its own) inherits them.
                self._call_urns[call_id] = set(urns)
                self._call_service[call_id] = service
            body = envelope.get("body")
            request_id = body.get("request_id") if isinstance(body, dict) else None
            return {
                "kind": "request",
                "service": service,
                "urns": urns,
                "request_id": request_id,
            }
        if kind == "reply":
            call_id = envelope.get("id")
            urns = self._call_urns.get(call_id, set())
            service = self._call_service.get(call_id)
            return {"kind": "reply", "service": service, "urns": set(urns)}
        urn = envelope.get("urn")
        return {
            "kind": str(kind),
            "urns": {urn} if isinstance(urn, str) else set(),
        }

    # -- the seam -----------------------------------------------------------

    def plan(self, link: Link, delivery: Delivery) -> list[Delivery]:
        if delivery.fail_reason is not None:
            return [delivery]  # the link's own loss model already lost it
        meta = self._describe(delivery.payload)
        alternatives = FRAME_ALTERNATIVES
        if meta["kind"] == "reply" and meta.get("service") == POLL_SERVICE:
            # Touches no object, so pruning has nothing to say about it.
            alternatives = POLL_ALTERNATIVES
            n = len(alternatives)
        elif self.harness.pruning and not self.harness.branchable(meta["urns"]):
            self.harness.pruned_points += 1
            return [delivery]
        else:
            n = len(FRAME_ALTERNATIVES) if self._can_flap() else 4
        decide_meta = {
            "point": "frame",
            "link": link.name,
            "kind": meta.get("kind"),
            "service": meta.get("service"),
            "request_id": meta.get("request_id"),
            "urns": sorted(meta["urns"]),
        }
        self.harness.decision_points += 1
        choice = self.harness.sim.decide(n, decide_meta)
        action = alternatives[choice]
        if action == "drop":
            return [Delivery(delivery.time, delivery.payload, "checker drop")]
        if action == "dup":
            # The replayed copy lands well after the exchange settles —
            # the interesting window for at-most-once machinery.
            return [
                delivery,
                Delivery(
                    delivery.time + self.harness.dup_delay_s, delivery.payload
                ),
            ]
        if action == "delay":
            return [
                Delivery(delivery.time + self.harness.delay_s, delivery.payload)
            ]
        if action == "flap":
            # Let the frame start, then yank the link mid-transfer:
            # in-flight transfers fail exactly as a policy drop would.
            now = self.harness.sim.now
            midpoint = now + (delivery.time - now) * 0.5
            self.harness.sim.schedule_at(midpoint, self._flap)
            return [delivery]
        return [delivery]

    def _can_flap(self) -> bool:
        return self.harness.flap_choices and isinstance(
            self.link.policy, SwitchablePolicy
        )

    def _flap(self) -> None:
        policy = self.link.policy
        if not isinstance(policy, SwitchablePolicy) or not self.link.is_up:
            return
        policy.force_down(self.harness.sim.now, self.harness.FLAP_HEAL_S)
        self.link._handle_transition()


def install_injectors(harness: CheckHarness, links: list[Link]) -> None:
    for link in links:
        link.fault_injector = CheckInjector(harness, link)


def arm_crash_points(harness: CheckHarness, stack: Any) -> None:
    """Offer a crash choice at every stable-log record boundary.

    Wraps ``stack.access.log.stable.flush`` — the instant a batch of
    records becomes durable, which is exactly the boundary at which a
    crash is interesting (earlier, the records never existed; later,
    the state is the same until the next flush).  A taken crash runs
    the full :func:`repro.chaos.recovery.crash_and_recover_client`
    machinery deferred by one event, then re-arms on the rebuilt stack.
    """
    stable = stack.access.log.stable
    original_flush = stable.flush

    def flush_and_offer_crash() -> float:
        duration = original_flush()
        if harness.crash_budget > 0 and not harness._crash_pending:
            harness.decision_points += 1
            choice = harness.sim.decide(
                2, {"point": "crash", "host": stack.host.name}
            )
            if choice == 1:
                harness.crash_budget -= 1
                harness._crash_pending = True
                harness.sim.schedule(0.0, crash_now)
        return duration

    def crash_now() -> None:
        harness._crash_pending = False
        replayed = stack.crash_and_recover()
        harness.crashes.append((stack.host.name, list(replayed)))
        arm_crash_points(harness, stack)  # the rebuilt manager has a new log

    stable.flush = flush_and_offer_crash


def count_dispatch_while_down(harness: CheckHarness, transport: Transport) -> None:
    """Count RPC dispatch attempts made with no usable link.

    The network scheduler must never pick a route whose link it could
    know is down — a stale memoized route burns a retry attempt and a
    backoff for nothing.  Wrapping :meth:`Transport.call` observes the
    exact moment of dispatch, before the transport raises ``LinkDown``.
    """
    original_call = transport.call

    def call(dst, service, request, on_reply, on_error, timeout=60.0, link=None):
        if transport.host.best_link_to(dst) is None:
            harness.dispatch_while_down += 1
        return original_call(
            dst,
            service,
            request,
            on_reply=on_reply,
            on_error=on_error,
            timeout=timeout,
            link=link,
        )

    transport.call = call
