"""Rover's network scheduler.

The paper (section 5.3): *"The implementation of the network scheduler
has several queues for different priorities and it chooses a network
interface based on availability and quality."*  Messages may travel
over connection-based routes (the direct link) or connectionless queued
routes (the SMTP relay), chosen per message by availability and the
requested quality of service.

This module implements exactly that:

* several priority queues (:class:`Priority`), FIFO within a priority;
* a pluggable set of :class:`Route` objects; the scheduler picks the
  best *available* route per message, preferring higher quality;
* bounded in-flight window, retransmission with exponential backoff,
  and terminal failure reporting after ``max_attempts``;
* a *replicated* destination (a :class:`repro.ha.group.ReplicaSet`)
  names its member per attempt, as a route names its link; a member
  that does not answer is moved on from and the attempt retried in
  place (:meth:`NetworkScheduler._attempt_failed`), as is one whose
  answer says the message goes again (:meth:`NetworkScheduler._again`);
* on a link where bytes, not round trips, are what the sender waits
  for, queued messages of one priority class for one destination share
  a frame (:meth:`NetworkScheduler._gather`) — the reconnect backlog of
  small updates leaves as a few compressible frames, not one each;
* wake-ups on link up/down transitions so queued traffic drains the
  moment connectivity returns — the heart of QRPC's "requests and
  responses are exchanged upon network reconnection".
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Optional

from repro.net.message import marshalled_size
from repro.net.simnet import Host, Link
from repro.net.transport import (
    BATCH_BUDGET_BYTES,
    BATCH_SERVICE,
    MAX_BATCH_MEMBERS,
    RpcError,
    Transport,
    batch_replies,
    batch_request,
)
from repro.obs import Observatory
from repro.obs.trace import TRACE_KEY, parse_context
from repro.sim import Simulator
from repro.sim.rng import make_rng


#: A replicated destination's ``read_reply`` of a reply that is not the
#: answer: it has moved, or it learned nothing (:meth:`NetworkScheduler._again`).
MOVED, NO_PROGRESS = "moved", "replica group has no reachable primary"


class Priority(IntEnum):
    """QRPC priorities; lower value drains first."""

    FOREGROUND = 0  # the user is waiting on this (e.g. a clicked page)
    DEFAULT = 1
    BACKGROUND = 2  # prefetch / bulk traffic


#: The ``priority`` metric/span label of each member (``.name`` is a
#: property hop through the enum machinery on every access).
_PRIORITY_LABEL = {priority: priority.name.lower() for priority in Priority}


class RouteKind(IntEnum):
    """Connection-based vs connectionless queued carriers."""

    DIRECT = 0   # connection-based (TCP-like over a live link)
    QUEUED = 1   # connectionless store-and-forward (SMTP-like)


class Route:
    """A way to move a request envelope to a destination host."""

    #: Relative quality; the scheduler prefers the highest available.
    quality: float = 0.0
    name: str = "route"
    kind: RouteKind = RouteKind.DIRECT

    def available(self, dst: Host) -> bool:
        raise NotImplementedError

    def first_hop(self, dst: Host) -> Optional[Link]:
        """The link a send toward ``dst`` would leave on right now
        (None: unknown, so the scheduler assumes nothing about it)."""
        raise NotImplementedError

    def send(
        self,
        dst: Host,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[str], None],
        on_accepted: Callable[[], None],
    ) -> None:
        """Attempt one delivery.

        Eventually either ``on_reply`` or ``on_error`` fires (exactly
        once): ``on_reply`` with whatever the far side answered, a fault
        it knows of included; ``on_error`` only when no answer came.  A
        store-and-forward route additionally fires ``on_accepted`` when
        it has taken custody of the message (e.g. the relay spooled it)
        — from that point the scheduler frees the in-flight window slot
        even though the reply is still pending, because the channel is
        no longer occupied by this message.
        Connection-based routes never call ``on_accepted``.
        """
        raise NotImplementedError


class DirectRoute(Route):
    """Connection-based delivery over the best currently-up link."""

    name = "direct"

    #: Generous default: a 128 KB object over a 2.4 Kbit/s modem takes
    #: ~450 s; timeouts exist to detect lost replies, not to police
    #: slow links, so err well above the worst legitimate transfer.
    def __init__(self, transport: Transport, timeout: float = 600.0) -> None:
        self.transport = transport
        self.timeout = timeout

    def available(self, dst: Host) -> bool:
        return self.transport.host.best_link_to(dst) is not None

    def first_hop(self, dst: Host) -> Optional[Link]:
        return self.transport.host.best_link_to(dst)

    @property
    def quality(self) -> float:  # type: ignore[override]
        # Quality tracks the best attached link; refined per-message in send().
        return max(
            (link.spec.bandwidth_bps for link in self.transport.host.links if link.is_up),
            default=0.0,
        )

    def send(
        self,
        dst: Host,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[str], None],
        on_accepted: Callable[[], None],
    ) -> None:
        try:
            self.transport.call(
                dst,
                service,
                body,
                on_reply=on_reply,
                on_error=lambda err: on_error(str(err)),
                timeout=self.timeout,
            )
        except RpcError as exc:
            on_error(str(exc))


class QueuedMessage:
    """A message sitting in (or in flight from) the scheduler."""

    __slots__ = (
        "seq",
        "dst",
        "group",
        "service",
        "body",
        "priority",
        "on_reply",
        "on_failed",
        "attempts",
        "rounds",
        "enqueued_at",
        "state",
        "trace",
        "last_queued_at",
        "body_bytes",
        "exchange",
    )

    def __init__(
        self,
        seq: int,
        dst: Optional[Host],
        service: str,
        body: Any,
        priority: Priority,
        on_reply: Callable[[Any], None],
        on_failed: Callable[[str], None],
        enqueued_at: float,
    ) -> None:
        self.seq = seq
        #: The host the current (or last) attempt goes to.  A message
        #: for a replicated destination has none until it is dispatched:
        #: ``group`` names the member then, and again on every retry.
        self.dst = dst
        self.group: Any = None
        self.service = service
        self.body = body
        self.priority = priority
        self.on_reply = on_reply
        self.on_failed = on_failed
        self.attempts = 0
        #: Attempt budgets renewed so far (a replicated destination's).
        self.rounds = 0
        self.enqueued_at = enqueued_at
        self.state = "queued"  # queued | inflight | accepted | done | cancelled
        #: Trace context propagated in the body (see repro.obs.trace).
        self.trace = (
            parse_context(body[TRACE_KEY])
            if isinstance(body, dict) and TRACE_KEY in body
            else None
        )
        #: When the message last (re-)entered the queue; queue.wait
        #: spans measure from here, so each retry gets its own span.
        self.last_queued_at = enqueued_at
        #: Marshalled size of ``body`` (what the frame budget and the
        #: per-service byte counter charge).
        self.body_bytes = marshalled_size(body)
        #: The wire exchange carrying the current attempt, while the
        #: message waits on its outcome.  The exchange lists its members,
        #: so whatever ends the wait (reply, failed or withdrawn attempt,
        #: abandon) drops this and no reference cycle outlives it.
        self.exchange: Optional[_Exchange] = None

    def sort_key(self) -> tuple[int, int]:
        return (int(self.priority), self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueuedMessage #{self.seq} {self.service} -> {getattr(self.dst, 'name', '?')} "
            f"{self.priority.name} {self.state}>"
        )


class _Exchange:
    """One wire exchange: the messages in it and the window slot it holds."""

    __slots__ = ("members", "holds_slot")

    def __init__(self, members: list[QueuedMessage]) -> None:
        self.members = members
        self.holds_slot = True


class NetworkScheduler:
    """Priority-queued, route-selecting message drainer for one host."""

    METRICS = (
        ("sched_delivered_total", "counter",
         "Replies received, a replica group's fence included", "delivered"),
        ("sched_failed_total", "counter",
         "Attempt budgets spent (a replica group's message may get another; "
         "see qrpc_failed_total)", "failed"),
        ("sched_retransmissions_total", "counter",
         "Re-dispatches after a failed attempt", "retransmissions"),
        ("sched_batches_sent_total", "counter",
         "Coalesced frames dispatched (two or more messages each)", "batches_sent"),
        ("sched_batch_members_total", "counter",
         "Messages dispatched inside coalesced frames", "batch_members"),
        ("sched_queue_wait_seconds", "histogram",
         "Time from enqueue (or requeue) to dispatch", None, ("priority",)),
        # Dispatched request payload bytes attributed to their service
        # (retransmissions re-count: this is wire cost, not goodput).
        # How fleet telemetry (E15) proves its overhead share without
        # needing a telemetry-free control run.
        ("sched_service_bytes_total", "counter",
         "Dispatched request payload bytes by service", None, ("service",)),
        *(
            ("sched_queue_depth", "gauge", "Currently queued messages",
             lambda scheduler, p=priority: scheduler._queue_depth_for(p),
             {"priority": label})
            for priority, label in _PRIORITY_LABEL.items()
        ),
        ("sched_inflight", "gauge", "Messages occupying the window", "inflight"),
    )

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        max_inflight: int = 4,
        max_attempts: int = 8,
        base_backoff: float = 1.0,
        max_backoff: float = 300.0,
        fifo_only: bool = False,
        obs: Optional[Observatory] = None,
        rpc_timeout: float = 600.0,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.host = transport.host
        self.max_inflight = max_inflight
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.fifo_only = fifo_only
        #: Per-attempt reply timeout for the default direct route.
        #: Chaos runs shrink this so corrupted/dropped frames (which
        #: are invisible to the sender) burn less virtual time before
        #: retransmission.
        self.rpc_timeout = rpc_timeout
        #: The carriers, best available wins.
        self.routes: list[Route] = [DirectRoute(transport, timeout=rpc_timeout)]
        self._heap: list[tuple[tuple[int, int], QueuedMessage]] = []
        #: Queued messages a pump found no route for (or resting), out of
        #: the heap until the answers they were given are void — that is,
        #: until ``_route_cache`` is no longer the dict they were asked
        #: under.  A submit behind a long disconnected queue therefore
        #: looks up one route, not one per message already waiting.
        self._stuck: list[tuple[tuple[int, int], QueuedMessage]] = []
        self._stuck_under: Optional[dict] = None
        #: Every message not yet in a terminal state (queued, backing
        #: off, or in flight) — the set a crash simulation abandons.
        self._active: set[QueuedMessage] = set()
        self._seq = 0
        self.inflight = 0
        #: Replicated destinations nothing is sent to for now (one that
        #: just went unanswered, or fenced), and until when.
        self._resting: dict[Any, float] = {}
        self.obs = obs if obs is not None else Observatory()
        self.tracer = self.obs.tracer
        #: Counts of :attr:`METRICS`, bumped where they happen.
        self.delivered = 0
        self.failed = 0
        self.retransmissions = 0
        self.batches_sent = 0
        self.batch_members = 0
        #: The two families a dispatch updates, and their children by
        #: (priority, service), each bound on first use.  One attribute
        #: for the three: a thirtieth would spill this instance's
        #: attributes into a dict of their own (1.3 KB a stack).
        self._dispatch_metrics = (
            *self.obs.registry.expose(self, {"host": self.host.name}), {}
        )
        self._watched_links: set[str] = set()
        # Memoized _best_route results, keyed by dst name.
        # Route availability only changes when link state does, so the
        # cache is replaced wholesale on every link transition (and when
        # routes or links are added, or a destination's rest ends)
        # rather than tracked per entry.
        self._route_cache: dict[str, Optional[Route]] = {}
        self._watch_links()

    @cached_property
    def rng(self) -> Any:
        """Seeded jitter stream for retransmit backoff: without it,
        every client that lost the same link retries in lockstep and
        the reconnect instant becomes a retransmit storm.  Built on
        first draw (2.5 KB of state; most clients never retransmit)."""
        return make_rng(getattr(self.host.network, "seed", 0), f"sched:{self.host.name}")

    def _queue_depth_for(self, priority: Priority) -> int:
        return sum(
            1
            for __, m in self._heap + self._stuck
            if m.state == "queued" and m.priority is priority
        )

    # -- public API -------------------------------------------------------

    def add_route(self, route: Route) -> None:
        """Register an additional carrier (e.g. the SMTP relay route)."""
        self.routes.append(route)
        self._route_cache = {}

    def submit(
        self,
        dst: Host,
        service: str,
        body: Any,
        priority: Priority = Priority.DEFAULT,
        on_reply: Optional[Callable[[Any], None]] = None,
        on_failed: Optional[Callable[[str], None]] = None,
    ) -> QueuedMessage:
        """Queue a request.  Non-blocking; callbacks fire on completion.

        ``dst`` is a host, or a replicated destination (duck-typed:
        not a :class:`Host`, and has ``current_host``): it is read for
        the member to send to each time the message leaves, told
        ``advance_past(name)`` when that member does not answer, asked
        ``read_reply(name, reply)`` what each answer is, and renews a
        message's attempts ``max_rounds`` times (:meth:`_again`).
        """
        message = QueuedMessage(
            seq=self._seq,
            dst=dst,
            service=service,
            body=body,
            priority=Priority.DEFAULT if self.fifo_only else priority,
            on_reply=on_reply or (lambda body: None),
            on_failed=on_failed or (lambda reason: None),
            enqueued_at=self.sim.now,
        )
        if not isinstance(dst, Host) and hasattr(dst, "current_host"):
            message.group, message.dst = dst, None
        self._seq += 1
        self._active.add(message)
        self._push(message)
        # Watch links that may have been attached after construction.
        self._watch_links()
        self.sim.schedule(0.0, self._pump)
        return message

    def cancel(self, message: QueuedMessage) -> bool:
        """Drop a queued message; returns False if already in flight/done."""
        if message.state != "queued":
            return False
        message.state = "cancelled"
        self._active.discard(message)
        return True

    def reprioritize(self, message: QueuedMessage, priority: Priority) -> bool:
        """Raise/lower a *queued* message's priority (e.g. a background
        prefetch the user just clicked on).  No effect once in flight."""
        if message.state != "queued" or self.fifo_only:
            return False
        if priority == message.priority:
            return True
        message.priority = priority
        # Rebuild the heap under the keys as they now are.
        self._heap = [
            (m.sort_key(), m) for __, m in self._heap + self._stuck if m.state == "queued"
        ]
        self._stuck.clear()
        heapq.heapify(self._heap)
        self._pump()
        return True

    def abandon_all(self) -> int:
        """Simulate process death: forget every queued and in-flight
        message without firing any callback.

        The stable operation log is the only crash survivor; a fresh
        access manager recovers from it and resubmits.  Late replies to
        abandoned in-flight messages are ignored (their state is
        terminal).  Returns the number of messages abandoned.
        """
        count = 0
        # self._active is identity-hashed, so bare iteration visits
        # messages in per-process hash order; walk by submission seq so
        # any observer of the cancellations sees one canonical order.
        for message in sorted(self._active, key=lambda m: m.seq):
            if message.state in ("queued", "inflight", "accepted"):
                message.state = "cancelled"
                count += 1
            if message.exchange is not None:
                # The window is reset below; a late outcome of a dead
                # exchange must not release a slot a second time.
                message.exchange.holds_slot = False
                message.exchange = None
        self._active.clear()
        self._heap.clear()
        self._stuck.clear()
        self._resting.clear()
        self.inflight = 0
        return count

    def queue_length(self) -> int:
        return sum(1 for __, m in self._heap + self._stuck if m.state == "queued")

    def idle(self) -> bool:
        return self.inflight == 0 and self.queue_length() == 0

    # -- internals ----------------------------------------------------------

    def _push(self, message: QueuedMessage) -> None:
        heapq.heappush(self._heap, (message.sort_key(), message))

    def _watch_links(self) -> None:
        for link in self.host.links:
            if link.name in self._watched_links:
                continue
            self._watched_links.add(link.name)
            # A link attached after construction may change route
            # availability even before any transition fires.
            self._route_cache = {}
            link.on_transition(self._on_link_transition)

    def _on_link_transition(self, link: Link, is_up: bool) -> None:
        self._route_cache = {}
        if is_up:
            self._pump()

    def _best_route(self, dst: Host) -> Optional[Route]:
        key = dst.name
        if key in self._route_cache:
            return self._route_cache[key]
        candidates = [route for route in self.routes if route.available(dst)]
        best = max(candidates, key=lambda route: route.quality) if candidates else None
        self._route_cache[key] = best
        return best

    def _pump(self) -> None:
        if self._stuck_under is not self._route_cache:
            # What the stuck messages were told no longer holds: they
            # stand in line again, where their ``seq`` puts them.
            for item in self._stuck:
                heapq.heappush(self._heap, item)
            self._stuck.clear()
            self._stuck_under = self._route_cache
        while self.inflight < self.max_inflight and self._heap:
            __, message = self._heap[0]
            if message.state != "queued":
                heapq.heappop(self._heap)
                continue
            group = message.group
            if group is not None:
                if group in self._resting:
                    self._stuck.append(heapq.heappop(self._heap))
                    continue
                message.dst = group.current_host
            route = self._best_route(message.dst)
            if route is None:
                # This message's destination is unreachable right now;
                # let the rest of the queue make progress around it —
                # another destination's link may well be up (no
                # head-of-line blocking across servers).
                self._stuck.append(heapq.heappop(self._heap))
                continue
            heapq.heappop(self._heap)
            self._dispatch(self._gather(message, route), route)

    def _gather(self, head: QueuedMessage, route: Route) -> list[QueuedMessage]:
        """The messages that leave in ``head``'s frame, ``head`` first.

        Followers join only where bytes are what the sender waits for:
        ``head`` alone already takes longer to serialize on the link it
        will leave on than to propagate.  They are the queued messages
        for the same destination *of the same priority class* (a
        foreground request never waits for background bytes), in queue
        order, until the next one would pass the frame's byte budget
        (or the member count every receiver accepts).
        """
        frame = [head]
        room = BATCH_BUDGET_BYTES - head.body_bytes
        if room <= 0 or not self._heap:
            return frame
        link = route.first_hop(head.dst)
        if link is None or not self.transport.bytes_dominate(link, head.body_bytes):
            return frame
        skipped: list[tuple[tuple[int, int], QueuedMessage]] = []
        while self._heap and len(frame) < MAX_BATCH_MEMBERS:
            candidate = self._heap[0][1]
            if candidate.state != "queued":
                heapq.heappop(self._heap)
                continue
            if candidate.priority != head.priority:
                break
            group = candidate.group
            if group is not None:
                # Named per attempt, like ``head``'s; a resting
                # destination has no member to share a frame with.
                candidate.dst = None if group in self._resting else group.current_host
            if candidate.dst is not head.dst:
                skipped.append(heapq.heappop(self._heap))
                continue
            if candidate.body_bytes > room:
                break  # FIFO within the class: nothing overtakes it
            room -= candidate.body_bytes
            heapq.heappop(self._heap)
            frame.append(candidate)
        for item in skipped:
            heapq.heappush(self._heap, item)
        return frame

    def _release(self, exchange: _Exchange) -> None:
        """Free the window slot ``exchange`` holds (at most once)."""
        if exchange.holds_slot:
            exchange.holds_slot = False
            self.inflight -= 1

    def _note_dispatch(self, message: QueuedMessage, route: Route) -> None:
        """Record queue.wait + route.select spans and wait metrics."""
        queue_wait, service_bytes, bound = self._dispatch_metrics
        key = (message.priority, message.service)
        children = bound.get(key)
        if children is None:
            children = bound[key] = (
                queue_wait.labels(
                    host=self.host.name, priority=_PRIORITY_LABEL[message.priority]
                ),
                service_bytes.labels(host=self.host.name, service=message.service),
            )
        children[0].observe(self.sim.now - message.last_queued_at)
        children[1].inc(message.body_bytes)
        if self.tracer.enabled and message.trace is not None:
            self.tracer.record(
                "queue.wait",
                message.trace,
                start=message.last_queued_at,
                end=self.sim.now,
                priority=_PRIORITY_LABEL[message.priority],
                attempt=message.attempts,
            )
            self.tracer.record(
                "route.select",
                message.trace,
                start=self.sim.now,
                end=self.sim.now,
                route=route.name,
                kind=route.kind.name.lower(),
            )

    def _backoff_delay(self, attempts: int) -> float:
        """Capped exponential backoff with seeded jitter.

        The jitter factor draws from this scheduler's own RNG stream
        (``sched:<host>``), so retry timing is deterministic per seed
        yet decorrelated across hosts — reconnecting clients spread
        their retransmissions instead of firing in lockstep.
        """
        ceiling = min(self.max_backoff, self.base_backoff * (2 ** (attempts - 1)))
        return ceiling * (0.5 + 0.5 * self.rng.random())

    def _note_retry(self, message: QueuedMessage, backoff: float, reason: str) -> None:
        """Record the backoff between a failed attempt and its retry."""
        if self.tracer.enabled and message.trace is not None:
            self.tracer.record(
                "retransmit",
                message.trace,
                start=self.sim.now,
                end=self.sim.now + backoff,
                attempt=message.attempts,
                reason=reason,
            )

    def _dispatch(self, members: list[QueuedMessage], route: Route) -> None:
        """Send ``members`` as one wire exchange holding one window slot.

        A lone message goes out as its own request.  Several go out as
        one :data:`BATCH_SERVICE` exchange, which any transport unpacks
        member by member; its envelope carries the *head* message's
        trace context, so wire/server spans of the exchange attach to
        the head's trace, and every member still gets its own
        queue.wait span and its own outcome.
        """
        exchange = _Exchange(members)
        for message in members:
            message.state = "inflight"
            message.exchange = exchange
            message.attempts += 1
            if message.attempts > 1:
                self.retransmissions += 1
            self._note_dispatch(message, route)
        self.inflight += 1
        head = members[0]
        coalesced = len(members) > 1

        def on_accepted() -> None:
            # Store-and-forward custody: the channel is free, but the
            # messages stay logically outstanding until their reply.
            for message in members:
                if message.exchange is exchange and message.state == "inflight":
                    message.state = "accepted"
            self._release(exchange)
            self._pump()

        def on_reply(body: Any) -> None:
            answers: Any = (body,)
            if coalesced:
                answers = batch_replies(body, len(members))
                if answers is None:
                    # Not an answer to what was asked: as good as lost.
                    self.transport.note_corrupt_frame()
                    on_error("malformed batch reply")
                    return
            self._release(exchange)
            waiting = False
            for message, reply in zip(members, answers):
                if message.exchange is not exchange:
                    continue  # settled, or withdrawn and sent again since
                waiting = True
                message.state = "done"
                message.exchange = None
                self._active.discard(message)
                self.delivered += 1
                if message.group is not None:
                    verdict = message.group.read_reply(message.dst.name, reply)
                    if verdict is not None:
                        self._again(message, verdict, past=message.dst.name)
                        continue
                message.on_reply(reply)
            if waiting:
                self._pump()

        def on_error(reason: str) -> None:
            self._release(exchange)
            waiting = [m for m in members if m.exchange is exchange]
            if not waiting:
                return
            # A failure *during* transmit (Link.fail_inflight) surfaces
            # here before the link's transition listeners run, so the
            # memoized route may still point at the dead link — drop it
            # or the pump below re-dispatches straight into the outage.
            self._route_cache = {}
            for message in waiting:
                if message.exchange is exchange:  # not failed with a sibling
                    self._attempt_failed(message, reason)
            self._pump()

        if not coalesced:
            route.send(head.dst, head.service, head.body, on_reply, on_error, on_accepted)
            return
        self.batches_sent += 1
        self.batch_members += len(members)
        body = batch_request([(message.service, message.body) for message in members])
        if head.trace is not None:
            body[TRACE_KEY] = list(head.trace)
        route.send(head.dst, BATCH_SERVICE, body, on_reply, on_error, on_accepted)

    def _attempt_failed(self, message: QueuedMessage, reason: str) -> None:
        """Back off and retry ``message``, or fail it for good once its
        attempts are spent.

        To a plain host the retry waits out its own backoff.  A member
        of a replicated destination that does not answer is not asked
        again: the destination is told (``advance_past``), every attempt
        still outstanding to that member ends with this one, and the
        destination rests one backoff while the messages stand in the
        queue under the ``seq`` they have — ``(priority, seq)`` is the
        order the next member sees, as the first one would have.  Its
        attempts spent, such a message goes :meth:`_again` (``failed`` counts it).
        """
        message.exchange = None
        group = message.group
        if group is not None:
            rest = self._backoff_delay(message.attempts)
            group.advance_past(message.dst.name)
            self._rest(group, message.dst, rest)
        if message.attempts >= self.max_attempts:
            message.state = "done"
            self._active.discard(message)
            self.failed += 1
            if group is None:
                message.on_failed(reason)
            else:
                self._again(message, reason)
        elif group is not None:
            self._note_retry(message, rest, reason)
            self._back_in_line(message)
        else:
            message.state = "queued"
            backoff = self._backoff_delay(message.attempts)
            self._note_retry(message, backoff, reason)
            self.sim.schedule(backoff, self._requeue, message)

    def _again(self, message: QueuedMessage, why: str, past: Optional[str] = None) -> None:
        """Send ``message`` again, fresh attempts, from its place in line:
        0.05 s on if its destination ``MOVED``; else spend a round (a backoff,
        rotated on from ``past``) -- or, one round too many, fail for ``why``."""
        group, rest = message.group, 0.05
        if why != MOVED:
            message.rounds += 1
            if message.rounds > group.max_rounds:
                message.on_failed(why)
                return
            if past == group.current_host.name:
                group.rotate()
            rest = self._backoff_delay(message.rounds)
        self.obs.registry.counter(
            "qrpc_failovers_total",
            "QRPCs sent again on a replica-group member's word (or silence)",
            labelnames=("host",),
        ).labels(host=self.host.name).inc()
        message.attempts = 0
        self._active.add(message)
        self._back_in_line(message)
        self._rest(group, message.dst, rest)

    def _requeue(self, message: QueuedMessage) -> None:
        if message.state != "queued":
            return
        message.last_queued_at = self.sim.now
        self._push(message)
        self._pump()

    def _back_in_line(self, message: QueuedMessage) -> None:
        """Queue ``message`` again where its ``seq`` puts it; the end of
        its destination's rest pumps."""
        message.state = "queued"
        message.last_queued_at = self.sim.now
        self._push(message)

    def _rest(self, group: Any, member: Host, rest: float) -> None:
        """``member`` of ``group`` was no use: the attempts outstanding to
        it are withdrawn (a late outcome of their exchange no longer
        concerns them), and nothing goes to ``group`` for ``rest``
        seconds — what is queued for it waits, other destinations drain
        around it."""
        # In seq order: ``_active`` iterates in per-process hash order.
        for message in sorted(self._active, key=attrgetter("seq")):
            exchange = message.exchange
            if exchange is None or message.group is not group or message.dst is not member:
                continue
            message.exchange = None
            if not any(m.exchange is exchange and m.state == "inflight" for m in exchange.members):
                # Nobody is left waiting on the exchange: free its slot
                # now rather than when (if ever) its outcome arrives.
                self._release(exchange)
            self._back_in_line(message)
        until = self.sim.now + rest
        if until > self._resting.get(group, -1.0):
            self._resting[group] = until
            self.sim.schedule(rest, self._rested, group, until)

    def _rested(self, group: Any, until: float) -> None:
        if self._resting.get(group) == until:  # not extended since
            del self._resting[group]
            self._route_cache = {}  # what waited out the rest stands in line again
            self._pump()
