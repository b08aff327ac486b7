"""The client-side access manager.

Applications talk to Rover exclusively through this object (section 5.1:
Tcl/Tk applications link a library that "provides functions for
communicating with the Rover access manager").  It glues together the
object cache, the stable operation log, the network scheduler, and the
notification center.  Its entry points live with their kind of object:

* :mod:`repro.core.imports` — ``import_`` (non-blocking; a cache hit
  resolves immediately, a miss logs a QRPC and returns a promise),
  ``prefetch`` and ``load``;
* :mod:`repro.core.exports` — ``invoke`` on the *cached* copy (the fast
  path that motivates RDOs; a mutating method marks the copy tentative
  and queues an export) and ``export``, whose commit, server-side
  resolution and conflict outcomes surface through the returned promise
  and the notification center;
* :mod:`repro.core.calls` — ``invoke_remote``, ``ship``, locks, listing,
  invalidation callbacks and telemetry: one promise per QRPC.

This module is the door they share: :data:`OPERATIONS` says what each
operation is (its service, its wire body, the side that decodes and
applies its answer), and :class:`AccessManager` logs, submits and
settles every QRPC by its row (refusing, in one place, a reply its side
cannot decode), keeps the hook lists
the optional stages hang on, and resubmits the log after a crash
(:meth:`~AccessManager.recover`).

Every QRPC is logged first and handed to the scheduler only once
:mod:`repro.core.operation_log` says its record is durable; when the
flush happens, its cost in virtual time and the account of it
(:attr:`flush_seconds_total`, what experiment E2 measures) are the log's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.core.calls import CallAPI
from repro.core.conflict import ConflictReport
from repro.core.exports import ExportAPI, ExportSide
from repro.core.imports import ImportAPI, ImportSide
from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN, make_request_id
from repro.core.notification import EventType, NotificationCenter
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.promise import Promise
from repro.core.qrpc import REFUSAL, AccessManagerError, Operation, QRPCRequest, reply_field
from repro.core.rdo import ExecutionCostModel
from repro.core.session import Session, SessionRegistry
from repro.net.message import Premarshalled
from repro.net.scheduler import NetworkScheduler, Priority
from repro.net.simnet import Host
from repro.obs import Observatory
from repro.obs.trace import TRACE_KEY, RequestTracing
from repro.perf.compact import QueueCompaction
from repro.perf.delta import DeltaShipping
from repro.sim import Simulator
from repro.storage.stable_log import GroupCommitPolicy


@dataclass(frozen=True, slots=True)
class OperationRow:
    """What one :class:`Operation` is to the client."""

    #: The service it calls.
    service: str
    #: The manager's attribute that decodes an answer (``decode(request,
    #: reply)``: pure, raises on a reply it cannot use, names a refusal
    #: :data:`~repro.core.qrpc.REFUSAL`), applies it (``apply(request,
    #: reply, decoded)``) and delivers a refusal (``refuse(request, reason)``).
    side: str
    #: Whether the wire body names the URN (ship and telemetry go to an
    #: authority, not to an object).
    urn_on_wire: bool = True
    #: What a call's promise resolves with on an ``ok`` reply: the
    #: reply, or ``value(reply)`` (decoded: it may refuse the reply).
    value: Optional[Callable[[dict], Any]] = None
    #: The reply statuses whose ``version`` the request's session wrote.
    writes: tuple[str, ...] = ()
    #: ``str(operation)``, made once: every request's notifications name
    #: their operation by this one string (``str()`` copies per call).
    label: str = ""


#: One row per operation; the manager reads the row wherever two
#: operations differ.
OPERATIONS: dict[Operation, OperationRow] = {
    operation: replace(row, label=str(operation))
    for operation, row in {
        Operation.IMPORT: OperationRow("rover.import", "_imports"),
        Operation.EXPORT: OperationRow(
            "rover.export", "_exports", writes=("committed", "resolved")
        ),
        Operation.INVOKE: OperationRow(
            "rover.invoke", "_calls", value=lambda reply: reply.get("result"), writes=("ok",)
        ),
        Operation.SHIP: OperationRow(
            "rover.ship", "_calls", urn_on_wire=False, value=lambda reply: reply.get("result")
        ),
        Operation.LIST: OperationRow(
            "rover.list", "_calls", value=lambda reply: reply_field(reply, "urns", list)
        ),
        Operation.SUBSCRIBE: OperationRow("rover.subscribe", "_calls", value=lambda reply: True),
        Operation.LOCK: OperationRow("rover.lock", "_calls"),
        Operation.UNLOCK: OperationRow("rover.unlock", "_calls"),
        Operation.TELEMETRY: OperationRow("rover.telemetry", "_calls", urn_on_wire=False),
    }.items()
}


class CallSide:
    """Every operation but import and export: one promise per request,
    settled by its reply."""

    __slots__ = ("manager", "promises")

    def __init__(self, manager: "AccessManager") -> None:
        self.manager = manager
        #: request_id -> the promise its reply settles
        self.promises: dict[str, Promise] = {}

    def queue(
        self,
        operation: Operation,
        urn: str,
        args: dict,
        session: Optional[Session],
        priority: Priority,
        label: str,
    ) -> Promise:
        manager = self.manager
        request = manager._new_request(operation, urn, args, session, priority)
        promise = Promise(label=label)
        self.promises[request.request_id] = promise
        manager._log_and_submit(request)
        return promise

    def refuse(self, request: QRPCRequest, reason: str) -> None:
        promise = self.promises.pop(request.request_id, None)
        if promise is not None:
            promise.reject(reason)

    def decode(self, request: QRPCRequest, reply: dict) -> Any:
        """What an ``ok`` reply resolves the promise with; a version (an
        invoke's: a session write) must be an integer."""
        version = reply.get("version")  # inline, not reply_field: no call per invoke
        if version is not None and type(version) is not int:
            raise TypeError(f"version={version!r:.60}")
        if reply["status"] != "ok":
            return REFUSAL
        value = OPERATIONS[request.operation].value
        return reply if value is None else value(reply)

    def apply(self, request: QRPCRequest, reply: dict, value: Any) -> None:
        # No promise: the call was queued by an incarnation that has
        # since crashed, and nobody is left to tell.
        promise = self.promises.pop(request.request_id, None)
        if promise is not None:
            promise.resolve(value)


class AccessManager(ImportAPI, ExportAPI, CallAPI):
    """Rover toolkit entry point for one client host.

    The operation log is fixed at construction — it keeps the disk's
    clock and an open flush window, so it cannot be swapped under a live
    manager: build the stack over the backend you want
    (``build_testbed(stable_backend=...)``).

    Slotted: with this many attributes a manager would otherwise keep a
    dict of its own, the largest thing an idle client holds.
    """

    __slots__ = (
        "sim", "scheduler", "host", "incarnation", "_crashed", "obs",
        "_m_qrpc_latency", "_latency_children", "_m_qrpc_failed", "servers",
        "cache", "log", "group_commit", "notifications", "cost_model",
        "auth_token", "_invalidation_bound", "interpreter", "sessions",
        "_request_counter", "_id_prefix", "_conflict_handlers",
        "local_invokes", "local_invoke_seconds_total", "remote_invokes",
        "_imports", "_exports", "_calls", "_messages", "_answered", "_given_up",
        "compaction", "delta_shipping", "on_submit", "on_wire", "on_reply",
        "on_durable", "on_settled", "on_queued", "on_applied", "_watched_links",
    )

    def __init__(
        self,
        sim: Simulator,
        scheduler: NetworkScheduler,
        servers: dict[str, Host],
        cache: Optional[ObjectCache] = None,
        log: Optional[OperationLog] = None,
        notifications: Optional[NotificationCenter] = None,
        auth_token: str = "",
        group_commit: Optional[GroupCommitPolicy] = None,
        obs: Optional[Observatory] = None,
        incarnation: int = 0,
        compaction: bool = False,
        delta_shipping: bool = False,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.host = scheduler.host
        #: Which life of this client process we are (bumped by
        #: crash-recovery); qualifies request ids so a recovered
        #: client's fresh requests never collide with a dead
        #: incarnation's.
        self.incarnation = incarnation
        #: Set by chaos crash-recovery on the *old* manager: scheduled
        #: submissions belonging to the dead process must not fire.
        self._crashed = False
        #: Observability: defaults to the scheduler's observatory so a
        #: hand-wired stack shares one registry/tracer per client.
        self.obs = obs if obs is not None else scheduler.obs
        self._m_qrpc_latency = self.obs.registry.histogram(
            "qrpc_latency_seconds",
            "Queued-request round trip, logging through reply delivery",
            labelnames=("host", "op"),
        )
        #: operation -> its ``_m_qrpc_latency`` child, bound on first use
        self._latency_children: dict[Operation, Any] = {}
        self._m_qrpc_failed = self.obs.registry.counter(
            "qrpc_failed_total",
            "QRPCs that exhausted retransmission",
            labelnames=("host", "op"),
        )
        #: authority name -> home-server Host
        self.servers = dict(servers)
        self.cache = cache if cache is not None else ObjectCache(clock=lambda: sim.now)
        self.log = log if log is not None else OperationLog()
        #: Group commit (see :meth:`OperationLog.append`): the log's to
        #: apply; kept for crash recovery to hand to the reborn manager.
        self.group_commit = group_commit
        self.log.keep_time(sim, group_commit)
        self.notifications = notifications or NotificationCenter()
        self.cost_model = ExecutionCostModel()
        #: Credential presented with every QRPC (see RoverServer.auth_tokens).
        self.auth_token = auth_token
        self._invalidation_bound = False
        self.interpreter = SafeInterpreter(step_budget=200_000)
        self.sessions = SessionRegistry(self.host.name)
        self._request_counter = 0
        #: What every request id of this incarnation starts with; the
        #: ack watermark names it on each wire body.
        self._id_prefix = make_request_id(self.host.name, 0, incarnation).rpartition("/")[0]
        self._conflict_handlers: list[Callable[[ConflictReport], None]] = []
        self.local_invokes = 0
        self.local_invoke_seconds_total = 0.0
        self.remote_invokes = 0
        #: What is outstanding, by kind of object (the ``side`` of each
        #: row of :data:`OPERATIONS`).
        self._imports = ImportSide(self)
        self._exports = ExportSide(self)
        self._calls = CallSide(self)
        #: request_id -> scheduler message of every QRPC's current
        #: attempt (none until the log says its record is durable).
        self._messages: dict[str, Any] = {}
        #: The scheduler's two callbacks for every message, bound once:
        #: each message carries its request as the callbacks' context.
        self._answered = self._on_reply
        self._given_up = self._on_failed
        #: Shipping optimizations (repro.perf); both default off so the
        #: baseline QRPC path is byte-for-byte the paper's.  Kept for
        #: crash recovery to hand to the reborn manager.
        self.compaction = compaction
        self.delta_shipping = delta_shipping
        #: The seam: a hook list at each of the seven points where a
        #: request changes hands; an empty list costs a request nothing.
        #: A *stage* (an optional feature) appends to them, and asks the
        #: rest of the services under "what a stage may ask" below.
        #: ``on_submit(request)``: new, not yet logged; args may be amended.
        self.on_submit: list[Callable[[QRPCRequest], None]] = []
        #: ``on_wire(request, body)``: a wire body being built — after the
        #: credentials, before the ack watermark (key order is wire
        #: bytes); the body may be edited.
        self.on_wire: list[Callable[[QRPCRequest, dict], None]] = []
        #: ``on_reply(request, reply)``, of a pending request.  True means
        #: "not the answer; I have seen to the request": it stays
        #: pending, nothing else sees the reply.
        self.on_reply: list[Callable[[QRPCRequest, Any], bool]] = []
        #: ``on_durable(request, durable_at)``: the log's flush covering
        #: the request completes at ``durable_at``; the scheduler gets it then.
        self.on_durable: list[Callable[[QRPCRequest, float], None]] = []
        #: ``on_settled(request, status)``: the request is over, "ok" (a
        #: reply — its own or its absorber's — is about to be applied) or
        #: "failed" (for good).
        self.on_settled: list[Callable[[QRPCRequest, str], None]] = []
        #: ``on_queued(urn, request)``: ``urn``'s backlog changed —
        #: ``request`` was logged (its flush may still be in progress) or,
        #: None, its queued export round is owed a follow-up round.
        self.on_queued: list[Callable[[str, Optional[QRPCRequest]], None]] = []
        #: ``on_applied(request, reply, failed)``: the outcome has been
        #: applied and the request's observers told — ``reply`` (a dict)
        #: if ``failed`` is None, else the reason it failed for good.
        self.on_applied: list[Callable[[QRPCRequest, dict, Optional[str]], None]] = []
        if delta_shipping:
            DeltaShipping(self)
        if compaction:
            QueueCompaction(self)
        if self.obs.tracer.enabled:
            RequestTracing(self)
        self._watched_links: set[str] = set()
        self.watch_new_links()

    # -- sessions -------------------------------------------------------------

    def create_session(
        self,
        name: Optional[str] = None,
        accept_tentative: bool = True,
        require_guarantees: bool = True,
    ) -> Session:
        """Open an application session (carries Bayou-style guarantees)."""
        return self.sessions.create(name, accept_tentative, require_guarantees)

    def on_conflict(self, handler: Callable[[ConflictReport], None]) -> None:
        """Register an application-level conflict handler (manual repair UI)."""
        self._conflict_handlers.append(handler)

    # -- queue state ----------------------------------------------------------

    def pending_count(self) -> int:
        return self.log.pending_count()

    def drain(self, timeout: float = 1e9) -> bool:
        """Run the simulator until every queued QRPC is answered."""
        return self.sim.run_until(lambda: self.log.pending_count() == 0, timeout=timeout)

    # -- crash recovery ----------------------------------------------------------

    def recover(self) -> list[str]:
        """Resubmit every logged-but-unanswered QRPC (post-crash restart).

        Promises from before the crash are gone (they lived in the old
        process); responses still update the cache and the notification
        center, and applications re-register interest by importing
        again — cache hits make that cheap.
        """
        resubmitted = []
        for request in self.log.pending():
            if "have_version" in request.args:
                # A delta-shipping import: the cache died with the old
                # process, so the delta base the logged request refers
                # to is gone: re-import full rather than bouncing off a
                # guaranteed refusal.
                request.args = {
                    key: value
                    for key, value in request.args.items()
                    if key != "have_version"
                }
            self._submit(request)
            resubmitted.append(request.request_id)
        return resubmitted

    # -- internals -----------------------------------------------------------

    def _new_request(
        self,
        operation: Operation,
        urn: str,
        args: dict,
        session: Optional[Session],
        priority: Priority,
    ) -> QRPCRequest:
        request_id = make_request_id(
            self.host.name, self._request_counter, self.incarnation
        )
        self._request_counter += 1
        return QRPCRequest(
            request_id=request_id,
            session_id=session.session_id if session is not None else "",
            operation=operation,
            urn=urn,
            args=args,
            priority=priority,
            created_at=self.sim.now,
        )

    def _server_for(self, urn: str) -> Any:
        """The authority's home server: a host, or a replicated
        destination (a ``ReplicaSet``) whose member the scheduler names
        per attempt."""
        authority = URN.parse(urn).authority
        server = self.servers.get(authority)
        if server is None:
            raise AccessManagerError(f"no home server for authority {authority!r}")
        return server

    def _log_and_submit(self, request: QRPCRequest) -> None:
        for hook in self.on_submit:
            hook(request)
        self.notifications.publish(
            EventType.REQUEST_QUEUED,
            self.sim.now,
            request_id=request.request_id,
            operation=OPERATIONS[request.operation].label,
            urn=request.urn,
        )
        # Durable first, the scheduler after: the log says when.
        self.log.append(request, self._durable)
        for hook in self.on_queued:
            hook(request.urn, request)

    def _durable(self, request: QRPCRequest, durable_at: float) -> None:
        """The log's word that ``request``'s record is on its way to the
        disk and safe at ``durable_at``: submit it then."""
        for hook in self.on_durable:
            hook(request, durable_at)
        self.sim.schedule(durable_at - self.sim.now, self._submit, request)

    @property
    def flush_seconds_total(self) -> float:
        """Virtual disk time the log has spent flushing (E2's quantity)."""
        return self.log.flush_seconds_total

    def _wire_body(self, request: QRPCRequest) -> Premarshalled:
        """Build the on-wire body for a request, marshalled exactly once."""
        body = dict(request.args)
        if OPERATIONS[request.operation].urn_on_wire:
            body["urn"] = request.urn
        body["request_id"] = request.request_id
        if request.session_id:
            body["session"] = request.session_id
        if self.auth_token:
            body["auth"] = self.auth_token
        for hook in self.on_wire:
            hook(request, body)
        ackw = self._ack_watermark()
        if ackw is not None:
            body["ackw"] = ackw
        if request.trace_id:
            body[TRACE_KEY] = [request.trace_id, request.span_id]
        return Premarshalled(body)

    def _ack_watermark(self) -> Optional[list]:
        """``[id_prefix, counter]``: all lower counters are settled.

        Piggybacked on every wire body so the server can prune its
        at-most-once applied-reply cache exactly (the LRU cap is only
        the backstop for clients that never speak again).
        """
        prefix = self._id_prefix
        floor = self._request_counter
        oldest = self.log.first_pending_id(prefix + "/")  # the lowest pending
        if oldest is not None:
            floor = min(floor, int(oldest[len(prefix) + 1:]))
        return [prefix, floor]

    def _submit(self, request: QRPCRequest) -> None:
        if self._crashed:
            return  # a dead incarnation's log flush completing
        if self.log.get(request.request_id) is None:
            return  # compacted away between the log flush and now
        row = OPERATIONS[request.operation]
        message = self.scheduler.submit(
            self._server_for(request.urn),
            row.service,
            self._wire_body(request),
            priority=request.priority,
            on_reply=self._answered,
            on_failed=self._given_up,
            context=request,
        )
        self._messages[request.request_id] = message
        self.notifications.publish(
            EventType.REQUEST_SENT,
            self.sim.now,
            request_id=request.request_id,
            operation=row.label,
        )

    def _on_reply(self, request: QRPCRequest, reply: Any) -> None:
        if self.log.get(request.request_id) is None:
            return  # duplicate response (at-most-once application)
        for hook in self.on_reply:
            if hook(request, reply):
                return
        self.log.acknowledge(request.request_id)
        self._messages.pop(request.request_id, None)
        latency = self._latency_children.get(request.operation)
        if latency is None:
            latency = self._latency_children[request.operation] = self._m_qrpc_latency.labels(
                host=self.host.name, op=OPERATIONS[request.operation].label
            )
        latency.observe(self.sim.now - request.created_at)
        self.settle(request, reply if isinstance(reply, dict) else {})

    def _on_failed(self, request: QRPCRequest, reason: str) -> None:
        """``request`` failed for good: out of the log, its observers told."""
        self._m_qrpc_failed.labels(
            host=self.host.name, op=OPERATIONS[request.operation].label
        ).inc()
        self.log.mark_failed(request.request_id)
        self._messages.pop(request.request_id, None)
        self.reject(request, reason)

    # -- what a stage may ask of the manager -----------------------------------

    def backlog(self, urn: Optional[str] = None) -> list[QRPCRequest]:
        """The pending requests for ``urn`` (None: for every object) in
        queue order; a crashed manager has none that are its to touch."""
        if self._crashed:
            return []
        return self.log.pending() if urn is None else self.log.pending_for(urn)

    def attempt(self, request: QRPCRequest) -> Any:
        """The scheduler message of ``request``'s current attempt (None
        while the log's flush is in progress: certainly never sent)."""
        return self._messages.get(request.request_id)

    def end_attempt(self, request: QRPCRequest) -> Any:
        """The current attempt is over (answered, but not with the
        answer; or failed): forget its scheduler message and return it
        (None when the scheduler was never handed the request)."""
        return self._messages.pop(request.request_id, None)

    def resubmit(self, request: QRPCRequest, delay: float) -> None:
        """Hand ``request`` to the scheduler anew, with a wire body
        built then, ``delay`` s from now."""
        self.sim.schedule(delay, self._submit, request)

    def reject(self, request: QRPCRequest, reason: str) -> None:
        """Tell the observers of ``request`` — out of the log already —
        that it failed for good."""
        for hook in self.on_settled:
            hook(request, "failed")
        self.notifications.publish(
            EventType.REQUEST_FAILED,
            self.sim.now,
            request_id=request.request_id,
            reason=reason,
        )
        getattr(self, OPERATIONS[request.operation].side).refuse(request, reason)
        for hook in self.on_applied:
            hook(request, {}, reason)

    def settle(self, request: QRPCRequest, reply: dict) -> None:
        """``request`` — out of the log already — is answered with
        ``reply``: its own, or if it never crossed the wire the reply to
        the request that absorbed it.  Its side decodes it first,
        changing nothing: a reply that does not decode (no text status, a
        field missing or mistyped, an object or a report the decoder
        refuses) is refused instead, unapplied and counted."""
        if self._crashed:
            return
        row = OPERATIONS[request.operation]
        side = getattr(self, row.side)
        status = reply.get("status")
        try:
            if type(status) is not str:
                raise TypeError(f"status={status!r:.60}")
            decoded = side.decode(request, reply)
        except (KeyError, TypeError, ValueError) as malformed:
            # Registered at the first: a manager that never refuses a
            # reply holds no family for it.
            self.obs.registry.counter(
                "qrpc_replies_refused_total",
                "Replies refused unapplied: malformed, or an imported object that did not decode",
                labelnames=("host", "op"),
            ).labels(host=self.host.name, op=row.label).inc()
            self.reject(request, f"malformed-reply: {type(malformed).__name__}: {malformed}")
            return
        for hook in self.on_settled:
            hook(request, "ok")
        self.notifications.publish(
            EventType.RESPONSE_ARRIVED,
            self.sim.now,
            request_id=request.request_id,
            operation=row.label,
            status=status,
        )
        # The request names its session, so whatever brought the reply
        # here — first submit, a stage's resubmit, the request that
        # absorbed this one — the guarantees are kept (a recovered
        # incarnation's registry is empty: no session to tell).
        if status in row.writes and request.session_id:
            session = self.sessions.get(request.session_id)
            if session is not None and reply.get("version") is not None:
                session.record_write(request.urn, reply["version"])
        if decoded is REFUSAL:  # the server's text, for an ``error``
            side.refuse(request, str(reply.get("error", status)) if status == "error" else status)
        else:
            side.apply(request, reply, decoded)
        for hook in self.on_applied:
            hook(request, reply, None)

    def reword(self, request: QRPCRequest, args: dict) -> None:
        """``request`` carries ``args`` from now on, and so does its
        message if the scheduler still holds it unsent.  (The log record
        is the caller's to rewrite: :meth:`OperationLog.compact`.)"""
        request.args = args
        message = self._messages.get(request.request_id)
        if message is not None and message.state == "queued":
            message.body = self._wire_body(request)

    def fold_followup(self, request: QRPCRequest) -> Optional[dict]:
        """``request`` is an export round the caller knows was never
        sent.  If a follow-up round is owed, this one can carry the
        *current* snapshot instead and the follow-up, with its whole
        trip over the slow link, disappears: its promises ride on this
        round, whose new args are returned (None: nothing owed, or the
        object has left the cache)."""
        return self._exports.fold(request)

    def watch_new_links(self) -> None:
        """Subscribe to the host's links; call again after links were
        attached post-construction."""
        for link in self.host.links:
            if link.name in self._watched_links:
                continue
            self._watched_links.add(link.name)
            link.on_transition(self._on_link_transition)

    def _on_link_transition(self, link: Any, is_up: bool) -> None:
        self.notifications.publish(
            EventType.CONNECTIVITY_CHANGED,
            self.sim.now,
            link=link.name,
            up=is_up,
        )
