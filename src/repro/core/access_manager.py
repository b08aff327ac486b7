"""The client-side access manager.

Applications talk to Rover exclusively through this object (section 5.1:
Tcl/Tk applications link a library that "provides functions for
communicating with the Rover access manager").  It glues together the
object cache, the stable operation log, the network scheduler, and the
notification center:

* :meth:`import_` — non-blocking import; a cache hit resolves
  immediately, a miss logs a QRPC and returns a promise;
* :meth:`invoke` — invoke a method on the *cached* copy (the fast path
  that motivates RDOs); mutating methods mark the copy tentative and
  automatically queue an export;
* :meth:`export` — push a tentative copy to its home server; commit,
  server-side resolution, and conflict outcomes all surface through
  the returned promise and the notification center;
* :meth:`invoke_remote` / :meth:`ship` — function shipping toward the
  server;
* :meth:`recover` — after a crash, re-submit every logged QRPC.

Every QRPC is logged first and handed to the scheduler only once
:mod:`repro.core.operation_log` says its record is durable; when the
flush happens, its cost in virtual time and the account of it
(:attr:`flush_seconds_total`, what experiment E2 measures) are the log's.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.conflict import ConflictReport
from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN, make_request_id
from repro.core.notification import EventType, NotificationCenter
from repro.core.object_cache import CacheStatus, ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.promise import Promise
from repro.core.qrpc import Operation, QRPCRequest
from repro.core.rdo import RDO, ExecutionCostModel, RDOVerificationError
from repro.core.session import Session, SessionRegistry
from repro.net.message import Premarshalled, marshal, unmarshal
from repro.net.scheduler import NetworkScheduler, Priority
from repro.net.simnet import Host
from repro.obs import Observatory
from repro.obs.trace import TRACE_KEY, RequestTracing
from repro.perf.compact import Compactor, QueueCompaction
from repro.perf.delta import DeltaShipping, rebuild_import
from repro.sim import Simulator
from repro.storage.stable_log import GroupCommitPolicy


class AccessManagerError(Exception):
    """Client-side toolkit misuse."""


class AccessManager:
    """Rover toolkit entry point for one client host.

    The operation log is fixed at construction — it keeps the disk's
    clock and an open flush window, so it cannot be swapped under a live
    manager: build the stack over the backend you want
    (``build_testbed(stable_backend=...)``).
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler: NetworkScheduler,
        servers: dict[str, Host],
        cache: Optional[ObjectCache] = None,
        log: Optional[OperationLog] = None,
        notifications: Optional[NotificationCenter] = None,
        cost_model: Optional[ExecutionCostModel] = None,
        step_budget: int = 200_000,
        auth_token: str = "",
        group_commit: Optional[GroupCommitPolicy] = None,
        obs: Optional[Observatory] = None,
        incarnation: int = 0,
        compactor: Optional[Compactor] = None,
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
        self.cost_model = cost_model or ExecutionCostModel()
        #: Credential presented with every QRPC (see RoverServer.auth_tokens).
        self.auth_token = auth_token
        self._invalidation_bound = False
        self.interpreter = SafeInterpreter(step_budget=step_budget)
        self.sessions = SessionRegistry(self.host.name)
        self._request_counter = 0
        #: What every request id of this incarnation starts with; the
        #: ack watermark names it on each wire body.
        self._id_prefix = make_request_id(self.host.name, 0, incarnation).rpartition("/")[0]
        self._promises: dict[str, Promise] = {}
        self._conflict_handlers: list[Callable[[ConflictReport], None]] = []
        self.local_invokes = 0
        self.local_invoke_seconds_total = 0.0
        self.remote_invokes = 0
        #: per-URN export pipeline: at most one export in flight per
        #: object; later mutations coalesce into the next round.
        self._exports: dict[str, dict] = {}
        #: per-URN outstanding imports: duplicate imports attach to the
        #: in-flight request instead of consuming the channel twice; a
        #: foreground request for a background-prefetched page upgrades
        #: the queued message's priority (the paper's outstanding-
        #: requests list).
        self._imports: dict[str, dict] = {}
        #: request_id -> scheduler message of every QRPC's current
        #: attempt (none until the log says its record is durable).
        self._messages: dict[str, Any] = {}
        #: Shipping optimizations (repro.perf); both default off so the
        #: baseline QRPC path is byte-for-byte the paper's.  Kept for
        #: crash recovery to hand to the reborn manager.
        self.compactor = compactor
        self.delta_shipping = delta_shipping
        #: The seam: a hook list at each of the eight points where a
        #: request changes hands; an empty list costs a request nothing.
        #: A *stage* (an optional feature) appends to them, and asks the
        #: rest of the services under "what a stage may ask" below.
        #: ``on_submit(request)``: new, not yet logged; args may be amended.
        self.on_submit: list[Callable[[QRPCRequest], None]] = []
        #: ``on_wire(request, body)``: a wire body being built — after the
        #: credentials, before the ack watermark (key order is wire
        #: bytes); the body may be edited.
        self.on_wire: list[Callable[[QRPCRequest, dict], None]] = []
        #: ``on_reply(request, reply)`` / ``on_failed(request, reason)``,
        #: of a pending request.  True means "not the answer; I have seen
        #: to the request": it stays pending, nothing else sees the event.
        self.on_reply: list[Callable[[QRPCRequest, Any], bool]] = []
        self.on_failed: list[Callable[[QRPCRequest, str], bool]] = []
        #: ``on_durable(request, durable_at)``: the log's flush covering
        #: the request completes at ``durable_at``; the scheduler gets it then.
        self.on_durable: list[Callable[[QRPCRequest, float], None]] = []
        #: ``on_settled(request, status)``: the request is over, "ok" (a
        #: reply — its own, a synthetic one, its absorber's — is about to
        #: be applied) or "failed" (for good).
        self.on_settled: list[Callable[[QRPCRequest, str], None]] = []
        #: ``on_queued(urn, request)``: ``urn``'s backlog changed —
        #: ``request`` was logged (its flush may still be in progress) or,
        #: None, its queued export round is owed a follow-up round.
        self.on_queued: list[Callable[[str, Optional[QRPCRequest]], None]] = []
        #: ``on_applied(request, reply, failed)``: the outcome has been
        #: applied and the request's observers told — ``reply`` (a dict)
        #: if ``failed`` is None, else the reason it failed for good.
        self.on_applied: list[Callable[[QRPCRequest, dict, Optional[str]], None]] = []
        # A replicated authority installs its own stage (repro.ha), ahead
        # of any other: a fence must never be read as an answer.
        for server in self.servers.values():
            client_stage = getattr(server, "client_stage", None)
            if client_stage is not None:
                client_stage(self)
        if delta_shipping:
            DeltaShipping(self)
        if compactor is not None:
            QueueCompaction(self, compactor)
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

    # -- import ---------------------------------------------------------------

    def import_(
        self,
        urn: URN | str,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
        callback: Optional[Callable[[RDO], None]] = None,
        refresh: bool = False,
        max_age_s: Optional[float] = None,
    ) -> Promise:
        """Import an object; returns a promise for the local RDO copy.

        A cache hit (committed, or tentative if the session accepts
        tentative data) resolves the promise immediately without any
        network traffic.  A miss appends a QRPC to the stable log and
        returns; the promise resolves when the response arrives —
        possibly much later, after reconnection.

        ``max_age_s`` bounds staleness: a committed cache hit older
        than this re-imports from the server (the paper's "periodic
        polling" freshness option).  Tentative copies are always
        served — local updates are newer than anything the server has.
        """
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        self._server_for(urn_str)  # fail fast on unknown authorities
        promise = Promise(label=f"import {urn_str}")
        if callback is not None:
            promise.then(callback)

        if not refresh:
            entry = self.cache.lookup(urn_str)
            if entry is not None:
                tentative_ok = session is None or session.accept_tentative
                fresh_enough = (
                    entry.tentative
                    or max_age_s is None
                    or (self.sim.now - entry.inserted_at) <= max_age_s
                )
                if (not entry.tentative or tentative_ok) and fresh_enough:
                    if session is not None:
                        session.record_read(urn_str, entry.rdo.version)
                    self.sim.schedule(0.0, promise.resolve, entry.rdo)
                    return promise

        pending = self._imports.get(urn_str)
        if pending is not None:
            # An import for this object is already outstanding: attach,
            # and upgrade its priority if this caller is more urgent
            # (a clicked page overtaking its own prefetch).
            pending["waiters"].append((promise, session))
            message = pending.get("message")
            if message is not None:
                if priority < message.priority:
                    self.scheduler.reprioritize(message, priority)
            elif priority < pending["request"].priority:
                # Not yet handed to the scheduler (log flush pending):
                # upgrade the request so it is submitted urgent.
                pending["request"].priority = priority
            return promise

        request = self._new_request(
            Operation.IMPORT,
            urn_str,
            args={},
            session=session,
            priority=priority,
        )
        self._imports[urn_str] = {"request": request, "waiters": [(promise, session)]}
        self._log_and_submit(request)
        return promise

    def prefetch(self, urns: list[URN | str], session: Optional[Session] = None) -> list[Promise]:
        """Queue background imports to warm the cache before disconnection."""
        return [
            self.import_(urn, session=session, priority=Priority.BACKGROUND)
            for urn in urns
        ]

    # -- local invocation -------------------------------------------------------

    def invoke(
        self,
        urn: URN | str,
        method: str,
        *args: Any,
        session: Optional[Session] = None,
    ) -> tuple[Any, float]:
        """Invoke a method on the cached copy of an object.

        Returns ``(result, virtual_seconds_charged)``.  If the method
        mutates, the cached copy becomes tentative and an export QRPC
        is queued automatically.  Raises :class:`AccessManagerError`
        when the object is not cached — import it first (the paper's
        check-out model).
        """
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        entry = self.cache.lookup(urn_str)
        if entry is None:
            raise AccessManagerError(f"{urn_str} not cached; import it first")
        result, steps = entry.rdo.invoke(self.interpreter, method, *args)
        cost = self.cost_model.invoke_time(steps)
        self.local_invokes += 1
        self.local_invoke_seconds_total += cost
        if entry.rdo.interface.mutates(method):
            self.cache.mark_tentative(urn_str)
            self.notifications.publish(
                EventType.TENTATIVE_CREATED, self.sim.now, urn=urn_str, method=method
            )
            self.export(urn_str, session=session)
        return result, cost

    # -- export ----------------------------------------------------------------

    def export(
        self,
        urn: URN | str,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue the tentative cached copy for commit at its home server.

        Exports are serialized per object: at most one is in flight at
        a time, and mutations made while one is outstanding coalesce
        into a single follow-up round (carrying the then-current state
        and the then-current base version).  This is what keeps a
        client's own sequential updates from colliding with each other
        at the server.
        """
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        entry = self.cache.peek(urn_str)
        if entry is None:
            raise AccessManagerError(f"{urn_str} not cached; nothing to export")
        state = self._exports.setdefault(
            urn_str,
            {"inflight": False, "dirty": False, "current": [], "queued": []},
        )
        promise = Promise(label=f"export {urn_str}")
        if state["inflight"]:
            state["dirty"] = True
            state["queued"].append(promise)
            for hook in self.on_queued:
                hook(urn_str, None)
            return promise
        state["current"].append(promise)
        self._start_export_round(urn_str, session, priority)
        return promise

    def _start_export_round(
        self, urn_str: str, session: Optional[Session], priority: Priority
    ) -> None:
        entry = self.cache.peek(urn_str)
        state = self._exports[urn_str]
        if entry is None:
            for promise in state["current"]:
                promise.reject("object evicted before export")
            state["current"] = []
            state["inflight"] = False
            return
        request = self._new_request(
            Operation.EXPORT,
            urn_str,
            args=self._export_args(entry),
            session=session,
            priority=priority,
        )
        state["inflight"] = True
        state["session"] = session
        state["priority"] = priority
        self._log_and_submit(request)

    @staticmethod
    def _export_args(entry: Any) -> dict:
        """Snapshot: an export carries exactly the state at the moment
        it is taken, not whatever the app mutates later."""
        return {
            "data": unmarshal(marshal(entry.rdo.data)),
            "base_version": entry.base_version,
        }

    # -- remote execution --------------------------------------------------------

    def invoke_remote(
        self,
        urn: URN | str,
        method: str,
        args: Optional[list] = None,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue a method invocation against the server's authoritative copy."""
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        promise = self._queue_call(
            Operation.INVOKE,
            urn_str,
            {"method": method, "args": args or []},
            session,
            priority,
            f"invoke {urn_str}.{method}",
        )
        self.remote_invokes += 1
        return promise

    def ship(
        self,
        authority: str,
        code: str,
        method: str = "main",
        args: Optional[list] = None,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
        verify: bool = True,
    ) -> Promise:
        """Ship an RDO to a server and run it there (one queued exchange).

        The code is statically verified *here*, at the author's desk,
        before it is logged or queued: a bad RDO surfaces as an
        immediate :class:`~repro.core.rdo.RDOVerificationError` with
        rule/line/col diagnostics instead of a rejection QRPC that
        arrives after the slow link delivers it.  ``verify=False`` is
        the escape hatch (the server then re-checks unless it too was
        built with verification off).
        """
        if authority not in self.servers:
            raise AccessManagerError(f"unknown authority {authority!r}")
        if verify:
            from repro.core.server import _ship_code_errors

            diagnostics = _ship_code_errors(code)
            if diagnostics:
                raise RDOVerificationError(f"ship to {authority}", diagnostics)
        return self._queue_call(
            Operation.SHIP,
            f"urn:rover:{authority}/__shipped__",
            {"code": code, "method": method, "args": args or []},
            session,
            priority,
            f"ship to {authority}",
        )

    # -- fleet telemetry ----------------------------------------------------------

    def telemetry(
        self,
        authority: str,
        report: dict,
        priority: Priority = Priority.BACKGROUND,
    ) -> Promise:
        """Queue a telemetry report toward ``authority``'s fleet aggregator.

        Telemetry dogfoods the toolkit (see :mod:`repro.obs.fleet`):
        the report is logged like any QRPC so it survives crashes and
        disconnection, drains at background priority so it never
        starves foreground traffic, and successive undelivered reports
        on the per-client telemetry URN fold into one through the
        compaction engine's ``TelemetryFold`` rule.
        """
        if authority not in self.servers:
            raise AccessManagerError(f"unknown authority {authority!r}")
        return self._queue_call(
            Operation.TELEMETRY,
            f"urn:rover:{authority}/__telemetry__",
            dict(report),
            None,
            priority,
            f"telemetry seq {report.get('q')}",
        )

    def add_compaction_rule(self, rule: Any) -> None:
        """Register an extra pair rule at runtime (e.g. the telemetry fold).

        The rule lands on :attr:`compactor` — the one object the
        compaction stage reads, and the one crash recovery hands to the
        reborn manager, so it survives client crashes; when compaction
        was off, the stage is installed on first use.
        """
        if self.compactor is None:
            self.compactor = Compactor()
            QueueCompaction(self, self.compactor)
        self.compactor.add_pair_rule(rule)

    # -- load: import + immediate invocation ------------------------------------

    def load(
        self,
        urn: URN | str,
        method: str,
        *args: Any,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Import an object and invoke a method on arrival.

        The paper: "The current implementation also has a load
        operation that is an import combined with a call to create a
        process."  The returned promise resolves with the method's
        result once the object has arrived and run locally.
        """
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        done = Promise(label=f"load {urn_str}.{method}")
        imported = self.import_(urn_str, session=session, priority=priority)

        def run(rdo: RDO) -> None:
            try:
                result, __ = self.invoke(urn_str, method, *args, session=session)
            except Exception as exc:
                done.reject(f"{type(exc).__name__}: {exc}")
                return
            done.resolve(result)

        imported.then(run)
        imported.on_failure(done.reject)
        return done

    # -- application-level locks --------------------------------------------------

    def acquire_lock(
        self,
        urn: URN | str,
        session: Session,
        lease_s: float = 300.0,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue a lock acquisition (check-out) for this session.

        Resolves with the grant reply, or rejects with ``locked`` when
        another session holds the lease.  While the lease is held,
        only this session's exports commit at the server.
        """
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        return self._queue_call(
            Operation.LOCK, urn_str, {"lease_s": lease_s}, session, priority, f"lock {urn_str}"
        )

    def release_lock(
        self,
        urn: URN | str,
        session: Session,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue the lock release (check-in)."""
        urn_str = str(urn if isinstance(urn, URN) else URN.parse(str(urn)))
        return self._queue_call(
            Operation.UNLOCK, urn_str, {}, session, priority, f"unlock {urn_str}"
        )

    # -- directory + invalidation callbacks -------------------------------------

    def list_objects(
        self,
        authority: str,
        prefix: str = "",
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue a directory listing: promise of URN strings under prefix.

        Used by hoard walking (:mod:`repro.core.hoard`) to discover
        the collection of objects to prefetch before disconnection.
        """
        if authority not in self.servers:
            raise AccessManagerError(f"unknown authority {authority!r}")
        return self._queue_call(
            Operation.LIST,
            f"urn:rover:{authority}/__list__",
            {"prefix": prefix or f"urn:rover:{authority}/"},
            None,
            priority,
            f"list {authority}/{prefix}",
        )

    def subscribe_invalidations(self, authority: str, prefix: str) -> Promise:
        """Register for server callbacks when objects under prefix change.

        The paper's alternative to periodic polling for narrowing the
        stale-import window.  Callbacks are best-effort: while the
        client is disconnected they are silently lost, and freshness
        falls back to polling (``import_(..., max_age_s=...)``).
        On receipt, a committed cached copy older than the advertised
        version is dropped (tentative copies are kept — local updates
        still need exporting) and OBJECT_INVALIDATED is published.
        Raises :class:`AccessManagerError` where the transport has no
        way to be pushed to (live sockets): polling is all there is.
        """
        if authority not in self.servers:
            raise AccessManagerError(f"unknown authority {authority!r}")
        try:
            self._ensure_invalidation_listener()
        except NotImplementedError as exc:
            raise AccessManagerError(f"{exc}; poll with import_(..., max_age_s=...)") from exc
        return self._queue_call(
            Operation.SUBSCRIBE,
            f"urn:rover:{authority}/__subscribe__",
            {"prefix": prefix},
            None,
            Priority.DEFAULT,
            f"subscribe {prefix}",
        )

    def _ensure_invalidation_listener(self) -> None:
        from repro.core.server import INVALIDATION_PORT

        if self._invalidation_bound:
            return

        def on_message(message: Any, source: Any) -> None:
            if not isinstance(message, dict) or message.get("kind") != "invalidate":
                return
            urn = message.get("urn", "")
            version = int(message.get("version", 0))
            entry = self.cache.peek(urn)
            if entry is None or entry.tentative or entry.rdo.version >= version:
                return
            self.cache.invalidate(urn)
            self.notifications.publish(
                EventType.OBJECT_INVALIDATED, self.sim.now, urn=urn, version=version
            )

        self.scheduler.transport.listen(INVALIDATION_PORT, on_message)
        self._invalidation_bound = True

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
            if request.operation is Operation.IMPORT and "have_version" in request.args:
                # The cache died with the old process, so the delta
                # base the logged request refers to is gone: re-import
                # full rather than bouncing off a guaranteed refusal.
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

    def _queue_call(
        self,
        operation: Operation,
        urn: str,
        args: dict,
        session: Optional[Session],
        priority: Priority,
        label: str,
    ) -> Promise:
        """Log and queue a QRPC whose reply settles one promise (every
        operation but import and export, which have waiters of their
        own); :meth:`_apply_call` is the other end."""
        request = self._new_request(operation, urn, args, session, priority)
        promise = Promise(label=label)
        self._promises[request.request_id] = promise
        self._log_and_submit(request)
        return promise

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
            operation=str(request.operation),
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
        body["urn"] = request.urn
        body["request_id"] = request.request_id
        if request.session_id:
            body["session"] = request.session_id
        if self.auth_token:
            body["auth"] = self.auth_token
        if request.operation in (Operation.SHIP, Operation.TELEMETRY):
            body.pop("urn", None)
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
        dst = self._server_for(request.urn)
        message = self.scheduler.submit(
            dst,
            request.service,
            self._wire_body(request),
            priority=request.priority,
            on_reply=lambda reply: self._on_reply(request, reply),
            on_failed=lambda reason: self._on_failed(request, reason),
        )
        self._messages[request.request_id] = message
        if request.operation is Operation.IMPORT:
            pending = self._imports.get(request.urn)
            if pending is not None and pending["request"] is request:
                pending["message"] = message
        self.notifications.publish(
            EventType.REQUEST_SENT,
            self.sim.now,
            request_id=request.request_id,
            operation=str(request.operation),
        )

    def _on_reply(self, request: QRPCRequest, reply: Any) -> None:
        if self.log.get(request.request_id) is None:
            return  # duplicate response (at-most-once application)
        for hook in self.on_reply:
            if hook(request, reply):
                return
        self.log.acknowledge(request.request_id)
        self._messages.pop(request.request_id, None)
        self._m_qrpc_latency.labels(
            host=self.host.name, op=str(request.operation)
        ).observe(self.sim.now - request.created_at)
        self.settle(request, reply if isinstance(reply, dict) else {})

    def _on_failed(self, request: QRPCRequest, reason: str) -> None:
        for hook in self.on_failed:
            if hook(request, reason):
                return
        self.fail(request, reason)

    # -- what a stage may ask of the manager -----------------------------------

    def pending(self, request: QRPCRequest) -> bool:
        """Still owed an answer, by a manager that is still alive."""
        return not self._crashed and self.log.get(request.request_id) is not None

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

    def retry(self, request: QRPCRequest, rest: float) -> None:
        """The attempt was answered, but not with the answer (or failed
        for good): the scheduler sends the same message again, from its
        place in the queue, once its destination has rested ``rest`` s."""
        self.scheduler.retry(self._messages[request.request_id], rest)

    def resubmit(self, request: QRPCRequest, delay: float) -> None:
        """Hand ``request`` to the scheduler anew, with a wire body
        built then, ``delay`` s from now."""
        self.sim.schedule(delay, self._submit, request)

    def fail(self, request: QRPCRequest, reason: str) -> None:
        """``request`` failed for good: it leaves the log and its
        observers are told."""
        self._m_qrpc_failed.labels(
            host=self.host.name, op=str(request.operation)
        ).inc()
        self.log.mark_failed(request.request_id)
        self._messages.pop(request.request_id, None)
        self.reject(request, reason)

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
        if request.operation is Operation.EXPORT:
            self._finish_export_round(request.urn, {}, failed=reason)
        elif request.operation is Operation.IMPORT:
            for promise, __ in self._take_import_waiters(request):
                promise.reject(reason)
        else:
            promise = self._promises.pop(request.request_id, None)
            if promise is not None:
                promise.reject(reason)
        for hook in self.on_applied:
            hook(request, {}, reason)

    def settle(self, request: QRPCRequest, reply: dict) -> None:
        """``request`` — out of the log already — is answered with
        ``reply``: its own, or if it never crossed the wire a synthetic
        one or the reply to the request that absorbed it."""
        if self._crashed:
            return
        for hook in self.on_settled:
            hook(request, "ok")
        self.notifications.publish(
            EventType.RESPONSE_ARRIVED,
            self.sim.now,
            request_id=request.request_id,
            operation=str(request.operation),
            status=reply.get("status"),
        )
        # The request names its session, so whatever brought the reply
        # here — first submit, a stage's resubmit, the request that
        # absorbed this one — the guarantees are kept (a recovered
        # incarnation's registry is empty: no session to tell).
        if request.operation is Operation.IMPORT:
            self._apply_import(request, reply)
        elif request.operation is Operation.EXPORT:
            self._apply_export(request, reply)
        else:
            self._apply_call(request, reply)
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
        state = self._exports.get(request.urn)
        entry = self.cache.peek(request.urn)
        if not state or not state["dirty"] or entry is None:
            return None
        state["dirty"] = False
        # Each folded round is one export that never crosses the wire.
        self.log.note_compacted(len(state["queued"]))
        state["current"].extend(state["queued"])
        state["queued"] = []
        return self._export_args(entry)

    def _take_import_waiters(self, request: QRPCRequest) -> list[tuple[Promise, Optional[Session]]]:
        pending = self._imports.get(request.urn)
        if pending is None or pending["request"] is not request:
            return []
        del self._imports[request.urn]
        return pending["waiters"]

    def _apply_import(self, request: QRPCRequest, reply: dict) -> None:
        waiters = self._take_import_waiters(request)
        if reply.get("status") == "ok-delta":
            rebuilt = rebuild_import(self.cache.peek(request.urn), reply)
            if rebuilt is None:
                # Our copy of the base is gone (evicted/replaced since
                # the request was queued): re-import full.
                self._reimport(request, waiters)
                return
            reply = rebuilt
        if reply.get("status") != "ok":
            for promise, __ in waiters:
                promise.reject(reply.get("status", "error"))
            return
        rdo = RDO.from_wire(reply["rdo"])
        urn_str = str(rdo.urn)
        session = self.sessions.get(request.session_id) if request.session_id else None
        if session is not None and not session.acceptable(urn_str, rdo.version):
            # Session guarantee violation (stale response): re-import.
            self._reimport(request, waiters)
            return
        existing = self.cache.peek(urn_str)
        if existing is not None and existing.tentative:
            # Never clobber local tentative updates with an import.
            for promise, __ in waiters:
                promise.resolve(existing.rdo)
            return
        evicted = self.cache.insert(rdo, CacheStatus.COMMITTED)
        for victim in evicted:
            self.notifications.publish(EventType.CACHE_EVICTED, self.sim.now, urn=victim)
        for __, waiter_session in waiters:
            if waiter_session is not None:
                waiter_session.record_read(urn_str, rdo.version)
        self.notifications.publish(
            EventType.OBJECT_IMPORTED, self.sim.now, urn=urn_str, version=rdo.version
        )
        for promise, __ in waiters:
            promise.resolve(rdo)

    def _reimport(self, request: QRPCRequest, waiters: list) -> None:
        """Queue a fresh full import on behalf of every waiter of ``request``."""
        session = self.sessions.get(request.session_id)
        retry = self._new_request(Operation.IMPORT, request.urn, {}, session, request.priority)
        retry.full_only = True
        self._imports[request.urn] = {"request": retry, "waiters": waiters}
        self._log_and_submit(retry)

    def _apply_export(self, request: QRPCRequest, reply: dict) -> None:
        status = reply.get("status")
        urn_str = request.urn
        if request.session_id and status in ("committed", "resolved"):
            session = self.sessions.get(request.session_id)
            if session is not None:
                session.record_write(urn_str, int(reply["version"]))
        state = self._exports.get(urn_str)
        dirty = bool(state and state["dirty"])
        failed = None
        if status == "committed":
            entry = self.cache.peek(urn_str)
            if entry is not None and dirty:
                # Later local mutations exist: adopt the new base
                # version but stay tentative for the next round.
                entry.base_version = int(reply["version"])
                entry.rdo.version = int(reply["version"])
                if "data" in request.args:
                    # The new server base is the round's snapshot,
                    # not the (already newer) live data.
                    entry.base_raw = marshal(request.args["data"])
            elif entry is not None:
                self.cache.commit(urn_str, int(reply["version"]))
            self.notifications.publish(
                EventType.OBJECT_COMMITTED,
                self.sim.now,
                urn=urn_str,
                version=int(reply["version"]),
            )
        elif status == "resolved":
            # When dirty, the server merged our snapshot with concurrent
            # updates we do NOT hold locally.  Our local data still
            # derives from the *old* base, so the base version must
            # stay put: the next round's export will three-way merge
            # against the server's merged value instead of clobbering
            # it.  (Adopting the new version here would erase other
            # replicas' updates — a silent-loss bug the chaos test
            # caught.)
            if self.cache.peek(urn_str) is not None and not dirty:
                self.cache.commit(
                    urn_str, int(reply["version"]), data=reply.get("value")
                )
            self.notifications.publish(
                EventType.CONFLICT_RESOLVED,
                self.sim.now,
                urn=urn_str,
                version=int(reply["version"]),
                detail=reply.get("detail", ""),
            )
        elif status == "conflict":
            report = ConflictReport.from_wire(reply.get("conflict", {}))
            self.notifications.publish(
                EventType.CONFLICT_DETECTED,
                self.sim.now,
                urn=urn_str,
                detail=report.detail,
            )
            for handler in list(self._conflict_handlers):
                handler(report)
        else:
            failed = status or "export failed"
        self._finish_export_round(urn_str, reply, failed)

    def _finish_export_round(
        self, urn_str: str, reply: dict, failed: Optional[str]
    ) -> None:
        state = self._exports.get(urn_str)
        if state is None:
            return
        waiters, state["current"] = state["current"], []
        for promise in waiters:
            if failed is None:
                promise.resolve(reply)
            else:
                promise.reject(failed)
        state["inflight"] = False
        if state["dirty"]:
            state["dirty"] = False
            state["current"], state["queued"] = state["queued"], []
            self._start_export_round(
                urn_str,
                state.get("session"),
                state.get("priority", Priority.DEFAULT),
            )

    #: What the promise of a queued call resolves with, given an "ok"
    #: reply to its operation.
    _CALL_VALUE: dict[Operation, Callable[[dict], Any]] = {
        Operation.INVOKE: lambda reply: reply.get("result"),
        Operation.SHIP: lambda reply: reply.get("result"),
        Operation.LIST: lambda reply: reply.get("urns", []),
        Operation.SUBSCRIBE: lambda reply: True,
        Operation.LOCK: lambda reply: reply,
        Operation.UNLOCK: lambda reply: reply,
        Operation.TELEMETRY: lambda reply: reply,
    }

    def _apply_call(self, request: QRPCRequest, reply: dict) -> None:
        """Settle the promise :meth:`_queue_call` handed out."""
        value_of = self._CALL_VALUE[request.operation]
        ok = reply.get("status") == "ok"
        if ok and request.session_id and request.operation is Operation.INVOKE:
            session = self.sessions.get(request.session_id)
            if session is not None and "version" in reply:
                session.record_write(request.urn, int(reply["version"]))
        # No promise: the call was queued by an incarnation that has
        # since crashed, and nobody is left to tell.
        promise = self._promises.pop(request.request_id, None)
        if promise is None:
            return
        if ok:
            promise.resolve(value_of(reply))
        else:
            promise.reject(reply.get("status", "error"))

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
