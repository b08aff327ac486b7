"""The import side of the access manager: objects coming into the cache.

:class:`ImportAPI` holds the entry points (:meth:`~ImportAPI.import_`,
:meth:`~ImportAPI.prefetch`, :meth:`~ImportAPI.load`);
:class:`ImportSide` keeps at most one import in flight per object -- a
later import of it waits on that one (the paper's outstanding-requests
list) -- and applies its answer to the cache.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.naming import URN, canonical_urn
from repro.core.notification import EventType
from repro.core.object_cache import CacheStatus
from repro.core.promise import Promise
from repro.core.qrpc import REFUSAL, Operation, QRPCRequest
from repro.core.rdo import RDO
from repro.core.session import Session
from repro.net.scheduler import Priority
from repro.perf.delta import rebuild_import


class ImportAPI:
    """The import entry points of
    :class:`~repro.core.access_manager.AccessManager`, which they run
    on."""

    __slots__ = ()  # else every manager would carry a __dict__ too

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
        urn_str = canonical_urn(str(urn))
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
        self._imports.queue(urn_str, promise, session, priority)
        return promise

    def prefetch(self, urns: list[URN | str], session: Optional[Session] = None) -> list[Promise]:
        """Queue background imports to warm the cache before disconnection."""
        return [
            self.import_(urn, session=session, priority=Priority.BACKGROUND)
            for urn in urns
        ]

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
        urn_str = canonical_urn(str(urn))
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


class ImportSide:
    """Imports, one in flight per object, and what their answers do to
    the cache."""

    __slots__ = ("manager", "pending")

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        #: urn -> (the import in flight, its waiters: ``(promise, session)``)
        self.pending: dict[str, tuple[QRPCRequest, list]] = {}

    def queue(
        self, urn: str, promise: Promise, session: Optional[Session], priority: Priority
    ) -> None:
        """``promise`` waits for ``urn``: on the import already in
        flight, whose priority a more urgent caller raises (a clicked
        page overtaking its own prefetch), or on a new one."""
        manager = self.manager
        pending = self.pending.get(urn)
        if pending is None:
            request = manager._new_request(
                Operation.IMPORT,
                urn,
                args={},
                session=session,
                priority=priority,
            )
            self.pending[urn] = (request, [(promise, session)])
            manager._log_and_submit(request)
            return
        request, waiters = pending
        waiters.append((promise, session))
        message = manager._messages.get(request.request_id)
        if message is not None:
            if priority < message.priority:
                manager.scheduler.reprioritize(message, priority)
        elif priority < request.priority:
            # Not yet handed to the scheduler (log flush pending):
            # upgrade the request so it is submitted urgent.
            request.priority = priority

    def take(self, request: QRPCRequest) -> list[tuple[Promise, Optional[Session]]]:
        """The waiters of ``request`` (none if another import of its
        object has replaced it), and the object is no longer in flight."""
        pending = self.pending.get(request.urn)
        if pending is None or pending[0] is not request:
            return []
        del self.pending[request.urn]
        return pending[1]

    def refuse(self, request: QRPCRequest, reason: str) -> None:
        for promise, __ in self.take(request):
            promise.reject(reason)

    def decode(self, request: QRPCRequest, reply: dict) -> Any:
        """The object an ``ok`` reply carries, or an ``ok-delta`` rebuilt
        against the cached base (None: a delta whose base the cache no
        longer holds, or that does not fit it)."""
        status = reply["status"]
        if status == "ok-delta":
            reply = rebuild_import(self.manager.cache.peek(request.urn), reply)
            if reply is None:
                return None
        elif status != "ok":
            return REFUSAL
        return RDO.from_wire(reply["rdo"])

    def apply(self, request: QRPCRequest, reply: dict, rdo: Optional[RDO]) -> None:
        manager = self.manager
        waiters = self.take(request)
        if rdo is None:
            # Our copy of the base is gone (evicted/replaced since the
            # request was queued), or the delta does not fit: re-import full.
            self.reimport(request, waiters)
            return
        urn_str = str(rdo.urn)
        session = manager.sessions.get(request.session_id) if request.session_id else None
        if session is not None and not session.acceptable(urn_str, rdo.version):
            # Session guarantee violation (stale response): re-import.
            self.reimport(request, waiters)
            return
        existing = manager.cache.peek(urn_str)
        if existing is not None and existing.tentative:
            # Never clobber local tentative updates with an import.
            for promise, __ in waiters:
                promise.resolve(existing.rdo)
            return
        evicted = manager.cache.insert(rdo, CacheStatus.COMMITTED)
        for victim in evicted:
            manager.notifications.publish(EventType.CACHE_EVICTED, manager.sim.now, urn=victim)
        for __, waiter_session in waiters:
            if waiter_session is not None:
                waiter_session.record_read(urn_str, rdo.version)
        manager.notifications.publish(
            EventType.OBJECT_IMPORTED, manager.sim.now, urn=urn_str, version=rdo.version
        )
        for promise, __ in waiters:
            promise.resolve(rdo)

    def reimport(self, request: QRPCRequest, waiters: list) -> None:
        """Queue a fresh full import on behalf of every waiter of ``request``."""
        manager = self.manager
        session = manager.sessions.get(request.session_id)
        retry = manager._new_request(Operation.IMPORT, request.urn, {}, session, request.priority)
        retry.full_only = True
        self.pending[request.urn] = (retry, waiters)
        manager._log_and_submit(retry)
