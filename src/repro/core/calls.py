"""The access manager's remote calls: every operation but import and
export.

Each entry point of :class:`CallAPI` logs and queues one QRPC whose reply
settles one promise, through the manager's
:class:`~repro.core.access_manager.CallSide`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.naming import URN, canonical_urn
from repro.core.notification import EventType
from repro.core.promise import Promise
from repro.core.qrpc import AccessManagerError, Operation
from repro.core.rdo import RDOVerificationError
from repro.core.server import INVALIDATION_PORT, SHIP_ENV_NAMES
from repro.core.session import Session
from repro.net.scheduler import Priority


class CallAPI:
    """The remote-call entry points of
    :class:`~repro.core.access_manager.AccessManager`, which they run
    on."""

    def invoke_remote(
        self,
        urn: URN | str,
        method: str,
        args: Optional[list] = None,
        session: Optional[Session] = None,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue a method invocation against the server's authoritative copy."""
        urn_str = canonical_urn(str(urn))
        promise = self._calls.queue(
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
        urn_str = self._authority_urn(authority, "__shipped__")
        if verify:
            diagnostics = self.interpreter.verify(
                code, path="<shipped-rdo>", extra_names=SHIP_ENV_NAMES
            )
            if diagnostics:
                raise RDOVerificationError(f"ship to {authority}", diagnostics)
        return self._calls.queue(
            Operation.SHIP,
            urn_str,
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
        starves foreground traffic, and with compaction on, successive
        undelivered reports on the telemetry URN fold into one
        (:mod:`repro.perf.compact`).
        """
        return self._calls.queue(
            Operation.TELEMETRY,
            self._authority_urn(authority, "__telemetry__"),
            dict(report),
            None,
            priority,
            f"telemetry seq {report.get('q')}",
        )

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
        another session holds the lease (``invalid-lease`` when
        ``lease_s`` is not a finite number of seconds above zero).
        While the lease is held, only this session's exports commit at
        the server.
        """
        urn_str = canonical_urn(str(urn))
        return self._calls.queue(
            Operation.LOCK, urn_str, {"lease_s": lease_s}, session, priority, f"lock {urn_str}"
        )

    def release_lock(
        self,
        urn: URN | str,
        session: Session,
        priority: Priority = Priority.DEFAULT,
    ) -> Promise:
        """Queue the lock release (check-in)."""
        urn_str = canonical_urn(str(urn))
        return self._calls.queue(
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
        return self._calls.queue(
            Operation.LIST,
            self._authority_urn(authority, "__list__"),
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
        urn_str = self._authority_urn(authority, "__subscribe__")
        try:
            self._ensure_invalidation_listener()
        except NotImplementedError as exc:
            raise AccessManagerError(f"{exc}; poll with import_(..., max_age_s=...)") from exc
        return self._calls.queue(
            Operation.SUBSCRIBE,
            urn_str,
            {"prefix": prefix},
            None,
            Priority.DEFAULT,
            f"subscribe {prefix}",
        )

    def _ensure_invalidation_listener(self) -> None:
        if self._invalidation_bound:
            return

        def on_message(message: Any, source: Any) -> None:
            if not isinstance(message, dict) or message.get("kind") != "invalidate":
                return
            urn = message.get("urn", "")
            version = message.get("version", 0)
            if type(urn) is not str or type(version) is not int:
                # Sealed intact, but no server sends this: drop it unread.
                self.scheduler.transport.note_corrupt_frame()
                return
            entry = self.cache.peek(urn)
            if entry is None or entry.tentative or entry.rdo.version >= version:
                return
            self.cache.invalidate(urn)
            self.notifications.publish(
                EventType.OBJECT_INVALIDATED, self.sim.now, urn=urn, version=version
            )

        self.scheduler.transport.listen(INVALIDATION_PORT, on_message)
        self._invalidation_bound = True

    def _authority_urn(self, authority: str, name: str) -> str:
        """The pseudo-URN ``name`` of ``authority`` (``__list__`` ...),
        which must be known."""
        if authority not in self.servers:
            raise AccessManagerError(f"unknown authority {authority!r}")
        return f"urn:rover:{authority}/{name}"
