"""The export side of the access manager: tentative objects going home.

:class:`ExportAPI` holds the entry points (:meth:`~ExportAPI.invoke` on
the cached copy, which queues an export when the method mutates, and
:meth:`~ExportAPI.export`); :class:`ExportSide` keeps at most one export
round in flight per object -- mutations made meanwhile coalesce into a
single follow-up round -- and applies its answer to the cache.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.conflict import ConflictReport
from repro.core.naming import URN, canonical_urn
from repro.core.notification import EventType
from repro.core.promise import Promise
from repro.core.qrpc import REFUSAL, AccessManagerError, Operation, QRPCRequest
from repro.core.session import Session
from repro.net.message import unmarshal
from repro.net.scheduler import Priority


def _export_args(entry: Any) -> dict:
    """Snapshot: an export carries exactly the state at the moment it
    is taken, not whatever the app mutates later."""
    return {
        "data": unmarshal(entry.data_raw),
        "base_version": entry.base_version,
    }


class ExportAPI:
    """The export entry points of
    :class:`~repro.core.access_manager.AccessManager`, which they run
    on."""

    __slots__ = ()  # else every manager would carry a __dict__ too

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
        urn_str = canonical_urn(str(urn))
        entry = self.cache.lookup(urn_str)
        if entry is None:
            raise AccessManagerError(f"{urn_str} not cached; import it first")
        result, steps = entry.rdo.invoke(self.interpreter, method, *args)
        cost = self.cost_model.invoke_time(steps)
        self.local_invokes += 1
        self.local_invoke_seconds_total += cost
        if entry.rdo.interface[method].mutates:  # RDO.invoke checked membership
            self.cache.mark_tentative(urn_str)
            self.notifications.publish(
                EventType.TENTATIVE_CREATED, self.sim.now, urn=urn_str, method=method
            )
            self.export(urn_str, session=session)
        return result, cost

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
        urn_str = canonical_urn(str(urn))
        if self.cache.peek(urn_str) is None:
            raise AccessManagerError(f"{urn_str} not cached; nothing to export")
        return self._exports.queue(urn_str, session, priority)


class ExportSide:
    """Export rounds, one in flight per object, and what their answers
    do to the cache."""

    __slots__ = ("manager", "rounds")

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        #: urn -> its round in flight: the promises it answers
        #: (``current``), whether a follow-up round is owed (``dirty``)
        #: and the promises that one answers (``queued``), and the
        #: session and priority every round of it runs under.  An object
        #: with no round in flight has no entry.
        self.rounds: dict[str, dict] = {}

    def queue(self, urn: str, session: Optional[Session], priority: Priority) -> Promise:
        """A promise of ``urn``'s next export round: the one it starts,
        or the follow-up owed behind the round in flight."""
        promise = Promise(label=f"export {urn}")
        state = self.rounds.get(urn)
        if state is not None:
            state["dirty"] = True
            state["queued"].append(promise)
            for hook in self.manager.on_queued:
                hook(urn, None)
            return promise
        self.rounds[urn] = {
            "dirty": False,
            "current": [promise],
            "queued": [],
            "session": session,
            "priority": priority,
        }
        self.start_round(urn)
        return promise

    def start_round(self, urn: str) -> None:
        manager = self.manager
        entry = manager.cache.peek(urn)
        state = self.rounds[urn]
        if entry is None:
            del self.rounds[urn]
            for promise in state["current"]:
                promise.reject("object evicted before export")
            return
        request = manager._new_request(
            Operation.EXPORT,
            urn,
            args=_export_args(entry),
            session=state["session"],
            priority=state["priority"],
        )
        manager._log_and_submit(request)

    def fold(self, request: QRPCRequest) -> Optional[dict]:
        """See :meth:`AccessManager.fold_followup`."""
        manager = self.manager
        state = self.rounds.get(request.urn)
        entry = manager.cache.peek(request.urn)
        if not state or not state["dirty"] or entry is None:
            return None
        state["dirty"] = False
        # Each folded round is one export that never crosses the wire.
        manager.log.note_compacted(len(state["queued"]))
        state["current"].extend(state["queued"])
        state["queued"] = []
        return _export_args(entry)

    def refuse(self, request: QRPCRequest, reason: str) -> None:
        self.finish_round(request.urn, {}, reason)

    def decode(self, request: QRPCRequest, reply: dict) -> Any:
        """A ``conflict``'s report; a commit's version must be an integer."""
        status = reply["status"]
        if status == "conflict":
            return ConflictReport.from_wire(reply["conflict"])
        if status not in ("committed", "resolved"):
            return REFUSAL
        if type(reply["version"]) is not int:  # inline, not reply_field: no call per commit
            raise TypeError(f"version={reply['version']!r:.60}")
        return None

    def apply(self, request: QRPCRequest, reply: dict, report: Optional[ConflictReport]) -> None:
        manager = self.manager
        status = reply.get("status")
        urn_str = request.urn
        state = self.rounds.get(urn_str)
        dirty = bool(state and state["dirty"])
        if status == "committed":
            entry = manager.cache.peek(urn_str)
            if entry is not None and dirty:
                # Later local mutations exist: adopt the new base
                # version but stay tentative for the next round.  The
                # new server base is the round's snapshot, not the
                # (already newer) live data.
                manager.cache.rebase(urn_str, reply["version"], request.args.get("data"))
            elif entry is not None:
                manager.cache.commit(urn_str, reply["version"])
            manager.notifications.publish(
                EventType.OBJECT_COMMITTED,
                manager.sim.now,
                urn=urn_str,
                version=reply["version"],
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
            if manager.cache.peek(urn_str) is not None and not dirty:
                manager.cache.commit(
                    urn_str, reply["version"], data=reply.get("value")
                )
            manager.notifications.publish(
                EventType.CONFLICT_RESOLVED,
                manager.sim.now,
                urn=urn_str,
                version=reply["version"],
                detail=reply.get("detail", ""),
            )
        else:  # a conflict
            manager.notifications.publish(
                EventType.CONFLICT_DETECTED,
                manager.sim.now,
                urn=urn_str,
                detail=report.detail,
            )
            for handler in list(manager._conflict_handlers):
                handler(report)
        self.finish_round(urn_str, reply, None)

    def finish_round(self, urn: str, reply: dict, failed: Optional[str]) -> None:
        state = self.rounds.get(urn)
        if state is None:
            return
        waiters, state["current"] = state["current"], []
        for promise in waiters:
            if failed is None:
                promise.resolve(reply)
            else:
                promise.reject(failed)
        if not state["dirty"]:
            del self.rounds[urn]  # nothing owed: forget the object
            return
        state["dirty"] = False
        state["current"], state["queued"] = state["queued"], []
        self.start_round(urn)
