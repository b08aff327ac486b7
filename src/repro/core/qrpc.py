"""Queued RPC records.

A QRPC is a non-blocking remote procedure call that survives
disconnection: it is logged to stable storage, handed to the network
scheduler, and its response is delivered through a callback/promise
whenever connectivity permits.  This module defines the request record
and the wire format; the queueing itself lives in
:mod:`repro.core.operation_log` and
:mod:`repro.net.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.lint.contracts import marshal_stable
from repro.net.scheduler import Priority


class Operation(str, Enum):
    """The remote operations Rover's access manager issues."""

    IMPORT = "import"
    EXPORT = "export"
    INVOKE = "invoke"       # execute a method on the server's copy
    SHIP = "ship"           # ship an RDO to the server and run it there
    LIST = "list"           # enumerate object names (hoard walking)
    SUBSCRIBE = "subscribe" # register for invalidation callbacks
    LOCK = "lock"           # acquire an application-level lease
    UNLOCK = "unlock"       # release an application-level lease
    TELEMETRY = "telemetry" # ship a fleet telemetry report (repro.obs.fleet)

    # Keep the wire format compact/readable: str(member) is its value,
    # taken by str's own slot (a ``self.value`` property hop per call
    # showed up in every QRPC's profile).
    __str__ = str.__str__


class AccessManagerError(Exception):
    """Client-side toolkit misuse.

    Raised by the access manager's entry points, which live in
    :mod:`repro.core.imports`, :mod:`repro.core.exports` and
    :mod:`repro.core.calls`; defined here, below all three, and
    re-exported by :mod:`repro.core.access_manager`."""


@dataclass(slots=True)
class QRPCRequest:
    """One queued remote procedure call."""

    request_id: str
    session_id: str
    operation: Operation
    urn: str
    args: dict[str, Any] = field(default_factory=dict)
    priority: Priority = Priority.DEFAULT
    created_at: float = 0.0
    #: Tracing context (see :mod:`repro.obs.trace`): the id of the
    #: trace this request belongs to and of its root span.  Empty when
    #: tracing is disabled; propagated on the wire so the server side
    #: attributes its spans to the client's trace.
    trace_id: str = ""
    span_id: str = ""
    #: Volatile failover bookkeeping (repro.ha): how many replica-set
    #: rotations this request has triggered.  Not part of the wire
    #: format and not persisted — a recovered client starts fresh.
    failover_rounds: int = 0
    #: Volatile likewise.  ``full_only``: must travel and be answered
    #: in full, never as a delta (the server said "need-full", or this
    #: retries an import whose answer could not be used).
    #: ``recovered``: inherited from a previous incarnation's log — the
    #: dead process may have dispatched it, so the server may hold an
    #: applied reply: compaction and delta substitution keep off it.
    full_only: bool = False
    recovered: bool = False

    @marshal_stable
    def to_wire(self) -> dict:
        wire = {
            "id": self.request_id,
            "session": self.session_id,
            "op": str(self.operation),
            "urn": self.urn,
            "args": self.args,
            "priority": int(self.priority),
            "created_at": self.created_at,
        }
        if self.trace_id:
            wire["trace"] = [self.trace_id, self.span_id]
        return wire

    @staticmethod
    @marshal_stable
    def from_wire(wire: dict) -> "QRPCRequest":
        trace = wire.get("trace") or ["", ""]
        return QRPCRequest(
            request_id=wire["id"],
            session_id=wire.get("session", ""),
            operation=Operation(wire["op"]),
            urn=wire["urn"],
            args=wire.get("args", {}),
            priority=Priority(wire.get("priority", int(Priority.DEFAULT))),
            created_at=float(wire.get("created_at", 0.0)),
            trace_id=trace[0],
            span_id=trace[1],
        )
