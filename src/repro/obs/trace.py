"""Structured span tracing for the QRPC pipeline.

A *trace* is one QRPC's journey through the toolkit; a *span* is one
named stage of that journey with a start/end in **virtual time**.  The
root span (``qrpc``) opens when the access manager accepts the request
and closes when the reply (or terminal failure) is delivered; the
stages between are children that reference the root through
``parent_id``:

========================  =====================================================
span name                 covers
========================  =====================================================
``qrpc``                  root: request accepted -> reply/failure delivered
``log.append``            stable-log append + flush on the critical path
``queue.wait``            sitting in the network scheduler (attr ``priority``)
``route.select``          carrier choice at dispatch (attrs ``route``, ``kind``)
``link.transmit``         one wire crossing, request or reply (attr ``link``)
``retransmit``            backoff between a failed attempt and the retry
``server.execute``        server-side service handler (+ modelled compute)
``reply.deliver``         reply applied client-side (cache/promise/ack)
========================  =====================================================

The context travels on the QRPC envelope as a ``[trace_id, span_id]``
pair (see :meth:`repro.core.qrpc.QRPCRequest.to_wire`), so the server
side of the simulation attributes its spans to the client's trace.

Tracing is **disabled by default and zero-cost when off**: the
``qrpc``, ``log.append`` and ``reply.deliver`` spans are recorded by
:class:`RequestTracing`, which only a client built with tracing on
installs; the scheduler's and transport's sites guard on
:attr:`Tracer.enabled`; spans never consume virtual time, and a
disabled tracer allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: Wire key for the propagated context inside request bodies.
TRACE_KEY = "trace"


@dataclass(slots=True)
class Span:
    """One named stage of a trace, in virtual seconds."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    start: float
    end: float
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_wire(self) -> dict:
        wire = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attrs:
            wire["attrs"] = self.attrs
        return wire

    @staticmethod
    def from_wire(wire: dict) -> "Span":
        return Span(
            trace_id=wire["trace_id"],
            span_id=wire["span_id"],
            parent_id=wire.get("parent_id", ""),
            name=wire["name"],
            start=float(wire["start"]),
            end=float(wire["end"]),
            status=wire.get("status", "ok"),
            attrs=dict(wire.get("attrs", {})),
        )


def parse_context(value: Any) -> Optional[tuple[str, str]]:
    """Recover ``(trace_id, parent_span_id)`` from an envelope field."""
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(item, str) for item in value)
    ):
        return value[0], value[1]
    return None


class Tracer:
    """Collects finished spans for one observatory.

    ``scope_attrs`` are stamped onto every span at creation; the
    testbed sets ``{"link": <spec name>}`` there so a summary can
    group stages per network configuration.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.scope_attrs: dict[str, Any] = {}
        self._next_trace = 0
        self._next_span = 0

    # -- creating spans -----------------------------------------------------

    def _new_span_id(self) -> str:
        self._next_span += 1
        return f"s{self._next_span:06d}"

    def start_trace(self, name: str, start: float, **attrs: Any) -> Span:
        """Open a root span (fresh trace id).  Caller must finish() it."""
        self._next_trace += 1
        trace_id = f"t{self._next_trace:06d}"
        return Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id="",
            name=name,
            start=start,
            end=start,
            attrs={**self.scope_attrs, **attrs},
        )

    def start_span(
        self,
        name: str,
        context: tuple[str, str],
        start: float,
        **attrs: Any,
    ) -> Span:
        """Open a child span under ``(trace_id, parent_span_id)``."""
        trace_id, parent_id = context
        return Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            end=start,
            attrs={**self.scope_attrs, **attrs},
        )

    def finish(self, span: Span, end: float, status: str = "ok") -> Span:
        """Close a span and collect it."""
        span.end = end
        span.status = status
        self.spans.append(span)
        return span

    def record(
        self,
        name: str,
        context: tuple[str, str],
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span:
        """Create and immediately collect a completed child span."""
        span = self.start_span(name, context, start, **attrs)
        return self.finish(span, end)


class RequestTracing:
    """The client-side spans of a QRPC, as a stage on the access
    manager's seam: the ``qrpc`` root from submit to settlement, with
    ``log.append`` and ``reply.deliver`` under it.  Installed by the
    manager's constructor when its tracer is enabled; a client built
    with tracing off runs none of this."""

    def __init__(self, manager: Any) -> None:
        self.manager = manager
        self.tracer: Tracer = manager.obs.tracer
        #: request_id -> open root span.
        self.roots: dict[str, Span] = {}
        manager.on_submit.append(self.begin)
        manager.on_durable.append(self.logged)
        manager.on_settled.append(self.finish)

    def begin(self, request: Any) -> None:
        """Open the root and stamp its context on the request, which
        carries it onto the wire."""
        root = self.tracer.start_trace(
            "qrpc",
            start=self.manager.sim.now,
            op=str(request.operation),
            urn=request.urn,
            request_id=request.request_id,
            host=self.manager.host.name,
        )
        request.trace_id, request.span_id = root.trace_id, root.span_id
        self.roots[request.request_id] = root

    def logged(self, request: Any, durable_at: float) -> None:
        root = self.roots.get(request.request_id)
        if root is not None:
            self.tracer.record(
                "log.append",
                (root.trace_id, root.span_id),
                start=self.manager.sim.now,
                end=durable_at,
            )

    def finish(self, request: Any, status: str) -> None:
        root = self.roots.pop(request.request_id, None)
        if root is None:
            return
        now = self.manager.sim.now
        if status == "ok":
            # The reply is handed to the application right now; the
            # zero-width span marks the boundary between transport and
            # application in the trace.
            self.tracer.record("reply.deliver", (root.trace_id, root.span_id), start=now, end=now)
        self.tracer.finish(root, end=now, status=status)
