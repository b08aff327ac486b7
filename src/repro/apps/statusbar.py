"""The mobile-environment status display (paper section 3.4).

"Because the mobile environment may rapidly change from moment to
moment, it is important to present the user with information about its
current state."  Rover applications showed connectivity, queued work,
and which on-screen data was tentative.  This module is the toolkit
side of that UI: a :class:`StatusBar` subscribes to the notification
center and maintains — purely from events — the state a GUI would
render: link up/down, queued/outstanding QRPC counts, tentative
objects, unresolved conflicts, and a short activity ticker.

``render()`` produces the one-line text form (what a Tk status bar
would show); the attributes are for programmatic assertion/testing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.access_manager import AccessManager
from repro.core.notification import EventType, Notification


class StatusBar:
    """Event-driven model of the user-visible toolkit state."""

    #: How many recent events the ticker keeps.
    TICKER_LENGTH = 5

    def __init__(self, access: AccessManager) -> None:
        self.access = access
        self.connected = any(link.is_up for link in access.host.links)
        self.queued = 0
        self.in_flight = 0
        self.tentative: set[str] = set()
        self.conflicts: set[str] = set()
        self.last_contact_at: float | None = None
        self.ticker: Deque[str] = deque(maxlen=self.TICKER_LENGTH)
        access.notifications.subscribe_all(self._on_event)

    # -- event folding ------------------------------------------------------

    def _on_event(self, notification: Notification) -> None:
        event = notification.event
        details = notification.details
        if event is EventType.CONNECTIVITY_CHANGED:
            self.connected = bool(details.get("up"))
            self._tick(
                notification.time,
                "link up" if self.connected else "link DOWN",
            )
        elif event is EventType.REQUEST_QUEUED:
            self.queued += 1
        elif event is EventType.REQUEST_SENT:
            self.queued = max(0, self.queued - 1)
            self.in_flight += 1
        elif event is EventType.RESPONSE_ARRIVED:
            self.in_flight = max(0, self.in_flight - 1)
            self.last_contact_at = notification.time
        elif event is EventType.REQUEST_FAILED:
            self.in_flight = max(0, self.in_flight - 1)
            self._tick(notification.time, f"request failed: {details.get('reason', '?')}")
        elif event is EventType.TENTATIVE_CREATED:
            self.tentative.add(details.get("urn", ""))
        elif event is EventType.OBJECT_COMMITTED:
            self.tentative.discard(details.get("urn", ""))
            self._tick(notification.time, f"committed {_short(details.get('urn', ''))}")
        elif event is EventType.CONFLICT_RESOLVED:
            self.tentative.discard(details.get("urn", ""))
            self._tick(notification.time, f"auto-merged {_short(details.get('urn', ''))}")
        elif event is EventType.CONFLICT_DETECTED:
            self.conflicts.add(details.get("urn", ""))
            self._tick(notification.time, f"CONFLICT on {_short(details.get('urn', ''))}")
        elif event is EventType.OBJECT_INVALIDATED:
            self._tick(notification.time, f"stale {_short(details.get('urn', ''))} dropped")

    def _tick(self, time: float, text: str) -> None:
        self.ticker.append(f"[{time:.1f}s] {text}")

    # -- rendering -----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Total user-visible outstanding work (queued + in flight)."""
        return self.queued + self.in_flight

    def is_dimmed(self, urn: str) -> bool:
        """Would the UI render this object as tentative (dimmed)?"""
        return urn in self.tentative

    def render(self) -> str:
        """The one-line status a Tk application would display."""
        link = "connected" if self.connected else "DISCONNECTED"
        parts = [link]
        if self.pending:
            parts.append(f"{self.pending} request(s) outstanding")
        if self.tentative:
            parts.append(f"{len(self.tentative)} tentative object(s)")
        if self.conflicts:
            parts.append(f"{len(self.conflicts)} CONFLICT(S) need repair")
        if not self.pending and not self.tentative and not self.conflicts:
            parts.append("all data committed")
        return " | ".join(parts)

    def render_ticker(self) -> str:
        return "\n".join(self.ticker)


def _short(urn: str) -> str:
    return urn.rsplit("/", 1)[-1] if "/" in urn else urn
