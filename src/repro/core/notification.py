"""User notification events.

"Because the mobile environment may rapidly change from moment to
moment, it is important to present the user with information about its
current state" (section 3.4).  Rover applications display connectivity,
outstanding-request, and tentative-data indicators; the toolkit side of
that is this observer hub.  Applications subscribe per event type; the
access manager, scheduler, and server glue publish into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable


class EventType(Enum):
    """Events the toolkit surfaces to applications."""

    CONNECTIVITY_CHANGED = "connectivity-changed"
    REQUEST_QUEUED = "request-queued"
    REQUEST_SENT = "request-sent"
    RESPONSE_ARRIVED = "response-arrived"
    REQUEST_FAILED = "request-failed"
    OBJECT_IMPORTED = "object-imported"
    OBJECT_COMMITTED = "object-committed"
    OBJECT_INVALIDATED = "object-invalidated"
    TENTATIVE_CREATED = "tentative-created"
    CONFLICT_DETECTED = "conflict-detected"
    CONFLICT_RESOLVED = "conflict-resolved"
    CACHE_EVICTED = "cache-evicted"


@dataclass(slots=True)
class Notification:
    """One published event with free-form details."""

    event: EventType
    time: float
    details: dict[str, Any] = field(default_factory=dict)


Subscriber = Callable[[Notification], None]

#: Most events :attr:`NotificationCenter.history` retains (a client
#: publishes about three per QRPC for as long as it lives).
HISTORY_MAX = 4096


class NotificationCenter:
    """Per-client observer hub with an inspectable, bounded history."""

    def __init__(self, keep_history: bool = True) -> None:
        self._subscribers: dict[EventType, list[Subscriber]] = {}
        self._all_subscribers: list[Subscriber] = []
        self.keep_history = keep_history
        self.history: list[Notification] = []
        #: Events trimmed from the front of :attr:`history` so far.
        self.history_dropped = 0

    def subscribe(self, event: EventType, fn: Subscriber) -> None:
        self._subscribers.setdefault(event, []).append(fn)

    def subscribe_all(self, fn: Subscriber) -> None:
        self._all_subscribers.append(fn)

    def unsubscribe(self, event: EventType, fn: Subscriber) -> None:
        subscribers = self._subscribers.get(event, [])
        if fn in subscribers:
            subscribers.remove(fn)

    def publish(self, event: EventType, time: float, **details: Any) -> Notification:
        notification = Notification(event, time, details)
        if self.keep_history:
            self.history.append(notification)
            if len(self.history) > HISTORY_MAX:
                drop = HISTORY_MAX // 4  # in chunks: one list shift per 1,024
                del self.history[:drop]
                self.history_dropped += drop
        for fn in list(self._subscribers.get(event, [])):
            fn(notification)
        for fn in list(self._all_subscribers):
            fn(notification)
        return notification

    def count(self, event: EventType) -> int:
        """Events of this type in the retained window of :attr:`history`."""
        return sum(1 for n in self.history if n.event is event)

    def of_type(self, event: EventType) -> list[Notification]:
        """This type's events in the retained window, oldest first."""
        return [n for n in self.history if n.event is event]
