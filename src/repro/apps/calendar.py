"""Rover Ical — the shared calendar.

The calendar is one RDO holding an event table.  Replicas import it,
make *tentative* updates while disconnected (the UI would render these
dimmed, per the paper's tentative-data visuals borrowed from Bayou),
and export on reconnection.  The type-specific resolver
(:class:`CalendarMerge`) reconciles concurrent exports:

* disjoint event additions/edits merge silently;
* two events claiming the same (room, slot) — the meeting-room double
  booking — are auto-resolved by moving the client's event to one of
  its declared alternate slots (Bayou's alternate-times idea);
* irreconcilable edits of the same event surface as a conflict report
  for manual repair.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.access_manager import AccessManager
from repro.core.conflict import Resolution
from repro.core.naming import URN
from repro.core.promise import Promise
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.core.server import RoverServer
from repro.core.session import Session
from repro.workloads.generators import CalendarOp

CALENDAR_TYPE = "calendar"

_CALENDAR_CODE = '''
def add_event(state, event_id, title, room, slot, alt_slots):
    events = dict(state["events"])
    events[event_id] = {
        "title": title,
        "room": room,
        "slot": slot,
        "alt_slots": alt_slots,
    }
    state["events"] = events
    return event_id

def move_event(state, event_id, new_slot):
    events = dict(state["events"])
    if event_id not in events:
        return False
    event = dict(events[event_id])
    event["slot"] = new_slot
    events[event_id] = event
    state["events"] = events
    return True

def cancel_event(state, event_id):
    events = dict(state["events"])
    removed = event_id in events
    if removed:
        del events[event_id]
    state["events"] = events
    return removed

def events_in_slot(state, slot):
    result = []
    for event_id, event in state["events"].items():
        if event["slot"] == slot:
            result.append(event_id)
    return sorted(result)

def occupancy(state, room):
    slots = []
    for event in state["events"].values():
        if event["room"] == room:
            slots.append(event["slot"])
    return sorted(slots)
'''

_CALENDAR_INTERFACE = RDOInterface(
    [
        MethodSpec("add_event", mutates=True),
        MethodSpec("move_event", mutates=True),
        MethodSpec("cancel_event", mutates=True),
        MethodSpec("events_in_slot"),
        MethodSpec("occupancy"),
    ]
)


def _is_reslot_of(server_event: Any, client_event: Any) -> bool:
    """True when the server copy is the client's event at an alternate slot."""
    if not (isinstance(server_event, dict) and isinstance(client_event, dict)):
        return False
    if server_event.get("slot") not in client_event.get("alt_slots", []):
        return False
    trimmed_server = {k: v for k, v in server_event.items() if k != "slot"}
    trimmed_client = {k: v for k, v in client_event.items() if k != "slot"}
    return trimmed_server == trimmed_client


class CalendarMerge:
    """Three-way merge of event tables with double-booking repair."""

    name = "calendar-merge"

    def __init__(self, auto_reslot: bool = True) -> None:
        self.auto_reslot = auto_reslot
        self.reslotted = 0

    def resolve(self, base: Any, server: Any, client: Any) -> Resolution:
        if base is None:
            return Resolution.unresolved("no base version available")
        base_events = base.get("events", {})
        server_events = server.get("events", {})
        client_events = client.get("events", {})

        merged = dict(server_events)
        notes: list[str] = []

        # Sorted union: the merged table's insertion order feeds the
        # export wire bytes, so it must not depend on set hash order.
        for event_id in sorted(set(base_events) | set(client_events)):
            base_e = base_events.get(event_id)
            client_e = client_events.get(event_id)
            server_e = server_events.get(event_id)
            client_changed = client_e != base_e
            server_changed = server_e != base_e
            if not client_changed:
                continue  # server's view (kept already) is at least as new
            if server_changed and server_e != client_e:
                if _is_reslot_of(server_e, client_e):
                    # The server's copy is this client's own event,
                    # moved to one of its declared alternates by an
                    # earlier merge round — keep the repaired slot.
                    continue
                # Both sides touched the same event differently.
                return Resolution.unresolved(
                    f"event {event_id!r} edited on both replicas"
                )
            if client_e is None:
                merged.pop(event_id, None)
                notes.append(f"cancelled {event_id}")
            else:
                merged[event_id] = client_e

        # Double-booking repair: client-added events that now collide.
        occupied = {
            (event["room"], event["slot"]): event_id
            for event_id, event in merged.items()
            if event_id in server_events or event_id in base_events
        }
        for event_id in sorted(set(client_events) - set(base_events)):
            event = merged.get(event_id)
            if event is None:
                continue
            key = (event["room"], event["slot"])
            holder = occupied.get(key)
            if holder is None or holder == event_id:
                occupied[key] = event_id
                continue
            if not self.auto_reslot:
                return Resolution.unresolved(
                    f"double booking: {event_id} vs {holder} at {key}"
                )
            placed = False
            for alt in event.get("alt_slots", []):
                alt_key = (event["room"], alt)
                if alt_key not in occupied:
                    moved = dict(event)
                    moved["slot"] = alt
                    merged[event_id] = moved
                    occupied[alt_key] = event_id
                    notes.append(f"re-slotted {event_id} to {alt}")
                    self.reslotted += 1
                    placed = True
                    break
            if not placed:
                return Resolution.unresolved(
                    f"double booking: {event_id} vs {holder} at {key}; "
                    "no free alternate slot"
                )

        merged_value = dict(server)
        merged_value["events"] = merged
        return Resolution.merged(merged_value, "; ".join(notes) or "disjoint merge")


def install_calendar(
    server: RoverServer,
    name: str = "group",
    auto_reslot: bool = True,
) -> tuple[URN, CalendarMerge]:
    """Create a calendar object on the server and register its resolver."""
    merge = CalendarMerge(auto_reslot=auto_reslot)
    server.resolvers.register(CALENDAR_TYPE, merge)
    urn = URN(server.authority, f"calendar/{name}")
    server.put_object(
        RDO(
            urn,
            CALENDAR_TYPE,
            {"name": name, "events": {}},
            code=_CALENDAR_CODE,
            interface=_CALENDAR_INTERFACE,
        )
    )
    return urn, merge


class CalendarReplica:
    """One user's calendar client."""

    def __init__(
        self,
        access: AccessManager,
        urn: URN,
        session: Optional[Session] = None,
    ) -> None:
        self.access = access
        self.urn = urn
        self.session = session or access.create_session(
            f"cal-{access.host.name}"
        )
        self.conflicts: list[Any] = []
        access.on_conflict(self.conflicts.append)

    def checkout(self, refresh: bool = False) -> Promise:
        """Import the calendar (check-out, in the Cedar sense).

        ``refresh=True`` forces a round trip to pick up other
        replicas' committed updates instead of reusing the cached copy.
        """
        return self.access.import_(self.urn, self.session, refresh=refresh)

    def apply_op(self, op: CalendarOp) -> Any:
        """Apply one workload operation as a local tentative update."""
        if op.op == "add":
            result, __ = self.access.invoke(
                self.urn,
                "add_event",
                op.event_id,
                op.title,
                op.room,
                op.slot,
                op.alt_slots,
                session=self.session,
            )
        elif op.op == "move":
            result, __ = self.access.invoke(
                self.urn, "move_event", op.event_id, op.new_slot, session=self.session
            )
        elif op.op == "cancel":
            result, __ = self.access.invoke(
                self.urn, "cancel_event", op.event_id, session=self.session
            )
        else:
            raise ValueError(f"unknown calendar op {op.op!r}")
        return result

    def events(self) -> dict:
        entry = self.access.cache.peek(str(self.urn))
        return dict(entry.rdo.data["events"]) if entry is not None else {}

    @property
    def tentative(self) -> bool:
        entry = self.access.cache.peek(str(self.urn))
        return entry.tentative if entry is not None else False
