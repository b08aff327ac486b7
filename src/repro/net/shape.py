"""What a frame may hold: each frame kind's declared shape, and the one
check that holds a frame to it at its door, before anything reads it.

A kind is a type (a value of exactly that type: ``bool`` is not an
``int``), a tuple of kinds (any one of them; at most one not a type),
``ListOf(kind)``, ``MapOf(kind)`` (text keys), ``Seq(kind, ...)`` (a list
or tuple of exactly those kinds, in order) or a :class:`Shape` (a dict of
named fields and no other key).  :func:`fits` walks a whole value in one
call, the values still to look at on a stack, as the codec walks.  A
shape whose every field is a type or a tuple of types is *flat*: this is
its whole check, which makes no Python call, so a door that every
request of a workload takes writes it inline::

    type(body) is dict
    and shape.pairs.issuperset(zip(body, map(type, body.values())))
    and shape.required <= body.keys()
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Optional

#: Any value the codec carries.
ANY = (type(None), bool, int, float, str, bytes, list, tuple, dict)


class ListOf:
    """A list whose every item is of ``kind``."""

    def __init__(self, kind: Any) -> None:
        self.item = _compiled(kind)


class MapOf(ListOf):
    """A dict from text to values of ``kind``."""


class Seq:
    """A list or tuple of exactly ``kinds``, in order."""

    def __init__(self, *kinds: Any) -> None:
        self.items = tuple(map(_compiled, kinds))


class _Union:
    """A tuple kind: its plain ``types``, and its one ``nested`` kind or None."""

    def __init__(self, types: frozenset, nested: Any) -> None:
        self.types, self.nested = types, nested


class Shape:
    """A dict that holds every key of ``required`` and may hold those of
    ``optional``, each value of its field's kind, and no other key."""

    def __init__(self, required: dict, optional: Optional[dict] = None) -> None:
        fields = {**required, **(optional or {})}
        self.fields = {key: _compiled(kind) for key, kind in fields.items()}
        #: The flat check: ``(key, type)`` for each type a field may be,
        #: and the keys it must hold.
        self.pairs = frozenset((k, t) for k, kind in self.fields.items() for t in _outer(kind))
        self.required = frozenset(required)
        #: ``(key, kind)`` of the fields whose values are looked into.
        self.nested = tuple(
            (k, kind) for k, kind in self.fields.items()
            if type(kind) is not type and not (type(kind) is _Union and kind.nested is None)
        )


def _compiled(kind: Any) -> Any:
    if type(kind) is not tuple:
        return kind
    nested = [member for member in kind if type(member) is not type]
    if len(nested) > 1:
        raise ValueError("a union holds at most one kind that is not a type")
    return _Union(frozenset(m for m in kind if type(m) is type), nested[0] if nested else None)


def _outer(kind: Any) -> frozenset:
    """The types a value of ``kind`` may have at its top."""
    if type(kind) is _Union:
        return kind.types | (_outer(kind.nested) if kind.nested is not None else frozenset())
    outer = {ListOf: (list,), MapOf: (dict,), Seq: (list, tuple), Shape: (dict,)}
    return frozenset(outer.get(type(kind), (kind,)))


def fits(value: Any, kind: Any) -> bool:
    """Whether ``value`` is of ``kind`` (a type, or a kind built here),
    all of it, in one call."""
    stack = [(value, kind)]
    while stack:
        value, kind = stack.pop()
        form = type(kind)
        if form is type:
            if type(value) is not kind:
                return False
        elif form is Shape:
            if type(value) is not dict or not (
                kind.pairs.issuperset(zip(value, map(type, value.values())))
                and kind.required <= value.keys()
            ):
                return False
            for key, nested in kind.nested:
                if key in value:
                    stack.append((value[key], nested))
        elif form is _Union:
            if type(value) not in kind.types:
                if kind.nested is None:
                    return False
                stack.append((value, kind.nested))
        elif form is ListOf:
            if type(value) is not list:
                return False
            stack.extend(zip(value, repeat(kind.item)))
        elif form is MapOf:
            if type(value) is not dict or not {str}.issuperset(map(type, value)):
                return False
            stack.extend(zip(value.values(), repeat(kind.item)))
        else:  # Seq
            if type(value) not in (list, tuple) or len(value) != len(kind.items):
                return False
            stack.extend(zip(value, kind.items))
    return True


# -- the frames ---------------------------------------------------------------

#: What any client request may carry beside its service's own fields
#: (``AccessManager._wire_body``).  ``ackw`` is looked into by
#: ``RoverServer._observe_watermark``, which ignores, not refuses, one
#: that is not a ``[str, int]`` pair.
ENVELOPE = {"request_id": (str, type(None)), "session": str, "auth": str, "ackw": list,
            "trace": list}
#: The client services (``repro.core.server.SERVICES``), each flat.  Any
#: ``lease_s`` is taken: one that is not a finite number of seconds above
#: zero is answered ``invalid-lease``.
IMPORT = Shape({"urn": str}, {**ENVELOPE, "have_version": int})
EXPORT = Shape({"urn": str}, {**ENVELOPE, "base_version": int, "data": ANY, "delta": ANY})
INVOKE = Shape({"urn": str, "method": str}, {**ENVELOPE, "args": list})
SHIP = Shape({}, {**ENVELOPE, "code": str, "method": str, "args": list})
LIST = SUBSCRIBE = Shape({}, {**ENVELOPE, "urn": str, "prefix": str})
LOCK = Shape({"urn": str}, {**ENVELOPE, "lease_s": ANY})
UNLOCK = Shape({"urn": str}, ENVELOPE)

#: ``rover.ha.replicate`` (records, none: a heartbeat, or a ``gap``), each
#: record looked into alone (one that does not fit is refused, and left to
#: anti-entropy), and the write set in it (``RoverServer.write_set``).
REPLICATE = Shape({"epoch": int, "primary": str}, {"commit_seq": int, "records": list, "gap": bool})
WRITE = Shape({}, {
    "urn": str, "version": int, "data": ANY, "request_id": str, "reply": dict,
    "lock": (Seq(str, (int, float)), type(None)), "ackw": Seq(str, int),
})
RECORD = Shape({"seq": int, "epoch": int, "write": WRITE})
#: A backup's answers to it: its ack, or its refusal.
ACK = Shape({"ack_seq": int, "epoch": int})
STALE = Shape({"status": str, "epoch": int, "primary": str})
#: ``rover.ha.poll`` and its answer.
POLL = Shape({"proposed": int, "seq": int, "index": int, "candidate": str})
POLL_ANSWER = Shape({"seq": int, "index": int, "epoch": int, "heard": bool, "granted": bool})
#: ``rover.ha.sync`` (the joiner's ``[version, crc32]`` per URN) and its
#: answer, whose parts ``RoverServer.merge_subset`` looks into as
#: ``MERGE``: stored wires and versions, histories and committer indexes;
#: the URNs to delete; the lock table, or None.
SYNC = Shape({"vector": MapOf(Seq(int, int))}, {"seq": int, "epoch": int, "member": str})
SYNC_ANSWER = Shape({"status": str, "subset": dict, "deletions": list, "locks": list,
                     "seq": int, "epoch": int, "primary": str})
WIRE = Shape({"data": ANY}, {"urn": str, "type": str, "code": str, "interface": ANY,
                             "version": int})
MERGE = Seq(
    Shape({}, {"store": MapOf(Seq(WIRE, int)), "history": MapOf(ListOf(Seq(int, ANY))),
               "committed_replies": MapOf(ListOf(Seq(str, dict)))}),
    ListOf(str),
    (ListOf(Seq(str, str, (int, float))), type(None)),
)

#: ``rover.telemetry``: a fleet report (``repro.obs.fleet.report``, its
#: sketches as ``LogSketch.to_wire`` makes them) in a client's envelope.
SKETCH = Shape({}, {"n": int, "s": float, "m": float, "z": int, "b": ListOf(Seq(int, int))})
REPORT = Shape({"c": str, "q": int}, {
    **ENVELOPE, "v": int, "t0": (int, float), "t1": (int, float), "l": str, "r": int,
    "f": ListOf(int), "d": ListOf(Seq(int, str)), "k": ListOf(Seq(int, int)),
    "h": ListOf(Seq(int, SKETCH)),
})
