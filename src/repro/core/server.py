"""The Rover server.

Every object has a *home server* that stores its authoritative copy.
The server answers four services (the QRPC operations):

* ``rover.import`` — return the current copy of an object;
* ``rover.export`` — apply a client's tentative update: commit if the
  base version matches, otherwise attempt type-specific resolution
  (:mod:`repro.core.conflict`), otherwise report a conflict;
* ``rover.invoke`` — execute an RDO method against the authoritative
  copy (function shipping toward the server);
* ``rover.ship`` — load a client-shipped RDO and run it server-side
  with read access to the object store (the paper's agent-style use:
  e.g. filter a mail folder at the server instead of importing it).

Every service of :data:`SERVICES` comes in through one door,
:meth:`RoverServer.serve`.  Those that change anything are applied **at
most once**: the server remembers the reply for every request id it has
applied and returns the cached reply on redelivery, so QRPC
retransmissions are safe.
"""

from __future__ import annotations

import functools
import math
import zlib
from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Any, Iterable, Optional

from repro.core.conflict import ConflictReport, ResolverRegistry
from repro.core.interpreter import SafeInterpreter
from repro.core.rdo import RDO, ExecutionCostModel, RDOError, RDOInterface, RDOVerificationError
from repro.net.simnet import Address, LinkDown
from repro.lint.contracts import replay_pure
from repro.net import shape
from repro.net.message import (
    MarshalError, Premarshalled, marshal, marshalled_size, same_encoding, unmarshal,
)
from repro.net.transport import DelayedReply, Transport, error_answer
from repro.sim import Simulator


#: Host helpers exposed to shipped RDO code (the ``rover.ship``
#: execution environment); the static verifier treats these as defined.
SHIP_ENV_NAMES = ("lookup", "objects")


#: Result types that hold no reference to anything: a reply keeps them
#: as they are.
_SCALARS = frozenset({str, int, float, bool, bytes, type(None)})


def _detached(value: Any) -> Any:
    """``value`` as it is now, sharing nothing with the store: a copy
    through the codec, for a reply the server keeps (at-most-once, the
    committer index, a compute delay, a quorum gate, an HA record) while
    a later write changes the stored data in place.  A value the codec
    refuses raises :class:`MarshalError` here, so no kept reply holds it."""
    return unmarshal(marshal(value))


#: A request id parsed by :func:`_split_request_id`.
_Split = Optional[tuple[str, int]]


def _split_request_id(request_id: str) -> _Split:
    """``(client id-prefix, counter)`` of a ``<prefix>/<counter>`` id."""
    prefix, sep, tail = request_id.rpartition("/")
    if not sep:
        return None
    try:
        return prefix, int(tail)
    except ValueError:
        return None


class _AppliedReplies:
    """At-most-once replies by request id, least recently used first.

    Also indexed per client: ``_by_client[prefix]`` is the sorted list
    of ``(counter, request_id)`` for that client's cached ids, so
    pruning below an acknowledged watermark costs O(pruned), not a scan
    of the whole cache per request.
    """

    def __init__(self) -> None:
        #: request id -> (reply, its ``_split_request_id``)
        self._replies: OrderedDict[str, tuple[dict, _Split]] = OrderedDict()
        self._by_client: dict[str, list[tuple[int, str]]] = {}
        #: Replies put so far (:meth:`RoverServer.write_set` reads it).
        self.puts = 0

    def __len__(self) -> int:
        return len(self._replies)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._replies

    def get(self, request_id: str) -> Optional[dict]:
        """The cached reply, which becomes the most recently used."""
        cached = self._replies.get(request_id)
        if cached is None:
            return None
        self._replies.move_to_end(request_id)
        return cached[0]

    def put(self, request_id: str, split: _Split, reply: dict, cap: int) -> int:
        """Cache ``reply`` as the most recently used entry (``split``:
        the id's :func:`_split_request_id`, parsed once by the caller),
        then drop the least recently used beyond ``cap``; returns how
        many were dropped."""
        replies = self._replies
        self.puts += 1
        cached = replies.get(request_id)
        if cached is None:
            if split is not None:
                insort(self._by_client.setdefault(split[0], []), (split[1], request_id))
        else:
            split = cached[1]
            replies.move_to_end(request_id)
        replies[request_id] = (reply, split)
        evicted = 0
        while len(replies) > cap:
            request_id, (__, split) = replies.popitem(last=False)
            if split is not None:
                entries = self._by_client[split[0]]
                del entries[bisect_left(entries, (split[1], request_id))]
                if not entries:
                    del self._by_client[split[0]]
            evicted += 1
        return evicted

    def prune_below(self, prefix: str, watermark: int) -> int:
        """Drop ``prefix``'s ids with a counter below ``watermark``."""
        entries = self._by_client.get(prefix)
        if not entries:
            return 0
        stale = bisect_left(entries, (watermark,))
        for __, request_id in entries[:stale]:
            del self._replies[request_id]
        del entries[:stale]
        if not entries:
            del self._by_client[prefix]
        return stale

    def clear(self) -> None:
        self._replies.clear()
        self._by_client.clear()


class ObjectEntry:
    """What a server holds of one object.

    ``wire``: the stored wire, replaced at each commit; its ``version``
    is the version of record.  ``history``: ``(version, data)`` of the
    newest versions, each ``data`` a private copy never mutated (a
    delta's or a merge's base, what a failed invoke puts back).
    ``committed``: the committer index, from the first commit that names
    a request: request id -> its *original* reply (a "resolved" one
    carries the merged value the client must still apply).  The
    at-most-once cache is bounded and volatile; this is the durable
    backstop that keeps an evicted replay from being re-negotiated
    against the history into a conflict its client never had.
    """

    __slots__ = ("wire", "history", "committed")

    def __init__(self, wire: dict, history: list[tuple[int, Any]]) -> None:
        self.wire = wire
        self.history = history
        self.committed: Optional[OrderedDict[str, dict]] = None


class RoverServer:
    """Home server for one authority."""

    #: Versions each object keeps in its history, and replies in its
    #: committer index.
    HISTORY_LIMIT = 32
    #: At-most-once replies kept: the backstop for clients that never
    #: report an acknowledged-id watermark.
    APPLIED_CACHE_CAP = 1024

    #: The registry reads these plain counters (tests and experiment
    #: drivers read them directly too).  The bounded tables' evictions
    #: are counted server-side only: a client's interpreter reports
    #: nothing, so no fleet report grows.
    METRICS = (
        *(
            ("server_requests", "gauge", "Per-service request totals", attr, {"kind": attr})
            for attr in (
                "imports_served",
                "exports_committed",
                "exports_resolved",
                "exports_conflicted",
                "invokes_served",
                "ships_served",
                "duplicates_suppressed",
                "auth_rejections",
                "rdos_rejected",
                "invalidations_sent",
                "locks_granted",
                "locks_denied",
                "locks_expired",
                "applied_pruned",
            )
        ),
        *(
            ("ship_delta_bytes_saved_total", "counter",
             "Wire bytes avoided by shipping structural deltas",
             f"delta_bytes_saved_{direction}", {"direction": direction})
            for direction in ("down", "up")
        ),
        ("locks_expired_total", "counter",
         "Lock leases expired server-side (holder never released)", "locks_expired"),
        ("rdo_code_cache_evicted_total", "counter",
         "Compiled RDO sources evicted from the code cache", "interpreter.code_cache_evictions"),
        ("rdo_verdicts_evicted_total", "counter",
         "Passing verification verdicts evicted", "interpreter.verdict_evictions"),
        ("rdo_interfaces_evicted_total", "counter",
         "Decoded interfaces evicted from the interface table", "interface_evictions"),
    )

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        authority: str,
        resolvers: Optional[ResolverRegistry] = None,
        auth_tokens: Optional[set[str]] = None,
    ) -> None:
        self.sim = sim
        self.transport = transport
        #: Observability: the transport's, so a server shares its host's
        #: registry/tracer.
        self.obs = transport.obs
        self.authority = authority
        #: urn -> its :class:`ObjectEntry`: the server's durable state.
        self.objects: dict[str, ObjectEntry] = {}
        self.resolvers = resolvers or ResolverRegistry()
        # Servers are workstations: markedly faster than the mobile
        # client (the paper's DEC vs. ThinkPad split).
        self.cost_model = ExecutionCostModel(base_s=0.0004, per_step_s=0.0001)
        self.interpreter = SafeInterpreter(step_budget=200_000)
        #: Accepted authentication tokens; ``None`` leaves the server
        #: open.  The paper's server is "a secure setuid application
        #: that authenticates requests from client applications" — we
        #: model the authentication decision, not the cryptography.
        self.auth_tokens = auth_tokens
        self.auth_rejections = 0
        #: Static verification at the publish/ship boundary: a bad RDO
        #: is rejected *here*, with precise diagnostics, instead of
        #: failing on a client mid-invocation after crossing a slow
        #: link.  Shipped code is always verified; an administrator's
        #: ``put_object(verify=False)`` is the one way past it (the code
        #: still faces the runtime sandbox, the last line of defense).
        self.rdos_rejected = 0
        #: At-most-once replies, LRU-ordered.  Two bounds keep it from
        #: growing forever: clients piggyback an acknowledged-id
        #: watermark on QRPC envelopes (entries below it are settled and
        #: pruned exactly), and :attr:`APPLIED_CACHE_CAP`.
        self._applied = _AppliedReplies()
        self.applied_pruned = 0
        #: Highest watermark seen per client id-prefix.
        self._client_watermarks: dict[str, int] = {}
        #: How many times one of them rose (:meth:`write_set` reads it
        #: across a request).
        self.watermarks_moved = 0
        #: ``repr`` of an interface wire -> its decoded interface
        #: (:meth:`_decode_interface`): an invoke runs on the stored
        #: object, and each distinct interface is decoded once.  Shared
        #: by every object of a class, so never mutated.
        self._interfaces: dict[str, RDOInterface] = {}
        self.interface_evictions = 0
        self.imports_served = 0
        self.exports_committed = 0
        self.exports_resolved = 0
        self.exports_conflicted = 0
        self.invokes_served = 0
        #: Reads: imports, lists, ships and subscriptions on entry, and
        #: invokes of a read-only method this server ran (not replayed).
        #: :mod:`repro.ha` reads it across one call to tell a read from a write.
        self.reads_served = 0
        self.ships_served = 0
        self.duplicates_suppressed = 0
        #: (host_name, prefix) subscriptions for invalidation callbacks.
        self._subscriptions: dict[str, set[str]] = {}
        self.invalidations_sent = 0
        #: urn -> (holder session id, lease expiry time)
        self._locks: dict[str, tuple[str, float]] = {}
        self.locks_granted = 0
        self.locks_denied = 0
        self.locks_expired = 0
        for service in SERVICES:
            transport.register(service, functools.partial(self.serve, service))
        #: Wire bytes delta shipping kept off the link, each way.
        self.delta_bytes_saved_down = 0
        self.delta_bytes_saved_up = 0
        # The host tells a replication group's members apart.
        self.obs.registry.expose(self, {"authority": authority, "host": transport.host.name})

    # -- population ---------------------------------------------------------

    def put_object(self, rdo: RDO, verify: bool = True) -> int:
        """Install/replace an object (server-side administration).

        With ``verify`` (the default), the RDO's code is statically
        verified against its interface, once per class
        (:meth:`SafeInterpreter.verify`), and the publish is
        rejected — :class:`RDOVerificationError`, listing every
        finding with rule/file/line/col — before anything is stored.
        """
        if verify:
            diagnostics = self.interpreter.verify(rdo.code, rdo.interface, f"<rdo:{rdo.urn}>")
            if diagnostics:
                self.rdos_rejected += 1
                raise RDOVerificationError(str(rdo.urn), diagnostics)
        key = str(rdo.urn)
        wire = rdo.to_wire()
        entry = self.objects.get(key)
        wire["version"] = 1 if entry is None else entry.wire["version"] + 1
        if entry is None:
            entry = self.objects[key] = ObjectEntry(wire, [])
        entry.wire = wire
        self._remember(entry, wire["data"])
        return wire["version"]

    # -- anti-entropy (repro.ha) --------------------------------------------

    def state_vector(self) -> dict[str, list]:
        """Per-urn ``[version, crc32(stored wire)]`` summary of the table.

        The version-vector half of anti-entropy: two replicas exchange
        these to find exactly the objects that differ, then transfer
        only those (:meth:`subset_snapshot` / :meth:`merge_subset`).
        """
        vector: dict[str, list] = {}
        for urn, entry in sorted(self.objects.items()):
            vector[urn] = [entry.wire["version"], zlib.crc32(marshal(entry.wire)) & 0xFFFFFFFF]
        return vector

    def subset_snapshot(self, urns: Iterable[str]) -> dict:
        """The entries of ``urns`` (anti-entropy transfer): stored wires
        (``[wire, version]``), histories and committer indexes."""
        entries = [(u, self.objects[u]) for u in sorted(set(urns)) if u in self.objects]
        return unmarshal(
            marshal(
                {
                    "store": {u: [e.wire, e.wire["version"]] for u, e in entries},
                    "history": {u: e.history for u, e in entries},
                    "committed_replies": {
                        u: list(e.committed.items()) for u, e in entries if e.committed is not None
                    },
                }
            )
        )

    def sync_answer(self, theirs: dict) -> dict:
        """What a member whose :meth:`state_vector` is ``theirs`` needs to
        hold what this one does, as :meth:`merge_subset` takes it: the
        objects that differ, the ones to delete, and the lock table."""
        mine = self.state_vector()
        return {
            "subset": self.subset_snapshot(
                urn for urn, signature in mine.items() if theirs.get(urn) != signature
            ),
            "deletions": sorted(urn for urn in theirs if urn not in mine),
            "locks": sorted([urn, *lease] for urn, lease in self._locks.items()),
        }

    def merge_subset(self, subset: Any, deletions: Any, locks: Any = None) -> bool:
        """Adopt a peer's :meth:`subset_snapshot`, dropping ``deletions``
        (a list of URNs) and, given its ``locks`` (``[urn, holder,
        expires]`` each), taking its lock table.  False, with nothing
        changed, when any part is not of the shape :meth:`sync_answer`
        makes (:data:`repro.net.shape.MERGE`): the answer is taken whole
        or not at all.

        Used when a crashed (or deposed) replica rejoins: each differing
        object's entry is replaced by the primary's (:meth:`install`),
        version history and committer index included -- this member's
        own index may name writes that never reached a quorum: replayed
        from it, the primary's record of the same request would never
        apply here -- and objects the primary no longer holds are
        deleted, entry and all.  The volatile applied cache is cleared:
        it may describe a divergent history that never reached quorum.
        """
        if not shape.fits([subset, deletions, locks], shape.MERGE):
            return False
        for urn in sorted(set(deletions)):
            self.objects.pop(urn, None)
        histories = subset.get("history", {})
        committed = subset.get("committed_replies", {})
        for urn, (wire, version) in subset.get("store", {}).items():
            self.install(
                urn, version, wire["data"], committed.get(urn, ()), wire, histories.get(urn, ())
            )
        if locks is not None:
            self._locks = {urn: (holder, float(expires)) for urn, holder, expires in locks}
        self._applied.clear()
        return True

    def restart(self) -> None:
        """Come back from a crash.  The object table is the durable state
        and stays as it was; the at-most-once reply cache and the lock
        table (a lease does not outlive the process) start empty.  A
        retransmitted write that already committed is answered from its
        object's committer index (:meth:`serve`)."""
        self._applied.clear()
        self._locks = {}

    # -- primary-backup replication (repro.ha) ------------------------------

    def write_mark(self, urn: Any) -> tuple:
        """Where :meth:`write_set` measures a request's writes from:
        ``urn``'s newest version-history entry, its lease, how many
        watermarks have moved and how many replies were kept."""
        moved, kept = self.watermarks_moved, self._applied.puts
        if type(urn) is not str:
            return None, None, moved, kept
        entry = self.objects.get(urn)
        top = entry.history[-1] if entry is not None and entry.history else None
        return top, self._locks.get(urn), moved, kept

    def write_set(self, urn: Any, mark: tuple, body: Any) -> dict:
        """What a request that ran since :meth:`write_mark` gave ``mark``
        wrote here, for a backup to :meth:`install_write`.

        ``{}`` when it wrote nothing.  Otherwise ``urn``'s new
        ``version`` and ``data`` -- the version history's private copy,
        which is never mutated, so the set holds no live store data and
        costs no copy -- with the committer-index entry that came with it
        (``request_id``, ``reply``); without a new version, the reply the
        at-most-once cache kept (a conflict, ``locked``: a late duplicate
        of that request must get it from a promoted backup too, not run
        again); ``lock``, the URN's lease as ``[holder, expires]`` or
        None, if it changed; and the envelope's ``ackw`` if it moved a
        watermark (a promoted backup keeps the duplicate floor).  Read
        from what the handler stored, never from its reply: a reply from
        the at-most-once cache or the committer index names a version
        written long ago.
        """
        top, lease, moved, kept = mark
        write: dict = {}
        if type(urn) is str:
            entry = self.objects.get(urn)
            request_id = body.get("request_id")
            if entry is not None and entry.history and entry.history[-1] is not top:
                version, data = entry.history[-1]
                write = {"urn": urn, "version": version, "data": data}
                reply = entry.committed.get(request_id) if entry.committed else None
                if reply is not None:
                    write["request_id"], write["reply"] = request_id, reply
            elif self._applied.puts != kept:
                recorded = self._applied._replies.get(request_id)
                if recorded is not None:
                    write = {"request_id": request_id, "reply": recorded[0]}
            held = self._locks.get(urn)
            if held != lease:
                write["urn"], write["lock"] = urn, list(held) if held else None
        if self.watermarks_moved != moved:
            write["ackw"] = body["ackw"]
        return write

    def install_write(self, write: dict) -> bool:
        """Install a :meth:`write_set` shipped by the primary, one that
        fits :data:`repro.net.shape.WRITE`.  False, with nothing changed,
        when a committer entry comes without its reply, a version or a
        lease without its URN, or the version does not follow the one
        held (:meth:`install`)."""
        urn, lock, ackw = write.get("urn"), write.get("lock"), write.get("ackw")
        request_id = write.get("request_id")
        if (request_id is not None and "reply" not in write
                or urn is None and ("version" in write or "lock" in write)):
            return False
        if "version" in write:
            if not self.install(
                urn, write["version"], write.get("data"),
                [(request_id, write["reply"])] if request_id is not None else (),
            ):
                return False
        elif request_id is not None:
            self._record_reply(request_id, _split_request_id(request_id), write["reply"])
        if lock is not None:
            self._locks[urn] = (lock[0], float(lock[1]))
        elif "lock" in write:
            self._locks.pop(urn, None)
        if ackw is not None and self._client_watermarks.get(ackw[0], -1) < ackw[1]:
            # The duplicate floor alone: a member that runs no handler
            # caches no reply, so there is nothing below it to prune.
            self._client_watermarks[ackw[0]] = ackw[1]
        return True

    def install(
        self,
        urn: str,
        version: int,
        data: Any,
        committed: Iterable[tuple[str, dict]] = (),
        wire: Optional[dict] = None,
        history: Iterable[tuple[int, Any]] = (),
    ) -> bool:
        """Store version ``version`` of ``urn``, holding ``data``, as the
        primary wrote it: the one way a member takes a write it did not
        run, from a shipped record or an anti-entropy answer.

        ``data`` is handed over (decoded off the wire, shared with
        nothing): the stored wire keeps it and the version history a
        private copy; ``committed`` holds the ``(request id, reply)``
        committer-index entries the version brings.  A record passes no
        ``wire`` and appends to the entry: the object must be held here
        at the version before, and keeps its code and interface (they
        are fixed per URN).  Anti-entropy passes the primary's ``wire``
        and its older ``history``, and the entry is replaced whole.
        False, with nothing changed, when a record's version does not
        follow the one held or ``data`` does not encode.
        """
        entry = self.objects.get(urn)
        replace = wire is not None
        if not replace:
            if entry is None or entry.wire["version"] + 1 != version:
                return False
            wire = entry.wire
        try:
            raw = marshal(data)
        except MarshalError:
            return False
        stored = dict(wire)
        stored["data"] = data
        stored["version"] = version
        if replace:
            entry = self.objects[urn] = ObjectEntry(
                stored, [(older, copy) for older, copy in history if older < version]
            )
        else:
            entry.wire = stored
        self._remember(entry, data, raw, committed)
        return True

    def get_object(self, urn: str) -> Optional[RDO]:
        entry = self.objects.get(urn)
        return None if entry is None else RDO.from_wire(entry.wire)

    def _remember(
        self, entry: ObjectEntry, data: Any, raw: Optional[bytes] = None,
        committed: Iterable[tuple[str, dict]] = (),
    ) -> None:
        """Add ``entry``'s stored version to its history, as a private
        copy of ``data`` (``raw``: its encoding, when the caller already
        made one), and the ``(request id, reply)`` committer-index
        entries it brings; each keeps the newest :attr:`HISTORY_LIMIT`."""
        limit = self.HISTORY_LIMIT
        history = entry.history
        copy = unmarshal(raw if raw is not None else marshal(data))
        history.append((entry.wire["version"], copy))
        if len(history) > limit:
            del history[: len(history) - limit]
        for request_id, reply in committed:
            index = entry.committed
            if index is None:
                index = entry.committed = OrderedDict()
            index[request_id] = reply
            index.move_to_end(request_id)
            while len(index) > limit:
                index.popitem(last=False)

    def _commit(
        self, urn: str, entry: ObjectEntry, data: Any, raw: Optional[bytes],
        body: dict, source: Address, reply: dict,
    ) -> dict:
        """Store ``data`` (``raw``: its encoding, if made) as the next
        version of ``urn``, held in ``entry``: a new stored wire, the
        version history and the subscribers.  ``reply`` gets the new
        ``version`` and is kept in the committer index under the
        request's id; it is returned."""
        wire = dict(entry.wire)
        wire["data"] = data
        version = reply["version"] = wire["version"] = wire["version"] + 1
        entry.wire = wire
        request_id = body.get("request_id")
        self._remember(entry, data, raw, () if request_id is None else ((request_id, reply),))
        if self._subscriptions:
            self._notify_subscribers(urn, version, except_host=source[0])
        return reply

    @staticmethod
    def _base_data(entry: Optional[ObjectEntry], version: int) -> Optional[Any]:
        """The version history's copy of ``version``, if ``entry`` holds it."""
        if entry is not None:
            for stored_version, data in entry.history:
                if stored_version == version:
                    return data
        return None

    # -- at-most-once -------------------------------------------------------

    def _cached_reply(self, request_id: str) -> tuple[Optional[dict], _Split]:
        """The reply ``request_id`` already has, if any, and the id's
        :func:`_split_request_id` (parsed once, for :meth:`_record_reply`)."""
        reply = self._applied.get(request_id)
        if reply is not None:
            self.duplicates_suppressed += 1
            return reply, None
        # Watermark floor: a counter below the sender's own acknowledged
        # watermark names a request whose reply the client has already
        # processed — only a delayed duplicate frame can still carry it.
        # Its cached reply was (correctly) pruned, so without this guard
        # the duplicate would be APPLIED AGAIN.  The eviction the
        # watermark licenses is only sound if the watermark itself keeps
        # deduplicating the evicted ids.
        split = _split_request_id(request_id)
        if split is not None and split[1] < self._client_watermarks.get(split[0], -1):
            self.duplicates_suppressed += 1
            return {"status": "duplicate", "request_id": request_id}, split
        return None, split

    def _record_reply(self, request_id: str, split: _Split, reply: dict) -> dict:
        self.applied_pruned += self._applied.put(request_id, split, reply, self.APPLIED_CACHE_CAP)
        return reply

    def _observe_watermark(self, body: dict) -> None:
        """Prune settled at-most-once entries for the sending client.

        The envelope's ``ackw`` (a list, if ``body`` fits its shape) is
        ``[id_prefix, counter]``: every request id with that prefix and a
        lower counter has had its reply processed and acknowledged
        client-side, so it can never be retransmitted — its cached reply
        is dead weight.
        """
        ackw = body.get("ackw")
        if ackw is None or [*map(type, ackw)] != [str, int]:
            return  # not a watermark: it licenses nothing
        prefix, watermark = ackw
        if self._client_watermarks.get(prefix, -1) >= watermark:
            return
        self._client_watermarks[prefix] = watermark
        self.watermarks_moved += 1
        self.applied_pruned += self._applied.prune_below(prefix, watermark)

    def _authorized(self, body: Any) -> bool:
        if self.auth_tokens is None:
            return True
        # Read before the body's shape is checked: a token that is not
        # text is no token (an unhashable one would raise at ``in``).
        token = body.get("auth") if isinstance(body, dict) else None
        ok = type(token) is str and token in self.auth_tokens
        if not ok:
            self.auth_rejections += 1
        return ok

    # -- services -------------------------------------------------------------

    @replay_pure
    def serve(self, service: str, body: Any, source: Address) -> Any:
        """Answer one request for ``service`` of :data:`SERVICES`, the
        one door of every client service.

        A read is counted on entry, a refused one too; then the
        credential is checked, then the body against its service's
        shape (:mod:`repro.net.shape`): one that does not fit is answered
        ``error`` with nothing changed and nothing kept, and a handler
        reads its fields without a type test.  A service applied at most
        once is guarded next: the sender's ack watermark, the reply the
        request already has (or the watermark's floor), then the
        committer index (a write whose cached reply was evicted or lost
        in a restart gets its original reply, with nothing applied
        again: answered from current state it could be re-negotiated
        into a manufactured conflict, and a "resolved" reply carries a
        merged value the client must still apply).  A handler that
        raises is answered ``{"status": "error", "error": "<Type>:
        <message>"}``, a status like any other.  The handler's reply, or
        a :class:`DelayedReply`'s body, is kept unless it is the one
        refusal the same request may retry.
        """
        handler, read, retryable, fields = SERVICES[service]
        if read:
            self.reads_served += 1
        if self.auth_tokens is not None and not self._authorized(body):
            return {"status": "unauthorized"}
        # The shape's whole check, inline: every service's shape is flat.
        if not (
            type(body) is dict
            and fields.pairs.issuperset(zip(body, map(type, body.values())))
            and fields.required <= body.keys()
        ):
            return error_answer(ValueError(f"a {service} body of another shape"))
        request_id = None
        if retryable is not None:
            self._observe_watermark(body)
            request_id = body.get("request_id")
        if request_id is not None:
            cached, split = self._cached_reply(request_id)
            if cached is not None:
                return cached
            entry = self.objects.get(body.get("urn"))
            committed = entry.committed if entry is not None else None
            if committed and request_id in committed:
                self.duplicates_suppressed += 1
                return self._record_reply(request_id, split, committed[request_id])
        try:
            reply = handler(self, body, source)
        except Exception as exc:
            reply = error_answer(exc)
        if request_id is not None:
            kept = reply.body if type(reply) is DelayedReply else reply
            if kept["status"] != retryable:
                self._record_reply(request_id, split, kept)
        return reply

    @replay_pure
    def _on_import(self, body: Any, source: Address) -> Any:
        urn = body["urn"]
        entry = self.objects.get(urn)
        if entry is None:
            return {"status": "not-found", "urn": urn}
        self.imports_served += 1
        wire = entry.wire
        full = {"status": "ok", "rdo": wire, "version": wire["version"]}
        have = body.get("have_version")
        if have is None:
            return full
        # Warm re-import: the client still holds `have` — answer with a
        # structural delta against it when that is actually smaller.
        # The delta covers only the data (code/interface are immutable
        # per URN), so the reply omits the rdo wire entirely.
        from repro.perf.delta import diff_value

        base = self._base_data(entry, have)
        if base is None:
            return full
        # Encoded once: sized from its bytes here, spliced into the
        # reply envelope if it is the one that ships.
        slim = Premarshalled(
            {
                "status": "ok-delta",
                "delta": diff_value(base, wire["data"]),
                "base_version": have,
                "version": wire["version"],
            }
        )
        saved = marshalled_size(full) - marshalled_size(slim)
        if saved <= 0:
            return full
        self.delta_bytes_saved_down += saved
        return slim

    @replay_pure
    def _on_export(self, body: Any, source: Address) -> Any:
        urn = body["urn"]
        base_version = body.get("base_version", 0)
        client_data = body.get("data") if "delta" in body else body["data"]
        client_raw = None
        entry = self.objects.get(urn)
        if "delta" in body and "data" not in body:
            # Delta export: reconstruct the client's full data from the
            # base version both sides hold.  A history miss or a delta
            # that does not fit the base gets "need-full", the refusal the
            # door does not keep, so the client's full-data resend under
            # the same request id still applies.
            from repro.perf.delta import DeltaError, apply_delta

            base = self._base_data(entry, base_version)
            if base is None:
                return {"status": "need-full", "urn": urn}
            try:
                client_data = apply_delta(base, body["delta"])
            except DeltaError:
                return {"status": "need-full", "urn": urn}
            # Encoded once: measured here, and decoded into the version
            # history's private copy if the export commits.
            client_raw = marshal(client_data)
            saved = len(client_raw) - marshalled_size(body["delta"])
            if saved > 0:
                self.delta_bytes_saved_up += saved
        if entry is None:
            return {"status": "not-found", "urn": urn}
        wire = entry.wire
        current_version = wire["version"]
        holder = self._lock_holder(urn)
        if holder is not None and body.get("session", "") != holder:
            # Another session holds the application-level lock.
            return {"status": "locked", "holder": holder}

        if base_version == current_version:
            self.exports_committed += 1
            reply = {"status": "committed", "version": None}
            return self._commit(urn, entry, client_data, client_raw, body, source, reply)

        # Concurrent update: attempt type-specific resolution.
        type_name = wire.get("type", "")
        resolver = self.resolvers.for_type(type_name)
        base_data = self._base_data(entry, base_version)
        resolution = resolver.resolve(base_data, wire.get("data"), client_data)
        if resolution.resolved:
            self.exports_resolved += 1
            reply = {
                "status": "resolved",
                "version": None,
                # The reply is kept (at-most-once, committer index); the
                # stored value is the one a later invoke writes in place.
                "value": _detached(resolution.merged_value),
                "detail": resolution.detail,
            }
            return self._commit(urn, entry, resolution.merged_value, None, body, source, reply)

        self.exports_conflicted += 1
        report = ConflictReport(
            urn=urn,
            type_name=type_name,
            base_version=base_version,
            server_version=current_version,
            detail=resolution.detail,
            server_value=_detached(wire.get("data")),
        )
        return {"status": "conflict", "conflict": report.to_wire()}

    @replay_pure
    def _on_invoke(self, body: Any, source: Address) -> Any:
        urn = body["urn"]
        method = body["method"]
        args = body.get("args", [])
        entry = self.objects.get(urn)
        if entry is None:
            return {"status": "not-found", "urn": urn}
        # The method runs on the stored object itself.
        wire = entry.wire
        version = wire["version"]
        interface_wire = wire.get("interface", [])
        interface = self._interfaces.get(repr(interface_wire))
        if interface is None:
            interface = self._decode_interface(interface_wire)
        spec = interface.get(method)
        if spec is None:
            raise RDOError(f"{urn}: method {method!r} not in interface")
        code = wire.get("code", "")
        # An environment for this request alone, never one kept across
        # requests: state a method left in its environment (a mutable
        # default argument) would leak into the next object of its class,
        # and vanish at a restart or a failover (a promoted backup never
        # ran the method), so one answer would depend on who ran what before.
        functions = self.interpreter.load(code) if code else {}
        data = wire["data"]
        try:
            result = self.interpreter.invoke(functions, method, data, *args)
            # Encoded before anything is stored or kept: state or a result
            # the codec refuses fails this invoke (``isascii`` is a C call:
            # only non-ASCII text pays for the check for a lone surrogate).
            raw = marshal(data) if spec.mutates else None
            if type(result) not in _SCALARS or type(result) is str and not result.isascii():
                result = _detached(result)  # the reply is kept; ``data`` is not
        except Exception:
            # The method ran on the stored data itself: put back a copy
            # of the version history's private copy of the stored version.
            wire["data"] = unmarshal(marshal(self._base_data(entry, version)))
            raise
        finally:
            if functions:  # a pure-data object loads nothing
                self.interpreter.release(functions)
        steps = self.interpreter.steps_used
        if not spec.mutates:
            committed = self._base_data(entry, version)
            if not same_encoding(data, committed):
                # Declared read-only, yet it wrote the stored data (the
                # verifier cannot see every alias): every cached copy of
                # this version would silently differ from the server's.
                wire["data"] = unmarshal(marshal(committed))
                return {"status": "hidden-mutation", "urn": urn}
            self.reads_served += 1
        self.invokes_served += 1
        reply: dict = {"status": "ok", "result": result}
        if spec.mutates:
            self._commit(urn, entry, data, raw, body, source, reply)
        return DelayedReply(self.cost_model.invoke_time(steps), reply)

    def _decode_interface(self, interface_wire: Any) -> RDOInterface:
        """Decode ``interface_wire`` into the interface table, keyed by
        its ``repr`` (its content; a C call, so a hit costs no Python
        call).  A wire that does not decode raises as it always has and
        is not kept; the table is bounded like the interpreter's code
        cache, and its evictions counted."""
        interface = RDOInterface.from_wire(interface_wire)
        if len(self._interfaces) >= SafeInterpreter.CODE_CACHE_MAX:
            self._interfaces.pop(next(iter(self._interfaces)))
            self.interface_evictions += 1
        self._interfaces[repr(interface_wire)] = interface
        return interface

    @replay_pure
    def _on_ship(self, body: Any, source: Address) -> Any:
        """Execute a shipped RDO server-side.

        The shipped code gets a read-only view of the store via the
        ``lookup`` helper; it returns a (marshallable) result that
        travels back in one reply — the whole point being that N
        lookups here replace N QRPCs over a slow link.
        """
        code = body.get("code", "")
        method = body.get("method", "main")
        args = body.get("args", [])

        diagnostics = self.interpreter.verify(
            code, path="<shipped-rdo>", extra_names=SHIP_ENV_NAMES
        )
        if diagnostics:
            self.rdos_rejected += 1
            raise RDOVerificationError("shipped RDO", diagnostics)

        def lookup(urn: str) -> Any:
            entry = self.objects.get(urn)
            return None if entry is None else entry.wire.get("data")

        def list_objects(prefix: str = "") -> list:
            return sorted(key for key in self.objects if key.startswith(prefix))

        functions = self.interpreter.load(
            code, extra_env={"lookup": lookup, "objects": list_objects}
        )
        try:
            result = self.interpreter.invoke(functions, method, *args)
            if type(result) not in _SCALARS or type(result) is str and not result.isascii():
                result = _detached(result)  # ``lookup`` hands out live data
        finally:
            self.interpreter.release(functions)
        steps = self.interpreter.steps_used
        self.ships_served += 1
        reply = {"status": "ok", "result": result}
        return DelayedReply(self.cost_model.invoke_time(steps), reply)

    # -- application-level locks ----------------------------------------------

    def _lock_holder(self, urn: str) -> Optional[str]:
        """Current lease holder, expiring stale leases lazily."""
        entry = self._locks.get(urn)
        if entry is None:
            return None
        holder, expires = entry
        if self.sim.now >= expires:
            del self._locks[urn]
            self.locks_expired += 1
            return None
        return holder

    def sweep_expired_locks(self) -> int:
        """Expire every overdue lease now (lease-clock housekeeping).

        Lazy expiry in :meth:`_lock_holder` only fires when someone
        touches the object; a crashed holder's lease on an otherwise
        idle object would linger until then.  The HA agent's heartbeat
        tick calls this so expiries happen on the lease clock itself.
        Returns the number of leases expired.
        """
        expired = [
            urn
            for urn, (_holder, expires) in sorted(self._locks.items())
            if self.sim.now >= expires
        ]
        for urn in expired:
            del self._locks[urn]
        self.locks_expired += len(expired)
        return len(expired)

    @replay_pure
    def _on_lock(self, body: Any, source: Address) -> Any:
        """Acquire an advisory lease on an object.

        The paper expects applications "structured as a collection of
        independent atomic actions, where the importing action sets an
        appropriate application-level lock" — the check-out half of
        Cedar's check-in/check-out model.  Leases expire so a client
        that disconnects forever cannot wedge the object: a lease that
        is not a finite number of seconds above zero never would (or
        would be granted already over), so it is refused, and nothing
        changes.
        """
        urn, session = body["urn"], body.get("session", "")
        lease_s = body.get("lease_s", 300.0)
        try:
            lease_s = float(lease_s) if type(lease_s) in (int, float) else math.nan
        except OverflowError:
            lease_s = math.nan
        if not 0.0 < lease_s < math.inf:
            return {"status": "invalid-lease"}
        holder = self._lock_holder(urn)
        if holder is not None and holder != session:
            self.locks_denied += 1
            return {"status": "locked", "holder": holder}
        self._locks[urn] = (session, self.sim.now + lease_s)
        self.locks_granted += 1
        return {"status": "ok", "expires_in_s": lease_s}

    @replay_pure
    def _on_unlock(self, body: Any, source: Address) -> Any:
        urn, session = body["urn"], body.get("session", "")
        holder = self._lock_holder(urn)
        if holder is not None and holder != session:
            return {"status": "not-holder", "holder": holder}
        self._locks.pop(urn, None)
        return {"status": "ok"}

    @replay_pure
    def _on_list(self, body: Any, source: Address) -> Any:
        """Enumerate object names under a prefix (hoard-walk support)."""
        prefix = body.get("prefix", "")
        names = sorted(key for key in self.objects if key.startswith(prefix))
        return {"status": "ok", "urns": names}

    @replay_pure
    def _on_subscribe(self, body: Any, source: Address) -> Any:
        """Register for invalidation callbacks on a URN prefix.

        The paper offers server callbacks as the alternative to
        periodic polling for shrinking the stale-import window.
        Callbacks are best-effort: they are dropped silently when no
        link to the subscriber is up (a disconnected client learns of
        changes by re-importing, as the paper intends).
        """
        self._subscriptions.setdefault(source[0], set()).add(body.get("prefix", ""))
        return {"status": "ok"}

    def _notify_subscribers(
        self, urn: str, version: int, except_host: Optional[str] = None
    ) -> None:
        for host_name, prefixes in self._subscriptions.items():
            if host_name == except_host:
                continue  # the writer already holds the new version
            if not any(urn.startswith(prefix) for prefix in prefixes):
                continue
            host = self.transport.host.network.hosts.get(host_name)
            if host is None:
                continue
            try:
                self.transport.send(
                    host,
                    INVALIDATION_PORT,
                    {"kind": "invalidate", "urn": urn, "version": version},
                )
                self.invalidations_sent += 1
            except LinkDown:
                pass  # best-effort; the client will poll or re-import


#: The client services, each ``service: (handler, read, retryable,
#: shape)``.  ``read``: counted in ``reads_served`` on entry (:mod:`repro.ha`
#: sorts a request by that count; an invoke counts itself once a read-only
#: method ran).  ``retryable`` is ``None`` for a service not applied at most
#: once; otherwise the one refusal the door does not keep, because the
#: same request may retry it ("" for none): a delta export's ``need-full``
#: asks for the full data, and a lock denial is re-evaluated on retry.
#: Every other answer is kept, a handler's ``error`` too: it is the
#: request's own, and a retransmit gets it again without a second run.
#: ``shape``: what its body may hold (flat, :mod:`repro.net.shape`).
SERVICES = {
    "rover.import": (RoverServer._on_import, True, None, shape.IMPORT),
    "rover.export": (RoverServer._on_export, False, "need-full", shape.EXPORT),
    "rover.invoke": (RoverServer._on_invoke, False, "", shape.INVOKE),
    "rover.ship": (RoverServer._on_ship, True, "", shape.SHIP),
    "rover.list": (RoverServer._on_list, True, None, shape.LIST),
    "rover.subscribe": (RoverServer._on_subscribe, True, None, shape.SUBSCRIBE),
    "rover.lock": (RoverServer._on_lock, False, "locked", shape.LOCK),
    "rover.unlock": (RoverServer._on_unlock, False, "", shape.UNLOCK),
}

#: Port clients listen on for server-initiated invalidations.
INVALIDATION_PORT = 531
