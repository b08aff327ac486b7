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

Mutating operations are applied **at most once**: the server remembers
the reply for every request id it has applied and returns the cached
reply on redelivery, so QRPC retransmissions are safe.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Any, Iterable, Optional

from repro.core.conflict import ConflictReport, ResolverRegistry
from repro.core.interpreter import SafeInterpreter
from repro.core.rdo import RDO, ExecutionCostModel, RDOVerificationError
from repro.net.simnet import Address
from repro.lint.contracts import replay_pure
from repro.net.transport import DelayedReply, Transport
from repro.obs import Observatory
from repro.sim import Simulator
from repro.storage.kvstore import KVStore


#: Host helpers exposed to shipped RDO code (the ``rover.ship``
#: execution environment); the static verifier treats these as defined.
SHIP_ENV_NAMES = ("lookup", "objects")


def _ship_code_errors(code: str) -> list:
    """ERROR-severity findings for code arriving on the ship path."""
    from repro.lint.diagnostics import errors_only
    from repro.lint.verifier import check_code

    return errors_only(
        check_code(code, path="<shipped-rdo>", extra_names=SHIP_ENV_NAMES)
    )


def _split_request_id(request_id: Any) -> Optional[tuple[str, int]]:
    """``(client id-prefix, counter)`` of a ``<prefix>/<counter>`` id."""
    if not isinstance(request_id, str):
        return None
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
        self._replies: OrderedDict[str, tuple[dict, Optional[tuple[str, int]]]] = OrderedDict()
        self._by_client: dict[str, list[tuple[int, str]]] = {}

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

    def __setitem__(self, request_id: str, reply: dict) -> None:
        """Cache ``reply`` as the most recently used entry."""
        cached = self._replies.get(request_id)
        if cached is None:
            split = _split_request_id(request_id)
            if split is not None:
                insort(self._by_client.setdefault(split[0], []), (split[1], request_id))
        else:
            split = cached[1]
            self._replies.move_to_end(request_id)
        self._replies[request_id] = (reply, split)

    def evict_oldest(self) -> None:
        request_id, (__, split) = self._replies.popitem(last=False)
        if split is not None:
            entries = self._by_client[split[0]]
            del entries[bisect_left(entries, (split[1], request_id))]
            if not entries:
                del self._by_client[split[0]]

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


class RoverServer:
    """Home server for one authority."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        authority: str,
        resolvers: Optional[ResolverRegistry] = None,
        cost_model: Optional[ExecutionCostModel] = None,
        history_limit: int = 32,
        step_budget: int = 200_000,
        auth_tokens: Optional[set[str]] = None,
        obs: Optional[Observatory] = None,
        verify_rdos: bool = True,
        applied_cache_cap: int = 1024,
    ) -> None:
        self.sim = sim
        self.transport = transport
        #: Observability: defaults to the transport's observatory so a
        #: hand-wired server shares its host's registry/tracer.
        self.obs = obs if obs is not None else transport.obs
        self.authority = authority
        self.store = KVStore()
        self.resolvers = resolvers or ResolverRegistry()
        # Servers are workstations: markedly faster than the mobile
        # client (the paper's DEC vs. ThinkPad split).
        self.cost_model = cost_model or ExecutionCostModel(
            base_s=0.0004, per_step_s=0.0001
        )
        self.interpreter = SafeInterpreter(step_budget=step_budget)
        #: Accepted authentication tokens; ``None`` leaves the server
        #: open.  The paper's server is "a secure setuid application
        #: that authenticates requests from client applications" — we
        #: model the authentication decision, not the cryptography.
        self.auth_tokens = auth_tokens
        self.auth_rejections = 0
        #: Static verification at the publish/ship boundary: a bad RDO
        #: is rejected *here*, with precise diagnostics, instead of
        #: failing on a client mid-invocation after crossing a slow
        #: link.  ``verify_rdos=False`` is the escape hatch for
        #: deliberately unverifiable code (it still faces the runtime
        #: sandbox, the last line of defense).
        self.verify_rdos = verify_rdos
        self.rdos_rejected = 0
        self.history_limit = history_limit
        self._history: dict[str, list[tuple[int, Any]]] = {}
        #: urn -> {request_id: original reply} for updates that made it
        #: into the store.  The at-most-once reply cache is bounded and
        #: volatile; this index is the durable backstop that keeps a
        #: replayed-but-evicted update from re-negotiating against
        #: version history (and manufacturing a conflict for a client
        #: that never had one).  It must hold the *original* reply —
        #: a "resolved" reply carries the merged value the client still
        #: has to apply; answering a replay with a bare "committed"
        #: would let the client's next export overwrite the merge.
        #: Pruned alongside ``_history`` (same per-urn depth).
        self._committed_replies: dict[str, OrderedDict[str, dict]] = {}
        #: At-most-once replies, LRU-ordered.  Two bounds keep it from
        #: growing forever: clients piggyback an acknowledged-id
        #: watermark on QRPC envelopes (entries below it are settled and
        #: pruned exactly), and ``applied_cache_cap`` is the backstop
        #: for clients that never report one.
        self._applied = _AppliedReplies()
        self.applied_cache_cap = applied_cache_cap
        self.applied_pruned = 0
        #: Highest watermark seen per client id-prefix.
        self._client_watermarks: dict[str, int] = {}
        self.imports_served = 0
        self.exports_committed = 0
        self.exports_resolved = 0
        self.exports_conflicted = 0
        self.invokes_served = 0
        self.ships_served = 0
        self.duplicates_suppressed = 0
        #: (host_name, prefix) subscriptions for invalidation callbacks.
        self._subscriptions: dict[str, set[str]] = {}
        self.invalidations_sent = 0
        transport.register("rover.import", self._on_import)
        transport.register("rover.export", self._on_export)
        transport.register("rover.invoke", self._on_invoke)
        transport.register("rover.ship", self._on_ship)
        transport.register("rover.list", self._on_list)
        transport.register("rover.subscribe", self._on_subscribe)
        #: urn -> (holder session id, lease expiry time)
        self._locks: dict[str, tuple[str, float]] = {}
        self.locks_granted = 0
        self.locks_denied = 0
        self.locks_expired = 0
        #: Lease clock override used by :mod:`repro.ha` while applying
        #: a replicated record: lock grants and expiries must evaluate
        #: against the *primary's* execution time, not the (later)
        #: backup apply time, or replicas would diverge on lease edges.
        self._apply_now: Optional[float] = None
        transport.register("rover.lock", self._on_lock)
        transport.register("rover.unlock", self._on_unlock)
        # Metrics: live views over the plain instance counters above.
        # The attributes stay ordinary ints (tests and experiment
        # drivers read them directly); the registry sees them through
        # function gauges so `--metrics` exports one coherent snapshot.
        gauge = self.obs.registry.gauge(
            "server_requests", "Per-service request totals",
            labelnames=("authority", "kind"),
        )
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
        ):
            gauge.labels(authority=authority, kind=attr).set_function(
                lambda a=attr: getattr(self, a)
            )
        delta_saved = self.obs.registry.counter(
            "ship_delta_bytes_saved_total",
            "Wire bytes avoided by shipping structural deltas",
            labelnames=("authority", "direction"),
        )
        self._m_delta_down = delta_saved.labels(authority=authority, direction="down")
        self._m_delta_up = delta_saved.labels(authority=authority, direction="up")
        self._m_locks_expired = self.obs.registry.counter(
            "locks_expired_total",
            "Lock leases expired server-side (holder never released)",
            labelnames=("authority",),
        ).labels(authority=authority)

    # -- lease clock ---------------------------------------------------------

    def now(self) -> float:
        """The lease clock: sim time, or the replicated record's
        execution time while :mod:`repro.ha` applies it on a backup."""
        return self.sim.now if self._apply_now is None else self._apply_now

    # -- population ---------------------------------------------------------

    def put_object(self, rdo: RDO, verify: Optional[bool] = None) -> int:
        """Install/replace an object (server-side administration).

        When verification is on (the default; ``verify`` overrides the
        server-wide :attr:`verify_rdos` per call), the RDO's code is
        statically verified against its interface and the publish is
        rejected — :class:`RDOVerificationError`, listing every
        finding with rule/file/line/col — before anything is stored.
        """
        should_verify = self.verify_rdos if verify is None else verify
        if should_verify:
            try:
                rdo.verify_or_raise()
            except RDOVerificationError:
                self.rdos_rejected += 1
                raise
        key = str(rdo.urn)
        version = self.store.put(key, rdo.to_wire())
        stored = self.store.get_value(key)
        stored["version"] = version
        self._remember(key, version, stored["data"])
        return version

    def snapshot(self) -> dict:
        """Durable server state: the object store and version history.

        Deliberately EXCLUDES the at-most-once applied-reply cache —
        that is volatile, so a crash/restart forgets it.  Correctness
        then rests on version-stamp detection: a retransmitted export
        whose update already committed arrives with a stale base
        version and goes through the type-specific resolver, which for
        well-formed types merges it idempotently (see the
        crash-restart tests).
        """
        from repro.net.message import marshal, unmarshal

        return unmarshal(
            marshal(
                {
                    "store": {k: list(self.store.get(k)) for k in self.store.keys()},
                    "history": {k: list(v) for k, v in self._history.items()},
                    "committed_replies": {
                        k: list(v.items()) for k, v in self._committed_replies.items()
                    },
                }
            )
        )

    def restore(self, snapshot: dict) -> None:
        """Reload durable state after a simulated server restart."""
        self.store.restore(
            {key: (value, version) for key, (value, version) in snapshot["store"].items()}
        )
        self._history = {
            key: [(version, data) for version, data in entries]
            for key, entries in snapshot["history"].items()
        }
        # Older snapshots predate the committer index; default empty.
        self._committed_replies = {
            key: OrderedDict((request_id, reply) for request_id, reply in entries)
            for key, entries in snapshot.get("committed_replies", {}).items()
        }
        self._applied.clear()  # volatile: lost in the crash
        self._locks.clear()    # leases do not survive a restart

    # -- anti-entropy (repro.ha) --------------------------------------------

    def state_vector(self) -> dict[str, list]:
        """Per-urn ``[version, crc32(data)]`` summary of the store.

        The version-vector half of anti-entropy: two replicas exchange
        these to find exactly the objects that differ, then transfer
        only those (:meth:`subset_snapshot` / :meth:`merge_subset`).
        """
        from repro.net.message import marshal

        vector: dict[str, list] = {}
        for urn in sorted(self.store.keys()):
            value, version = self.store.get(urn)
            vector[urn] = [version, zlib.crc32(marshal(value)) & 0xFFFFFFFF]
        return vector

    def subset_snapshot(self, urns: Iterable[str]) -> dict:
        """Durable state restricted to ``urns`` (anti-entropy transfer)."""
        from repro.net.message import marshal, unmarshal

        wanted = sorted(set(urns))
        return unmarshal(
            marshal(
                {
                    "store": {
                        u: list(self.store.get(u)) for u in wanted if u in self.store
                    },
                    "history": {
                        u: list(self._history[u]) for u in wanted if u in self._history
                    },
                    "committed_replies": {
                        u: list(self._committed_replies[u].items())
                        for u in wanted
                        if u in self._committed_replies
                    },
                }
            )
        )

    def merge_subset(self, subset: dict, deletions: Iterable[str]) -> None:
        """Adopt a peer's :meth:`subset_snapshot`, dropping ``deletions``.

        Used when a crashed (or deposed) replica rejoins: the primary's
        copy of every differing object wins wholesale — including its
        committed-reply index, so at-most-once survives the takeover —
        and objects the primary no longer holds are deleted.  The
        volatile applied cache is cleared: it may describe a divergent
        history that never reached quorum.
        """
        merged = self.store.snapshot()
        for urn in sorted(set(deletions)):
            merged.pop(urn, None)
            self._history.pop(urn, None)
            self._committed_replies.pop(urn, None)
        for urn, entry in subset.get("store", {}).items():
            merged[urn] = (entry[0], entry[1])
        self.store.restore(merged)
        for urn, entries in subset.get("history", {}).items():
            self._history[urn] = [(version, data) for version, data in entries]
        for urn, entries in subset.get("committed_replies", {}).items():
            self._committed_replies[urn] = OrderedDict(
                (request_id, reply) for request_id, reply in entries
            )
        self._applied.clear()

    def get_object(self, urn: str) -> Optional[RDO]:
        wire = self.store.get_value(urn)
        if wire is None:
            return None
        rdo = RDO.from_wire(wire)
        rdo.version = self.store.version(urn) or rdo.version
        return rdo

    def _remember(
        self, urn: str, version: int, data: Any, raw: Optional[bytes] = None
    ) -> None:
        """Keep a private copy of ``data`` (``raw``: its encoding, when
        the caller already made one) in the version history."""
        from repro.net.message import marshal, unmarshal

        history = self._history.setdefault(urn, [])
        history.append((version, unmarshal(raw if raw is not None else marshal(data))))
        if len(history) > self.history_limit:
            del history[: len(history) - self.history_limit]

    def _remember_committed(
        self, urn: str, request_id: Optional[str], reply: dict
    ) -> None:
        if request_id is None:
            return
        committed = self._committed_replies.setdefault(urn, OrderedDict())
        committed[request_id] = reply
        committed.move_to_end(request_id)
        while len(committed) > self.history_limit:
            committed.popitem(last=False)

    def _committed_replay(
        self, urn: str, request_id: Optional[str]
    ) -> Optional[dict]:
        if request_id is None:
            return None
        return self._committed_replies.get(urn, {}).get(request_id)

    def _base_data(self, urn: str, version: int) -> Optional[Any]:
        for stored_version, data in self._history.get(urn, []):
            if stored_version == version:
                return data
        return None

    # -- at-most-once -------------------------------------------------------

    def _cached_reply(self, request_id: Optional[str]) -> Optional[dict]:
        if request_id is None:
            return None
        reply = self._applied.get(request_id)
        if reply is not None:
            self.duplicates_suppressed += 1
            return reply
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
            return {"status": "duplicate", "request_id": request_id}
        return None

    def _record_reply(self, request_id: Optional[str], reply: dict) -> dict:
        if request_id is not None:
            self._applied[request_id] = reply
            while len(self._applied) > self.applied_cache_cap:
                self._applied.evict_oldest()
                self.applied_pruned += 1
        return reply

    def _observe_watermark(self, body: Any) -> None:
        """Prune settled at-most-once entries for the sending client.

        The envelope's ``ackw`` is ``[id_prefix, counter]``: every
        request id with that prefix and a lower counter has had its
        reply processed and acknowledged client-side, so it can never
        be retransmitted — its cached reply is dead weight.
        """
        if not isinstance(body, dict):
            return
        ackw = body.get("ackw")
        if not isinstance(ackw, list) or len(ackw) != 2:
            return
        prefix, watermark = str(ackw[0]), int(ackw[1])
        if self._client_watermarks.get(prefix, -1) >= watermark:
            return
        self._client_watermarks[prefix] = watermark
        self.applied_pruned += self._applied.prune_below(prefix, watermark)

    def _authorized(self, body: Any) -> bool:
        if self.auth_tokens is None:
            return True
        ok = isinstance(body, dict) and body.get("auth") in self.auth_tokens
        if not ok:
            self.auth_rejections += 1
        return ok

    # -- services -------------------------------------------------------------

    @replay_pure
    def _on_import(self, body: Any, source: Address) -> Any:
        if not self._authorized(body):
            return {"status": "unauthorized"}
        urn = body["urn"]
        wire = self.store.get_value(urn)
        if wire is None:
            return {"status": "not-found", "urn": urn}
        self.imports_served += 1
        wire = dict(wire)
        wire["version"] = self.store.version(urn)
        full = {"status": "ok", "rdo": wire, "version": wire["version"]}
        have = body.get("have_version")
        if have is None:
            return full
        # Warm re-import: the client still holds `have` — answer with a
        # structural delta against it when that is actually smaller.
        # The delta covers only the data (code/interface are immutable
        # per URN), so the reply omits the rdo wire entirely.
        from repro.net.message import Premarshalled, marshalled_size
        from repro.perf.delta import diff_value

        base = self._base_data(urn, int(have))
        if base is None:
            return full
        # Encoded once: sized from its bytes here, spliced into the
        # reply envelope if it is the one that ships.
        slim = Premarshalled(
            {
                "status": "ok-delta",
                "delta": diff_value(base, wire["data"]),
                "base_version": int(have),
                "version": wire["version"],
            }
        )
        saved = marshalled_size(full) - marshalled_size(slim)
        if saved <= 0:
            return full
        self._m_delta_down.inc(saved)
        return slim

    @replay_pure
    def _on_export(self, body: Any, source: Address) -> Any:
        if not self._authorized(body):
            return {"status": "unauthorized"}
        self._observe_watermark(body)
        request_id = body.get("request_id")
        cached = self._cached_reply(request_id)
        if cached is not None:
            return cached
        urn = body["urn"]
        replayed = self._committed_replay(urn, request_id)
        if replayed is not None:
            # Already applied, cached reply since evicted (or lost in a
            # restart).  Answering from current state would re-negotiate
            # the export against version history — a base the server may
            # have GC'd, turning a clean replay into need-full and then
            # a manufactured conflict.  Replaying the original reply is
            # the only sound answer: a "resolved" reply carries a merged
            # value the client must still apply.
            self.duplicates_suppressed += 1
            return self._record_reply(request_id, replayed)
        base_version = int(body.get("base_version", 0))
        client_data = body.get("data")
        client_raw = None
        if "delta" in body and "data" not in body:
            # Delta export: reconstruct the client's full data from the
            # base version both sides hold.  A history miss or a delta
            # that does not fit the base gets "need-full" — deliberately
            # NOT recorded in the at-most-once cache, so the client's
            # full-data resend under the same request id still applies.
            from repro.net.message import marshal, marshalled_size
            from repro.perf.delta import DeltaError, apply_delta

            base = self._base_data(urn, base_version)
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
                self._m_delta_up.inc(saved)
        wire = self.store.get_value(urn)
        if wire is None:
            return self._record_reply(request_id, {"status": "not-found", "urn": urn})
        holder = self._lock_holder(urn)
        if holder is not None and body.get("session", "") != holder:
            # Another session holds the application-level lock.
            return self._record_reply(
                request_id, {"status": "locked", "holder": holder}
            )
        current_version = self.store.version(urn) or 0

        if base_version == current_version:
            new_wire = dict(wire)
            new_wire["data"] = client_data
            new_version = self.store.put(urn, new_wire)
            self.store.get_value(urn)["version"] = new_version
            self._remember(urn, new_version, client_data, raw=client_raw)
            self.exports_committed += 1
            self._notify_subscribers(urn, new_version, except_host=source[0])
            reply = {"status": "committed", "version": new_version}
            self._remember_committed(urn, request_id, reply)
            return self._record_reply(request_id, reply)

        # Concurrent update: attempt type-specific resolution.
        type_name = wire.get("type", "")
        resolver = self.resolvers.for_type(type_name)
        base_data = self._base_data(urn, base_version)
        resolution = resolver.resolve(base_data, wire.get("data"), client_data)
        if resolution.resolved:
            new_wire = dict(wire)
            new_wire["data"] = resolution.merged_value
            new_version = self.store.put(urn, new_wire)
            self.store.get_value(urn)["version"] = new_version
            self._remember(urn, new_version, resolution.merged_value)
            self.exports_resolved += 1
            self._notify_subscribers(urn, new_version, except_host=source[0])
            reply = {
                "status": "resolved",
                "version": new_version,
                "value": resolution.merged_value,
                "detail": resolution.detail,
            }
            self._remember_committed(urn, request_id, reply)
            return self._record_reply(request_id, reply)

        self.exports_conflicted += 1
        report = ConflictReport(
            urn=urn,
            type_name=type_name,
            base_version=base_version,
            server_version=current_version,
            detail=resolution.detail,
            server_value=wire.get("data"),
        )
        return self._record_reply(
            request_id, {"status": "conflict", "conflict": report.to_wire()}
        )

    @replay_pure
    def _on_invoke(self, body: Any, source: Address) -> Any:
        if not self._authorized(body):
            return {"status": "unauthorized"}
        self._observe_watermark(body)
        request_id = body.get("request_id")
        cached = self._cached_reply(request_id)
        if cached is not None:
            return cached
        urn = body["urn"]
        replayed = self._committed_replay(urn, request_id)
        if replayed is not None:
            # A mutating invoke that already applied must not run again
            # (at-most-once); replay the original reply, result included.
            self.duplicates_suppressed += 1
            return self._record_reply(request_id, replayed)
        method = body["method"]
        args = body.get("args", [])
        rdo = self.get_object(urn)
        if rdo is None:
            return self._record_reply(request_id, {"status": "not-found", "urn": urn})
        try:
            result, steps = rdo.invoke(self.interpreter, method, *args)
        finally:
            # The environment was loaded for this request alone.
            rdo.release()
        self.invokes_served += 1
        mutates = rdo.interface.mutates(method)
        reply: dict = {"status": "ok", "result": result}
        if mutates:
            wire = rdo.to_wire()
            new_version = self.store.put(urn, wire)
            self.store.get_value(urn)["version"] = new_version
            self._remember(urn, new_version, wire["data"])
            reply["version"] = new_version
            self._remember_committed(urn, request_id, reply)
            self._notify_subscribers(urn, new_version, except_host=source[0])
        self._record_reply(request_id, reply)
        return DelayedReply(self.cost_model.invoke_time(steps), reply)

    @replay_pure
    def _on_ship(self, body: Any, source: Address) -> Any:
        """Execute a shipped RDO server-side.

        The shipped code gets a read-only view of the store via the
        ``lookup`` helper; it returns a (marshallable) result that
        travels back in one reply — the whole point being that N
        lookups here replace N QRPCs over a slow link.
        """
        if not self._authorized(body):
            return {"status": "unauthorized"}
        self._observe_watermark(body)
        request_id = body.get("request_id")
        cached = self._cached_reply(request_id)
        if cached is not None:
            return cached
        code = body.get("code", "")
        method = body.get("method", "main")
        args = body.get("args", [])

        if self.verify_rdos and not body.get("unverified"):
            diagnostics = _ship_code_errors(code)
            if diagnostics:
                self.rdos_rejected += 1
                raise RDOVerificationError("shipped RDO", diagnostics)

        def lookup(urn: str) -> Any:
            wire = self.store.get_value(urn)
            return None if wire is None else wire.get("data")

        def list_objects(prefix: str = "") -> list:
            return sorted(key for key in self.store.keys() if key.startswith(prefix))

        functions = self.interpreter.load(
            code, extra_env={"lookup": lookup, "objects": list_objects}
        )
        try:
            result = self.interpreter.invoke(functions, method, *args)
        finally:
            self.interpreter.release(functions)
        steps = self.interpreter.steps_used
        self.ships_served += 1
        reply = {"status": "ok", "result": result}
        self._record_reply(request_id, reply)
        return DelayedReply(self.cost_model.invoke_time(steps), reply)

    # -- application-level locks ----------------------------------------------

    def _lock_holder(self, urn: str) -> Optional[str]:
        """Current lease holder, expiring stale leases lazily."""
        entry = self._locks.get(urn)
        if entry is None:
            return None
        holder, expires = entry
        if self.now() >= expires:
            del self._locks[urn]
            self.locks_expired += 1
            self._m_locks_expired.inc()
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
            if self.now() >= expires
        ]
        for urn in expired:
            del self._locks[urn]
        self.locks_expired += len(expired)
        if expired:
            self._m_locks_expired.inc(len(expired))
        return len(expired)

    @replay_pure
    def _on_lock(self, body: Any, source: Address) -> Any:
        """Acquire an advisory lease on an object.

        The paper expects applications "structured as a collection of
        independent atomic actions, where the importing action sets an
        appropriate application-level lock" — the check-out half of
        Cedar's check-in/check-out model.  Leases expire so a client
        that disconnects forever cannot wedge the object.
        """
        if not self._authorized(body):
            return {"status": "unauthorized"}
        urn = body["urn"]
        session = body.get("session", "")
        lease_s = float(body.get("lease_s", 300.0))
        holder = self._lock_holder(urn)
        if holder is not None and holder != session:
            self.locks_denied += 1
            return {"status": "locked", "holder": holder}
        self._locks[urn] = (session, self.now() + lease_s)
        self.locks_granted += 1
        return {"status": "ok", "expires_in_s": lease_s}

    @replay_pure
    def _on_unlock(self, body: Any, source: Address) -> Any:
        if not self._authorized(body):
            return {"status": "unauthorized"}
        urn = body["urn"]
        session = body.get("session", "")
        holder = self._lock_holder(urn)
        if holder is not None and holder != session:
            return {"status": "not-holder", "holder": holder}
        self._locks.pop(urn, None)
        return {"status": "ok"}

    @replay_pure
    def _on_list(self, body: Any, source: Address) -> Any:
        """Enumerate object names under a prefix (hoard-walk support)."""
        if not self._authorized(body):
            return {"status": "unauthorized"}
        prefix = body.get("prefix", "")
        names = sorted(key for key in self.store.keys() if key.startswith(prefix))
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
        if not self._authorized(body):
            return {"status": "unauthorized"}
        host_name = source[0]
        prefix = body.get("prefix", "")
        self._subscriptions.setdefault(host_name, set()).add(prefix)
        return {"status": "ok"}

    def _notify_subscribers(
        self, urn: str, version: int, except_host: Optional[str] = None
    ) -> None:
        from repro.net.simnet import LinkDown

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


#: Port clients listen on for server-initiated invalidations.
INVALIDATION_PORT = 531
