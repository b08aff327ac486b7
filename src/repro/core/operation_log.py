"""The client's stable operation log of pending QRPCs.

Section 5.2: the access manager appends every QRPC to a stable log
before the call returns, so queued work survives a client crash; log
records are deleted once the server's response arrives.  The log is
also the redelivery source — after a crash, recovery re-submits every
logged-but-unacknowledged request.

Record format on the backing :class:`~repro.storage.stable_log.StableLog`:
each record is a marshalled dict, either ``{"req": <request wire>}`` or
``{"ack": <request id>}``.  Acknowledgement markers make recovery a
single forward scan, and a prefix of fully-acked records is truncated
away opportunistically.

Compaction (:meth:`compact`) rewrites the unacknowledged suffix without
a separate log format: dropped requests get ordinary ack markers, and
rewritten requests get a fresh ``{"req": ..., "ord": <logical order>}``
record.  Recovery is last-writer-wins per request id, so the fresh
record supersedes the original, and the carried ``ord`` keeps the
request at its original place in the queue (a bare re-append would
move it to the back, reordering the replay).

Durability is this module's job and nobody else's.  :meth:`append` is
the one way a request is logged: the log writes the record, decides
when the flush window closes (:meth:`OperationLog.keep_time` — no
policy: now, the paper's flush-per-QRPC, a window of one; a
:class:`~repro.storage.stable_log.GroupCommitPolicy`: when its budget
fills, else at its stretching deadline), issues the one flush,
takes a turn on the serial disk and tells every request the flush
covered when it is durable.  It keeps the disk's clock and
:attr:`flush_seconds_total` for every flush it causes — append window,
acknowledgement, compaction, terminal failure — and :meth:`crash` is
what a dying process does to all of it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.core.qrpc import QRPCRequest
from repro.net.message import marshal, unmarshal
from repro.storage.stable_log import GroupCommitPolicy, StableLog

#: The clock of a log nobody handed one (the record-format tests).
_STOPPED = SimpleNamespace(now=0.0)

#: ``on_durable(request, durable_at)``: the flush covering ``request``'s
#: record has been issued and completes at virtual time ``durable_at``.
OnDurable = Callable[[QRPCRequest, float], None]


class OperationLog:
    """Pending-QRPC log with at-most-once acknowledgement tracking."""

    def __init__(
        self,
        stable_log: Optional[StableLog] = None,
        obs: Optional["object"] = None,
        owner: str = "client",
    ) -> None:
        self.stable = stable_log if stable_log is not None else StableLog()
        #: In logical queue order, always: an append is the newest, a
        #: compaction rewrite keeps its key's place, recovery sorts once.
        self._pending: dict[str, QRPCRequest] = {}
        #: The same requests by URN (each bucket in queue order too), so
        #: compaction can look at one object's backlog, not everyone's.
        self._by_urn: dict[str, dict[str, QRPCRequest]] = {}
        #: Per pending request: the seq of its latest record, and its
        #: logical place in the queue; dropped as the request leaves.
        self._record_seq: dict[str, int] = {}
        self._order: dict[str, int] = {}
        #: QRPCs removed from the queue by :meth:`compact` (lifetime).
        self.ops_compacted = 0
        self._m_compacted = None
        if obs is not None:
            # Live view: how many QRPCs are logged but unanswered.
            obs.registry.gauge(
                "oplog_pending", "Logged-but-unacknowledged QRPCs",
                labelnames=("owner",),
            ).labels(owner=owner).set_function(lambda: len(self._pending))
            self._m_compacted = obs.registry.counter(
                "log_ops_compacted_total",
                "Queued QRPCs removed from the log by compaction",
                labelnames=("owner",),
            ).labels(owner=owner)
        #: Virtual seconds of disk time, over every flush this log
        #: caused — the exact quantity experiment E2 measures.
        self.flush_seconds_total = 0.0
        self._sim: Any = _STOPPED
        self._policy: Optional[GroupCommitPolicy] = None
        #: The disk is a serial resource: a flush that takes a turn
        #: (window close, compaction) queues behind the one in progress.
        self._busy_until = 0.0
        #: The open window: who is waiting on it, when its first append
        #: came, and the timer (with its deadline) that will close it.
        self._waiting: list[tuple[QRPCRequest, Optional[OnDurable]]] = []
        self._window_start = 0.0
        self._deadline = 0.0
        self._timer: Any = None
        self._recover()

    def keep_time(self, sim: Any, policy: Optional[GroupCommitPolicy] = None) -> None:
        """Hand the log its clock and its window policy (the access
        manager's constructor does, with its own)."""
        self._sim, self._policy = sim, policy

    def _recover(self) -> None:
        """Rebuild pending state from durable records (crash recovery)."""
        for record in self.stable.records():
            entry = unmarshal(record.payload)
            if "req" in entry:
                request = QRPCRequest.from_wire(entry["req"])
                request.recovered = True  # a previous incarnation's
                self._pending[request.request_id] = request
                self._record_seq[request.request_id] = record.seq
                self._order[request.request_id] = entry.get("ord", record.seq)
            elif "ack" in entry and entry["ack"] in self._pending:
                request_id = entry["ack"]
                del self._pending[request_id], self._record_seq[request_id], self._order[request_id]
        # A rewrite whose original record was truncated away sits behind
        # younger records; ``ord`` says where it belongs.
        in_order = sorted(self._pending, key=self._order.__getitem__)
        self._pending = {request_id: self._pending[request_id] for request_id in in_order}
        for request_id, request in self._pending.items():
            self._by_urn.setdefault(request.urn, {})[request_id] = request

    # -- writing ----------------------------------------------------------

    def append(self, request: QRPCRequest, on_durable: Optional[OnDurable] = None) -> float:
        """Log a new request and see to its durability.

        ``on_durable(request, durable_at)`` is called when the window
        the record joined closes — inside this call if it closes now.
        With no policy every append is its own window (the paper's
        prototype: the flush is on each QRPC's critical path); a policy
        batches appends behind one flush, trading a wider crash-loss
        window for fewer synchronous disk waits (ablated in E2b).
        Returns the flush time if this append closed the window.
        """
        seq = self.stable.append(marshal({"req": request.to_wire()}))
        request_id = request.request_id
        self._pending[request_id] = request
        self._by_urn.setdefault(request.urn, {})[request_id] = request
        self._record_seq[request_id] = seq
        self._order[request_id] = seq
        self._waiting.append((request, on_durable))
        policy, stable, timer = self._policy, self.stable, self._timer
        if policy is None or policy.budget_exceeded(
            stable.unflushed_bytes, stable.unflushed_records
        ):
            if timer is not None:
                timer.cancel()
            return self._close_window()
        # The deadline stretches with the burst, capped at
        # ``max_window_s`` past the window's first append.
        now = self._sim.now
        if timer is None:
            self._window_start = now
        deadline = policy.next_deadline(now, self._window_start)
        if timer is None or deadline > self._deadline:
            if timer is not None:
                timer.cancel()
            self._timer = self._sim.schedule_at(deadline, self._close_window)
            self._deadline = deadline
        return 0.0

    def _close_window(self) -> float:
        """One flush covers every append of the window (free if an
        acknowledgement's flush already took them along); it queues
        behind any flush in progress, and each request is told when it
        completes."""
        self._timer = None
        stable = self.stable
        # StableLog.sync(), spelled out: a frame per QRPC on the window of one.
        flush_time = stable.flush() if stable.unflushed_records else 0.0
        self.flush_seconds_total += flush_time
        durable_at = self._busy_until = max(self._sim.now, self._busy_until) + flush_time
        waiting, self._waiting = self._waiting, []
        for request, on_durable in waiting:
            if on_durable is not None:
                on_durable(request, durable_at)
        return flush_time

    def crash(self) -> None:
        """The process dies: the unflushed tail is lost and so is the
        open window — its requests never became durable, nobody is told
        they did."""
        self.stable.crash()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._waiting = []

    def acknowledge(self, request_id: str) -> float:
        """Record that the server's response has been processed.

        Idempotent: acknowledging twice (duplicate response) is a
        no-op returning zero cost — this is the at-most-once filter.
        Returns the flush time in seconds: disk time, but no turn on
        the disk (nothing waits for an ack marker to be durable).
        """
        if request_id not in self._pending:
            return 0.0
        urn = self._pending.pop(request_id).urn
        bucket = self._by_urn[urn]
        del bucket[request_id]
        if not bucket:
            del self._by_urn[urn]
        del self._record_seq[request_id], self._order[request_id]
        self.stable.append(marshal({"ack": request_id}))
        flush_time = self.stable.flush()
        self.flush_seconds_total += flush_time
        self._maybe_truncate()
        return flush_time

    def compact(
        self,
        drop_ids: list[str],
        rewrites: Optional[dict[str, QRPCRequest]] = None,
    ) -> float:
        """Apply a compaction to the durable log; returns the flush time.

        ``drop_ids`` leave the pending set via ordinary ack markers —
        recovery already understands those, so a crash at any point
        during compaction replays either the old queue or the compacted
        one, never something in between.  ``rewrites`` maps request ids
        to their replacement requests; each gets a fresh record carrying
        the original logical order (see module docstring).  Requests
        already acknowledged or unknown are skipped silently.
        """
        wrote = False
        for request_id in drop_ids:
            if request_id not in self._pending:
                continue
            urn = self._pending.pop(request_id).urn
            bucket = self._by_urn[urn]
            del bucket[request_id]
            if not bucket:
                del self._by_urn[urn]
            del self._record_seq[request_id], self._order[request_id]
            self.stable.append(marshal({"ack": request_id}))
            self.ops_compacted += 1
            if self._m_compacted is not None:
                self._m_compacted.inc()
            wrote = True
        for request_id, request in (rewrites or {}).items():
            if request_id not in self._pending:
                continue
            seq = self.stable.append(
                marshal({"req": request.to_wire(), "ord": self._order[request_id]})
            )
            self._pending[request_id] = request
            self._by_urn[request.urn][request_id] = request
            self._record_seq[request_id] = seq
            wrote = True
        if not wrote:
            return 0.0
        flush_time = self.stable.flush()
        self.flush_seconds_total += flush_time
        self._busy_until = max(self._sim.now, self._busy_until) + flush_time
        self._maybe_truncate()
        return flush_time

    def note_compacted(self, n: int) -> None:
        """Count ``n`` operations that compaction kept off the wire
        without a log record of their own (folded export rounds)."""
        self.ops_compacted += n
        if self._m_compacted is not None:
            self._m_compacted.inc(n)

    def mark_failed(self, request_id: str) -> None:
        """Terminal transport failure; the request leaves the pending
        set behind an ack marker, flushed and charged as any ack's."""
        self.acknowledge(request_id)

    def _maybe_truncate(self) -> None:
        """Drop the durable prefix whose requests are all acknowledged."""
        if self._pending:
            # Runs per acknowledgement over everything still queued: a
            # C-level map, not a generator resumed per pending request
            # (25 Python calls/op behind a slow link's long queue).
            oldest_live = min(map(self._record_seq.__getitem__, self._pending))
            self.stable.truncate_through(oldest_live - 1)
        else:
            records = self.stable.records()
            if records:
                self.stable.truncate_through(records[-1].seq)

    # -- reading ----------------------------------------------------------

    def pending(self) -> list[QRPCRequest]:
        """Unacknowledged requests in logical queue order.

        Logical order, not record position: a compaction rewrite
        appends a fresh record but does not move the request to the
        back of the queue.
        """
        return list(self._pending.values())

    def pending_for(self, urn: str) -> list[QRPCRequest]:
        """The unacknowledged requests for one object, in queue order."""
        bucket = self._by_urn.get(urn)
        return list(bucket.values()) if bucket else []

    def first_pending_id(self, prefix: str) -> Optional[str]:
        """The oldest pending request id that starts with ``prefix``
        (an incarnation's ids are logged in the order they were minted,
        so it is that incarnation's lowest), or None.  Only a recovered
        incarnation's ids, settled first, are stepped over."""
        for request_id in self._pending:
            if request_id.startswith(prefix):
                return request_id
        return None

    def pending_count(self) -> int:
        return len(self._pending)

    def get(self, request_id: str) -> Optional[QRPCRequest]:
        return self._pending.get(request_id)
