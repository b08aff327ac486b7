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
"""

from __future__ import annotations

from typing import Optional

from repro.core.qrpc import QRPCRequest
from repro.net.message import marshal, unmarshal
from repro.storage.stable_log import StableLog


class OperationLog:
    """Pending-QRPC log with at-most-once acknowledgement tracking."""

    def __init__(
        self,
        stable_log: Optional[StableLog] = None,
        obs: Optional["object"] = None,
        owner: str = "client",
    ) -> None:
        self.stable = stable_log if stable_log is not None else StableLog()
        self._pending: dict[str, QRPCRequest] = {}
        self._record_seq: dict[str, int] = {}
        self._order: dict[str, int] = {}
        self._acked: set[str] = set()
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
        self._recover()

    def _recover(self) -> None:
        """Rebuild pending state from durable records (crash recovery)."""
        for record in self.stable.records():
            entry = unmarshal(record.payload)
            if "req" in entry:
                request = QRPCRequest.from_wire(entry["req"])
                self._pending[request.request_id] = request
                self._record_seq[request.request_id] = record.seq
                self._order[request.request_id] = entry.get("ord", record.seq)
            elif "ack" in entry:
                request_id = entry["ack"]
                self._acked.add(request_id)
                self._pending.pop(request_id, None)

    # -- writing ----------------------------------------------------------

    def append(self, request: QRPCRequest, flush: bool = True) -> float:
        """Log a new request; returns the flush time in seconds.

        With ``flush=False`` the record is appended but not yet durable
        (group commit: the caller batches several appends behind one
        :meth:`flush`, trading a wider crash-loss window for fewer
        synchronous disk waits — the optimization the paper's prototype
        deliberately leaves out).
        """
        seq = self.stable.append(marshal({"req": request.to_wire()}))
        flush_time = self.stable.flush() if flush else 0.0
        self._pending[request.request_id] = request
        self._record_seq[request.request_id] = seq
        self._order[request.request_id] = seq
        return flush_time

    def flush(self) -> float:
        """Durability barrier; returns the flush time.

        Delegates to :meth:`StableLog.sync`: if a budget-triggered
        group commit already made everything durable, the barrier is
        free.
        """
        return self.stable.sync()

    def acknowledge(self, request_id: str) -> float:
        """Record that the server's response has been processed.

        Idempotent: acknowledging twice (duplicate response) is a
        no-op returning zero cost — this is the at-most-once filter.
        Returns the flush time in seconds.
        """
        if request_id in self._acked or request_id not in self._pending:
            return 0.0
        del self._pending[request_id]
        self._acked.add(request_id)
        self.stable.append(marshal({"ack": request_id}))
        flush_time = self.stable.flush()
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
        already acknowledged or unknown are skipped silently: the plan
        was computed a moment ago and races with replies are benign.
        """
        wrote = False
        for request_id in drop_ids:
            if request_id in self._acked or request_id not in self._pending:
                continue
            del self._pending[request_id]
            self._acked.add(request_id)
            self.stable.append(marshal({"ack": request_id}))
            self.ops_compacted += 1
            if self._m_compacted is not None:
                self._m_compacted.inc()
            wrote = True
        for request_id, request in (rewrites or {}).items():
            if request_id in self._acked or request_id not in self._pending:
                continue
            seq = self.stable.append(
                marshal({"req": request.to_wire(), "ord": self._order[request_id]})
            )
            self._pending[request_id] = request
            self._record_seq[request_id] = seq
            wrote = True
        if not wrote:
            return 0.0
        flush_time = self.stable.flush()
        self._maybe_truncate()
        return flush_time

    def note_compacted(self, n: int) -> None:
        """Count ``n`` operations that compaction kept off the wire
        without a log record of their own (folded export rounds)."""
        if n <= 0:
            return
        self.ops_compacted += n
        if self._m_compacted is not None:
            self._m_compacted.inc(n)

    def mark_failed(self, request_id: str) -> None:
        """Terminal transport failure; the request leaves the pending set."""
        if self._pending.pop(request_id, None) is not None:
            self._acked.add(request_id)
            self.stable.append(marshal({"ack": request_id}))
            self.stable.flush()
            self._maybe_truncate()

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
            self._acked.clear()

    # -- reading ----------------------------------------------------------

    def pending(self) -> list[QRPCRequest]:
        """Unacknowledged requests in logical queue order.

        Sorted by logical order, not record position: a compaction
        rewrite appends a fresh record but must not move the request
        to the back of the queue.
        """
        # Called per wire body (ack watermark): a C-level sort key, not a
        # lambda call per pending request.
        in_order = sorted(self._pending, key=self._order.__getitem__)
        return [self._pending[request_id] for request_id in in_order]

    def pending_count(self) -> int:
        return len(self._pending)

    def get(self, request_id: str) -> Optional[QRPCRequest]:
        return self._pending.get(request_id)

    def __len__(self) -> int:
        return len(self._pending)
