"""Append-only stable log with flush barrier and crash recovery.

The client's operation log (section 5.2 of the paper) is forced to
stable storage before a QRPC returns to the application — the flush is
on the critical path.  The paper notes its prototype "favors simplicity
over performance: it does not perform any compression on the log and it
does not employ efficient techniques for implementing stable storage
(e.g., Flash RAM or group commit)"; we model the same simple scheme.

Two backends:

* :class:`MemoryLogBackend` — records split into a *stable* prefix and
  a *volatile* tail; ``crash()`` drops the tail.  Used by tests and
  benchmarks (fast, deterministic).
* :class:`FileLogBackend` — a real append-only file of length-prefixed,
  CRC-checked records; recovery scans until the first torn record.
  Used by the durability tests.

The :class:`FlushModel` supplies the *virtual-time* cost of a flush so
experiment E2 can charge it against the link transmit time (a 1995
laptop disk: ~15 ms access plus ~1 MB/s streaming).

Group commit (repro.speed)
--------------------------

The paper's quote above names group commit as the efficient technique
its prototype skipped; :class:`GroupCommitPolicy` supplies it as an
opt-in.  Appends accumulate until an adaptive window closes — short
under light load (latency barely suffers), stretching toward
``max_window_s`` under bursts (one fsync absorbs the burst), cut short
when a byte/record budget fills — and one ``flush`` makes the whole
batch durable.  Who closes the window: the
:class:`~repro.core.operation_log.OperationLog` above this one keeps
the window (its timer, its deadline, the requests waiting on it), asks
the policy when it ends and then flushes once, and only if something is
actually unflushed (:meth:`StableLog.sync` is that barrier by name);
this module owns the bytes and the counters.
``group_commits``/``fsyncs_saved`` count the batching effect
(surfaced as ``log_group_commits_total``/``log_fsyncs_saved_total``).
Crash semantics are unchanged: anything unflushed at ``crash()`` is
lost, and :class:`FileLogBackend` still truncates to the last fsync'd
offset.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One durable record: a sequence number plus opaque payload."""

    seq: int
    payload: bytes


@dataclass(frozen=True)
class FlushModel:
    """Virtual-time cost of forcing the log to stable storage."""

    latency_s: float = 0.015
    bytes_per_s: float = 1_000_000.0

    def flush_time(self, payload_bytes: int) -> float:
        return self.latency_s + payload_bytes / self.bytes_per_s

    @staticmethod
    def free() -> "FlushModel":
        """A zero-cost model (the E2 ablation: log flush disabled)."""
        return FlushModel(latency_s=0.0, bytes_per_s=float("inf"))


@dataclass(frozen=True)
class GroupCommitPolicy:
    """Adaptive flush-window policy for batching log appends.

    The first append in a window arms a flush ``min_window_s`` out.
    Each further append may push the deadline later — the window grows
    while a burst is arriving — but never past ``max_window_s`` after
    the window's first append, bounding how long any record waits for
    durability.  Filling ``byte_budget``/``record_budget`` closes the
    window immediately (a full batch gains nothing by waiting).
    """

    min_window_s: float = 0.002
    max_window_s: float = 0.05
    byte_budget: int = 64 * 1024
    record_budget: int = 64

    @classmethod
    def fixed(cls, window_s: float) -> "GroupCommitPolicy":
        """One flush ``window_s`` after a window's first append, however
        many appends follow (the E2b ablation): the deadline never
        stretches and the budgets never bind."""
        return cls(window_s, window_s, byte_budget=sys.maxsize, record_budget=sys.maxsize)

    def next_deadline(self, now: float, first_append_at: float) -> float:
        return min(first_append_at + self.max_window_s, now + self.min_window_s)

    def budget_exceeded(self, unflushed_bytes: int, unflushed_records: int) -> bool:
        return (
            unflushed_bytes >= self.byte_budget
            or unflushed_records >= self.record_budget
        )


class LogCorruption(Exception):
    """A record failed its CRC during recovery (only partially written)."""


class MemoryLogBackend:
    """Stable/volatile split in memory; ``crash`` drops the volatile tail."""

    def __init__(self) -> None:
        self._stable: list[LogRecord] = []
        self._volatile: list[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        self._volatile.append(record)

    def flush(self) -> None:
        """Make the volatile tail durable (:class:`StableLog` counts the bytes)."""
        self._stable.extend(self._volatile)
        self._volatile.clear()

    def crash(self) -> None:
        self._volatile.clear()

    def records(self) -> list[LogRecord]:
        return list(self._stable)

    def truncate_through(self, seq: int) -> None:
        self._stable = [r for r in self._stable if r.seq > seq]
        self._volatile = [r for r in self._volatile if r.seq > seq]

    def close(self) -> None:
        pass


_RECORD_HEADER = struct.Struct(">QII")  # seq, payload length, crc32


class FileLogBackend:
    """Append-only file of ``[seq, len, crc32, payload]`` records.

    Recovery tolerates a torn final record (the crash-during-append
    case) by stopping at the first length/CRC mismatch.  Truncation
    rewrites the file — the paper's prototype made the same
    simplicity-over-performance choice.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "ab")
        # Offset below which data has been fsync'd.  Anything past it
        # only lives in userspace/OS buffers and dies on crash().
        self._synced_size = os.path.getsize(path)
        # Encoded-but-unwritten appends: a group-commit batch becomes
        # ONE write() + ONE fsync() at flush time instead of a write
        # per record.
        self._pending = bytearray()

    def append(self, record: LogRecord) -> None:
        payload = record.payload
        self._pending += _RECORD_HEADER.pack(
            record.seq, len(payload), zlib.crc32(payload)
        )
        self._pending += payload

    def _write_pending(self) -> None:
        """Push buffered appends into the file (not yet fsync'd)."""
        if self._pending:
            self._file.write(self._pending)
            self._pending.clear()
            self._file.flush()

    def flush(self) -> None:
        self._write_pending()
        os.fsync(self._file.fileno())
        self._synced_size = os.path.getsize(self.path)

    def crash(self) -> None:
        """Simulate losing everything not yet fsync'd.

        Buffered appends are discarded outright.  Closing the file
        flushes Python's userspace buffer to the OS, which would
        silently *persist* unflushed appends — so after closing we
        truncate back to the last fsync'd offset.  The torn-record case
        is produced with :meth:`tear_tail`.
        """
        self._pending.clear()
        self._file.close()
        with open(self.path, "ab") as f:
            f.truncate(self._synced_size)
        self._file = open(self.path, "ab")

    def tear_tail(self, drop_bytes: int) -> None:
        """Chop bytes off the end of the file (simulated torn write)."""
        self._write_pending()
        self._file.close()
        size = os.path.getsize(self.path)
        new_size = max(0, size - drop_bytes)
        with open(self.path, "ab") as f:
            f.truncate(new_size)
        self._synced_size = min(self._synced_size, new_size)
        self._file = open(self.path, "ab")

    def records(self) -> list[LogRecord]:
        self._write_pending()
        self._file.flush()
        result: list[LogRecord] = []
        with open(self.path, "rb") as f:
            data = f.read()
        pos = 0
        while pos + _RECORD_HEADER.size <= len(data):
            seq, length, crc = _RECORD_HEADER.unpack_from(data, pos)
            start = pos + _RECORD_HEADER.size
            end = start + length
            if end > len(data):
                break  # torn final record
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # corrupt record: stop recovery here
            result.append(LogRecord(seq, payload))
            pos = end
        return result

    def truncate_through(self, seq: int) -> None:
        keep = [r for r in self.records() if r.seq > seq]  # writes pending
        self._file.close()
        with open(self.path, "wb") as f:
            for record in keep:
                header = _RECORD_HEADER.pack(
                    record.seq, len(record.payload), zlib.crc32(record.payload)
                )
                f.write(header + record.payload)
            f.flush()
            os.fsync(f.fileno())
        self._synced_size = os.path.getsize(self.path)
        self._file = open(self.path, "ab")

    def close(self) -> None:
        self._write_pending()
        self._file.close()


class StableLog:
    """The client operation log.

    ``append`` assigns the next sequence number; ``flush`` makes all
    appended records durable and reports the virtual-time cost per the
    :class:`FlushModel`.  ``truncate_through`` discards records whose
    QRPCs have been acknowledged by the server.
    """

    METRICS = (
        ("stable_log_appends", "gauge", "", "appends"),
        ("stable_log_flushes", "gauge", "", "flushes"),
        ("stable_log_bytes_flushed", "gauge", "", "bytes_flushed"),
        ("log_group_commits_total", "gauge", "", "group_commits"),
        ("log_fsyncs_saved_total", "gauge", "", "fsyncs_saved"),
        ("stable_log_flush_seconds", "histogram", "Virtual-time cost per flush", None),
    )

    def __init__(
        self,
        backend: Optional[MemoryLogBackend | FileLogBackend] = None,
        flush_model: Optional[FlushModel] = None,
        obs: Optional["object"] = None,
        owner: str = "log",
    ) -> None:
        self.backend = backend if backend is not None else MemoryLogBackend()
        self.flush_model = flush_model if flush_model is not None else FlushModel()
        existing = self.backend.records()
        self._next_seq = existing[-1].seq + 1 if existing else 0
        self.appends = 0
        self.flushes = 0
        self.bytes_flushed = 0
        #: Flushes that covered more than one append (group commits),
        #: and the fsyncs the batching avoided (batch size minus one,
        #: summed).  Both stay 0 under the default flush-per-append
        #: discipline.
        self.group_commits = 0
        self.fsyncs_saved = 0
        #: Appended but not yet durable; the window's budget reads both
        #: on every append.
        self.unflushed_bytes = 0
        self.unflushed_records = 0
        #: Each flush's virtual duration, where a registry is given.
        self._m_flush_seconds = None
        if obs is not None:
            flush_seconds, = obs.registry.expose(self, {"owner": owner})
            self._m_flush_seconds = flush_seconds.labels(owner=owner)

    def append(self, payload: bytes) -> int:
        """Append a record; returns its sequence number (not yet durable)."""
        seq = self._next_seq
        self._next_seq += 1
        self.backend.append(LogRecord(seq, payload))
        self.appends += 1
        self.unflushed_bytes += len(payload)
        self.unflushed_records += 1
        return seq

    def flush(self) -> float:
        """Force appended records to stable storage.

        Returns the simulated flush duration in seconds (the caller —
        the operation log — charges this to virtual time).
        """
        pending = self.unflushed_bytes
        covered = self.unflushed_records
        self.backend.flush()
        self.flushes += 1
        self.bytes_flushed += pending
        self.unflushed_bytes = 0
        self.unflushed_records = 0
        if covered > 1:
            self.group_commits += 1
            self.fsyncs_saved += covered - 1
        duration = self.flush_model.flush_time(pending)
        if self._m_flush_seconds is not None:
            self._m_flush_seconds.observe(duration)
        return duration

    def sync(self) -> float:
        """Durability barrier: flush only if something is unflushed.

        A window is closed by this rule, not by a bare :meth:`flush`,
        so one that was already flushed (an acknowledgement's flush
        took its records along) costs nothing — no fsync, no counted
        flush, zero virtual time.
        """
        if self.unflushed_records == 0:
            return 0.0
        return self.flush()

    def records(self) -> list[LogRecord]:
        """Durable records, oldest first (what recovery would see)."""
        return self.backend.records()

    def truncate_through(self, seq: int) -> None:
        """Discard records with sequence numbers <= ``seq``."""
        self.backend.truncate_through(seq)

    def crash(self) -> None:
        """Lose everything not yet flushed."""
        self.backend.crash()
        self.unflushed_bytes = 0
        self.unflushed_records = 0

    def close(self) -> None:
        self.backend.close()
