"""Stable-storage substrate.

Rover's client logs every QRPC to stable storage before letting the
application continue, so queued work survives a crash of the mobile
host.  This package provides:

* :mod:`repro.storage.stable_log` — an append-only record log with a
  flush barrier, CRC-checked recovery, and a cost model for how long a
  flush takes (the quantity experiment E2 puts on the critical path).

The server's objects live in its own table
(:class:`repro.core.server.ObjectEntry`).
"""

from repro.storage.stable_log import (
    FileLogBackend,
    FlushModel,
    LogRecord,
    MemoryLogBackend,
    StableLog,
)

__all__ = [
    "FileLogBackend",
    "FlushModel",
    "LogRecord",
    "MemoryLogBackend",
    "StableLog",
]
