"""Stable log tests: durability semantics, crash, torn records, cost model."""

import pytest

from repro.storage.stable_log import (
    FileLogBackend,
    FlushModel,
    LogRecord,
    MemoryLogBackend,
    StableLog,
)


class TestFlushModel:
    def test_flush_time_scales_with_bytes(self):
        model = FlushModel(latency_s=0.01, bytes_per_s=1_000_000)
        assert model.flush_time(0) == pytest.approx(0.01)
        assert model.flush_time(1_000_000) == pytest.approx(1.01)

    def test_free_model_costs_nothing(self):
        model = FlushModel.free()
        assert model.flush_time(10**9) == 0.0


class TestMemoryBackend:
    def test_append_is_volatile_until_flush(self):
        log = StableLog(MemoryLogBackend())
        log.append(b"one")
        assert log.records() == []
        log.flush()
        assert [r.payload for r in log.records()] == [b"one"]

    def test_crash_drops_unflushed_tail(self):
        log = StableLog(MemoryLogBackend())
        log.append(b"durable")
        log.flush()
        log.append(b"lost")
        log.crash()
        assert [r.payload for r in log.records()] == [b"durable"]

    def test_sequence_numbers_monotonic(self):
        log = StableLog(MemoryLogBackend())
        seqs = [log.append(f"r{i}".encode()) for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_truncate_through(self):
        log = StableLog(MemoryLogBackend())
        for i in range(5):
            log.append(f"r{i}".encode())
        log.flush()
        log.truncate_through(2)
        assert [r.seq for r in log.records()] == [3, 4]

    def test_flush_cost_reflects_pending_bytes(self):
        model = FlushModel(latency_s=0.0, bytes_per_s=1000.0)
        log = StableLog(MemoryLogBackend(), flush_model=model)
        log.append(b"x" * 500)
        assert log.flush() == pytest.approx(0.5)
        # Nothing pending: only the (zero) latency remains.
        assert log.flush() == pytest.approx(0.0)

    def test_counters(self):
        log = StableLog(MemoryLogBackend())
        log.append(b"ab")
        log.append(b"cd")
        log.flush()
        assert log.appends == 2
        assert log.flushes == 1
        assert log.bytes_flushed == 4


class TestFileBackend:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.bin")
        backend = FileLogBackend(path)
        log = StableLog(backend)
        log.append(b"alpha")
        log.append(b"beta")
        log.flush()
        assert [r.payload for r in log.records()] == [b"alpha", b"beta"]
        log.close()

    def test_recovery_from_reopen(self, tmp_path):
        path = str(tmp_path / "log.bin")
        log = StableLog(FileLogBackend(path))
        log.append(b"persisted")
        log.flush()
        log.close()

        recovered = StableLog(FileLogBackend(path))
        assert [r.payload for r in recovered.records()] == [b"persisted"]
        # Sequence numbering continues after the recovered suffix.
        assert recovered.append(b"next") == 1
        recovered.close()

    def test_torn_final_record_ignored(self, tmp_path):
        path = str(tmp_path / "log.bin")
        backend = FileLogBackend(path)
        log = StableLog(backend)
        log.append(b"good")
        log.append(b"torn-record-payload")
        log.flush()
        backend.tear_tail(5)  # chop into the final record
        assert [r.payload for r in log.records()] == [b"good"]
        log.close()

    def test_corrupt_crc_stops_recovery(self, tmp_path):
        path = str(tmp_path / "log.bin")
        backend = FileLogBackend(path)
        log = StableLog(backend)
        log.append(b"good")
        log.append(b"will-corrupt")
        log.flush()
        log.close()
        # Flip a payload byte of the second record.
        with open(path, "r+b") as f:
            data = bytearray(f.read())
            data[-3] ^= 0xFF
            f.seek(0)
            f.write(data)
        recovered = FileLogBackend(path)
        assert [r.payload for r in recovered.records()] == [b"good"]
        recovered.close()

    def test_crash_discards_unflushed_tail(self, tmp_path):
        # Regression: crash() used to close() the file, which flushes
        # the userspace buffer — silently persisting appends that were
        # never fsynced.  The backend must truncate back to the last
        # synced offset instead.
        path = str(tmp_path / "log.bin")
        log = StableLog(FileLogBackend(path))
        log.append(b"durable")
        log.flush()
        log.append(b"lost-one")
        log.append(b"lost-two")
        log.crash()
        assert [r.payload for r in log.records()] == [b"durable"]
        # An independent reopen sees the same truth on disk.
        fresh = StableLog(FileLogBackend(path))
        assert [r.payload for r in fresh.records()] == [b"durable"]
        fresh.close()
        log.close()

    def test_crash_with_nothing_flushed_leaves_empty_log(self, tmp_path):
        path = str(tmp_path / "log.bin")
        log = StableLog(FileLogBackend(path))
        log.append(b"never-synced")
        log.crash()
        assert log.records() == []
        log.close()

    def test_append_and_flush_work_after_crash(self, tmp_path):
        path = str(tmp_path / "log.bin")
        log = StableLog(FileLogBackend(path))
        log.append(b"kept")
        log.flush()
        log.append(b"dropped")
        log.crash()
        # The in-memory counter stays monotonic — the dropped record's
        # sequence number is never reused.
        assert log.append(b"after") == 2
        log.flush()
        assert [r.payload for r in log.records()] == [b"kept", b"after"]
        log.crash()  # nothing unflushed now: a no-op
        assert [r.payload for r in log.records()] == [b"kept", b"after"]
        log.close()

    def test_truncate_through_rewrites_file(self, tmp_path):
        path = str(tmp_path / "log.bin")
        log = StableLog(FileLogBackend(path))
        for i in range(4):
            log.append(f"r{i}".encode())
        log.flush()
        log.truncate_through(1)
        assert [r.seq for r in log.records()] == [2, 3]
        # Appends continue to work after the rewrite.
        log.append(b"r4")
        log.flush()
        assert [r.seq for r in log.records()] == [2, 3, 4]
        log.close()
