"""Scale sanity, file-backed crash recovery, and negative app paths."""

import pytest

from repro.apps.calendar import CalendarReplica, install_calendar
from repro.apps.mail import MailServerApp, RoverMailReader
from repro.core.access_manager import AccessManager
from repro.core.notification import NotificationCenter
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.net.link import ETHERNET_10M, WAVELAN_2M, IntervalTrace
from repro.net.scheduler import NetworkScheduler
from repro.net.transport import Transport
from repro.storage.stable_log import FileLogBackend, StableLog
from repro.testbed import build_multi_client_testbed, build_testbed
from repro.workloads import CalendarOp, generate_mail_corpus
from tests.conftest import make_note


class TestScale:
    def test_twenty_clients_converge(self):
        """20 replicas of one calendar, staggered reconnects."""
        n = 20
        policies = [
            IntervalTrace([(0.0, 10.0), (100.0 + 10.0 * i, 1e9)]) for i in range(n)
        ]
        bed = build_multi_client_testbed(n, link_spec=WAVELAN_2M, policies=policies)
        urn, merge = install_calendar(bed.server)
        replicas = [CalendarReplica(c.access, urn) for c in bed.clients]
        for replica in replicas:
            replica.checkout()
        bed.sim.run(until=15.0)  # everyone offline now

        for index, replica in enumerate(replicas):
            replica.apply_op(
                CalendarOp(
                    op="add",
                    event_id=f"r{index}",
                    title=f"event {index}",
                    room=f"room{index % 4}",
                    slot=index % 7,
                    alt_slots=list(range(10, 40)),
                )
            )
        bed.sim.run(until=2_000.0)
        events = bed.server.get_object(str(urn)).data["events"]
        conflicts = sum(len(r.conflicts) for r in replicas)
        # Everyone's event landed (alternates are plentiful).
        assert len(events) + conflicts == n
        assert conflicts == 0
        # No double bookings.
        bookings = [(e["room"], e["slot"]) for e in events.values()]
        assert len(set(bookings)) == len(bookings)
        # Every replica drained and clean.
        for client in bed.clients:
            assert client.access.pending_count() == 0
            assert client.access.cache.tentative_urns() == []

    def test_hundred_object_hoard_is_quick(self):
        """A 100-object hoard walk completes and stays deterministic."""
        from repro.core.hoard import Hoarder, HoardProfile

        bed = build_testbed(link_spec=ETHERNET_10M)
        for index in range(100):
            bed.server.put_object(make_note(path=f"bulk/{index:03d}"))
        hoarder = Hoarder(
            bed.access, "server", HoardProfile().add("urn:rover:server/bulk/")
        )
        queued = hoarder.walk().wait(bed.sim)
        assert queued == 100
        bed.access.drain(timeout=1e5)
        assert len(bed.access.cache) == 100


class TestFileBackedRecovery:
    def test_full_cycle_with_real_log_file(self, tmp_path):
        """Queue offline with a file-backed log, 'crash', recover from
        the same file in a fresh toolkit instance, converge."""
        log_path = str(tmp_path / "oplog.bin")
        bed = build_testbed(
            link_spec=ETHERNET_10M,
            policy=IntervalTrace([(0.0, 1.0), (100.0, 1e9)]),
            stable_backend=FileLogBackend(log_path),  # a file-backed operation log
        )
        note = make_note()
        bed.server.put_object(note)
        bed.access.import_(note.urn).wait(bed.sim)
        bed.sim.run(until=10.0)
        bed.access.invoke(note.urn, "set_text", "file-logged edit")
        assert bed.access.pending_count() == 1
        bed.sim.run(until=11.0)  # flush done; export parked in the queue
        # Crash: the process dies — its scheduler state and callbacks
        # vanish; only the log file survives.
        assert bed.scheduler.abandon_all() == 1
        bed.access.log.stable.close()

        # Restart: brand-new access manager over the recovered file.
        reborn = AccessManager(
            bed.sim,
            bed.scheduler,
            servers={"server": bed.server_host},
            cache=ObjectCache(clock=lambda: bed.sim.now),
            log=OperationLog(StableLog(FileLogBackend(log_path))),
            notifications=NotificationCenter(),
        )
        assert reborn.pending_count() == 1
        reborn.recover()
        bed.sim.run(until=300.0)
        assert reborn.pending_count() == 0
        assert bed.server.get_object(str(note.urn)).data == {"text": "file-logged edit"}
        reborn.log.stable.close()


class TestNegativePaths:
    def test_read_missing_message_rejects(self):
        bed = build_testbed()
        corpus = generate_mail_corpus(seed=1, n_folders=1, messages_per_folder=1)
        MailServerApp(bed.server, corpus)
        reader = RoverMailReader(bed.access, bed.authority)
        reader.open_folder("inbox").wait(bed.sim)
        promise = reader.read_message("inbox", "no-such-message")
        bed.sim.run()
        assert promise.failed

    def test_open_missing_folder_rejects(self):
        bed = build_testbed()
        MailServerApp(bed.server)
        reader = RoverMailReader(bed.access, bed.authority)
        promise = reader.open_folder("never-created")
        bed.sim.run()
        assert promise.failed

    def test_calendar_move_of_unknown_event_is_noop(self):
        bed = build_multi_client_testbed(1, link_spec=ETHERNET_10M)
        urn, __ = install_calendar(bed.server)
        replica = CalendarReplica(bed.clients[0].access, urn)
        replica.checkout().wait(bed.sim)
        result = replica.apply_op(
            CalendarOp(op="move", event_id="ghost", new_slot=5)
        )
        assert result is False
        bed.sim.run(until=30.0)
        assert bed.server.get_object(str(urn)).data["events"] == {}

    def test_export_of_deleted_server_object_fails_cleanly(self):
        bed = build_testbed()
        note = make_note()
        bed.server.put_object(note)
        bed.access.import_(note.urn).wait(bed.sim)
        del bed.server.objects[str(note.urn)]
        bed.access.invoke(note.urn, "set_text", "orphan edit")
        bed.sim.run(until=30.0)
        # The export terminates (not-found) rather than looping forever.
        assert bed.access.pending_count() == 0
