"""repro.chaos: seeded link faults, process crashes, and recovery.

Covers the fault catalogue end to end: CRC-sealed framing detects
injected corruption, drops surface through the failure path,
duplicates are suppressed at-most-once, reordering is observable,
server crash/restart runs as a mid-run event while QRPCs are in
flight, client crash-recovery replays the FileLogBackend-backed
operation log, and the full acceptance plan converges
deterministically.  Also pins the satellite fixes: cancelled timers
leave the event heap, so a drained simulation holds no dead events.
"""

import os

import pytest

from repro.chaos import (
    ChaosController,
    ChaosError,
    ClientCrash,
    FaultPlan,
    FaultyLink,
    LinkFaultSpec,
    LinkFaultWindow,
    ServerOutage,
    run_chaos_scenario,
)
from repro.apps.mail import MailServerApp
from repro.core.naming import make_request_id
from repro.net.link import CSLIP_14_4, WAVELAN_2M, IntervalTrace
from repro.net.message import MarshalError, marshal, seal, unseal
from repro.net.simnet import NetworkError
from repro.sim import Simulator, make_rng
from repro.storage.stable_log import FileLogBackend
from repro.testbed import build_testbed


# ---------------------------------------------------------------------------
# CRC seal
# ---------------------------------------------------------------------------


def test_seal_roundtrip():
    for data in (b"", b"x", marshal({"kind": "request", "body": [1, 2.5, "s"]})):
        assert unseal(seal(data)) == data


def test_seal_detects_every_single_byte_flip():
    frame = seal(marshal({"kind": "request", "id": "c:1", "body": "payload"}))
    for index in range(len(frame)):
        mutated = bytearray(frame)
        mutated[index] ^= 0x5A
        with pytest.raises(MarshalError):
            unseal(bytes(mutated))


def test_seal_rejects_truncation():
    with pytest.raises(MarshalError):
        unseal(b"\x00\x01")  # shorter than the checksum itself
    with pytest.raises(MarshalError):
        unseal(seal(b"hello")[:-1])


# ---------------------------------------------------------------------------
# Link fault injection
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ChaosError):
        LinkFaultSpec(drop=0.7, corrupt=0.5)  # sums past 1
    with pytest.raises(ChaosError):
        LinkFaultSpec(drop=-0.1)
    with pytest.raises(ChaosError):
        LinkFaultSpec(duplicate_delay_s=-1.0)


def test_corruption_is_detected_never_unmarshalled():
    bed = build_testbed(link_spec=WAVELAN_2M)
    injector = FaultyLink(
        bed.link, LinkFaultSpec(corrupt=1.0), make_rng(0, "test.corrupt"), obs=bed.obs
    ).install()
    received = []
    bed.server_transport.listen(9000, lambda value, source: received.append(value))
    bed.client_transport.send(bed.server_host, 9000, {"hello": "world"})
    bed.sim.run()
    assert received == []  # the corrupt frame never reached the handler
    assert injector.injected["corrupt"] == 1
    assert bed.server_transport.corrupt_frames_detected == 1


def test_double_install_rejected():
    bed = build_testbed()
    FaultyLink(bed.link, LinkFaultSpec(), make_rng(0, "a")).install()
    with pytest.raises(ChaosError):
        FaultyLink(bed.link, LinkFaultSpec(), make_rng(0, "b")).install()


def test_chaos_drop_fails_the_call():
    bed = build_testbed(link_spec=WAVELAN_2M)
    FaultyLink(bed.link, LinkFaultSpec(drop=1.0), make_rng(0, "test.drop")).install()
    errors = []
    bed.client_transport.call(
        bed.server_host,
        "rover.import",
        {"urn": "urn:rover:server/x"},
        on_reply=lambda body: errors.append("reply!?"),
        on_error=lambda err: errors.append(str(err)),
    )
    bed.sim.run()
    assert len(errors) == 1
    assert "chaos drop" in errors[0]


def test_duplicates_suppressed_at_most_once():
    bed = build_testbed(link_spec=WAVELAN_2M)
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("inbox"))
    bed.access.import_(folder_urn)
    assert bed.access.drain(timeout=100.0)
    FaultyLink(
        bed.link, LinkFaultSpec(duplicate=1.0), make_rng(0, "test.dup")
    ).install()
    entry = {"id": "m-dup", "from": "a", "subject": "s", "size": 1}
    bed.access.invoke(folder_urn, "append_entry", entry)
    assert bed.access.drain(timeout=500.0)
    bed.sim.run()
    index = bed.server.get_object(folder_urn).data["index"]
    assert [e["id"] for e in index] == ["m-dup"]  # applied exactly once
    assert bed.server.duplicates_suppressed >= 1


def test_reordering_lets_a_later_send_overtake():
    bed = build_testbed(link_spec=WAVELAN_2M)
    received = []
    bed.server_transport.listen(9000, lambda value, source: received.append(value))
    injector = FaultyLink(
        bed.link,
        LinkFaultSpec(reorder=1.0, reorder_delay_s=2.0),
        make_rng(0, "test.reorder"),
    ).install()
    bed.client_transport.send(bed.server_host, 9000, "A")  # delayed +2 s
    injector.uninstall()
    bed.client_transport.send(bed.server_host, 9000, "B")
    bed.sim.run()
    assert received == ["B", "A"]
    assert injector.injected["reorder"] == 1


# ---------------------------------------------------------------------------
# Satellite: cancelled timers leave the heap
# ---------------------------------------------------------------------------


def test_cancelled_event_is_removed_from_the_heap():
    sim = Simulator()
    payload = b"x" * 1024
    event = sim.schedule(5.0, (lambda data: None), payload)
    keeper = sim.schedule(1.0, lambda: None)
    event.cancel()
    # Lazy cancel: the corpse may linger until swept, but it is dead,
    # invisible to pending(), and holds no reference to its payload.
    assert sim.pending() == 1
    assert event.args == ()
    sim.run()
    assert sim.queued() == 0
    assert keeper.cancelled is False


def test_drained_simulation_holds_no_dead_timeout_events():
    bed = build_testbed(link_spec=WAVELAN_2M)
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("inbox"))
    bed.access.import_(folder_urn)
    assert bed.access.drain(timeout=100.0)
    bed.sim.run()
    # Before the fix, the RPC timeout timer (cancelled on reply) sat
    # in the heap as a dead event until its expiry time.
    assert bed.sim.queued() == 0


# ---------------------------------------------------------------------------
# Server crash/restart as a scheduled mid-run event
# ---------------------------------------------------------------------------


def test_server_outage_mid_run_with_qrpc_in_flight():
    # CSLIP at 14.4 kbit/s: an export takes long enough that a crash
    # 200 ms after submission lands while the request is on the wire.
    bed = build_testbed(link_spec=CSLIP_14_4, rpc_timeout_s=60.0, max_attempts=12)
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("inbox"))
    bed.access.import_(folder_urn)
    assert bed.access.drain(timeout=100.0)

    controller = ChaosController(bed.sim, obs=bed.obs)
    entry = {"id": "m-outage", "from": "a", "subject": "s", "size": 1}
    bed.access.invoke(folder_urn, "append_entry", entry)
    controller.schedule_server_outage(bed.server, at=bed.sim.now + 0.2, down_for=40.0)

    assert bed.sim.run_until(
        lambda: bed.access.pending_count() == 0 and bed.scheduler.idle(),
        timeout=1000.0,
    )
    assert controller.server_crashes == 1
    assert [kind for __, kind, __ in controller.timeline] == [
        "server_crash",
        "server_restart",
    ]
    # The client rode the outage out via retransmission...
    assert bed.scheduler.retransmissions >= 1
    # ...and the update was applied exactly once despite the replay.
    index = bed.server.get_object(folder_urn).data["index"]
    assert [e["id"] for e in index] == ["m-outage"]


def test_traffic_while_down_is_dropped_not_crashed():
    bed = build_testbed(link_spec=WAVELAN_2M)
    controller = ChaosController(bed.sim)
    controller.crash_server(bed.server)
    before = bed.network.dropped_to_unbound
    bed.client_transport.send(bed.server_host, 530, {"kind": "request"})
    bed.sim.run()
    assert bed.network.dropped_to_unbound == before + 1
    controller.restart_server(bed.server)
    with pytest.raises(ChaosError):
        controller.restart_server(bed.server)  # not down any more


def test_double_crash_rejected():
    bed = build_testbed()
    controller = ChaosController(bed.sim)
    controller.crash_server(bed.server)
    with pytest.raises(ChaosError):
        controller.crash_server(bed.server)


def test_restart_preserves_durable_state_drops_volatile():
    bed = build_testbed(link_spec=WAVELAN_2M)
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("inbox"))
    bed.access.import_(folder_urn)
    assert bed.access.drain(timeout=100.0)
    bed.access.invoke(
        folder_urn, "append_entry", {"id": "m0", "from": "a", "subject": "s", "size": 1}
    )
    assert bed.access.drain(timeout=100.0)
    assert bed.server._applied  # at-most-once reply cache is warm

    controller = ChaosController(bed.sim)
    controller.crash_server(bed.server)
    controller.restart_server(bed.server)
    # Durable: the committed folder state survives.
    index = bed.server.get_object(folder_urn).data["index"]
    assert [e["id"] for e in index] == ["m0"]
    # Volatile: the applied-reply cache and lock leases are gone.
    assert not bed.server._applied
    assert bed.server._locks == {}


# ---------------------------------------------------------------------------
# Client crash-recovery from the stable log
# ---------------------------------------------------------------------------


def test_request_ids_qualified_by_incarnation():
    assert make_request_id("client", 3) == "client/3"
    assert make_request_id("client", 3, 1) == "client+1/3"
    assert make_request_id("client", 3, 1) != make_request_id("client", 3, 2)


def test_client_crash_recovery_replays_file_backed_log(tmp_path):
    # Connected for the first 5 s (import the folder), disconnected
    # until t=30 (the append queues in the stable log), crash at t=12.
    bed = build_testbed(
        link_spec=WAVELAN_2M,
        policy=IntervalTrace([(0.0, 5.0), (30.0, 1e9)]),
        stable_backend=FileLogBackend(str(tmp_path / "oplog.bin")),
    )
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("inbox"))
    bed.access.import_(folder_urn)
    assert bed.access.drain(timeout=4.0)

    def append() -> None:
        bed.access.invoke(
            folder_urn,
            "append_entry",
            {"id": "m-crash", "from": "a", "subject": "s", "size": 1},
        )

    replayed = []
    bed.sim.schedule_at(10.0, append)
    bed.sim.schedule_at(12.0, lambda: replayed.extend(bed.clients[0].crash_and_recover()))
    bed.sim.run(until=20.0)

    assert len(replayed) == 1  # the logged export QRPC was resubmitted
    assert bed.access.incarnation == 1
    assert bed.access.pending_count() == 1  # still queued: link is down

    assert bed.sim.run_until(
        lambda: bed.access.pending_count() == 0 and bed.scheduler.idle(),
        timeout=2000.0,
    )
    index = bed.server.get_object(folder_urn).data["index"]
    assert [e["id"] for e in index] == ["m-crash"]  # exactly once


def test_port_take_restore_roundtrip():
    bed = build_testbed()
    taken = bed.server_host.take_ports()
    assert 530 in taken
    assert bed.server_host._ports == {}
    bed.server_host.restore_ports(taken)
    assert 530 in bed.server_host._ports
    with pytest.raises(NetworkError):
        bed.server_host.restore_ports(taken)  # already bound again


# ---------------------------------------------------------------------------
# The acceptance scenario: full plan, seeded, deterministic
# ---------------------------------------------------------------------------

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def test_fault_plan_validation():
    with pytest.raises(ChaosError):
        ServerOutage(at=100.0, down_for=0.0)
    with pytest.raises(ChaosError):
        ClientCrash(at=-1.0)
    with pytest.raises(ChaosError):
        LinkFaultWindow(LinkFaultSpec(), start=10.0, end=5.0)
    bed = build_testbed()
    controller = ChaosController(bed.sim)
    plan = FaultPlan(link_windows=(LinkFaultWindow(LinkFaultSpec(), link="no-such"),))
    with pytest.raises(ChaosError):
        controller.schedule(plan, bed)


def test_acceptance_full_fault_plan_converges(tmp_path):
    result = run_chaos_scenario(
        seed=CHAOS_SEED, log_path=str(tmp_path / "oplog-a.bin")
    )
    # Converged: logs drained, every invariant holds.
    assert result["drained"], result
    assert result["violations"] == [], result
    # The plan really ran: ≥2 server cycles, one client crash whose
    # recovery replayed pending QRPCs from the file-backed log.
    assert result["server_crashes"] == 2
    assert result["client_crashes"] == 1
    assert result["replayed"] >= 1
    # Nonzero drop/duplication/corruption injected; corruption was
    # detected (the CRC seal), never silently unmarshalled.
    assert result["injected"]["drop"] > 0
    assert result["injected"]["duplicate"] > 0
    assert result["injected"]["corrupt"] > 0
    assert result["corrupt_detected"] > 0
    assert result["retransmissions"] > 0
    # Availability: at most the acks in flight at the client crash die
    # with the process (their updates are still durable per the
    # invariant checkers above).
    assert result["acked"] >= result["sends"] - 2

    # Stable across reruns of the same seed, bit for bit.
    again = run_chaos_scenario(
        seed=CHAOS_SEED, log_path=str(tmp_path / "oplog-b.bin")
    )
    assert result == again
