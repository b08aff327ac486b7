"""Live-mode tests: the same toolkit over real localhost sockets.

These run with real threads and wall-clock time, so they assert
*outcomes* (state converged, callbacks fired) with generous timeouts —
never precise timings (that is the simulator's job).
"""

import socket
import sys
import threading

import pytest

from repro.core.access_manager import AccessManager
from repro.core.conflict import FieldwiseMerge, ResolverRegistry
from repro.live import LiveClient, LiveScheduler, LiveServer, LiveTransport
from repro.live.clock import RealTimeClock
from repro.live.transport import LiveAddress
from repro.net.scheduler import Priority
from repro.obs.fleet import FleetAggregator, TelemetryReporter
from tests.conftest import make_note, make_report

TIMEOUT = 15.0


@pytest.fixture
def live_world():
    server = LiveServer("server")
    client = LiveClient("laptop", servers={"server": server.address})
    yield server, client
    client.close()
    server.close()
    assert client.clock.errors == [], client.clock.errors
    assert server.clock.errors == [], server.clock.errors


class TestClock:
    def test_schedule_runs_on_loop_thread(self):
        clock = RealTimeClock()
        try:
            import threading

            seen = {}

            def record():
                seen["thread"] = threading.current_thread().name

            clock.schedule(0.01, record)
            assert clock.run_until(lambda: "thread" in seen, timeout=5.0)
            assert seen["thread"] == "rover-loop"
        finally:
            clock.close()

    def test_cancelled_timer_does_not_fire(self):
        clock = RealTimeClock()
        try:
            fired = []
            timer = clock.schedule(0.05, fired.append, 1)
            timer.cancel()
            clock.schedule(0.1, fired.append, 2)
            assert clock.run_until(lambda: 2 in fired, timeout=5.0)
            assert 1 not in fired
        finally:
            clock.close()

    def test_cancelled_timer_lets_go_of_its_callback_at_once(self):
        """A pending call's timeout outlives its reply by seconds: until
        due it must not pin what its callback closes over."""
        import weakref

        class Held:
            pass

        clock = RealTimeClock()
        try:
            held = Held()
            gone = weakref.ref(held)
            timer = clock.schedule(60.0, lambda pinned=held: None)
            del held
            assert gone() is not None
            timer.cancel()
            assert gone() is None
        finally:
            clock.close()

    def test_callback_crash_is_captured_not_fatal(self):
        clock = RealTimeClock()
        try:
            def boom():
                raise RuntimeError("callback bug")

            clock.schedule(0.0, boom)
            survived = []
            clock.schedule(0.05, survived.append, 1)
            assert clock.run_until(lambda: survived, timeout=5.0)
            assert clock.errors and "callback bug" in clock.errors[0]
            clock.errors.clear()
        finally:
            clock.close()

    def test_run_until_from_loop_thread_rejected(self):
        clock = RealTimeClock()
        try:
            outcome = {}

            def bad():
                try:
                    clock.run_until(lambda: True, timeout=0.1)
                except RuntimeError as exc:
                    outcome["error"] = str(exc)

            clock.schedule(0.0, bad)
            assert clock.run_until(lambda: "error" in outcome, timeout=5.0)
            assert "deadlock" in outcome["error"]
        finally:
            clock.close()


class TestLiveRoundTrips:
    def test_import_invoke_export_cycle(self, live_world):
        server, client = live_world
        note = make_note()
        server.put_object(note)
        promise = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.ready
        assert promise.value.data == {"text": "hello"}

        client.access.invoke(str(note.urn), "set_text", "live edit")
        assert client.clock.run_until(
            lambda: client.access.pending_count() == 0, timeout=TIMEOUT
        )
        assert server.get_object(str(note.urn)).data == {"text": "live edit"}
        assert not client.access.cache.peek(str(note.urn)).tentative

    def test_cache_hits_avoid_the_network(self, live_world):
        server, client = live_world
        note = make_note()
        server.put_object(note)
        first = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: first.is_done, timeout=TIMEOUT)
        served = server.server.imports_served
        again = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: again.is_done, timeout=TIMEOUT)
        assert server.server.imports_served == served

    def test_ship_executes_server_side(self, live_world):
        server, client = live_world
        server.put_object(make_note(path="notes/a", text="xy"))
        server.put_object(make_note(path="notes/b", text="z"))
        code = (
            "def main():\n"
            "    total = 0\n"
            "    for key in objects('urn:rover:server/notes/'):\n"
            "        total = total + len(lookup(key)['text'])\n"
            "    return total\n"
        )
        promise = client.access.ship("server", code)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.result() == 3

    def test_missing_object_rejects(self, live_world):
        server, client = live_world
        promise = client.access.import_("urn:rover:server/absent")
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.failed


class TestLiveDisconnection:
    def test_queued_while_server_down_drains_when_it_returns(self):
        """The QRPC story over real sockets: the server process is not
        running when the client queues; work completes when a server
        appears at the same port."""
        # Reserve a port by starting and closing a throwaway server.
        probe = LiveServer("server")
        address = probe.address
        port = address.port
        probe.close()

        client = LiveClient(
            "laptop", servers={"server": address},
            call_timeout=0.5, max_attempts=30,
        )
        try:
            note = make_note()
            promise = client.access.import_(note.urn)
            # Connection refused -> retransmission with backoff.
            assert client.clock.run_until(
                lambda: client.scheduler.retransmissions >= 1, timeout=TIMEOUT
            )
            assert not promise.is_done

            revived = LiveServer("server", port=port)
            try:
                revived.put_object(note)
                assert client.clock.run_until(
                    lambda: promise.is_done, timeout=TIMEOUT
                )
                assert promise.ready
                assert promise.value.data == {"text": "hello"}
            finally:
                revived.close()
        finally:
            client.close()

    def test_conflict_resolution_over_live_sockets(self):
        registry = ResolverRegistry()
        registry.register("note", FieldwiseMerge())
        server = LiveServer("server", resolvers=registry)
        a = LiveClient("alice", servers={"server": server.address})
        b = LiveClient("bob", servers={"server": server.address})
        try:
            note = make_note()
            note.data = {"a": 1, "b": 2}
            server.put_object(note)
            pa = a.access.import_(note.urn)
            pb = b.access.import_(note.urn)
            assert a.clock.run_until(lambda: pa.is_done and pb.is_done, timeout=TIMEOUT)
            # Disjoint field edits exported concurrently.
            a.access.cache.peek(str(note.urn)).rdo.data["a"] = 10
            a.access.cache.mark_tentative(str(note.urn))
            a.access.export(str(note.urn))
            b.access.cache.peek(str(note.urn)).rdo.data["b"] = 20
            b.access.cache.mark_tentative(str(note.urn))
            b.access.export(str(note.urn))
            assert a.clock.run_until(
                lambda: a.access.pending_count() == 0
                and b.access.pending_count() == 0,
                timeout=TIMEOUT,
            )
            assert server.get_object(str(note.urn)).data == {"a": 10, "b": 20}
        finally:
            a.close()
            b.close()
            server.close()


class TestFraming:
    def test_frame_roundtrip_over_socketpair(self):
        import socket

        from repro.live.transport import _recv_frame, _send_frame

        a, b = socket.socketpair()
        try:
            _send_frame(a, b"hello frame")
            assert _recv_frame(b) == b"hello frame"
            _send_frame(a, b"")
            assert _recv_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        import socket
        import struct

        from repro.live.transport import MAX_FRAME, _recv_frame

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ConnectionError, match="exceeds limit"):
                _recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_peer_close_mid_frame_detected(self):
        import socket
        import struct

        from repro.live.transport import _recv_frame

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only-part")
            a.close()
            with pytest.raises(ConnectionError, match="closed mid-frame"):
                _recv_frame(b)
        finally:
            b.close()

    def test_garbage_connection_does_not_kill_server(self, live_world):
        """A client sending junk bytes must not wedge the listener."""
        import socket

        server, client = live_world
        note = make_note()
        server.put_object(note)
        with socket.create_connection(
            (server.address.host, server.address.port), timeout=5.0
        ) as sock:
            sock.sendall(b"\x00\x00\x00\x04junk")
        # The server still answers real requests afterwards.
        promise = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: promise.is_done, timeout=TIMEOUT)
        assert promise.ready


def _dead_address():
    """``(address, holder)``: a port that refuses connections.  The
    holder is bound to it without listening, so no listener opened
    meanwhile can be handed the port; close it to revive a server there."""
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    holder.bind(("127.0.0.1", 0))
    return LiveAddress("server", "127.0.0.1", holder.getsockname()[1]), holder


class TestLiveCompaction:
    """Queue-time compaction over sockets: the stage folds as requests
    are queued, whatever carries them."""

    def test_overwriting_exports_queued_offline_cross_the_wire_once(self):
        first = LiveServer("server")
        note = make_note()
        first.put_object(note)
        urn = str(note.urn)
        clock = RealTimeClock(name="laptop-loop")
        transport = LiveTransport(clock, "laptop")
        scheduler = LiveScheduler(clock, transport, call_timeout=0.5, max_attempts=30)
        access = AccessManager(
            clock,
            scheduler,
            servers={"server": first.address},
            compaction=True,
        )
        revived = None
        try:
            imported = access.import_(urn)
            assert clock.run_until(lambda: imported.is_done, timeout=TIMEOUT)
            port = first.address.port
            first.close()

            def edit_three_times():
                for text in ("one", "two", "three"):
                    access.invoke(urn, "set_text", text)

            clock.post(edit_three_times)  # one loop turn: nothing leaves in between
            assert clock.run_until(lambda: scheduler.retransmissions >= 1, timeout=TIMEOUT)
            assert access.pending_count() == 1

            revived = LiveServer("server", port=port)
            revived.put_object(make_note())
            assert clock.run_until(lambda: access.pending_count() == 0, timeout=TIMEOUT)
            assert revived.server.exports_committed == 1
            assert revived.get_object(urn).data == {"text": "three"}
            assert access.log.ops_compacted == 2
            assert scheduler.failed == 0
        finally:
            transport.close()
            clock.close()
            first.close()
            if revived is not None:
                revived.close()
        assert clock.errors == [], clock.errors

    def test_rule_added_to_a_live_client_folds_its_queue(self):
        """A telemetry reporter switches compaction on for a client built
        without it: three reports queued while the aggregator is down
        reach it as one."""
        address, holder = _dead_address()
        client = LiveClient(
            "laptop", servers={"server": address}, call_timeout=0.5, max_attempts=30
        )
        TelemetryReporter(client.access, "server")
        promises = []
        revived = None
        try:
            def report_three_times():
                for seq in (1, 2, 3):
                    report = make_report(seq, client="laptop")
                    promises.append(client.access.telemetry("server", report))

            client.clock.post(report_three_times)
            assert client.clock.run_until(
                lambda: client.scheduler.retransmissions >= 1, timeout=TIMEOUT
            )
            assert client.access.pending_count() == 1

            holder.close()
            revived = LiveServer("server", port=address.port)
            aggregator = FleetAggregator(revived.clock, server=revived.server)
            aggregator.register(revived.transport)
            assert client.clock.run_until(
                lambda: len(promises) == 3 and all(p.is_done for p in promises),
                timeout=TIMEOUT,
            )
            assert [p.result() for p in promises] == [{"status": "ok", "seq": 3}] * 3
            assert aggregator.reports_applied() == 1
            assert aggregator.client_totals("laptop") == {"test_total": 3}
        finally:
            client.close()
            holder.close()
            if revived is not None:
                revived.close()
        assert client.clock.errors == [], client.clock.errors


class TestLiveSchedulerThreads:
    def test_submits_from_many_threads_all_complete(self):
        """Queue mutation belongs to the loop thread.  Eight application
        threads submit while it drains; a push that raced the pump, or
        two messages handed one sequence number, would lose a reply."""
        clock = RealTimeClock(name="echo-loop")
        echo = LiveTransport(clock, "echo")
        echo.register("echo", lambda body, source: body)
        transport = LiveTransport(clock, "laptop")
        scheduler = LiveScheduler(clock, transport)
        replies = []
        failures = []

        def submit_fifty(worker: int) -> None:
            for n in range(50):
                scheduler.submit(
                    echo.address,
                    "echo",
                    [worker, n],
                    on_reply=replies.append,
                    on_failed=failures.append,
                )

        workers = [threading.Thread(target=submit_fifty, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=TIMEOUT)
            assert not any(thread.is_alive() for thread in workers)
            assert clock.run_until(
                lambda: len(replies) + len(failures) == 400, timeout=2 * TIMEOUT
            )
            assert clock.run_until(scheduler.idle, timeout=TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
            transport.close()
            echo.close()
            clock.close()
        assert failures == []
        assert sorted(replies) == [[w, n] for w in range(8) for n in range(50)]
        assert scheduler.delivered == 400 and scheduler.failed == 0
        assert clock.errors == [], clock.errors

    def test_clients_refused_by_one_dead_port_do_not_retry_in_lockstep(self):
        """Live retransmissions carry the scheduler's seeded jitter: each
        host draws from its own stream, so two clients that lost the same
        server spread their retries instead of returning together."""
        address, holder = _dead_address()
        clock = RealTimeClock(name="jitter-loop")
        gaps = {}
        transports = []
        try:
            for name in ("alice", "bob"):
                transport = LiveTransport(clock, name)
                transports.append(transport)
                attempts = gaps[name] = []
                call = transport.call

                def timed_call(*args, _call=call, _attempts=attempts, **kwargs):
                    _attempts.append(clock.now)
                    return _call(*args, **kwargs)

                transport.call = timed_call
                scheduler = LiveScheduler(clock, transport, max_attempts=4)
                scheduler.submit(address, "rover.import", {"urn": "urn:rover:server/x"})
            assert clock.run_until(
                lambda: all(len(times) == 4 for times in gaps.values()), timeout=TIMEOUT
            )
        finally:
            for transport in transports:
                transport.close()
            clock.close()
            holder.close()
        offsets = {
            name: [later - times[0] for later in times[1:]] for name, times in gaps.items()
        }
        # Ceilings 0.2, 0.4, 0.8 s, each scaled by a draw from [0.5, 1.0].
        for name, (first, second, third) in offsets.items():
            assert 0.1 <= first <= 0.2 + 0.1, (name, offsets)
            assert 0.3 <= second <= 0.6 + 0.2, (name, offsets)
            assert 0.7 <= third <= 1.4 + 0.3, (name, offsets)
        assert any(
            abs(a - b) > 0.02 for a, b in zip(offsets["alice"], offsets["bob"])
        ), offsets

    def test_a_foreground_import_upgrades_its_own_queued_prefetch(self, live_world):
        """``import_`` runs on the application's thread and the queue is
        the loop's: the upgrade of a prefetch still waiting there is
        handed over, and takes effect before the message is sent."""
        server, client = live_world
        note = make_note()
        server.put_object(note)
        scheduler = client.scheduler
        window, scheduler.max_inflight = scheduler.max_inflight, 0  # hold the queue
        (prefetched,) = client.access.prefetch([note.urn])
        assert client.clock.run_until(
            lambda: scheduler._queue_depth_for(Priority.BACKGROUND) == 1, timeout=TIMEOUT
        )
        scheduler.max_inflight = window  # nothing pumps until the upgrade does
        clicked = client.access.import_(note.urn)
        assert client.clock.run_until(
            lambda: clicked.is_done and prefetched.is_done, timeout=TIMEOUT
        )
        assert clicked.value.data == prefetched.value.data == {"text": "hello"}
        waits = client.scheduler.obs.registry.get("sched_queue_wait_seconds")
        dispatched_as = {
            dict(zip(waits.labelnames, values))["priority"]: child.count
            for values, child in waits.children()
        }
        assert dispatched_as == {"default": 1}
        assert scheduler.delivered == 1  # one exchange served both callers


@pytest.fixture
def live_pair():
    """Two bare transports on one loop: ``(clock, server, client)``."""
    clock = RealTimeClock(name="pair-loop")
    server = LiveTransport(clock, "server")
    client = LiveTransport(clock, "laptop")
    yield clock, server, client
    client.close()
    server.close()
    clock.close()
    assert clock.errors == [], clock.errors


def call_and_wait(clock, client, address, service, body, timeout=5.0):
    outcome = []
    client.call(
        address, service, body,
        on_reply=lambda reply: outcome.append(("reply", reply)),
        on_error=lambda error: outcome.append(("error", error)),
        timeout=timeout,
    )
    assert clock.run_until(lambda: outcome, timeout=TIMEOUT)
    return outcome[0]


class TestOneExchangeOverSockets:
    """What ``LiveTransport`` inherits by being ``Transport`` on a host
    whose links are TCP connections."""

    def test_deferred_then_delayed_reply_arrives_after_both_waits(self, live_pair):
        from repro.net.transport import AsyncReply, DelayedReply

        clock, server, client = live_pair

        def slow(body, source):
            deferred = AsyncReply()  # e.g. waiting for a backup quorum...
            clock.schedule(0.15, deferred.complete, DelayedReply(0.15, {"echo": body}))
            return deferred  # ...then owing compute time

        server.register("slow", slow)
        started = clock.now
        assert call_and_wait(clock, client, server.address, "slow", 7) == ("reply", {"echo": 7})
        assert clock.now - started >= 0.3

    def test_batch_is_served_member_by_member(self, live_pair):
        from repro.net.transport import BATCH_SERVICE

        clock, server, client = live_pair
        server.register("echo", lambda body, source: body)
        kind, reply = call_and_wait(
            clock, client, server.address, BATCH_SERVICE,
            {"requests": [
                {"service": "echo", "body": 1},
                {"service": "echo"},  # no body: fails alone
                {"service": "nobody-home", "body": 3},
                {"service": "echo", "body": 4},
            ]},
        )
        assert kind == "reply"
        assert reply == {"replies": [
            {"ok": True, "body": 1},
            {"ok": False, "body": {"error": "malformed batch member"}},
            {"ok": False, "body": {"error": "unknown service 'nobody-home'"}},
            {"ok": True, "body": 4},
        ]}

    def test_broken_seal_runs_no_handler_and_is_hung_up_on(self, live_pair):
        import struct

        from repro.live import transport as live_transport
        from repro.net.message import marshal, seal
        from repro.net.transport import RPC_PORT

        clock, server, client = live_pair
        ran = []
        server.register("echo", lambda body, source: ran.append(body) or body)

        def hung_up_on(frame: bytes) -> bool:
            with socket.create_connection(
                (server.address.host, server.address.port), timeout=TIMEOUT
            ) as sock:
                sock.settimeout(TIMEOUT)  # far below REPLY_WAIT_S: hung up on at once
                live_transport._send_frame(sock, frame)
                return sock.recv(1) == b""  # no reply frame: the server closed

        def framed(envelope: dict, port: int = RPC_PORT) -> bytes:
            return struct.pack(">H", port) + seal(b"R" + marshal(envelope))

        request = {"kind": "request", "id": "x:0", "service": "echo", "body": "hi"}
        broken = bytearray(framed(request))
        broken[-1] ^= 0x01  # one flipped bit under an intact length prefix
        assert hung_up_on(bytes(broken))
        assert ran == []
        assert server.corrupt_frames_detected == 1
        counted = server.obs.registry.get("transport_corrupt_frames_total").labels(host="server")
        assert counted.value == 1
        # So is every other frame that asks nothing: a stray reply, a
        # port nobody bound, one too short to name a port.
        assert hung_up_on(framed({"kind": "reply", "id": "x:0", "ok": True, "body": 1}))
        assert hung_up_on(framed(request, port=9))
        assert hung_up_on(b"\x02")
        assert ran == [] and server.corrupt_frames_detected == 1
        # The listener still serves the next, well-formed request.
        assert call_and_wait(clock, client, server.address, "echo", "ok") == ("reply", "ok")
        assert ran == ["ok"]

    def test_transport_counters_cover_requests_and_replies(self, live_pair):
        clock, server, client = live_pair
        server.register("echo", lambda body, source: body)
        assert call_and_wait(clock, client, server.address, "echo", "x" * 100)[0] == "reply"
        assert client.messages_sent == 1 and server.messages_sent == 1
        assert client.bytes_sent > 100 and server.bytes_sent > 100

    def test_calls_from_many_threads_each_get_their_reply(self, live_pair):
        """The call-id sequence, the pending table and the counters are
        the loop thread's; two calls sharing an id would leave one of
        them unanswered, a lost update would miscount."""
        clock, server, client = live_pair
        server.register("echo", lambda body, source: body)
        replies, errors = [], []

        def call_forty(worker: int) -> None:
            for n in range(40):
                client.call(server.address, "echo", [worker, n], replies.append, errors.append)

        workers = [threading.Thread(target=call_forty, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=TIMEOUT)
            assert not any(thread.is_alive() for thread in workers)
            assert clock.run_until(
                lambda: len(replies) + len(errors) == 320, timeout=2 * TIMEOUT
            )
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sorted(replies) == [[w, n] for w in range(8) for n in range(40)]
        assert client.messages_sent == 320 and server.messages_sent == 320
        assert client._pending_calls == {}

    def test_a_burst_of_connections_waits_in_the_listen_backlog(self, monkeypatch):
        """A connection per exchange: a node is dialled as many times at
        once as it has requests in flight.  While the acceptor is busy
        each dial must wait in the listen backlog; one the kernel finds
        no room for loses its handshake and retries it after 1, 3, 7, 15
        and 31 s — the test above lost calls that way, past its 30 s
        wait, with a backlog of 16.  Here nothing is accepted at all."""
        held = threading.Event()
        accept_loop = LiveTransport._accept_loop
        monkeypatch.setattr(
            LiveTransport, "_accept_loop", lambda self: held.wait() and accept_loop(self)
        )
        clock = RealTimeClock(name="backlog-loop")
        server = LiveTransport(clock, "server")
        dialled = []
        try:
            for _ in range(64):
                dialled.append(socket.create_connection(
                    (server.address.host, server.address.port), timeout=0.5
                ))
        except socket.timeout:
            pass  # no room in the backlog: the handshake was dropped
        finally:
            held.set()
            for sock in dialled:
                sock.close()
            server.close()
            clock.close()
        assert len(dialled) == 64

    def test_subscribe_invalidations_is_rejected_and_polling_sees_the_change(self, live_world):
        """Server push has no carrier here (a connection carries one
        request and its reply): the Table-1 call says so rather than
        register callbacks that could never arrive."""
        from repro.core.access_manager import AccessManagerError

        server, client = live_world
        note = make_note()
        server.put_object(note)
        imported = client.access.import_(note.urn)
        assert client.clock.run_until(lambda: imported.is_done, timeout=TIMEOUT)
        for _ in range(2):  # a refusal is not remembered as a listener
            with pytest.raises(AccessManagerError, match="no push carrier.*max_age_s"):
                client.access.subscribe_invalidations("server", "urn:rover:server/")
        assert client.access.pending_count() == 0
        assert server.server._subscriptions == {}
        writer = LiveClient("writer", servers={"server": server.address})
        try:
            fetched = writer.access.import_(note.urn)
            assert writer.clock.run_until(lambda: fetched.is_done, timeout=TIMEOUT)
            writer.access.invoke(str(note.urn), "set_text", "changed elsewhere")
            assert writer.clock.run_until(
                lambda: writer.access.pending_count() == 0, timeout=TIMEOUT
            )
        finally:
            writer.close()
        assert writer.clock.errors == [], writer.clock.errors
        # The reader's copy is stale until it polls.
        assert client.access.cache.peek(str(note.urn)).rdo.data == {"text": "hello"}
        fresh = client.access.import_(note.urn, max_age_s=0.0)
        assert client.clock.run_until(lambda: fresh.is_done, timeout=TIMEOUT)
        assert fresh.value.data == {"text": "changed elsewhere"}
