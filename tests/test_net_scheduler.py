"""Network scheduler tests: priorities, retransmission, wake-ups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    CSLIP_14_4,
    AlwaysDown,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
)
from repro.net.message import marshalled_size
from repro.net.scheduler import MOVED, NetworkScheduler, Priority
from repro.net.simnet import Network
from repro.net.transport import (
    BATCH_BUDGET_BYTES,
    BATCH_SERVICE,
    FRAMING_BYTES,
    MAX_BATCH_MEMBERS,
    MAX_FRAME_BYTES,
    Transport,
    batch_request,
)
from repro.sim import Simulator
from tests.conftest import into

SLOW = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.01, header_bytes=0)


def make_sched(policy=None, spec=SLOW, **kwargs):
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("client"), net.host("server")
    link = net.connect(a, b, spec, policy)
    ta, tb = Transport(sim, a), Transport(sim, b)
    served = []

    def echo(body, src):
        served.append(body)
        return body

    tb.register("echo", echo)
    scheduler = NetworkScheduler(sim, ta, **kwargs)
    return sim, net, a, b, link, scheduler, served


def test_submit_delivers_and_replies():
    sim, net, a, b, link, scheduler, served = make_sched()
    replies = []
    scheduler.submit(b, "echo", {"n": 1}, on_reply=into(replies))
    sim.run()
    assert replies == [{"n": 1}]
    assert scheduler.delivered == 1


def test_priority_order_on_drain():
    """Messages queued while disconnected drain highest-priority first."""
    policy = IntervalTrace([(10.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=policy, max_inflight=1
    )
    scheduler.submit(b, "echo", {"n": "bulk1"}, priority=Priority.BACKGROUND)
    scheduler.submit(b, "echo", {"n": "bulk2"}, priority=Priority.BACKGROUND)
    scheduler.submit(b, "echo", {"n": "urgent"}, priority=Priority.FOREGROUND)
    scheduler.submit(b, "echo", {"n": "normal"}, priority=Priority.DEFAULT)
    sim.run()
    assert [m["n"] for m in served] == ["urgent", "normal", "bulk1", "bulk2"]


def test_fifo_within_priority():
    policy = IntervalTrace([(10.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=policy, max_inflight=1
    )
    for index in range(5):
        scheduler.submit(b, "echo", {"n": index})
    sim.run()
    assert [m["n"] for m in served] == list(range(5))


def test_fifo_only_ablation_ignores_priority():
    policy = IntervalTrace([(10.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=policy, max_inflight=1, fifo_only=True
    )
    scheduler.submit(b, "echo", {"n": "bulk"}, priority=Priority.BACKGROUND)
    scheduler.submit(b, "echo", {"n": "urgent"}, priority=Priority.FOREGROUND)
    sim.run()
    assert [m["n"] for m in served] == ["bulk", "urgent"]


def test_queue_waits_for_link_up():
    policy = IntervalTrace([(100.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(policy=policy)
    replies = []
    scheduler.submit(b, "echo", {"n": 1}, on_reply=lambda _, r: replies.append(sim.now))
    sim.run(until=50)
    assert replies == []
    assert scheduler.queue_length() == 1
    sim.run(until=200)
    assert len(replies) == 1
    assert replies[0] > 100.0


def test_retransmission_across_outages():
    """A message whose transfer dies mid-flight is retried and succeeds."""
    policy = PeriodicSchedule(up_duration=1.5, down_duration=2.0)
    slow = LinkSpec("vslow", bandwidth_bps=800, latency_s=0.01, header_bytes=0)
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=policy, spec=slow, base_backoff=0.2
    )
    replies = []
    # ~65 bytes on the line each way -> 0.65 s of serialization.  The body
    # is noise, which deflate cannot shrink (with an empty body the
    # envelope deflates against the protocol dictionary to 0.34 s).  Sent
    # 0.5 s before the first up window closes, the first attempt dies
    # mid-flight; the next window holds the request and its reply.
    noise = random.Random(7).randbytes(24)
    sim.schedule(
        1.0, lambda: scheduler.submit(b, "echo", {"blob": noise}, on_reply=into(replies))
    )
    sim.run(until=60)
    assert scheduler.retransmissions == 1
    assert len(replies) == 1 and scheduler.failed == 0


def test_terminal_failure_after_max_attempts():
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=AlwaysDown(), max_attempts=3, base_backoff=0.1
    )
    # With the only link permanently down the scheduler never
    # dispatches, so force attempts through a flapping link instead.
    failures = []
    policy = PeriodicSchedule(up_duration=0.001, down_duration=5.0)
    sim2 = Simulator()
    net2 = Network(sim2)
    c, s = net2.host("c"), net2.host("s")
    net2.connect(c, s, LinkSpec("tiny", 800, 0.01, header_bytes=0), policy)
    tc, ts = Transport(sim2, c), Transport(sim2, s)
    ts.register("echo", lambda body, src: body)
    sched2 = NetworkScheduler(sim2, tc, max_attempts=3, base_backoff=0.1)
    sched2.submit(s, "echo", {"pad": "x" * 200}, on_failed=into(failures))
    sim2.run(until=600)
    assert len(failures) == 1
    assert sched2.failed == 1


def test_cancel_queued_message():
    policy = IntervalTrace([(100.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(policy=policy)
    replies = []
    message = scheduler.submit(b, "echo", {"n": 1}, on_reply=into(replies))
    assert scheduler.cancel(message)
    sim.run(until=200)
    assert replies == []
    assert served == []


def test_cannot_cancel_inflight_message():
    sim, net, a, b, link, scheduler, served = make_sched()
    message = scheduler.submit(b, "echo", {"n": 1})
    sim.run_until(lambda: message.state != "queued", timeout=10)
    assert not scheduler.cancel(message)


def test_inflight_window_respected():
    """With max_inflight=1, transfers serialize."""
    sim, net, a, b, link, scheduler, served = make_sched(max_inflight=1)
    peak = {"value": 0}

    def watch():
        peak["value"] = max(peak["value"], scheduler.inflight)
        sim.schedule(0.005, watch)

    sim.schedule(0.0, watch)
    for index in range(4):
        scheduler.submit(b, "echo", {"n": index})
    sim.run(until=30)
    assert peak["value"] == 1
    assert len(served) == 4


def test_idle_reports_queue_state():
    sim, net, a, b, link, scheduler, served = make_sched()
    assert scheduler.idle()
    scheduler.submit(b, "echo", {"n": 1})
    assert not scheduler.idle()
    sim.run()
    assert scheduler.idle()


def test_abandon_all_forgets_everything():
    policy = IntervalTrace([(100.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(policy=policy)
    replies, failures = [], []
    for n in range(3):
        scheduler.submit(
            b, "echo", {"n": n},
            on_reply=into(replies), on_failed=into(failures),
        )
    sim.run(until=10.0)
    assert scheduler.abandon_all() == 3
    assert scheduler.queue_length() == 0
    assert scheduler.idle()
    sim.run(until=300.0)  # link comes up; nothing happens
    assert replies == [] and failures == []
    assert served == []


def test_abandon_all_silences_inflight_reply():
    sim, net, a, b, link, scheduler, served = make_sched()
    replies = []
    scheduler.submit(b, "echo", {"n": 1}, on_reply=into(replies))
    sim.run_until(lambda: scheduler.inflight == 1, timeout=5.0)
    scheduler.abandon_all()
    sim.run(until=60.0)
    assert served == [{"n": 1}]  # the server did process it...
    assert replies == []          # ...but the dead process never hears


# -- coalesced frames ---------------------------------------------------------
#
# On SLOW (8 kbit/s, 10 ms) ten bytes already cost more line time than
# the propagation delay, so every backlog there coalesces; on
# CSLIP-14.4 the mark is ~175 B.  The peers are plain transports: any
# of them unpacks a coalesced frame.


def _padded(n, pad=200):
    return {"n": n, "pad": "x" * pad}


def _noise(n, pad=200):
    """A body of ``pad`` seeded random bytes: it deflates to no less."""
    return {"n": n, "pad": random.Random(f"pad:{n}").randbytes(pad)}


def test_batch_gathers_only_same_destination():
    sim = Simulator()
    net = Network(sim)
    client = net.host("client")
    s1, s2 = net.host("s1"), net.host("s2")
    net.connect(client, s1, SLOW, IntervalTrace([(10.0, 1e9)]), name="l1")
    net.connect(client, s2, SLOW, IntervalTrace([(10.0, 1e9)]), name="l2")
    tc = Transport(sim, client)
    served = {"s1": [], "s2": []}
    for name, host in (("s1", s1), ("s2", s2)):
        Transport(sim, host).register(
            "echo", lambda body, src, label=name: served[label].append(body)
        )
    scheduler = NetworkScheduler(sim, tc, max_inflight=1)
    for n in range(3):
        scheduler.submit(s1, "echo", _padded(f"a{n}", 20))
        scheduler.submit(s2, "echo", _padded(f"b{n}", 20))
    sim.run(until=60.0)
    assert [m["n"] for m in served["s1"]] == ["a0", "a1", "a2"]
    assert [m["n"] for m in served["s2"]] == ["b0", "b1", "b2"]
    assert scheduler.batches_sent == 2  # one frame per destination
    assert scheduler.delivered == 6
    assert scheduler.inflight == 0


def test_foreground_never_waits_for_background_bytes():
    """A frame holds one priority class: the request the user waits on
    is acknowledged as soon as if nothing else were queued."""

    def acked_at(background):
        sim, net, a, b, link, scheduler, served = make_sched(
            policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4
        )
        done = []
        for n in range(background):
            scheduler.submit(b, "echo", _padded(f"bulk{n}"), priority=Priority.BACKGROUND)
        scheduler.submit(
            b,
            "echo",
            _padded("urgent"),
            priority=Priority.FOREGROUND,
            on_reply=lambda _, body: done.append(sim.now),
        )
        sim.run()
        assert len(served) == background + 1
        assert served[0]["n"] == "urgent"
        return done[0], scheduler

    alone, __ = acked_at(0)
    crowded, scheduler = acked_at(12)
    one_header = CSLIP_14_4.transmit_time(0)
    assert crowded <= alone + one_header
    assert scheduler.batches_sent >= 1  # the background did coalesce


def test_fifo_within_priority_holds_across_frames():
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4, max_inflight=2
    )
    for n in range(40):
        scheduler.submit(b, "echo", _noise(n))
    sim.run()
    assert [m["n"] for m in served] == list(range(40))
    # Random pads do not deflate (their envelopes do): 19 of these 237 B
    # members fit 4 KiB on the line, 19 + 19 + 2.
    assert scheduler.batches_sent == 3
    assert scheduler.delivered == 40


def test_a_compressible_backlog_leaves_in_one_frame():
    """The budget counts the bytes on the line: forty ~210 B bodies of
    one repeated letter (9.5 KB marshalled) deflate into one frame."""
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4, max_inflight=2
    )
    for n in range(40):
        scheduler.submit(b, "echo", _padded(n))
    sim.run()
    assert [m["n"] for m in served] == list(range(40))
    assert scheduler.batches_sent == 1
    assert scheduler.transport.messages_sent == 1


def test_object_over_the_frame_budget_travels_alone():
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4, max_inflight=1
    )
    scheduler.submit(b, "echo", _noise("small0"))
    scheduler.submit(b, "echo", _noise("big", pad=6000))
    scheduler.submit(b, "echo", _noise("small1"))
    scheduler.submit(b, "echo", _noise("small2"))
    sim.run()
    # Order kept: nothing overtakes the big one to fill a frame.
    assert [m["n"] for m in served] == ["small0", "big", "small1", "small2"]
    assert scheduler.batches_sent == 1  # small1 + small2
    assert scheduler.obs.registry.get("sched_batch_members_total").value == 2


def test_latency_dominated_link_never_coalesces():
    from repro.net.link import ETHERNET_10M

    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=ETHERNET_10M
    )
    for n in range(20):
        scheduler.submit(b, "echo", _padded(n))
    sim.run()
    assert len(served) == 20
    assert scheduler.batches_sent == 0
    assert scheduler.transport.messages_sent == 20


def test_small_requests_under_the_links_mark_ride_alone():
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4
    )
    for n in range(6):
        scheduler.submit(b, "echo", {"n": n})  # 8 B: 7 ms of line time vs 100 ms
    sim.run()
    assert len(served) == 6
    assert scheduler.batches_sent == 0


def test_failed_member_is_retried_like_a_lone_request():
    """A frame whose answer is of no use (here, one slot short) is as
    good as lost: each member's attempt fails as a lone request's does,
    backs off and goes out again, and each is answered once."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("client"), net.host("server")
    net.connect(a, b, SLOW, IntervalTrace([(10.0, 1e9)]))
    ta, tb = Transport(sim, a), Transport(sim, b)
    served = []
    tb.register("echo", lambda body, src: served.append(body["n"]) or body)
    handle = tb.handle_request
    frames = []

    def first_frame_short(service, body, source):
        if service == BATCH_SERVICE:
            frames.append(len(body["requests"]))
            if len(frames) == 1:
                return {"replies": [{"ok": True, "body": None}] * (frames[0] - 1)}
        return handle(service, body, source)

    tb.handle_request = first_frame_short
    scheduler = NetworkScheduler(sim, ta, max_attempts=2)
    replies, failures = [], []
    messages = [
        scheduler.submit(
            b, "echo", _padded(n), on_reply=into(replies), on_failed=into(failures)
        )
        for n in range(3)
    ]
    sim.run()
    assert frames[0] == 3 and ta.corrupt_frames_detected == 1
    assert sorted(m["n"] for m in replies) == [0, 1, 2] and failures == []
    assert sorted(served) == [0, 1, 2]
    assert [m.attempts for m in messages] == [2, 2, 2]
    assert scheduler.retransmissions == 3
    assert scheduler.delivered == 3 and scheduler.failed == 0 and scheduler.idle()


#: A fault the far side knows of, as each is provoked: the service the
#: request names, and the text of the error every carrier answers with.
FAULTS = {
    "unknown-service": ("nope", "LookupError: unknown service 'nope'"),
    "handler-raises": ("boom", "RuntimeError: kaput"),
    "reply-the-codec-refuses": (
        "garble",
        "MarshalError: cannot marshal str: 'utf-8' codec can't encode character"
        " '\\ud800' in position 0: surrogates not allowed",
    ),
}
#: The three ways a request reaches a server's transport: alone over
#: the direct link, in a frame shared with two others (the link is down
#: until 10 s and bytes dominate on it), and mailed through the relay.
ANSWERING_CARRIERS = {
    "lone-rpc": {},
    "coalesced-member": {"link_spec": CSLIP_14_4, "policy": IntervalTrace([(10.0, 1e9)])},
    "smtp-mail": {"policy": AlwaysDown(), "with_relay": True},
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("carrier", list(ANSWERING_CARRIERS))
def test_every_carrier_answers_a_fault_the_far_side_knows_of(carrier, fault):
    """Only silence is a failure.  Whatever carried the request, a fault
    the server's transport knows of is one answer, ``{"status":
    "error", "error": "<Type>: <message>"}``, delivered once and never
    retransmitted; the requests beside it are served as usual."""
    from repro.testbed import build_testbed

    bed = build_testbed(**ANSWERING_CARRIERS[carrier])
    server = bed.server_transport
    server.register("echo", lambda body, source: body)

    def boom(body, source):
        raise RuntimeError("kaput")

    server.register("boom", boom)
    server.register("garble", lambda body, source: "\ud800")
    service, error = FAULTS[fault]
    answers, failures = [], []
    for n, name in enumerate(["echo", service, "echo"]):
        bed.scheduler.submit(
            bed.server_host, name, _padded(n),
            on_reply=lambda _, reply, n=n: answers.append((n, reply)),
            on_failed=into(failures),
        )
    bed.sim.run(until=3_600.0)
    assert sorted(answers) == [
        (0, _padded(0)), (1, {"status": "error", "error": error}), (2, _padded(2))
    ]
    assert failures == []
    assert bed.scheduler.retransmissions == 0 and bed.scheduler.failed == 0
    assert bed.scheduler.batches_sent == (carrier == "coalesced-member")


def _frames(scheduler):
    """Record each request frame ``scheduler``'s transport sends: its
    members' ``n`` in order, its size marshalled and sealed, and the
    bytes it put on the line."""
    transport, frames = scheduler.transport, []
    send = transport.send

    def recording(dst, port, value, **kwargs):
        wire = send(dst, port, value, **kwargs)
        if value["service"] == BATCH_SERVICE:
            members = [member["body"]["n"] for member in value["body"]["requests"]]
        else:
            members = [value["body"]["n"]]
        frames.append((members, FRAMING_BYTES + marshalled_size(value), wire))
        return wire

    transport.send = recording
    return frames


@settings(max_examples=60, deadline=None)
@given(
    backlog=st.lists(
        st.tuples(st.sampled_from(list(Priority)), st.booleans(), st.integers(0, 5000)),
        min_size=2,
        max_size=60,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_coalesced_frame_fits_the_budget_on_the_line(backlog, seed):
    """Whatever the bodies deflate to, a frame of two or more members
    puts at most the budget on the line and marshals within what every
    receiver inflates; members leave in (priority, seq) order, each
    once."""
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), max_inflight=2
    )
    frames = _frames(scheduler)
    rng = random.Random(seed)
    for n, (priority, noisy, size) in enumerate(backlog):
        pad = rng.randbytes(size) if noisy else b"a" * size
        scheduler.submit(b, "echo", {"n": n, "pad": pad}, priority=priority)
    sim.run()
    order = [n for n, __ in sorted(enumerate(backlog), key=lambda item: (item[1][0], item[0]))]
    assert [n for members, __, __ in frames for n in members] == order
    assert [body["n"] for body in served] == order
    assert scheduler.retransmissions == 0 and scheduler.delivered == len(backlog)
    for members, raw, wire in frames:
        assert raw <= MAX_FRAME_BYTES
        assert len(members) == 1 or wire <= BATCH_BUDGET_BYTES


def test_a_backlog_that_deflates_to_nothing_leaves_in_frames_every_receiver_takes():
    """256 members of 64 KiB of zeros: 16 MiB marshalled, next to
    nothing deflated.  The budget on the line, the member count and the
    receivers' inflate cap all hold; nothing is refused or sent twice."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("client"), net.host("server")
    net.connect(a, b, SLOW, IntervalTrace([(10.0, 1e9)]))
    ta, tb = Transport(sim, a), Transport(sim, b)
    served = []
    tb.register("echo", lambda body, src: served.append(body["n"]) or {"n": body["n"]})
    scheduler = NetworkScheduler(sim, ta, max_inflight=2)
    frames = _frames(scheduler)
    for n in range(MAX_BATCH_MEMBERS):
        scheduler.submit(b, "echo", {"n": n, "zeros": bytes(64 * 1024)})
    sim.run()
    assert served == list(range(MAX_BATCH_MEMBERS))
    assert [n for members, __, __ in frames for n in members] == served
    assert len(frames) > 1
    for members, raw, wire in frames:
        assert len(members) > 1 and raw <= MAX_FRAME_BYTES and wire <= BATCH_BUDGET_BYTES
    assert tb.corrupt_frames_detected == ta.corrupt_frames_detected == 0
    assert scheduler.retransmissions == 0 and scheduler.failed == 0
    assert scheduler.delivered == MAX_BATCH_MEMBERS


@pytest.mark.parametrize("over", [0, 1], ids=["at-the-budget", "one-byte-over"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("host", ["client", "c" * 130], ids=["short-id", "long-id"])
def test_a_frame_is_deflated_to_measure_it_only_past_the_budget_marshalled(host, traced, over):
    """The frame's marshalled size is counted, not encoded, exactly: one
    byte past the budget it is measured, at the budget it is not."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host(host), net.host("server")
    net.connect(a, b, SLOW, IntervalTrace([(10.0, 1e9)]))
    ta, tb = Transport(sim, a), Transport(sim, b)
    tb.register("echo", lambda body, src: body)
    trace = ("t" * 16, "s" * 8) if traced else None
    head = {"n": 0, "pad": b"h" * 300, **({"trace": list(trace)} if traced else {})}

    def frame(pad):
        follower = {"n": 1, "pad": b"f" * pad}
        body = batch_request([("echo", head), ("echo", follower)], trace)
        envelope = {"kind": "request", "id": f"{host}:0", "service": BATCH_SERVICE, "body": body}
        return FRAMING_BYTES + marshalled_size(envelope), follower

    pad = 3000 + BATCH_BUDGET_BYTES + over - frame(3000)[0]
    size, follower = frame(pad)
    assert size == BATCH_BUDGET_BYTES + over
    scheduler = NetworkScheduler(sim, ta)
    measured = []
    call_bytes = ta.call_bytes
    ta.call_bytes = lambda *args: measured.append(args) or call_bytes(*args)
    scheduler.submit(b, "echo", head)
    scheduler.submit(b, "echo", follower)
    sim.run()
    assert len(measured) == over
    assert scheduler.batches_sent == 1 and scheduler.delivered == 2


def test_frame_of_tiny_bodies_stops_at_the_member_count_receivers_accept():
    from repro.net.transport import MAX_BATCH_MEMBERS

    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), max_inflight=1
    )
    bodies = [f"{n:010d}" for n in range(MAX_BATCH_MEMBERS + 40)]
    for body in bodies:
        scheduler.submit(b, "echo", body)  # 12 B each: the byte budget admits 341
    sim.run()
    assert served == bodies
    assert scheduler.batches_sent == 2
    assert scheduler.transport.corrupt_frames_detected == 0
    assert scheduler.retransmissions == 0


# -- replicated destinations: the member is named per attempt -------------------

FAST = LinkSpec("fast", bandwidth_bps=10_000_000, latency_s=0.001, header_bytes=0)


class TwoMembers:
    """All the scheduler knows of a replicated destination: where the
    next attempt goes, whom to tell when a member does not answer, what
    a member's answer is, and how many more attempt budgets a message
    gets past its first (none here: its attempts are all it has)."""

    max_rounds = 0

    def __init__(self, *hosts):
        self.hosts = list(hosts)
        self.current_host = hosts[0]
        self.unanswered = []
        #: How many answers, from the next on, are fences that move the
        #: destination to the other member.
        self.fences = 0
        self.fenced = []

    def advance_past(self, name):
        self.unanswered.append(name)
        if self.current_host.name == name:
            self.current_host = self.hosts[1 - self.hosts.index(self.current_host)]

    def read_reply(self, name, reply):
        if not self.fences:
            return None
        self.fences -= 1
        self.fenced.append((name, reply["n"]))
        self.current_host = self.hosts[1 - self.hosts.index(self.current_host)]
        return MOVED


def make_members(policy=None, first=None, second=None, **kwargs):
    """A client linked to ``one`` and ``two`` (a destination of two
    members) and to ``other`` (a plain host).  ``first`` / ``second``
    are the members' handlers; a member given none has no process
    behind its port — frames to it vanish, attempts to it time out."""
    sim = Simulator()
    net = Network(sim)
    client, one, two, other = (net.host(n) for n in ("client", "one", "two", "other"))
    for host in (one, two, other):
        net.connect(client, host, FAST, policy)
    served = []

    def serve(host, handler):
        def handle(body, src):
            served.append((host.name, body["n"]))
            return handler(body) if handler is not None else body

        Transport(sim, host).register("echo", handle)

    if first is not None:
        serve(one, first)
    if second is not None:
        serve(two, second)
    serve(other, None)
    kwargs.setdefault("rpc_timeout", 1.0)
    kwargs.setdefault("base_backoff", 0.1)
    scheduler = NetworkScheduler(sim, Transport(sim, client), **kwargs)
    return sim, scheduler, TwoMembers(one, two), other, served


def answer(body):
    return body


def test_plain_host_is_never_asked_what_a_replicated_destination_is():
    from repro.net.simnet import Host

    class Spy(Host):
        asked = []

        def __getattr__(self, name):  # only what a Host does not have
            Spy.asked.append(name)
            raise AttributeError(name)

    sim, scheduler, members, other, served = make_members(
        policy=IntervalTrace([(0.0, 0.0005), (5.0, 1e9)])  # the first attempt dies in flight
    )
    other.__class__ = Spy
    message = scheduler.submit(other, "echo", {"n": 0})
    sim.run()
    assert served == [("other", 0)] and scheduler.retransmissions == 1
    assert message.group is None and message.dst is other
    assert Spy.asked == []


def test_member_is_named_at_dispatch_not_at_submit():
    sim, scheduler, members, other, served = make_members(
        policy=IntervalTrace([(5.0, 1e9)]), first=answer, second=answer
    )
    message = scheduler.submit(members, "echo", {"n": 0})
    assert message.group is members and message.dst is None
    sim.run(until=1.0)
    members.current_host = members.hosts[1]  # the destination moved while it waited
    sim.run()
    assert served == [("two", 0)] and message.dst is members.hosts[1]
    assert members.unanswered == []


def test_unanswered_member_fails_its_siblings_together_and_rests_the_destination():
    sim, scheduler, members, other, served = make_members(second=answer, max_inflight=2)
    replies = []
    to_members = [
        scheduler.submit(members, "echo", {"n": n}, on_reply=into(replies)) for n in range(4)
    ]
    to_other = scheduler.submit(other, "echo", {"n": 9})
    sim.run(until=0.5)
    # Two attempts out to the member nobody answers for; the window is full.
    assert [m.state for m in to_members] == ["inflight", "inflight", "queued", "queued"]
    assert served == [] and to_other.state == "queued"

    sim.run_until(lambda: members.unanswered, timeout=5.0)
    # One timeout ended both attempts, moved the destination on — once —
    # and freed both slots: the other destination drains around the rest.
    assert members.unanswered == ["one"] and members.current_host.name == "two"
    assert [m.state for m in to_members] == ["queued"] * 4
    assert scheduler.inflight == 1 and to_other.state == "inflight"
    sim.run()
    assert served[0] == ("other", 9)
    assert served[1:] == [("two", n) for n in range(4)]  # seq order, not failure order
    assert [m["n"] for m in replies] == [0, 1, 2, 3]
    assert [m.attempts for m in to_members] == [2, 2, 1, 1]
    assert members.unanswered == ["one"]  # the sibling's own timeout found nothing to fail
    assert scheduler.retransmissions == 2 and scheduler.failed == 0


def test_unanswered_by_every_member_is_a_terminal_failure_after_max_attempts():
    sim, scheduler, members, other, served = make_members(max_attempts=3)
    failures = []
    message = scheduler.submit(members, "echo", {"n": 0}, on_failed=into(failures))
    sim.run()
    assert members.unanswered == ["one", "two", "one"] and message.attempts == 3
    assert len(failures) == 1 and scheduler.failed == 1 and scheduler.idle()


def test_retry_keeps_the_seq_and_renews_the_attempt_budget():
    sim, scheduler, members, other, served = make_members(
        first=answer, second=answer, max_inflight=1
    )
    members.fences = 1  # "not the answer": the destination moves on
    replies = []
    head = scheduler.submit(
        members, "echo", {"n": 0}, on_reply=lambda _, r: replies.append(r["n"])
    )
    scheduler.submit(members, "echo", {"n": 1}, on_reply=lambda _, r: replies.append(r["n"]))
    sim.run_until(lambda: members.fenced, timeout=5.0)
    assert (head.state, head.attempts, head.seq, head.rounds) == ("queued", 0, 0, 0)
    sim.run()
    # The later message did not overtake the one sent again: it waited
    # out the destination's rest behind it.
    assert served == [("one", 0), ("two", 0), ("two", 1)]
    assert members.fenced == [("one", 0)] and replies == [0, 1] and head.attempts == 1
    assert scheduler.delivered == 3 and scheduler.retransmissions == 0 and scheduler.idle()


def test_late_reply_to_a_withdrawn_attempt_settles_the_message_once():
    from repro.net.transport import DelayedReply

    def slow_for_the_second(body):
        return DelayedReply(0.5, body) if body["n"] == 1 else body

    sim, scheduler, members, other, served = make_members(
        first=slow_for_the_second, second=answer
    )
    members.fences = 1  # the first answer, head's from one
    replies = {0: [], 1: []}
    head = scheduler.submit(
        members, "echo", {"n": 0}, on_reply=lambda _, reply: replies[0].append(sim.now)
    )
    tail = scheduler.submit(
        members, "echo", {"n": 1}, on_reply=lambda _, reply: replies[1].append(sim.now)
    )
    sim.run_until(lambda: members.fenced, timeout=5.0)
    # The sibling still out to the member that fenced was withdrawn with it.
    assert members.fenced == [("one", 0)] and head.state == "queued"
    assert (tail.state, tail.exchange, scheduler.inflight) == ("queued", None, 0)
    sim.run()
    assert served == [("one", 0), ("one", 1), ("two", 0), ("two", 1)]
    assert len(replies[0]) == 1
    assert len(replies[1]) == 1 and replies[1][0] < 0.4  # two's answer; one's came at 0.5
    assert scheduler.delivered == 3 and scheduler.inflight == 0 and scheduler.idle()


def test_old_exchanges_timeout_does_not_touch_a_member_sent_again():
    from repro.net.transport import DelayedReply

    sim, scheduler, members, other, served = make_members(
        second=lambda body: DelayedReply(0.8, body)
    )
    first = scheduler.submit(members, "echo", {"n": 0})
    sim.run(until=0.5)
    second = scheduler.submit(members, "echo", {"n": 1})  # its timeout falls 0.5 s later
    sim.run_until(lambda: members.unanswered, timeout=5.0)
    sim.run_until(lambda: second.state == "inflight", timeout=5.0)
    sent_again = second.exchange
    sim.run(until=1.6)  # past the first exchange's timeout, inside two's 0.8 s
    assert second.state == "inflight" and second.exchange is sent_again
    sim.run()
    assert members.unanswered == ["one"] and members.current_host.name == "two"
    assert (first.attempts, second.attempts) == (2, 2)
    assert served == [("two", 0), ("two", 1)]
    assert scheduler.delivered == 2 and scheduler.failed == 0 and scheduler.inflight == 0
