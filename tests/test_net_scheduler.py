"""Network scheduler tests: priorities, retransmission, wake-ups."""

import pytest

from repro.net.link import (
    CSLIP_14_4,
    AlwaysDown,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
)
from repro.net.scheduler import NetworkScheduler, Priority
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.sim import Simulator

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
    scheduler.submit(b, "echo", {"n": 1}, on_reply=replies.append)
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
    scheduler.submit(b, "echo", {"n": 1}, on_reply=lambda r: replies.append(sim.now))
    sim.run(until=50)
    assert replies == []
    assert scheduler.queue_length() == 1
    sim.run(until=200)
    assert len(replies) == 1
    assert replies[0] > 100.0


def test_retransmission_across_outages():
    """A message whose transfer dies mid-flight is retried and succeeds."""
    policy = PeriodicSchedule(up_duration=0.5, down_duration=2.0)
    slow = LinkSpec("vslow", bandwidth_bps=800, latency_s=0.01, header_bytes=0)
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=policy, spec=slow, base_backoff=0.2
    )
    replies = []
    # ~60-byte envelope -> 0.6 s serialization > 0.5 s up window: the
    # first attempt always dies; success requires retry luck with
    # queueing phase, so give it a payload that fits after backoff.
    scheduler.submit(b, "echo", {}, on_reply=replies.append)
    sim.run(until=60)
    assert scheduler.retransmissions >= 1
    assert len(replies) <= 1


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
    sched2.submit(s, "echo", {"pad": "x" * 200}, on_failed=failures.append)
    sim2.run(until=600)
    assert len(failures) == 1
    assert sched2.failed == 1


def test_cancel_queued_message():
    policy = IntervalTrace([(100.0, 1e9)])
    sim, net, a, b, link, scheduler, served = make_sched(policy=policy)
    replies = []
    message = scheduler.submit(b, "echo", {"n": 1}, on_reply=replies.append)
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
            on_reply=replies.append, on_failed=failures.append,
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
    scheduler.submit(b, "echo", {"n": 1}, on_reply=replies.append)
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
            on_reply=lambda body: done.append(sim.now),
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
        scheduler.submit(b, "echo", _padded(n))
    sim.run()
    assert [m["n"] for m in served] == list(range(40))
    # 19 of these ~210 B bodies fit the 4 KiB frame budget: 19 + 19 + 2.
    assert scheduler.batches_sent == 3
    assert scheduler.delivered == 40


def test_object_over_the_frame_budget_travels_alone():
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4, max_inflight=1
    )
    scheduler.submit(b, "echo", _padded("small0"))
    scheduler.submit(b, "echo", _padded("big", pad=6000))
    scheduler.submit(b, "echo", _padded("small1"))
    scheduler.submit(b, "echo", _padded("small2"))
    sim.run()
    # Order kept: nothing overtakes the big one to fill a frame.
    assert [m["n"] for m in served] == ["small0", "big", "small1", "small2"]
    assert scheduler.batches_sent == 1  # small1 + small2
    assert scheduler.obs.registry.get("sched_batch_members_total").value == 2


def test_pinned_message_never_joins_a_frame():
    from repro.net.scheduler import RouteKind

    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), spec=CSLIP_14_4, max_inflight=1
    )
    scheduler.submit(b, "echo", _padded(0))
    scheduler.submit(b, "echo", _padded(1), route_preference=RouteKind.DIRECT)
    scheduler.submit(b, "echo", _padded(2))
    sim.run()
    assert sorted(m["n"] for m in served) == [0, 1, 2]
    assert scheduler.batches_sent == 1
    assert scheduler.obs.registry.get("sched_batch_members_total").value == 2  # 0 + 2


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
    sim, net, a, b, link, scheduler, served = make_sched(
        policy=IntervalTrace([(10.0, 1e9)]), max_attempts=2
    )
    replies, failures = [], []
    scheduler.submit(b, "echo", _padded(0), on_reply=replies.append)
    scheduler.submit(b, "nope", _padded(1), on_failed=failures.append)
    scheduler.submit(b, "echo", _padded(2), on_reply=replies.append)
    sim.run()
    assert [m["n"] for m in replies] == [0, 2]
    assert scheduler.batches_sent == 1
    assert failures == ["unknown service 'nope'"]
    assert scheduler.retransmissions == 1  # the failed member alone
    assert scheduler.delivered == 2 and scheduler.failed == 1


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
    next attempt goes, and whom to tell when a member does not answer."""

    def __init__(self, *hosts):
        self.hosts = list(hosts)
        self.current_host = hosts[0]
        self.unanswered = []

    def advance_past(self, name):
        self.unanswered.append(name)
        if self.current_host.name == name:
            self.current_host = self.hosts[1 - self.hosts.index(self.current_host)]


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
        scheduler.submit(members, "echo", {"n": n}, on_reply=replies.append) for n in range(4)
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
    message = scheduler.submit(members, "echo", {"n": 0}, on_failed=failures.append)
    sim.run()
    assert members.unanswered == ["one", "two", "one"] and message.attempts == 3
    assert len(failures) == 1 and scheduler.failed == 1 and scheduler.idle()


def test_retry_keeps_the_seq_and_renews_the_attempt_budget():
    sim, scheduler, members, other, served = make_members(
        first=answer, second=answer, max_inflight=1
    )
    replies = []

    def fenced_once(reply):
        replies.append(reply["n"])
        if len(replies) == 1:  # "not the answer": the owner moves the destination on
            assert (head.state, head.attempts) == ("done", 1)
            members.current_host = members.hosts[1]
            scheduler.retry(head, 0.5)
            assert (head.state, head.attempts, head.seq) == ("queued", 0, 0)

    head = scheduler.submit(members, "echo", {"n": 0}, on_reply=fenced_once)
    scheduler.submit(members, "echo", {"n": 1}, on_reply=fenced_once)
    sim.run()
    # The later message did not overtake the one sent again: it waited
    # out the destination's rest behind it.
    assert served == [("one", 0), ("two", 0), ("two", 1)]
    assert replies == [0, 0, 1] and head.attempts == 1
    assert scheduler.delivered == 3 and scheduler.retransmissions == 0 and scheduler.idle()


def test_late_reply_to_a_withdrawn_attempt_settles_the_message_once():
    from repro.net.transport import DelayedReply

    def slow_for_the_second(body):
        return DelayedReply(0.5, body) if body["n"] == 1 else body

    sim, scheduler, members, other, served = make_members(
        first=slow_for_the_second, second=answer
    )
    replies = {0: [], 1: []}

    def first_is_fenced(reply):
        replies[0].append(sim.now)
        if len(replies[0]) == 1:
            members.current_host = members.hosts[1]
            scheduler.retry(head, 0.05)

    head = scheduler.submit(members, "echo", {"n": 0}, on_reply=first_is_fenced)
    tail = scheduler.submit(
        members, "echo", {"n": 1}, on_reply=lambda reply: replies[1].append(sim.now)
    )
    sim.run_until(lambda: replies[0], timeout=5.0)
    # The sibling still out to the member that fenced was withdrawn with it.
    assert (tail.state, tail.exchange, scheduler.inflight) == ("queued", None, 0)
    sim.run()
    assert served == [("one", 0), ("one", 1), ("two", 0), ("two", 1)]
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
