"""Transport layer tests: object messaging, RPC, timeouts, faults."""

import pytest

from repro.net.link import (
    CSLIP_14_4,
    ETHERNET_10M,
    AlwaysDown,
    IntervalTrace,
    LinkSpec,
)
from repro.net.message import seal
from repro.net.simnet import LinkDown, Network
from repro.net.transport import (
    DelayedReply,
    RpcError,
    RpcTimeout,
    Transport,
    null_rpc_time,
)
from repro.sim import Simulator
from tests.conftest import into


def make_pair(spec=ETHERNET_10M, policy=None):
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("client"), net.host("server")
    link = net.connect(a, b, spec, policy)
    ta, tb = Transport(sim, a), Transport(sim, b)
    return sim, net, a, b, link, ta, tb


def test_send_and_listen_objects():
    sim, net, a, b, link, ta, tb = make_pair()
    received = []
    tb.listen(9000, lambda value, src: received.append((value, src)))
    ta.send(b, 9000, {"x": (1, 2), "y": b"z"})
    sim.run()
    assert received == [({"x": (1, 2), "y": b"z"}, ("client", 530))]


def test_listen_on_rpc_port_rejected():
    sim, net, a, b, link, ta, tb = make_pair()
    with pytest.raises(ValueError):
        ta.listen(530, lambda v, s: None)


def test_rpc_roundtrip():
    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("add", lambda body, src: body["x"] + body["y"])
    assert ta.call_blocking(b, "add", {"x": 2, "y": 3}) == 5


def test_rpc_latency_close_to_analytic():
    sim, net, a, b, link, ta, tb = make_pair(spec=CSLIP_14_4)
    tb.register("echo", lambda body, src: body)
    ta.call_blocking(b, "echo", {})
    # Envelope framing adds tens of bytes; allow a loose band around
    # the analytic null-RPC time.
    analytic = null_rpc_time(CSLIP_14_4, 60, 60)
    assert 0.5 * analytic < sim.now < 2.0 * analytic


def test_a_blocking_call_that_gets_no_answer_raises_a_timeout():
    """``RpcError`` is silence: a handler that never answers."""
    from repro.net.transport import AsyncReply

    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("silent", lambda body, src: AsyncReply())
    with pytest.raises(RpcTimeout):
        ta.call_blocking(b, "silent", {}, timeout=5.0)
    assert sim.now == pytest.approx(5.0)


def test_call_on_down_link_raises_immediately():
    sim, net, a, b, link, ta, tb = make_pair(policy=AlwaysDown())
    tb.register("echo", lambda body, src: body)
    with pytest.raises(RpcError):
        ta.call(b, "echo", {}, lambda v: None, lambda e: None)


def test_timeout_fires_when_reply_lost():
    # Link stays up long enough for the request to arrive (and the
    # server to start its reply) but drops while the reply is on the
    # wire; the reply is lost silently and the caller's timer fires.
    policy = IntervalTrace([(0.0, 0.0016)])
    spec = LinkSpec("t", 1e6, 0.001, header_bytes=0)
    sim, net, a, b, link, ta, tb = make_pair(spec=spec, policy=policy)
    served = []
    tb.register("echo", lambda body, src: served.append(1) or body)
    errors = []
    ta.call(b, "echo", {}, lambda v: None, errors.append, timeout=5.0)
    sim.run()
    assert served == [1]  # the request did arrive
    assert len(errors) == 1
    assert isinstance(errors[0], RpcTimeout)


def test_mid_transfer_drop_reports_failure_not_timeout():
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    policy = IntervalTrace([(0.0, 0.01)])  # drops while request on wire
    sim, net, a, b, link, ta, tb = make_pair(spec=spec, policy=policy)
    tb.register("echo", lambda body, src: body)
    errors = []
    ta.call(b, "echo", {"pad": "x" * 500}, lambda v: None, errors.append, timeout=60.0)
    sim.run()
    assert len(errors) == 1
    assert not isinstance(errors[0], RpcTimeout)
    assert sim.now < 60.0  # failed fast, did not wait for the timeout


def test_delayed_reply_charges_virtual_time():
    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("think", lambda body, src: DelayedReply(0.5, {"ok": True}))
    result = ta.call_blocking(b, "think", {})
    assert result == {"ok": True}
    assert sim.now > 0.5


def test_best_link_prefers_bandwidth():
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    slow = net.connect(a, b, CSLIP_14_4, name="slow")
    fast = net.connect(a, b, ETHERNET_10M, name="fast")
    assert a.best_link_to(b) is fast  # held best first, whatever the attach order


def test_best_link_skips_down_links():
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    net.connect(a, b, ETHERNET_10M, AlwaysDown(), name="fast-down")
    slow = net.connect(a, b, CSLIP_14_4, name="slow-up")
    assert a.best_link_to(b) is slow


def test_send_with_no_link_raises():
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    ta = Transport(sim, a)
    with pytest.raises(LinkDown):
        ta.send(b, 9000, {"x": 1})


def test_concurrent_calls_correlated_correctly():
    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("double", lambda body, src: body * 2)
    results = {}
    for value in range(5):
        ta.call(
            b,
            "double",
            value,
            on_reply=lambda v, k=value: results.update({k: v}),
            on_error=lambda e: None,
        )
    sim.run()
    assert results == {k: k * 2 for k in range(5)}


def test_byte_counters_advance():
    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("echo", lambda body, src: body)
    ta.call_blocking(b, "echo", {"pad": "x" * 100})
    assert ta.messages_sent == 1
    assert ta.bytes_sent > 100


def test_byte_counters_are_read_by_the_registry_as_counters():
    """The registry reads the two plain counts as live views: the same
    names, kind, labels and values as when each frame incremented them."""
    sim, net, a, b, link, ta, tb = make_pair()
    tb.register("echo", lambda body, src: body)
    for pad in (10, 100, 1000):
        ta.call_blocking(b, "echo", {"pad": "x" * pad})
    for transport in (ta, tb):
        registry, host = transport.obs.registry, transport.host.name
        snapshot = registry.snapshot()
        assert snapshot[f"transport_bytes_sent_total{{host={host}}}"] == transport.bytes_sent
        assert snapshot[f"transport_messages_sent_total{{host={host}}}"] == 3
        for name in ("transport_bytes_sent_total", "transport_messages_sent_total"):
            metric = registry.get(name)
            assert metric.kind == "counter" and metric.labelnames == ("host",)
        assert registry.get("transport_bytes_sent_total").value == transport.bytes_sent > 0


def test_crc_valid_frame_with_unhashable_dict_key_is_counted_and_dropped():
    """A frame that passes the CRC seal but whose body cannot decode —
    a dict keyed by a list — is a corrupt frame like any other: counted,
    dropped, no handler run, no exception out of the simulator.  (The
    decoder used to raise TypeError here, which no receiver catches.)"""
    sim, net, a, b, link, ta, tb = make_pair()
    served, heard = [], []
    tb.register("echo", lambda body, src: served.append(body))
    tb.listen(9000, lambda value, src: heard.append(value))
    hostile = seal(b"R" + b"d\x01l\x00N")  # {[]: None}
    link.send(a, 530, hostile)   # the RPC port
    link.send(a, 9000, hostile)  # a datagram port
    sim.run()
    assert served == [] and heard == []
    assert tb.corrupt_frames_detected == 2
    registry_total = tb.obs.registry.get("transport_corrupt_frames_total")
    assert registry_total is not None and registry_total.value == 2
    # The transport still works afterwards.
    tb.register("add", lambda body, src: body["x"] + 1)
    assert ta.call_blocking(b, "add", {"x": 1}) == 2


# -- the coalesced exchange: hostile requests and replies ---------------------


def _batch_call(members_body):
    """Send ``members_body`` as a ``rover.batch`` request to a peer that
    serves ``echo``; return (outcome, served bodies, the peer)."""
    sim, net, a, b, link, ta, tb = make_pair()
    served = []

    def echo(body, src):
        served.append(body)
        return body

    tb.register("echo", echo)
    outcome = {}
    ta.call(
        b,
        "rover.batch",
        members_body,
        on_reply=lambda body: outcome.setdefault("reply", body),
        on_error=lambda err: outcome.setdefault("error", str(err)),
    )
    sim.run()
    return outcome, served, tb


def test_any_transport_serves_a_coalesced_frame_member_by_member():
    outcome, served, tb = _batch_call(
        {
            "requests": [
                {"service": "echo", "body": {"n": 1}},
                {"service": "nope", "body": {"n": 2}},
                {"service": "echo", "body": {"n": 3}},
            ]
        }
    )
    assert served == [{"n": 1}, {"n": 3}]
    assert outcome["reply"] == {
        "replies": [
            {"ok": True, "body": {"n": 1}},
            {"ok": True, "body": {"status": "error", "error": "LookupError: unknown service 'nope'"}},
            {"ok": True, "body": {"n": 3}},
        ]
    }
    assert tb.corrupt_frames_detected == 0


def test_coalesced_frame_reply_waits_for_members_compute_and_deferred_replies():
    from repro.net.transport import AsyncReply

    sim, net, a, b, link, ta, tb = make_pair()
    deferred = AsyncReply()
    tb.register("slow", lambda body, src: DelayedReply(0.5, "computed"))
    tb.register("later", lambda body, src: deferred)
    got = []
    ta.call(
        b,
        "rover.batch",
        {"requests": [{"service": "slow", "body": 1}, {"service": "later", "body": 2}]},
        on_reply=lambda body: got.append((sim.now, body)),
        on_error=lambda err: got.append(err),
    )
    sim.run(until=5.0)
    assert got == []  # one member is still unanswered
    deferred.complete(DelayedReply(0.25, "quorum"))
    sim.run()
    ((at, body),) = got
    assert body == {
        "replies": [{"ok": True, "body": "computed"}, {"ok": True, "body": "quorum"}]
    }
    assert at == pytest.approx(5.75, abs=0.01)  # both members' compute time


@pytest.mark.parametrize(
    "body",
    [
        None,
        "requests",
        {"requests": "not a list"},
        {"requests": {"service": "echo", "body": 1}},
        {"requests": []},
        {"requests": [{"service": "echo", "body": {"n": 0}}] * 257},
    ],
)
def test_frame_that_is_not_a_batch_is_dropped_whole(body):
    """No member is served; the frame is answered as a whole."""
    outcome, served, tb = _batch_call(body)
    assert served == []
    assert outcome == {"reply": {"status": "error", "error": "ValueError: malformed batch"}}
    assert tb.corrupt_frames_detected == 1


@pytest.mark.parametrize(
    "member",
    [
        None,
        7,
        ["echo", {"n": 0}],
        {"body": {"n": 0}},
        {"service": "echo"},
        {"service": 7, "body": {"n": 0}},
        {"service": "rover.batch", "body": {"requests": [{"service": "echo", "body": 0}]}},
    ],
)
def test_malformed_member_fails_alone(member):
    outcome, served, tb = _batch_call(
        {"requests": [{"service": "echo", "body": {"n": 1}}, member]}
    )
    assert served == [{"n": 1}]
    good, bad = outcome["reply"]["replies"]
    assert good == {"ok": True, "body": {"n": 1}}
    assert bad == {
        "ok": True, "body": {"status": "error", "error": "ValueError: malformed batch member"}
    }
    assert tb.corrupt_frames_detected == 1


@pytest.mark.parametrize(
    "reply",
    [
        {"replies": [{"ok": True, "body": "only one"}]},
        {"replies": [{"ok": True, "body": 1}] * 3},
        {"replies": [{"ok": True, "body": 1}, "not a dict"]},
        {"replies": "not a list"},
        "not a dict",
    ],
)
def test_reply_that_does_not_answer_the_frame_is_treated_as_lost(reply):
    """The sender cannot tell which member an entry belongs to: no
    member is told anything, the frame counts as corrupt, and the
    members are retried (here against a peer that has recovered)."""
    from repro.net.scheduler import NetworkScheduler

    sim, net, a, b, link, ta, tb = make_pair(spec=CSLIP_14_4)
    served = []
    tb.register("echo", lambda body, src: served.append(body) or body)
    honest = tb._handle_batch
    tb._handle_batch = lambda body, src: reply
    scheduler = NetworkScheduler(sim, ta, max_inflight=1, base_backoff=0.5)
    replies = []
    scheduler.submit(b, "echo", {"n": 0, "pad": "x" * 200}, on_reply=into(replies))
    sim.run(until=0.0)
    for n in (1, 2):
        scheduler.submit(b, "echo", {"n": n, "pad": "x" * 200}, on_reply=into(replies))
    sim.run_until(lambda: ta.corrupt_frames_detected == 1, timeout=30)
    assert [m["n"] for m in replies] == [0]  # the lone head only
    assert scheduler.failed == 0
    tb._handle_batch = honest
    sim.run()
    assert [m["n"] for m in replies] == [0, 1, 2]
    assert scheduler.retransmissions == 2
    assert scheduler.inflight == 0


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300), st.text(max_size=6), st.binary(max_size=6)
)
_junk = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["service", "body", "requests", "x"]), inner, max_size=4),
    ),
    max_leaves=12,
)
_member = st.one_of(
    _junk,
    st.fixed_dictionaries(
        {"service": st.sampled_from(["echo", "boom", "nope", "rover.batch", 3]), "body": _junk}
    ),
)
_batch_body = st.one_of(
    _junk,
    st.fixed_dictionaries({"requests": st.one_of(_junk, st.lists(_member, max_size=6))}),
)


@settings(max_examples=300, deadline=None)
@given(_batch_body)
def test_hostile_coalesced_frames_never_escape_the_transport(body):
    """Whatever arrives as a ``rover.batch`` body: nothing raises out of
    the simulator, the sender hears exactly one outcome, a well-formed
    member is served exactly once and a malformed one not at all."""
    sim, net, a, b, link, ta, tb = make_pair()
    served = []
    tb.register("echo", lambda body, src: served.append(body))

    def boom(body, src):
        raise RuntimeError("handler fault")

    tb.register("boom", boom)
    outcomes = []
    ta.call(b, "rover.batch", body, on_reply=outcomes.append, on_error=outcomes.append)
    sim.run()
    assert len(outcomes) == 1
    requests = body.get("requests") if isinstance(body, dict) else None
    if isinstance(requests, list) and requests:
        expected = [
            m["body"]
            for m in requests
            if isinstance(m, dict) and m.get("service") == "echo" and "body" in m
        ]
        assert served == expected
        assert len(outcomes[0]["replies"]) == len(requests)
    else:
        assert served == []
        assert outcomes[0] == {"status": "error", "error": "ValueError: malformed batch"}
        assert tb.corrupt_frames_detected == 1


@st.composite
def _mutated_compressed_frames(draw):
    import zlib

    from repro.net.message import marshal

    stream = bytearray(zlib.compress(marshal(draw(_batch_body)), 6))
    for __ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(stream) - 1))
        action = draw(st.sampled_from(["flip", "delete", "insert"]))
        if action == "flip":
            stream[index] ^= draw(st.integers(1, 255))
        elif action == "delete" and len(stream) > 1:
            del stream[index]
        else:
            stream.insert(index, draw(st.integers(0, 255)))
    return seal(b"Z" + bytes(stream))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _mutated_compressed_frames(),
        st.binary(max_size=80).map(lambda junk: seal(b"Z" + junk)),
    )
)
def test_compressed_frames_raise_only_marshal_error(frame):
    """The compressed half of the only-MarshalError property (the raw
    half is tests/test_net_message.py): a CRC-valid ``Z`` frame either
    decodes to an ordinary value or is a MarshalError, which is the one
    thing receivers catch."""
    from repro.net.message import MarshalError, marshal

    try:
        value = Transport._decode_payload(frame)
    except MarshalError:
        return
    marshal(value)
