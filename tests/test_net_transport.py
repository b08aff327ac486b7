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


def test_unknown_service_is_error():
    sim, net, a, b, link, ta, tb = make_pair()
    with pytest.raises(RpcError, match="unknown service"):
        ta.call_blocking(b, "nope", {})


def test_remote_exception_surfaces_as_error():
    sim, net, a, b, link, ta, tb = make_pair()

    def boom(body, src):
        raise ValueError("kaput")

    tb.register("boom", boom)
    with pytest.raises(RpcError, match="kaput"):
        ta.call_blocking(b, "boom", {})


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
    ta = Transport(sim, a)
    assert ta.best_link(b) is fast
    assert ta.usable_links(b) == [fast, slow]


def test_best_link_skips_down_links():
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    net.connect(a, b, ETHERNET_10M, AlwaysDown(), name="fast-down")
    slow = net.connect(a, b, CSLIP_14_4, name="slow-up")
    ta = Transport(sim, a)
    assert ta.best_link(b) is slow


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
