"""Wire-compression tests: the transport compresses a frame exactly
when its bytes cost more line time than the chosen link's propagation
delay, and inflates inbound frames against a stated cap."""

import random
import zlib

import pytest

from repro.net.link import CSLIP_14_4, ETHERNET_10M
from repro.net.message import MarshalError, marshal, marshalled_size, seal
from repro.net.simnet import Network
from repro.net.transport import MAX_FRAME_BYTES, Transport
from repro.sim import Simulator
from repro.testbed import build_testbed


def make_pair(spec=ETHERNET_10M, **client_kwargs):
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    link = net.connect(a, b, spec)
    ta = Transport(sim, a, **client_kwargs)
    tb = Transport(sim, b)
    return sim, link, ta, tb


def test_compressible_payload_shrinks_on_wire():
    sim, link, ta, tb = make_pair()
    tb.register("echo", lambda body, src: "ok")
    body = {"text": "the same phrase again and again " * 200}
    ta.call_blocking(tb.host, "echo", body)
    assert ta.bytes_saved_by_compression > 1_000
    assert ta.bytes_sent < marshalled_size(body)
    saved = ta.obs.registry.get("transport_bytes_saved_by_compression_total")
    assert saved is not None and saved.value == ta.bytes_saved_by_compression


@pytest.mark.parametrize(
    "spec, pad, compressed",
    [
        # Ethernet: 0.5 ms of latency is 625 B of line time.
        (ETHERNET_10M, 400, False),
        (ETHERNET_10M, 800, True),
        # The 14.4k modem: 100 ms is ~175 B; every QRPC frame is past it.
        (CSLIP_14_4, 60, False),
        (CSLIP_14_4, 200, True),
    ],
)
def test_frame_is_compressed_only_where_bytes_outweigh_latency(spec, pad, compressed):
    sim, link, ta, tb = make_pair(spec)
    tb.register("echo", lambda body, src: "ok")
    ta.call_blocking(tb.host, "echo", {"pad": "x" * pad})
    assert (ta.bytes_saved_by_compression > 0) == compressed


def test_small_payloads_left_raw():
    sim, link, ta, tb = make_pair(CSLIP_14_4)
    tb.register("echo", lambda body, src: body)
    assert ta.call_blocking(tb.host, "echo", {"n": 1}) == {"n": 1}
    assert ta.bytes_saved_by_compression == 0
    assert tb.bytes_saved_by_compression == 0


def test_incompressible_payload_left_raw():
    sim, link, ta, tb = make_pair(CSLIP_14_4)
    tb.register("echo", lambda body, src: "ok")
    # High-entropy bytes do not compress; the raw frame is kept.
    noise = random.Random(7).randbytes(2_000)
    ta.call_blocking(tb.host, "echo", {"blob": noise})
    assert ta.bytes_saved_by_compression == 0
    assert ta.bytes_sent > 2_000


def test_mixed_settings_interoperate():
    """``adapt_to_link=False`` (the ablation rows) never compresses, on
    any link; what it receives may be compressed all the same."""
    sim, link, ta, tb = make_pair(CSLIP_14_4, adapt_to_link=False)
    tb.register("double", lambda body, src: body["text"] * 2)
    text = "abcabcabc" * 100
    assert ta.call_blocking(tb.host, "double", {"text": text}) == text * 2
    assert ta.bytes_saved_by_compression == 0
    assert tb.bytes_saved_by_compression > 0


def test_end_to_end_mail_with_compression_saves_wire_bytes():
    from repro.apps.mail import MailServerApp, RoverMailReader
    from repro.workloads import generate_mail_corpus

    corpus = generate_mail_corpus(seed=6, n_folders=1, messages_per_folder=6)
    results = {}
    for label, adapt in (("raw", False), ("compressed", True)):
        bed = build_testbed(link_spec=CSLIP_14_4, adapt_to_link=adapt)
        MailServerApp(bed.server, corpus)
        reader = RoverMailReader(bed.access, bed.authority)
        reader.prefetch_folder("inbox").wait(bed.sim)
        bed.access.drain(timeout=1e6)
        results[label] = {
            "bytes": bed.link.bytes_carried,
            "time": bed.sim.now,
        }
    # The generated mail bodies are repetitive text: big savings.
    assert results["compressed"]["bytes"] < 0.5 * results["raw"]["bytes"]
    assert results["compressed"]["time"] < results["raw"]["time"]


# -- hostile compressed frames ---------------------------------------------------


def test_frame_inflating_past_the_cap_is_dropped_not_inflated():
    """A CRC-valid ``Z`` frame of a few KB must not make the receiver
    allocate without limit: inflation stops at the frame cap."""
    sim, link, ta, tb = make_pair()
    served = []
    tb.register("echo", lambda body, src: served.append(body))
    bomb = zlib.compress(b"\0" * (MAX_FRAME_BYTES + 1), 9)
    assert len(bomb) < 16 * 1024
    frame = seal(b"Z" + bomb)
    with pytest.raises(MarshalError, match="frame cap"):
        Transport._decode_payload(frame)
    link.send(ta.host, 530, frame)
    sim.run()
    assert served == []
    assert tb.corrupt_frames_detected == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda z: z[:-5],                 # truncated stream
        lambda z: z + b"trailing",        # garbage after the stream
        lambda z: z[:10] + b"\xff" + z[11:],  # damaged in the middle
        lambda z: b"",                    # marker with nothing behind it
    ],
)
def test_damaged_compressed_frame_is_a_marshal_error(mangle):
    good = zlib.compress(marshal({"kind": "request", "pad": "x" * 500}), 6)
    with pytest.raises(MarshalError):
        Transport._decode_payload(seal(b"Z" + mangle(good)))
