"""Wire-compression tests: the transport compresses a frame exactly
when its bytes cost more line time than the chosen link's propagation
delay, deflates it against the protocol's preset dictionary, and
inflates inbound frames against a stated cap."""

import random
import zlib

import pytest

from repro.net.link import CSLIP_14_4, ETHERNET_10M
from repro.net.message import MarshalError, marshal, marshalled_size, seal, unseal
from repro.net.simnet import Network
from repro.net.transport import (
    BATCH_SERVICE,
    DEFLATE_DICTIONARY,
    DEFLATE_LEVEL,
    MAX_FRAME_BYTES,
    RPC_PORT,
    Transport,
    deflate,
)
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


def test_a_lone_frame_past_the_cap_leaves_raw_and_is_served():
    """A ``Z`` frame inflating past the cap is refused by every
    receiver, and an ``R`` frame of any size is taken: a request that
    marshals past the cap, bytes dominating or not, leaves raw (once:
    before, it was deflated, refused as corrupt and sent again until its
    attempts ran out)."""
    sim, link, ta, tb = make_pair()
    tb.register("rover.list", lambda body, src: {"n": len(body["prefix"])})
    prefix = "a" * (9 * 1024 * 1024)
    request = {"prefix": prefix}
    wire = ta.call_bytes("rover.list", request, link)
    assert wire > MAX_FRAME_BYTES  # counted as it will leave: raw
    assert ta.call_blocking(tb.host, "rover.list", request, timeout=30.0) == {"n": len(prefix)}
    assert tb.corrupt_frames_detected == 0 and ta.bytes_saved_by_compression == 0
    assert ta.bytes_sent == wire


# -- the preset dictionary ---------------------------------------------------------


def _deflated_against(zdict, raw, level=DEFLATE_LEVEL):
    squeezer = zlib.compressobj(level, zdict=zdict)
    return squeezer.compress(raw) + squeezer.flush()


def test_a_dictionary_deflated_bomb_is_stopped_at_the_frame_cap():
    """The cap holds for a stream that starts from the dictionary's
    window, as it does for one that starts empty."""
    sim, link, ta, tb = make_pair()
    served = []
    tb.register("echo", lambda body, src: served.append(body))
    bomb = _deflated_against(DEFLATE_DICTIONARY, b"\0" * (MAX_FRAME_BYTES + 1), 9)
    assert len(bomb) < 16 * 1024
    frame = seal(b"Z" + bomb)
    with pytest.raises(MarshalError, match="frame cap"):
        Transport._decode_payload(frame)
    link.send(ta.host, RPC_PORT, frame)
    sim.run()
    assert served == []
    assert tb.corrupt_frames_detected == 1


def _request_frame(squeeze):
    envelope = {"kind": "request", "id": "a:0", "service": "echo", "body": {"pad": "x" * 500}}
    return seal(b"Z" + squeeze(marshal(envelope)))


def test_a_frame_deflated_against_another_dictionary_is_dropped_as_corrupt():
    """A peer whose dictionary differs by a byte sends frames this one
    cannot read: counted corrupt, not served, not answered."""
    sim, link, ta, tb = make_pair()
    served = []
    tb.register("echo", lambda body, src: served.append(body) or "ok")
    other = bytes([DEFLATE_DICTIONARY[0] ^ 1]) + DEFLATE_DICTIONARY[1:]
    link.send(ta.host, RPC_PORT, _request_frame(lambda raw: _deflated_against(other, raw)))
    sim.run()
    assert tb.corrupt_frames_detected == 1
    assert served == [] and tb.messages_sent == 0


def test_a_frame_deflated_with_no_dictionary_is_still_served():
    """What every sender wrote before the dictionary: the stream's
    header does not ask for one, so the one inflater reads it."""
    sim, link, ta, tb = make_pair()
    served = []
    tb.register("echo", lambda body, src: served.append(body) or "ok")
    link.send(ta.host, RPC_PORT, _request_frame(lambda raw: zlib.compress(raw, DEFLATE_LEVEL)))
    sim.run()
    assert tb.corrupt_frames_detected == 0
    assert served == [{"pad": "x" * 500}] and tb.messages_sent == 1


def test_a_sent_frame_names_the_dictionary():
    """What :meth:`Transport.send` puts on a slow link: a ``Z`` frame
    whose zlib header asks for the dictionary (the FDICT flag, then the
    dictionary's Adler-32) and whose body is :func:`deflate` of the
    marshalled value."""
    sim, link, ta, tb = make_pair(CSLIP_14_4)
    frames = []
    tb.host.bind(9000, lambda payload, source: frames.append(bytes(payload)))
    value = {"pad": "x" * 500}
    ta.send(tb.host, 9000, value)
    sim.run()
    body = bytes(unseal(frames[0]))
    assert body[:1] == b"Z" and body[1:] == deflate(marshal(value))
    assert body[2] & 0x20 and body[3:7] == zlib.adler32(DEFLATE_DICTIONARY).to_bytes(4, "big")


def test_the_dictionary_is_pinned():
    """Every byte of the dictionary is on the wire: a change to it is a
    change of protocol, which a peer still on the old one only shows as
    corrupt frames.  Change these two numbers on purpose only."""
    assert (len(DEFLATE_DICTIONARY), zlib.crc32(DEFLATE_DICTIONARY)) == (2542, 2537701635)


def _services_on_the_wire():
    """Every service name a sender can put in a request envelope."""
    from repro.core.access_manager import OPERATIONS
    from repro.core.server import SERVICES
    from repro.ha import build_ha_testbed
    from repro.obs.fleet.aggregator import FleetAggregator

    bed = build_ha_testbed(n_backups=1)
    FleetAggregator(bed.sim, server=bed.server).register(bed.server_transport)
    registered = {
        service
        for _server, transport in bed.members
        for service in transport._request_handlers
    }
    return {
        *SERVICES, *(row.service for row in OPERATIONS.values()), BATCH_SERVICE, *registered
    }


def test_every_service_on_the_wire_is_in_the_dictionary():
    """A service added in ``core/`` (or a replication or telemetry
    service) without a shape here would deflate from scratch.  The
    dictionary is a literal of ``net/``, which imports nothing of
    ``core/``; this test ties the two."""
    services = _services_on_the_wire()
    assert {"rover.ha.replicate", "rover.ha.poll", "rover.ha.sync", "rover.telemetry"} <= services
    missing = sorted(s for s in services if marshal(s) not in DEFLATE_DICTIONARY)
    assert missing == []
