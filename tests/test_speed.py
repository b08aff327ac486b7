"""The repro.speed pass: codec equivalence, group commit, kernel
compaction, the interpreter's inline step charge, and the E16
scenario's determinism.

The codec is checked against reference implementations — verbatim
copies of the per-value recursive decoder and encoder the repo shipped
before the hot-path rewrites — under hypothesis-generated values and
corruptions: same values out, same bytes out, same errors raised, and
no ``memoryview`` may leak into a decoded structure.  The step charge
is checked the same way, against the call-based guard it replaced.
"""

import ast
import copy
import gc
import json
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mail import _FOLDER_CODE
from repro.chaos import FaultyLink, LinkFaultSpec
from repro.core.access_manager import AccessManager
from repro.core.interpreter import (
    SAFE_BUILTINS,
    CodeValidationError,
    ExecutionBudgetExceeded,
    ExecutionError,
    SafeInterpreter,
    validate_source,
)
from repro.core.naming import URN
from repro.core.object_cache import ObjectCache
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.lint import verifier
from repro.lint.verifier import check_code, check_whitelist, walk
from repro.live.transport import LiveAddress, _Connection, _LiveHost
from repro.net.link import (
    CSLIP_14_4,
    ETHERNET_10M,
    WAVELAN_2M,
    AlwaysDown,
    ConnectivityPolicy,
    IntervalTrace,
    LinkSpec,
)
from repro.net.message import (
    _PROTOCOL_KEYS,
    MarshalError,
    Premarshalled,
    codec_stats,
    marshal,
    marshalled_size,
    same_encoding,
    unmarshal,
)
from repro.net.simnet import LinkDown, Medium, Network
from repro.net.transport import RpcError, Transport
from repro.perf.delta import diff_value
from repro.sim import Simulator, make_rng
from repro.speed.scenario import SpeedScenario, run_drain
from repro.storage.stable_log import (
    FileLogBackend,
    GroupCommitPolicy,
    StableLog,
)
from repro.testbed import build_testbed
from repro.workloads.generators import generate_mail_corpus
from repro.workloads.population import CohortSpec, generate_population
from tests.conftest import make_note

_NOTE_URN = "urn:rover:server/notes/n1"


# ---------------------------------------------------------------------------
# Reference decoder: the pre-rewrite implementation, copied verbatim.
# ---------------------------------------------------------------------------

_MAX_DEPTH = 64


def _ref_read_uvarint(data, pos):
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MarshalError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1000:
            raise MarshalError("varint too long")


def _ref_decode(data, pos, depth=0):
    if depth > _MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {_MAX_DEPTH} levels")
    if pos >= len(data):
        raise MarshalError("truncated message")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        raw, pos = _ref_read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == b"f":
        if pos + 8 > len(data):
            raise MarshalError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == b"s":
        length, pos = _ref_read_uvarint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated string")
        try:
            text = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"invalid utf-8 in string: {exc}") from None
        return text, pos + length
    if tag == b"b":
        length, pos = _ref_read_uvarint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag in (b"l", b"t"):
        count, pos = _ref_read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _ref_decode(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), pos
    if tag == b"d":
        count, pos = _ref_read_uvarint(data, pos)
        result = {}
        for _ in range(count):
            key, pos = _ref_decode(data, pos, depth + 1)
            value, pos = _ref_decode(data, pos, depth + 1)
            try:
                result[key] = value
            except TypeError:
                # The one deliberate departure from the shipped code: it
                # let this TypeError escape (a corrupted key tag can turn
                # a key into a list), which made the parity property
                # below flaky.  The codec's contract is MarshalError.
                raise MarshalError("unhashable dict key") from None
        return result, pos
    raise MarshalError(f"unknown tag {tag!r} at offset {pos - 1}")


def _ref_unmarshal(data):
    value, pos = _ref_decode(data, 0)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# Reference encoder: the pre-rewrite implementation, copied verbatim
# (one call per value, one per varint).
# ---------------------------------------------------------------------------


def _ref_write_uvarint(out, value):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _ref_zigzag(value):
    return value * 2 if value >= 0 else -value * 2 - 1


def _ref_encode(value, out, depth=0):
    if depth > _MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {_MAX_DEPTH} levels")
    if isinstance(value, Premarshalled):
        out += value.raw
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i"
        _ref_write_uvarint(out, _ref_zigzag(value))
    elif isinstance(value, float):
        out += b"f"
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s"
        _ref_write_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out += b"b"
        _ref_write_uvarint(out, len(value))
        out += bytes(value)
    elif isinstance(value, list):
        out += b"l"
        _ref_write_uvarint(out, len(value))
        for item in value:
            _ref_encode(item, out, depth + 1)
    elif isinstance(value, tuple):
        out += b"t"
        _ref_write_uvarint(out, len(value))
        for item in value:
            _ref_encode(item, out, depth + 1)
    elif isinstance(value, dict):
        out += b"d"
        _ref_write_uvarint(out, len(value))
        for key, item in value.items():
            _ref_encode(key, out, depth + 1)
            _ref_encode(item, out, depth + 1)
    else:
        raise MarshalError(f"cannot marshal {type(value).__name__}: {value!r}")


def _ref_marshal(value):
    out = bytearray()
    _ref_encode(value, out)
    return bytes(out)


# A strategy over everything the codec supports.  Floats exclude NaN
# (NaN != NaN breaks value comparison, and the protocols never send
# one).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


def _assert_no_views(value):
    """The decoder must materialize: views over the wire buffer leaking
    into application state would pin the whole datagram alive."""
    assert type(value) in (
        type(None), bool, int, float, str, bytes, list, tuple, dict
    ), f"unexpected decoded type {type(value)!r}"
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_no_views(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_no_views(key)
            _assert_no_views(item)


@settings(max_examples=200)
@given(value=_values)
def test_decoder_matches_reference(value):
    wire = marshal(value)
    assert unmarshal(wire) == _ref_unmarshal(wire) == value
    assert unmarshal(memoryview(wire)) == value
    _assert_no_views(unmarshal(wire))


@settings(max_examples=200)
@given(value=_values, data=st.data())
def test_truncation_raises_for_both_decoders(value, data):
    wire = marshal(value)
    if len(wire) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(wire) - 1))
    with pytest.raises(MarshalError):
        _ref_unmarshal(wire[:cut])
    with pytest.raises(MarshalError):
        unmarshal(wire[:cut])


def _equivalent(a, b):
    """Equality that treats NaN == NaN (a corrupted float byte can turn
    a finite float into NaN, which breaks ``==`` inside containers)."""
    if type(a) is not type(b):
        return a == b  # int/bool comparisons keep normal semantics
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _equivalent(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        # Both decoders build dicts in wire order, so compare by
        # position — NaN keys would defeat a hash lookup.
        return len(a) == len(b) and all(
            _equivalent(ka, kb) and _equivalent(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


@settings(max_examples=200)
@given(value=_values, data=st.data())
def test_corruption_never_diverges_from_reference(value, data):
    """A flipped byte must produce the same outcome from both decoders:
    the same value, or a MarshalError from each."""
    wire = bytearray(marshal(value))
    index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    wire[index] ^= flip
    corrupt = bytes(wire)
    try:
        expected = _ref_unmarshal(corrupt)
    except MarshalError:
        with pytest.raises(MarshalError):
            unmarshal(corrupt)
    else:
        got = unmarshal(corrupt)
        assert _equivalent(got, expected)
        _assert_no_views(got)


@settings(max_examples=200)
@given(value=_values)
def test_marshalled_size_matches_encoding(value):
    assert marshalled_size(value) == len(marshal(value))


# What the encoder accepts beyond ``_values``: bytearray, strings and
# containers long enough for multi-byte varints, protocol keys (the
# pre-encoded table) in key and value position, non-string keys, and
# Premarshalled dicts spliced at any depth.
_protocol_keys = st.sampled_from(sorted(_PROTOCOL_KEYS))
_encodable_scalars = st.one_of(
    _scalars,
    _protocol_keys,
    st.binary(max_size=40).map(bytearray),
    st.text(min_size=120, max_size=300),
    st.binary(min_size=128, max_size=200),
)
_encodable = st.recursive(
    _encodable_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(-2, 200), min_size=128, max_size=140),
        st.dictionaries(
            st.one_of(st.text(max_size=10), _protocol_keys, st.integers()),
            children,
            max_size=5,
        ),
        st.dictionaries(st.text(max_size=10), children, max_size=4).map(Premarshalled),
    ),
    max_leaves=25,
)


def _outcome(fn, *args):
    """``fn``'s result, or the MarshalError class if it raised one."""
    try:
        return fn(*args)
    except MarshalError:
        return MarshalError


@settings(max_examples=300)
@given(value=_encodable)
def test_encoder_matches_reference(value):
    wire = marshal(value)
    assert wire == _ref_marshal(value)
    assert marshalled_size(value) == len(wire)


@settings(max_examples=150)
@given(
    levels=st.integers(min_value=_MAX_DEPTH - 2, max_value=_MAX_DEPTH + 3),
    shape=st.sampled_from(["list", "tuple", "dict"]),
    leaf=st.one_of(_scalars, st.just([]), st.just({}), st.just(())),
    wrap_at=st.one_of(st.none(), st.integers(min_value=0, max_value=_MAX_DEPTH + 2)),
)
def test_nesting_limit_matches_reference(levels, shape, leaf, wrap_at):
    """At, just under and beyond MAX_DEPTH the three walkers and both
    references agree: the same bytes and value, or MarshalError from
    each.  A ``Premarshalled`` at any level (``wrap_at``) is held to the
    limit where it is spliced, i.e. it changes nothing."""

    def build(wrap_at):
        value = leaf
        for level in range(levels):
            if shape == "list":
                value = [value]
            elif shape == "tuple":
                value = (value,)
            elif level == wrap_at:
                value = Premarshalled({"k": value})
            else:
                value = {"k": value}
        return value

    expected = _outcome(_ref_marshal, build(None))
    assert _outcome(lambda: marshal(build(wrap_at))) == expected
    assert _outcome(lambda: marshalled_size(build(wrap_at))) == (
        MarshalError if expected is MarshalError else len(expected)
    )
    # The decoder's limit, on a frame nested `levels` deep (crafted: the
    # encoder refuses to produce the ones beyond the limit).
    frame = b"l\x01" * levels + marshal(leaf)
    assert _outcome(unmarshal, frame) == _outcome(_ref_unmarshal, frame)


# The walkers' own edges, each against the references: where a varint
# grows a byte (written and read inline, where a helper call did it),
# where a splice lands against the depth limit, and a frame cut inside a
# multi-byte varint.
_VARINT_EDGES = (127, 128, 16_383, 16_384)


def _assert_matches_reference(value):
    wire = marshal(value)
    assert wire == _ref_marshal(value)
    assert marshalled_size(value) == len(wire)
    assert unmarshal(wire) == _ref_unmarshal(wire) == value


@pytest.mark.parametrize("length", _VARINT_EDGES)
@pytest.mark.parametrize("shape", ["ascii", "utf-8", "bytes", "list", "tuple", "dict"])
def test_lengths_and_counts_at_varint_edges_match_reference(shape, length):
    _assert_matches_reference({
        "ascii": lambda: "x" * length,
        "utf-8": lambda: "é" * (length // 2) + "x" * (length % 2),  # `length` bytes
        "bytes": lambda: b"x" * length,
        "list": lambda: [0] * length,
        "tuple": lambda: (1,) * length,
        "dict": lambda: {str(key): key for key in range(length)},
    }[shape]())


def test_ints_at_zigzag_varint_edges_match_reference():
    """Both signs on each side of every edge up to ten varint bytes."""
    for width in range(1, 11):
        edge = 1 << (7 * width)
        for zigzag in range(edge - 2, edge + 2):
            value = zigzag >> 1 if zigzag % 2 == 0 else -((zigzag + 1) >> 1)
            assert _ref_zigzag(value) == zigzag
            _assert_matches_reference(value)


@pytest.mark.parametrize("lands_at", [62, 63, 64])
@pytest.mark.parametrize("inner", [{}, {"k": 1}, {"k": [1]}], ids=["nesting0", "nesting1", "nesting2"])
def test_a_splice_at_the_depth_limit_matches_reference(lands_at, inner):
    """A ``Premarshalled`` under ``lands_at`` lists is refused exactly
    where the plain dict would be (the reference splices unchecked, so
    it is run on the plain dict)."""

    def build(body):
        value = body
        for _ in range(lands_at):
            value = [value]
        return value

    expected = _outcome(_ref_marshal, build(dict(inner)))
    assert _outcome(marshal, build(Premarshalled(inner))) == expected
    assert _outcome(marshalled_size, build(Premarshalled(inner))) == (
        MarshalError if expected is MarshalError else len(expected)
    )
    if expected is not MarshalError:
        assert unmarshal(expected) == _ref_unmarshal(expected)


@pytest.mark.parametrize(
    "value",
    ["x" * 300, b"y" * 20_000, 2**40, -(2**40), list(range(200)), {str(k): 0 for k in range(130)}],
    ids=["str", "bytes", "int", "negative-int", "list", "dict"],
)
def test_a_frame_cut_inside_a_multi_byte_varint_is_a_truncated_varint(value):
    for wire, at in ((marshal(value), 1), (marshal([value]), 3)):  # after the tag(s)
        last = at
        while wire[last] & 0x80:
            last += 1
        assert last > at  # multi-byte
        for cut in range(at, last + 1):  # no varint byte, up to all but the last
            for decode in (unmarshal, _ref_unmarshal):
                with pytest.raises(MarshalError, match="^truncated varint$"):
                    decode(wire[:cut])


@pytest.mark.parametrize("continued", [141, 142, 143, 144])
@pytest.mark.parametrize("tail", [b"", b"\x01"], ids=["cut", "ended"])
def test_an_overlong_varint_fails_where_the_reference_does(continued, tail):
    """1,000 bits is the most a varint may carry: 142 continued bytes and
    an end decode, 143 are too long, truncated or not."""
    frame = b"i" + b"\xff" * continued + tail
    assert _outcome(unmarshal, frame) == _outcome(_ref_unmarshal, frame)
    for decode in (unmarshal, _ref_unmarshal):
        try:
            decode(frame)
        except MarshalError as exc:
            assert str(exc) == ("varint too long" if continued > 142 else "truncated varint")


def _golden_values():
    """The protocol's canonical shapes, as the layers build them.

    ``tests/data/codec_golden.json`` pins each one's encoding (hex),
    written by the pre-rewrite encoder: a wire-format change of any
    kind fails loudly here.
    """
    urn = "urn:rover:server/notes/n1"
    ackw = ["client/0", 6]

    def request_envelope(call, service, body):
        return {"kind": "request", "id": f"client:{call}", "service": service, "body": body}

    invoke_body = {
        "method": "append",
        "args": ["héllo wörld", 3, -1, 2.5, None, True, b"\x00\xff"],
        "urn": urn,
        "request_id": "client/7",
        "session": "client#1",
        "ackw": ackw,
        "_trace": ["t000001", "s000004"],
    }
    export_body = {
        "data": {"text": "x" * 130, "tags": ("a", "b"), "rev": 2**40},
        "base_version": 3,
        "urn": urn,
        "request_id": "client/8",
        "ackw": ackw,
    }
    import_body = {"have_version": 3, "urn": urn, "request_id": "client/9", "ackw": ackw}
    invoke_record = {
        "seq": 12,
        "epoch": 2,
        "service": "rover.invoke",
        "body": invoke_body,
        "at": 41.25,
        "src": "client",
    }
    return {
        "import_request_envelope": request_envelope(21, "rover.import", import_body),
        "export_request_envelope": request_envelope(22, "rover.export", export_body),
        "invoke_request_envelope": request_envelope(23, "rover.invoke", invoke_body),
        "invoke_reply_envelope": {
            "kind": "reply",
            "id": "client:23",
            "ok": True,
            "body": {"status": "ok", "result": [1, "two"], "version": 4, "ha_epoch": 2},
        },
        "log_request_record": {
            "req": {
                "id": "client/7",
                "session": "client#1",
                "op": "invoke",
                "urn": urn,
                "args": {"method": "append", "args": ["héllo wörld", 3]},
                "priority": 1,
                "created_at": 40.5,
                "trace": ["t000001", "s000004"],
            }
        },
        "log_ack_record": {"ack": "client/7"},
        "ha_ship_frame": {
            "epoch": 2,
            "primary": "server-0",
            "records": [invoke_record],
            "commit_seq": 12,
        },
    }


_GOLDEN_PATH = Path(__file__).parent / "data" / "codec_golden.json"


def test_golden_wire_vectors():
    golden = json.loads(_GOLDEN_PATH.read_text())
    values = _golden_values()
    assert sorted(golden) == sorted(values)
    for name, value in values.items():
        wire = bytes.fromhex(golden[name])
        assert marshal(value) == wire, name
        assert marshal(Premarshalled(value)) == wire, name
        assert marshalled_size(value) == len(wire), name
        assert unmarshal(wire) == value, name


def _python_calls(fn, *args):
    """Python-level calls made while running ``fn`` (C functions excluded).

    The cyclic collector is held off: a collection that happens to fall
    inside ``fn`` finalizes whatever earlier tests left in cycles (an
    unfinished generator resumes to close), and those calls are not
    ``fn``'s."""
    calls = 0

    def tally(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(tally)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def test_codec_call_budget_on_the_invoke_envelope():
    """A call per tree, not per container, value or varint.

    The canonical invoke envelope holds 34 values in 5 containers: each
    direction is the entry point and its one walker, 2 calls; the
    walkers that recursed per container spent 7, the per-value codec 69
    encoding, 66 decoding and 63 sizing.  No slack.  The same on CPython
    3.11.7 and 3.12.1 (counted there with this file's ``sys.setprofile``
    tally in a plain script, which needs no pytest).
    """
    envelope = _golden_values()["invoke_request_envelope"]
    wire = marshal(envelope)
    assert _python_calls(marshal, envelope) <= 2
    assert _python_calls(unmarshal, wire) <= 2
    assert _python_calls(marshalled_size, envelope) <= 2


def test_a_value_nested_64_deep_costs_what_a_flat_one_does():
    """Open containers wait on the walkers' own stacks: 64 levels (the
    deepest the format allows) cost the calls one level does, where a
    call per level cost 66."""
    deep = 0
    for _ in range(_MAX_DEPTH):
        deep = [deep]
    for value in ([0], deep):
        assert _python_calls(marshal, value) == 2
        assert _python_calls(marshalled_size, value) == 2
        assert _python_calls(unmarshal, marshal(value)) == 2


def test_comparing_two_folders_or_two_deep_values_is_one_call():
    """``same_encoding`` walks both sides in lockstep inside its own
    call: two 40-message folders, equal or differing only in their last
    entry, and two values 64 deep cost 1 call each, where encoding both
    cost 5 (the compare, two ``marshal`` and two ``_encode``).  No slack."""
    corpus = generate_mail_corpus(seed=7, n_folders=1, messages_per_folder=40)
    messages = corpus.folders["inbox"]
    folder = {"name": "inbox", "index": [message.summary() for message in messages]}
    edited = copy.deepcopy(folder)
    edited["index"][-1]["subject"] += " (read)"
    deep = 0
    for _ in range(_MAX_DEPTH):
        deep = [deep]
    for a, b, same in (
        (folder, copy.deepcopy(folder), True),
        (folder, edited, False),
        (deep, copy.deepcopy(deep), True),
    ):
        assert same_encoding(a, b) is same
        assert _python_calls(same_encoding, a, b) == 1


def test_marshalled_size_short_circuits_premarshalled():
    body = Premarshalled({"urn": "urn:rover:server/x", "blob": b"z" * 512})
    before = codec_stats.marshal_size_fast_total
    assert marshalled_size(body) == len(body.raw)
    assert codec_stats.marshal_size_fast_total == before + 1
    # The slow path (a plain dict) does not count.
    marshalled_size({"a": 1})
    assert codec_stats.marshal_size_fast_total == before + 1


# ---------------------------------------------------------------------------
# The frame path: one choice, one question, one framing
# ---------------------------------------------------------------------------


class _CountingUp(ConnectivityPolicy):
    """Always up, and counts how often it is asked."""

    def __init__(self):
        self.asked = 0

    def is_up(self, t):
        self.asked += 1
        return True

    def next_transition(self, t):
        return None


def _pair(spec=ETHERNET_10M, policy=None, medium=None):
    """Two hosts, one link, a transport each; ``b`` serves ``null``."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    link = net.connect(a, b, spec, policy, medium=medium)
    ta, tb = Transport(sim, a), Transport(sim, b)
    tb.register("null", lambda body, source: {})
    return sim, a, b, link, ta


def test_a_frame_asks_its_link_twice_and_frames_itself_once(monkeypatch):
    """A round trip is two frames.  Each asks ``is_up`` when its link is
    chosen and when the link takes it (three times, once: the host's
    filter, the transport's own look, the link's), and ``wire_bytes``
    once, for the line (three times, once: the rule's
    ``transmit_time``, the line's, the delivery's charge; twice until
    the bytes-dominate rule became a comparison with the spec's
    ``bytes_dominate_from``)."""
    policy = _CountingUp()
    sim, a, b, link, ta = _pair(policy=policy)
    assert link.spec.bytes_dominate_from  # found once per spec, not per frame
    framed = []
    wire_bytes = LinkSpec.wire_bytes
    monkeypatch.setattr(
        LinkSpec, "wire_bytes", lambda spec, n: framed.append(n) or wire_bytes(spec, n)
    )
    assert ta.call_blocking(b, "null", {}) == {}
    frames = ta.messages_sent + 1  # the reply is the other transport's
    assert frames == 2
    assert policy.asked <= 2 * frames
    assert len(framed) == frames
    assert not ta.bytes_dominate(link, max(framed))  # the rule holds at no frame here


def test_null_rpc_call_budget_on_ethernet():
    """Every Python-level call of one null RPC, request out and reply
    back, kernel and codec included: 103 before the link questions were
    taken down to one each, 77 after (26 off two frames), 73 since a
    walker takes the whole envelope (4 off: the envelope's own level was
    a second walker call, encoding and decoding, on each frame), 60 since
    an event and a frame pay only for themselves (13 off: per frame, the
    bytes-dominate rule's ``bytes_dominate`` and ``wire_bytes`` became
    one comparison and the transport's two counter ``inc`` calls two
    attribute bumps; a new instant's bucket is a list, with no
    ``__init__``, three times; the timeout timer's ``cancel`` keeps the
    kernel's books itself), 58 since ``Transport.send`` encodes the
    payload itself (2 off: ``_encode_payload``, once per frame; the
    deflate against the protocol dictionary, a call on the frames that
    take it, is paid back there).  No slack: a call added to the frame
    path is paid six times per operation on the replicated write path,
    and shows here without perfbench.  60 on CPython 3.11.7 and 3.12.1
    alike before that (the latter counted in a plain script)."""
    sim, a, b, link, ta = _pair()
    ta.call_blocking(b, "null", {})  # warm: lazily built state is not the path
    assert _python_calls(ta.call_blocking, b, "null", {}) <= 58


def test_equal_links_are_chosen_in_attach_order_and_a_down_one_is_skipped():
    """Best bandwidth first whatever the attach order, equals in attach
    order, and only among the links that are up at the instant asked."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    slow = net.connect(a, b, CSLIP_14_4, name="slow")
    first = net.connect(a, b, WAVELAN_2M, IntervalTrace([(0.0, 10.0)]), name="first")
    second = net.connect(a, b, WAVELAN_2M, IntervalTrace([(0.0, 20.0)]), name="second")
    net.connect(a, b, ETHERNET_10M, AlwaysDown(), name="fast-down")
    chosen = []
    for at in (0.0, 10.0, 20.0):
        sim.schedule_at(at, lambda: chosen.append((a.best_link_to(b), b.best_link_to(a))))
    sim.run(until=30.0)
    assert chosen == [(first, first), (second, second), (slow, slow)]
    assert a.best_link_to(net.host("c")) is None


def test_a_down_link_named_explicitly_refuses_and_leaves_nothing_pending():
    sim, a, b, link, ta = _pair(policy=AlwaysDown())
    with pytest.raises(LinkDown):
        ta.send(b, 9000, {"x": 1}, link=link)
    outcomes = []
    with pytest.raises(RpcError):
        ta.call(b, "null", {}, outcomes.append, outcomes.append, link=link)
    assert ta._pending_calls == {}
    assert sim.pending() == 0  # the timeout timer went with the call
    sim.run()
    assert outcomes == [] and ta.messages_sent == 0 and link.bytes_carried == 0


@pytest.mark.parametrize(
    "fault, carried",
    [
        # Failures are never charged to the link; the air time was spent.
        ("drop", 0),
        # The first copy is charged, an injected replay rides free.
        ("duplicate", 140),
        # Charged for the bytes that arrived (same length here).
        ("corrupt", 140),
    ],
)
def test_faulted_deliveries_are_charged_as_before(fault, carried):
    medium = Medium("cell")
    sim, a, b, link, ta = _pair(spec=WAVELAN_2M, medium=medium)
    FaultyLink(link, LinkFaultSpec(**{fault: 1.0}), make_rng(0, "test.charge")).install()
    arrived = []
    b.bind(7, lambda payload, source: arrived.append(len(payload)))
    link.send(a, 7, b"x" * 100)
    sim.run()
    assert medium.bytes_carried == 140  # 100 + one 40 B header, at send
    assert link.bytes_carried == carried
    assert arrived == {"drop": [], "duplicate": [100, 100], "corrupt": [100]}[fault]
    assert link.transfers_failed == (1 if fault == "drop" else 0)


def test_live_host_dials_a_peer_address():
    """The host side of the seam over sockets: an address is always one
    dial away.  It names no host: an accepted connection is handed to
    the transport with the frame it carried, and the reply leaves by it."""
    host = _LiveHost(clock=None, name="here")
    dialled = host.best_link_to(LiveAddress("there", "127.0.0.1", 9))
    assert isinstance(dialled, _Connection) and dialled.name == "there"
    assert dialled.carry is None  # only a call dials one
    assert dict(host.network.hosts) == {}


# ---------------------------------------------------------------------------
# The step charge: inline in the RDO's frame, equivalent to the call it
# replaced
# ---------------------------------------------------------------------------


class _RefGuardInjector(ast.NodeTransformer):
    """Reference: the call-based injector as it shipped before the
    inline charge, its name constant written out (a ``__step__()`` call
    at function entries and loop bodies)."""

    @staticmethod
    def _guard_call(owner):
        name = ast.copy_location(ast.Name(id="__step__", ctx=ast.Load()), owner)
        call = ast.copy_location(ast.Call(func=name, args=[], keywords=[]), owner)
        return ast.copy_location(ast.Expr(value=call), owner)

    def _guarded(self, node):
        self.generic_visit(node)
        node.body.insert(0, self._guard_call(node))
        return node

    visit_FunctionDef = visit_For = visit_While = _guarded


def _ref_invoke(source, method, args, budget, extra_env):
    """Reference load + invoke: the budget counter behind a closure the
    injected code calls once per step."""
    counter = {"remaining": budget}

    def step_guard():
        counter["remaining"] -= 1
        if counter["remaining"] < 0:
            raise ExecutionBudgetExceeded("RDO step budget exhausted")

    env = {"__builtins__": dict(SAFE_BUILTINS), "__step__": step_guard, **extra_env}
    exec(compile(_RefGuardInjector().visit(validate_source(source)), "<rdo>", "exec"), env)
    try:
        result = env[method](*args)
    except (ExecutionBudgetExceeded, RecursionError):
        return ("exhausted",)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("ok", result, budget - counter["remaining"])


def _invoke(source, method, args, budget, extra_env):
    interp = SafeInterpreter()
    functions = interp.load(source, extra_env)
    try:
        result = interp.invoke(functions, method, *args, budget=budget)
    except ExecutionBudgetExceeded:
        return ("exhausted",)
    except ExecutionError as exc:
        return ("error", str(exc))
    return ("ok", result, interp.steps_used)


def _both(source, method, make_args, budget, extra_env=None):
    """Each side's outcome and what it left in its (fresh) arguments —
    which, for an exhausted run, shows the step it stopped at."""
    runs = []
    for run in (_ref_invoke, _invoke):
        args = make_args()
        runs.append((run(source, method, args, budget, extra_env or {}), args))
    return runs


def _rdo_sources():
    """Every RDO source the apps, the examples and the experiments ship
    (E3's null object among them): each string constant that validates
    and defines a function."""
    root = Path(__file__).parent.parent
    paths = (
        sorted((root / "src" / "repro" / "apps").glob("*.py"))
        + sorted((root / "examples").glob("*.py"))
        + [root / "src" / "repro" / "bench" / "experiments.py"]
    )
    sources = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "def " in node.value:
                try:
                    validate_source(node.value)
                except CodeValidationError:
                    continue
                sources.append((f"{path.name}:{node.lineno}", node.value))
    return sources


# One state every shipped method can read, an argument per parameter
# name, and a store behind the host helpers shipped code calls.
_STATE = {
    "events": {
        "e1": {"title": "a", "room": "r1", "slot": 3, "alt_slots": []},
        "e2": {"title": "b", "room": "r2", "slot": 3, "alt_slots": [4]},
        "e3": {"title": "c", "room": "r1", "slot": 5, "alt_slots": []},
    },
    "index": [{"id": "m1"}, {"id": "m2"}, {"id": "m3"}],
    "id": "m1", "from": "ann", "subject": "hi", "body": "a word", "flags": {"read": False},
    "links": ["/a"], "url": "http://www/", "inline_sizes": [1, 2], "prices": {"bolt": 3},
    "text": "t", "value": 7,
}
_ARGS = {
    "event_id": "e1", "title": "t", "room": "r1", "slot": 3, "alt_slots": [4], "new_slot": 5,
    "entry": {"id": "m4"}, "entries": [{"id": "m5"}], "read_ids": ["m1"], "part": "bolt",
    "text": "x", "line": "y", "folder_urn": "f", "keyword": "word", "prefix": "p/",
    "reorder_below": 5, "urn": "p/1",
}
_STORE = {
    "f": {"index": [{"id": "m1"}, {"id": "m2"}]},
    "f/m1": {"body": "a word"},
    "f/m2": {"body": "none"},
    "p/1": {"stock": 3, "unit_cost": 2, "name": "bolt", "value": 4},
    "p/2": {"stock": 9, "unit_cost": 1, "name": "nut", "value": 5},
}
_HELPERS = {
    "lookup": _STORE.get,
    "objects": lambda prefix: sorted(key for key in _STORE if key.startswith(prefix)),
}


def test_inline_charge_matches_the_call_based_guard_on_every_shipped_rdo():
    """Same result, same ``steps_used``, and exhaustion at the same step
    (budgets 1, 2, one short of what the call needs, and exactly that;
    the two runaway agents of ``examples/function_shipping.py`` exhaust
    the interpreter's default budget on both)."""
    sources = _rdo_sources()
    assert len(sources) >= 16
    outcomes = []
    for label, source in sources:
        for fn in ast.parse(source).body:
            params = [arg.arg for arg in fn.args.args]

            def make_args():
                state = copy.deepcopy(_STATE)
                return [state if p == "state" else copy.deepcopy(_ARGS[p]) for p in params]

            ref, new = _both(source, fn.name, make_args, 100_000, _HELPERS)
            assert new == ref, (label, fn.name)
            outcomes.append(new[0][0])
            budgets = {1, 2}
            if new[0][0] == "ok":
                steps = new[0][2]
                budgets |= {steps - 1, steps}
            for budget in budgets:
                ref, new = _both(source, fn.name, make_args, budget, _HELPERS)
                assert new == ref, (label, fn.name, budget)
    assert outcomes.count("ok") >= 32 and outcomes.count("exhausted") == 2


def _indented(lines):
    return ["    " + line for line in lines]


def _nested(children):
    return st.one_of(
        st.tuples(st.integers(0, 3), children).map(
            lambda t: [f"for i in range({t[0]}):", "    trace.append(i)"] + _indented(t[1])
        ),
        st.tuples(st.integers(0, 3), children).map(
            lambda t: [f"w = {t[0]}", "while w > 0:", "    w = w - 1"] + _indented(t[1])
        ),
        st.lists(children, min_size=2, max_size=3).map(lambda blocks: sum(blocks, [])),
    )


_LEAF = st.integers(0, 9).map(lambda k: [f"trace.append({k})"])
_CALL = st.one_of(
    st.just(["trace.append(helper(trace))"]),
    st.integers(0, 3).map(lambda k: [f"rec(trace, {k})"]),
)


@st.composite
def _programs(draw):
    """A helper and a recursive function, each over a generated nest of
    ``for`` and ``while`` loops, called from a generated ``main``."""
    body = st.recursive(_LEAF, _nested, max_leaves=6)
    lines = (
        ["def helper(trace):"] + _indented(draw(body)) + ["    return len(trace)"]
        + ["def rec(trace, n):"] + _indented(draw(body))
        + ["    if n > 0:", "        rec(trace, n - 1)"]
        + ["def main(trace):"]
        + _indented(draw(st.recursive(st.one_of(_LEAF, _CALL), _nested, max_leaves=6)))
        + ["    return len(trace)"]
    )
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(source=_programs(), budget=st.integers(3, 300))
def test_inline_charge_matches_the_call_based_guard_on_generated_programs(source, budget):
    for each in (1, 2, budget, 100_000):
        ref, new = _both(source, "main", lambda: [[]], each)
        assert new == ref, each


def test_a_looping_local_invoke_costs_the_same_calls_for_1_and_80_iterations():
    """The charge is bytecode in the RDO's frame, not a call per step
    (each iteration was one more Python call).  The floor of a local
    invoke: the entry, the cache's lookup and clock (the hit is counted
    inline), `RDO.invoke` and `SafeInterpreter.invoke`, the method
    itself, the cost — seven calls, no slack (the name's canonical text
    is memoized: a repeated name costs no call)."""
    bed = build_testbed(link_spec=ETHERNET_10M)
    code = (
        "def count(state):\n"
        "    hits = 0\n"
        "    for word in state['words']:\n"
        "        hits = hits + 1\n"
        "    return hits\n"
    )
    calls = {}
    for words in (1, 80):
        urn = URN(bed.authority, f"docs/{words}")
        bed.server.put_object(
            RDO(urn, "doc", {"words": ["w"] * words}, code=code,
                interface=RDOInterface([MethodSpec("count")]))
        )
        bed.access.import_(urn).wait(bed.sim)
        assert bed.access.invoke(str(urn), "count")[0] == words  # loads the code
        calls[words] = _python_calls(bed.access.invoke, str(urn), "count")
    assert calls[1] == calls[80] == 7


def test_compiling_an_app_rdo_call_budget():
    """Load (parse, whitelist, charge, compile, exec) of the mail
    folder's source on a fresh interpreter: 8 Python calls — `load`,
    `validate_source`, `ast.parse`, `check_whitelist` and its walk, the
    charge injector and its walk, the module body — whatever the size
    of the tree or the number of charge points.  Through ``ast.walk``
    and a ``NodeTransformer`` it was 1,385 on CPython 3.11.7 and 1,395
    on 3.12.1 (their generators differ); 8 on both now, 3.12.1 counted
    with this file's ``sys.setprofile`` tally in a plain script, which
    needs no pytest.  No slack: the source is compiled inside the timed
    region of ``mail_slowlink``."""
    SafeInterpreter().load(_FOLDER_CODE)  # warm: lazily built stdlib state
    assert _python_calls(SafeInterpreter().load, _FOLDER_CODE) <= 8


def test_one_walk_visits_what_ast_walk_does_in_its_order():
    """The same nodes in the same order: over every shipped RDO source,
    the hostile corpus, and, for larger trees, the whole modules of the
    apps and the examples."""
    from tests.test_robustness import ESCAPE_ATTEMPTS, HOSTILE_RESULTS, HOSTILE_SPINS

    root = Path(__file__).parent.parent
    sources = [source for _, source in _rdo_sources()]
    sources += [*ESCAPE_ATTEMPTS, *HOSTILE_SPINS.values(), *HOSTILE_RESULTS.values()]
    sources += [
        path.read_text()
        for path in sorted((root / "src" / "repro" / "apps").glob("*.py"))
        + sorted((root / "examples").glob("*.py"))
    ]
    for source in sources:
        tree = ast.parse(source)
        assert [id(node) for node in walk(tree)] == [id(node) for node in ast.walk(tree)]


def test_verifier_findings_come_out_in_the_order_ast_walk_gave(monkeypatch):
    """Every source the verifier tests feed it, checked with the one walk
    and then with ``ast.walk`` in its place: the same diagnostics, in
    the same order (``check_whitelist`` reports in walk order)."""
    corpus = ast.parse((Path(__file__).parent / "test_lint_verifier.py").read_text())
    sources = [
        node.value for node in ast.walk(corpus)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value
    ]
    trees = []
    for source in sources:
        try:
            trees.append((source, ast.parse(source)))
        except SyntaxError:
            continue

    def findings():
        return [(check_whitelist(tree), check_code(source)) for source, tree in trees]

    walked_once = findings()
    monkeypatch.setattr(verifier, "walk", lambda tree: list(ast.walk(tree)))
    assert walked_once == findings()
    assert sum(len(whitelist) for whitelist, _ in walked_once) >= 10


# ---------------------------------------------------------------------------
# A server invoke rebuilds nothing it already has
# ---------------------------------------------------------------------------

_COUNTER_CODE = '''
def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]

def echo(state, blob):
    return len(blob)
'''


def test_a_server_invoke_runs_on_the_stored_object():
    """A read-only invoke, from the transport's dispatch on, is 18 Python
    calls: ``handle_request``, the door (``serve``), the watermark check,
    the at-most-once lookup (``_cached_reply``, its cache's ``get``, the
    one parse of the id), the handler, a fresh environment (``load``,
    its module body, ``release``), the invoke and the method, the
    hidden-write check (``_base_data``, ``same_encoding``), the cost and
    the delayed reply, and the kept reply (``_record_reply``, ``put``).
    A mutating one is 22: no hidden-write check, but the new state
    encoded once (``marshal``, ``_encode``), then ``_commit``: the new
    stored wire, then ``_remember``: the version history's decoded copy
    (``unmarshal``, ``_decode``) and the committer index.  The object's
    entry is one dict lookup, and the credential costs nothing on a
    server without tokens; the committer index's replay check is inline.
    The interface is the table's; no RDO, URN, ``MethodSpec`` or wire is
    built (33 and 43 calls when they were, 20 and 25 when each handler
    carried its own guard).  No slack: ``ha_failover`` runs 2 of these
    per op."""
    bed = build_testbed(link_spec=ETHERNET_10M)
    urn = URN(bed.authority, "obj/0")
    interface = RDOInterface([MethodSpec("bump", mutates=True), MethodSpec("echo")])
    bed.server.put_object(RDO(urn, "counter", {"n": 0}, code=_COUNTER_CODE, interface=interface))
    bodies = {
        (method, n): {"urn": str(urn), "method": method, "args": args, "request_id": f"c/{n}"}
        for n, (method, args) in enumerate([("echo", ["x"]), ("bump", [])] * 2)
    }
    handle = bed.server_transport.handle_request
    for n in (0, 1):  # the first of each: the code compiled, the interface decoded
        handle("rover.invoke", bodies[("echo", "bump")[n], n], ("client0", 0))
    assert _python_calls(handle, "rover.invoke", bodies[("echo", 2)], ("client0", 0)) == 18
    assert _python_calls(handle, "rover.invoke", bodies[("bump", 3)], ("client0", 0)) == 22
    assert bed.server.get_object(str(urn)).data == {"n": 2}


def test_a_backup_installs_a_record_and_runs_no_handler():
    """A backup takes a frame of one shipped ``bump`` in 10 Python calls:
    the frame's handler, the frame's shape and the record's (one walk
    each, the write set inside the record's), the write set's install
    (``install_write`` and ``install``), the data encoded once
    (``marshal`` and its walker), then ``_remember``: the version
    history's private copy (``unmarshal`` and its walker) and the
    committer index; the epoch fence, the object's entry, the applied
    count and the client's watermark are inline.  Ten before the frame
    shapes too, when the fence and the apply were calls of their own and
    the fields were read with type tests.  The re-run it replaces (the
    handler, the at-most-once record, a fresh environment, the method)
    was 27.12 per record on ``ha_failover``.  No slack: ``ha_failover``
    installs one record per op."""
    from repro.ha import build_ha_testbed

    bed = build_ha_testbed(n_backups=2)
    urn = URN(bed.authority, "obj/0")
    interface = RDOInterface([MethodSpec("bump", mutates=True), MethodSpec("echo")])
    bed.put_object(RDO(urn, "counter", {"n": 0}, code=_COUNTER_CODE, interface=interface))
    primary, backup = bed.group.agents[:2]
    body = {"urn": str(urn), "method": "bump", "args": [], "request_id": "c/1", "ackw": ["c", 1]}
    primary._serve_client("rover.invoke", body, ("client0", 0))
    record = unmarshal(marshal(primary.log[-1]))  # as it arrives: not yet delivered
    assert set(record["write"]) == {"urn", "version", "data", "request_id", "reply", "ackw"}
    frame = {"epoch": primary.epoch, "primary": primary.host.name, "records": [record],
             "commit_seq": record["seq"]}
    source = (primary.host.name, 0)
    assert _python_calls(backup._on_replicate, frame, source) == 10
    assert backup.server.get_object(str(urn)).data == {"n": 1} and backup.seq == 1


# ---------------------------------------------------------------------------
# An export round pays for what changed: the cache's sizes, the diff
# ---------------------------------------------------------------------------


def _cached_message():
    """A cache holding one mail message at version 3, and its URN."""
    message = generate_mail_corpus(seed=7, n_folders=1, messages_per_folder=1)
    rdo = RDO(URN("server", "mail/inbox/0"), "mail-message",
              message.folders["inbox"][0].to_data(), version=3)
    cache = ObjectCache()
    cache.insert(rdo)
    return cache, str(rdo.urn)


def test_a_tentative_mark_sizes_the_data_alone():
    """Marking a copy tentative measures its data and nothing else: the
    mark, its lookup helper, ``marshalled_size`` and ``_size``.  It was
    10: the whole object sized (the cache's ``refresh_size``,
    ``RDO.size_bytes`` and ``to_wire``, the URN's ``__str__``, the
    interface's ``to_wire`` and its list, ``marshalled_size``,
    ``_size``).  No slack."""
    cache, urn = _cached_message()
    entry = cache.peek(urn)
    entry.rdo.data["flags"] = {"read": True, "deleted": False}
    assert _python_calls(cache.mark_tentative, urn) == 4
    assert entry.size == marshalled_size(entry.rdo.to_wire())


def test_a_commit_sizes_the_version_alone():
    """A commit's data is its base, whose bytes it encodes anyway: the
    size is their length plus the new version's, and the rest of the
    object is not sized again.  The commit, its lookup helper,
    ``marshal`` and ``_encode``, ``marshalled_size`` and ``_size``: 6,
    where it was 12.  No slack."""
    cache, urn = _cached_message()
    entry = cache.peek(urn)
    entry.rdo.data["flags"] = {"read": True, "deleted": False}
    cache.mark_tentative(urn)
    assert _python_calls(cache.commit, urn, 200) == 6  # a two-byte varint, where 3 was one
    assert entry.size == marshalled_size(entry.rdo.to_wire())


def test_the_diff_of_a_message_marked_read_compares_its_scalars_in_place():
    """The codec's ``changed_keys`` compares a dict's scalar entries in
    place: the message's id, sender, subject, body and both flags cost
    no call (one ``same_encoding`` each before, 13 calls in all).  What
    is left: ``diff_value`` and its ``same_encoding``; a
    ``_diff_changed`` and a ``changed_keys`` for the message and for its
    flags, and the flags' ``same_encoding``; the changed flag's
    ``_diff_changed``.  No slack."""
    cache, urn = _cached_message()
    base = unmarshal(cache.peek(urn).base_raw)
    new = copy.deepcopy(base)
    new["flags"]["read"] = True
    assert diff_value(base, new) == {
        "d": [list(new), {"flags": {"d": [["read", "deleted"], {"read": {"!": True}}]}}]
    }
    assert _python_calls(diff_value, base, new) == 8


# ---------------------------------------------------------------------------
# Simulator: lazy cancellation + heap compaction
# ---------------------------------------------------------------------------


def test_simulator_compacts_when_cancelled_events_dominate():
    sim = Simulator()
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(500)]
    survivor = sim.schedule(1.0, lambda: None)
    for event in events:
        event.cancel()
    # Corpses above the threshold and outnumbering live entries must
    # have been swept rather than left for the run loop.
    assert sim.compactions >= 1
    assert sim.pending() == 1
    assert sim.queued() < 500
    sim.run(until=2.0)
    assert sim.pending() == 0
    assert survivor.cancelled is False


def test_simulator_compaction_preserves_order_of_survivors():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(300):
        event = sim.schedule(5.0, lambda i=i: fired.append(i))
        if i % 10 == 0:
            keep.append(i)
        else:
            event.cancel()
    sim.run(until=6.0)
    assert fired == keep  # same-instant order is submission order


# ---------------------------------------------------------------------------
# Group commit: StableLog batching + the access-manager window
# ---------------------------------------------------------------------------


def test_stable_log_counts_group_commits_and_saved_fsyncs():
    log = StableLog()
    for i in range(5):
        log.append(b"x" * 10)
    log.flush()
    assert log.flushes == 1
    assert log.group_commits == 1
    assert log.fsyncs_saved == 4
    # A single-record flush is not a group commit.
    log.append(b"y")
    log.flush()
    assert log.group_commits == 1
    assert log.fsyncs_saved == 4


def test_stable_log_sync_is_free_when_already_flushed():
    log = StableLog()
    log.append(b"x")
    assert log.sync() > 0.0
    assert log.flushes == 1
    # Barrier with nothing unflushed: no fsync, no virtual time.
    assert log.sync() == 0.0
    assert log.flushes == 1


def test_file_backend_batches_pending_and_drops_them_on_crash(tmp_path):
    path = str(tmp_path / "log")
    backend = FileLogBackend(path)
    log = StableLog(backend=backend)
    log.append(b"durable")
    log.flush()
    log.append(b"lost-1")
    log.append(b"lost-2")
    assert log.unflushed_records == 2
    log.crash()
    assert [r.payload for r in log.records()] == [b"durable"]
    assert log.unflushed_records == 0
    # Recovery from the file sees only the fsync'd prefix too.
    backend.close()
    assert [r.payload for r in FileLogBackend(path).records()] == [b"durable"]


def test_file_backend_records_includes_buffered_appends(tmp_path):
    backend = FileLogBackend(str(tmp_path / "log"))
    log = StableLog(backend=backend)
    log.append(b"buffered")
    # Not yet flushed, but a reader must see it (matches the
    # pre-buffering behavior where append wrote through immediately).
    assert [r.payload for r in log.records()] == [b"buffered"]
    backend.close()


def _adaptive_bed():
    bed = build_testbed(group_commit=GroupCommitPolicy())
    bed.server.put_object(make_note())
    return bed


def test_adaptive_window_batches_a_burst_into_one_flush():
    bed = _adaptive_bed()
    stable = bed.access.log.stable
    results = []
    for i in range(4):
        bed.sim.schedule(
            i * 0.0004,  # well inside min_window_s
            lambda i=i: bed.access.invoke_remote(
                _NOTE_URN, "read", []
            ).then(results.append),
        )
    bed.sim.run(until=60.0)
    assert len(results) == 4
    assert stable.appends == 8  # op + ack marker per op
    assert stable.group_commits >= 1
    assert stable.fsyncs_saved >= 3
    assert stable.flushes < stable.appends


def test_adaptive_window_flushes_immediately_on_record_budget():
    policy = GroupCommitPolicy(record_budget=2, min_window_s=1.0)
    bed = build_testbed(group_commit=policy)
    bed.server.put_object(make_note())
    stable = bed.access.log.stable
    for _ in range(2):
        bed.access.invoke_remote(_NOTE_URN, "read", [])
    # Budget hit on the second append: flushed now, not at now + 1s.
    assert stable.unflushed_records == 0
    assert stable.flushes == 1
    assert stable.group_commits == 1


def test_adaptive_window_never_stretches_past_max():
    policy = GroupCommitPolicy(min_window_s=0.01, max_window_s=0.02)
    sim_now = 100.0
    first = policy.next_deadline(sim_now, sim_now)
    assert first == pytest.approx(100.01)
    # A burst keeps extending ...
    later = policy.next_deadline(100.018, sim_now)
    assert later == pytest.approx(100.02)  # ... but caps at first+max
    assert policy.next_deadline(100.05, sim_now) == pytest.approx(100.02)


def test_adaptive_group_commit_preserves_results():
    plain = build_testbed()
    plain.server.put_object(make_note())
    grouped = _adaptive_bed()
    outcomes = []
    for bed in (plain, grouped):
        acked = []
        for i in range(6):
            bed.sim.schedule(
                i * 0.001,
                lambda bed=bed, acked=acked: bed.access.invoke_remote(
                    _NOTE_URN, "read", []
                ).then(acked.append),
            )
        bed.sim.run(until=120.0)
        outcomes.append(len(acked))
    assert outcomes[0] == outcomes[1] == 6
    assert grouped.access.log.stable.flushes < plain.access.log.stable.flushes


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------

_COHORTS = [
    CohortSpec(name="fast", link_index=0, n_ops=3, payload_bytes=256),
    CohortSpec(name="slow", link_index=1, n_ops=2, payload_bytes=32),
]


def test_population_is_deterministic_per_seed():
    a = generate_population(7, 50, _COHORTS)
    b = generate_population(7, 50, _COHORTS)
    assert [(p.client_id, p.cohort, p.start_offset_s, p.payload) for p in a] == [
        (p.client_id, p.cohort, p.start_offset_s, p.payload) for p in b
    ]
    c = generate_population(8, 50, _COHORTS)
    assert [p.payload for p in a] != [p.payload for p in c]


def test_population_round_robins_cohorts_and_staggers():
    profiles = generate_population(0, 10, _COHORTS, stagger_window_s=60.0)
    assert [p.cohort for p in profiles[:4]] == ["fast", "slow", "fast", "slow"]
    offsets = [p.start_offset_s for p in profiles]
    assert len(set(offsets)) == len(offsets)  # golden-ratio: no collisions
    assert all(0.0 <= off < 60.0 for off in offsets)
    # Payload sizes come from the cohort, payload bytes from its stream.
    assert all(len(p.payload) == 256 for p in profiles if p.cohort == "fast")


# ---------------------------------------------------------------------------
# E16 scenario: deterministic metrics at test scale
# ---------------------------------------------------------------------------


def test_drain_scenario_is_deterministic_and_complete():
    scenario = SpeedScenario(n_clients=40, drain_s=3600.0)
    first, _ = run_drain(scenario)
    second, _ = run_drain(scenario)
    assert first == second
    assert first.ops_acked == first.ops_submitted == 120
    assert first.log_appends == 240  # op + ack marker per op
    assert first.group_commits > 0
    assert first.fsyncs_saved > 0
    assert first.log_flushes < first.log_appends


def test_drain_scenario_group_commit_off_flushes_per_append():
    metrics, _ = run_drain(
        SpeedScenario(n_clients=12, drain_s=3600.0, group_commit=False)
    )
    assert metrics.ops_acked == 36
    assert metrics.group_commits == 0
    assert metrics.fsyncs_saved == 0
    assert metrics.log_flushes == metrics.log_appends
