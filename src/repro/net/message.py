"""Compact deterministic marshalling.

Bandwidth simulation needs an honest byte count for every message, so
instead of pickling we encode a small set of value types into a compact
tagged binary format.  The encoding is:

* deterministic — the same value always encodes to the same bytes
  (dict entries are written in insertion order, which our protocols
  keep stable), and
* self-describing — ``unmarshal(marshal(x)) == x`` including the
  list/tuple distinction.

Supported types: ``None``, ``bool``, ``int`` (arbitrary precision),
``float``, ``str``, ``bytes``, ``list``, ``tuple``, ``dict``.

Decode path (repro.speed)
-------------------------

The decoder runs over any buffer — :func:`unmarshal` accepts ``bytes``,
``bytearray``, or ``memoryview`` — and :func:`unseal` hands back a
zero-copy ``memoryview`` of the frame body, so a received frame is
copied exactly once: when a ``bytes``/``str`` payload is materialized
into its final decoded position.  No ``memoryview`` ever appears in a
decoded value.  Dict keys are interned against the small fixed protocol
vocabulary (:data:`_PROTOCOL_KEYS`) so the thousands of envelopes in a
drain share one ``"status"`` string and dict lookups compare by
pointer.  :func:`marshalled_size` computes sizes arithmetically without
building the encoding.

All three tree walkers (encode, decode, size) take one value and walk
it whole in one Python call: the containers still open wait on an
explicit stack, and leaves and varints of any length are handled
inline, so a message costs the same calls however many values or
levels it holds (``tests/test_speed.py`` holds the per-value originals
as references and a call-budget test).  :func:`same_encoding` walks two
values the same way, in lockstep: it answers "would these encode
identically?" without encoding either.
"""

from __future__ import annotations

import struct
import sys
import zlib
from itertools import chain
from typing import Any, Iterator

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"

# Integer tag values for the decoder's dispatch: indexing a buffer
# yields an int, and comparing ints avoids the one-byte slice per value
# the old decoder allocated.
_T_NONE = _TAG_NONE[0]
_T_TRUE = _TAG_TRUE[0]
_T_FALSE = _TAG_FALSE[0]
_T_INT = _TAG_INT[0]
_T_FLOAT = _TAG_FLOAT[0]
_T_STR = _TAG_STR[0]
_T_BYTES = _TAG_BYTES[0]
_T_LIST = _TAG_LIST[0]
_T_TUPLE = _TAG_TUPLE[0]
_T_DICT = _TAG_DICT[0]
#: Tags whose payload opens with a varint (length, count, or the int).
_VARINT_TAGS = frozenset((_T_STR, _T_INT, _T_DICT, _T_LIST, _T_TUPLE, _T_BYTES))

_PACK_FLOAT = struct.Struct(">d").pack
_UNPACK_FLOAT = struct.Struct(">d").unpack_from

#: The protocol's fixed dict-key vocabulary.  Decoded dict keys found
#: here are replaced by the shared interned instance: envelopes carry
#: the same dozen keys thousands of times per drain, and pointer-equal
#: keys make both the allocation and the subsequent dict lookups cheap.
#: Missing entries are harmless (the decoded string is used as-is).
_PROTOCOL_KEYS: dict[str, str] = {
    key: sys.intern(key)
    for key in (
        "ack",
        "args",
        "base_version",
        "body",
        "client",
        "clients",
        "data",
        "defs",
        "epoch",
        "error",
        "from",
        "host",
        "id",
        "index",
        "inflight",
        "kind",
        "kwargs",
        "link",
        "method",
        "name",
        "ok",
        "op",
        "primary",
        "queued",
        "records",
        "reply_to",
        "reports",
        "req",
        "request",
        "result",
        "seq",
        "service",
        "status",
        "subject",
        "time",
        "urn",
        "urns",
        "value",
        "version",
        "wire",
    )
}

#: The same vocabulary pre-encoded (tag, one-byte length, ASCII text):
#: the encoder splices these instead of re-encoding the same dozen
#: envelope keys in every message.
_KEY_RAW: dict[str, bytes] = {
    key: _TAG_STR + bytes((len(key),)) + key.encode("ascii") for key in _PROTOCOL_KEYS
}


class _CodecStats:
    """Process-wide codec counters (attribute mutation keeps the module
    free of ``global`` rebinding, which the effect lint flags)."""

    __slots__ = ("marshal_size_fast_total",)

    def __init__(self) -> None:
        self.marshal_size_fast_total = 0


#: Counters proving the fast paths are taken — ``marshal_size_fast_total``
#: counts :func:`marshalled_size` calls answered from a cached
#: ``Premarshalled.raw`` length without re-encoding.
codec_stats = _CodecStats()


class MarshalError(Exception):
    """Raised for unsupported values or corrupt encodings."""


class Premarshalled(dict):
    """A dict that remembers its own encoding.

    The QRPC path marshals each request body up to three times — for
    size accounting at submit, again when batching, and again at
    transmit.  Wrapping the body in ``Premarshalled`` marshals it once:
    :func:`marshal`/:func:`marshalled_size` splice the cached ``raw``
    bytes instead of re-encoding, while the object still behaves as a
    plain dict for every reader (``body["urn"]``, ``.get`` etc.).

    The cache is computed eagerly at construction, so the wrapped dict
    must not be mutated afterwards — mutate-then-send would transmit
    the stale bytes.  Unmarshalling the cached bytes yields a plain
    dict, exactly as if the body had been encoded directly.

    ``nesting`` is how many container levels the encoding holds below
    its own, so a splice is held to :data:`MAX_DEPTH` where it lands,
    not where it was encoded.
    """

    __slots__ = ("raw", "nesting")

    def __init__(self, value: dict) -> None:
        super().__init__(value)
        out = bytearray()
        self.nesting = _encode(self, out)  # the root is encoded, never spliced
        self.raw = bytes(out)


#: Maximum container nesting, a bound of the wire format: the walkers
#: hold no recursion, but whatever recurses over a decoded value would.
MAX_DEPTH = 64

# The walkers keep the open containers on an explicit stack whose height
# is the nesting being walked; a dict's entries are one flat run (key,
# value, key, ...).  A varint is low seven bits first, the high bit set
# on all but the last byte: a length under 0x80 is one test, one append.


def _encode(value: Any, out: bytearray) -> int:
    """Append the encoding of ``value``; returns the deepest nesting reached."""
    key_raw = _KEY_RAW
    stack: list[Iterator[Any]] = []  # each open container's parent run
    items: Iterator[Any] = iter((value,))
    depth = deepest = 0
    while True:
        for item in items:
            if isinstance(item, str):
                raw = key_raw.get(item)
                if raw is None:
                    try:
                        raw = item.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise MarshalError(f"cannot marshal str: {exc}") from None
                    out += _TAG_STR
                    length = len(raw)
                    while length > 0x7F:
                        out.append(length & 0x7F | 0x80)
                        length >>= 7
                    out.append(length)
                out += raw
            elif item is None:
                out += _TAG_NONE
            elif item is True:
                out += _TAG_TRUE
            elif item is False:
                out += _TAG_FALSE
            elif isinstance(item, int):
                zigzag = item << 1 if item >= 0 else (-item << 1) - 1
                out += _TAG_INT
                while zigzag > 0x7F:
                    out.append(zigzag & 0x7F | 0x80)
                    zigzag >>= 7
                out.append(zigzag)
            elif isinstance(item, Premarshalled) and item is not value:
                below = depth + item.nesting
                if below > MAX_DEPTH:
                    raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
                if below > deepest:
                    deepest = below
                out += item.raw
            elif isinstance(item, (dict, list, tuple)):
                if isinstance(item, dict):
                    out += _TAG_DICT
                    children = chain.from_iterable(item.items())
                else:
                    out += _TAG_LIST if isinstance(item, list) else _TAG_TUPLE
                    children = iter(item)
                length = len(item)
                while length > 0x7F:
                    out.append(length & 0x7F | 0x80)
                    length >>= 7
                out.append(length)
                if item:
                    if depth == MAX_DEPTH:
                        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
                    stack.append(items)
                    items = children
                    depth += 1
                    if depth > deepest:
                        deepest = depth
                    break  # walk the children; this run resumes after them
            elif isinstance(item, float):
                out += _TAG_FLOAT
                out += _PACK_FLOAT(item)
            elif isinstance(item, (bytes, bytearray)):
                out += _TAG_BYTES
                length = len(item)
                while length > 0x7F:
                    out.append(length & 0x7F | 0x80)
                    length >>= 7
                out.append(length)
                out += item
            else:
                raise MarshalError(f"cannot marshal {type(item).__name__}: {item!r}")
        else:
            if not depth:
                return deepest
            items = stack.pop()
            depth -= 1


def _decode(data: Any) -> tuple[Any, int]:
    """Decode the value at the start of ``data``; returns it and its end.

    ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview`` —
    indexing yields ints either way, so the hot loop never allocates
    one-byte slices.  Payload slices are materialized (``bytes``/
    ``str``) at their final position; no view escapes into the result.
    A container is built once its last item is decoded, so a dict's
    unhashable key is reported after the dict's run.
    """
    size = len(data)
    interned = _PROTOCOL_KEYS.get
    # Each open container's parent: (its tag, its items, its remaining).
    stack: list[tuple[int, list, int]] = []
    tag = 0  # of the innermost open container
    items: list[Any] = []  # decoded so far in it (the root's run: one value)
    remaining = 1
    pos = 0
    while True:
        append = items.append
        while remaining:
            remaining -= 1
            if pos >= size:
                raise MarshalError("truncated message")
            kind = data[pos]
            pos += 1
            if kind in _VARINT_TAGS:
                # A varint follows: a length, a count, or the zigzagged int.
                if pos >= size:
                    raise MarshalError("truncated varint")
                number = data[pos]
                pos += 1
                if number > 0x7F:
                    number &= 0x7F
                    for shift in range(7, 1001, 7):
                        if pos >= size:
                            raise MarshalError("truncated varint")
                        byte = data[pos]
                        pos += 1
                        number |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                    else:
                        raise MarshalError("varint too long")
                if kind == _T_STR:
                    end = pos + number
                    if end > size:
                        raise MarshalError("truncated string")
                    try:
                        append(str(data[pos:end], "utf-8"))
                    except UnicodeDecodeError as exc:
                        raise MarshalError(f"invalid utf-8 in string: {exc}") from None
                    pos = end
                elif kind == _T_INT:
                    append((number >> 1) ^ -(number & 1))
                elif kind == _T_BYTES:
                    end = pos + number
                    if end > size:
                        raise MarshalError("truncated bytes")
                    append(bytes(data[pos:end]))
                    pos = end
                elif number:  # open a container: its items are decoded next
                    if len(stack) >= MAX_DEPTH:
                        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
                    stack.append((tag, items, remaining))
                    tag, items = kind, []
                    append = items.append
                    remaining = 2 * number if kind == _T_DICT else number
                else:
                    append({} if kind == _T_DICT else [] if kind == _T_LIST else ())
            elif kind == _T_NONE:
                append(None)
            elif kind == _T_TRUE:
                append(True)
            elif kind == _T_FALSE:
                append(False)
            elif kind == _T_FLOAT:
                if pos + 8 > size:
                    raise MarshalError("truncated float")
                append(_UNPACK_FLOAT(data, pos)[0])
                pos += 8
            else:
                raise MarshalError(f"unknown tag {bytes((kind,))!r} at offset {pos - 1}")
        # The innermost open container has all its items: close it.
        if not stack:
            return items[0], pos
        if tag != _T_DICT:
            value: Any = items if tag == _T_LIST else tuple(items)
        else:
            pairs = iter(items)
            value = {}
            try:
                for key, entry in zip(pairs, pairs):
                    value[interned(key, key)] = entry
            except TypeError:
                raise MarshalError("unhashable dict key") from None
        tag, items, remaining = stack.pop()
        items.append(value)


def marshal(value: Any) -> bytes:
    """Encode ``value`` to bytes."""
    if isinstance(value, Premarshalled):
        return value.raw
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def same_encoding(a: Any, b: Any) -> bool:
    """Whether ``marshal(a)`` and ``marshal(b)`` are the same bytes,
    without encoding either side.

    ``False`` where either side raises :class:`MarshalError`.  Walks both
    values in lockstep in one call, by :func:`_encode`'s dispatch, and
    stops at the first difference: ``True`` is not ``1``, floats compare
    by their packed bits, ``bytes`` equals ``bytearray``, a dict's order
    counts, and text must encode.  A ``Premarshalled`` compares as its
    ``raw`` would splice; a plain value beside one is encoded to compare
    (the one case that costs more calls).
    """
    flat = chain.from_iterable
    stack: list[Iterator[tuple[Any, Any]]] = []  # each open pair's parent run
    pairs: Iterator[tuple[Any, Any]] = iter(((a, b),))
    depth = 0
    try:
        while True:
            for x, y in pairs:
                if isinstance(x, str):
                    if not isinstance(y, str) or x != y:
                        return False
                    if not x.isascii():
                        x.encode("utf-8")  # a lone surrogate raises
                elif x is None or x is True or x is False:
                    if x is not y:
                        return False
                elif isinstance(x, int):
                    if not isinstance(y, int) or y is True or y is False or x != y:
                        return False
                elif isinstance(x, Premarshalled) or isinstance(y, Premarshalled):
                    # Equal bytes nest equally: one side's depth check is both's.
                    spliced, other = (x, y) if isinstance(x, Premarshalled) else (y, x)
                    if depth + spliced.nesting > MAX_DEPTH or spliced.raw != marshal(other):
                        return False
                elif isinstance(x, (dict, list, tuple)):
                    shape = dict if isinstance(x, dict) else list if isinstance(x, list) else tuple
                    if not isinstance(y, shape) or len(x) != len(y):
                        return False
                    if x:
                        if depth == MAX_DEPTH:
                            return False
                        stack.append(pairs)
                        if shape is dict:
                            pairs = zip(flat(x.items()), flat(y.items()))
                        else:
                            pairs = zip(x, y)
                        depth += 1
                        break  # compare the children; this run resumes after them
                elif isinstance(x, float):
                    if not isinstance(y, float) or _PACK_FLOAT(x) != _PACK_FLOAT(y):
                        return False
                elif isinstance(x, (bytes, bytearray)):
                    if not isinstance(y, (bytes, bytearray)) or x != y:
                        return False
                else:
                    return False
            else:
                if not depth:
                    return True
                pairs = stack.pop()
                depth -= 1
    except (MarshalError, UnicodeEncodeError):
        return False


#: Exact types two equal values of which encode to the same bytes, and
#: two unequal ones to different bytes, so :func:`changed_keys` answers
#: :func:`same_encoding` for them with ``==``.  Exact, since ``True ==
#: 1``; text only when ASCII, since a lone surrogate equals itself but
#: never encodes; not float, since ``0.0 == -0.0`` and ``nan != nan``.
_PLAIN_SCALARS = frozenset((int, bool, bytes, str, type(None)))


def changed_keys(base: dict, new: dict) -> list:
    """The keys of ``new`` whose value does not encode as ``base``'s
    does, ``base`` lacking it included, in ``new``'s order.

    :func:`same_encoding` per entry in one call per dict: the equal
    ids, senders and flags of a record cost no call of their own.
    """
    changed = []
    for key, value in new.items():
        if key in base:
            old = base[key]
            kind = type(value)
            if kind is type(old) and kind in _PLAIN_SCALARS:
                if old != value:
                    changed.append(key)
                    continue
                if kind is not str or value.isascii():
                    continue
            if same_encoding(old, value):
                continue
        changed.append(key)
    return changed


def unmarshal(data: Any) -> Any:
    """Decode a buffer produced by :func:`marshal`.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` (the transport
    hands the :func:`unseal` view straight in).  Raises
    :class:`MarshalError` on trailing garbage or corruption.
    """
    value, pos = _decode(data)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return value


def _size(value: Any) -> int:
    """Encoded size of ``value`` computed without building the encoding."""
    flat = chain.from_iterable
    stack: list[Iterator[Any]] = []  # each open container's parent run
    items: Iterator[Any] = iter((value,))
    depth = total = 0
    while True:
        for item in items:
            if isinstance(item, str):
                # ASCII (the protocol's common case) encodes 1:1, so the
                # UTF-8 byte length is known without running the encoder.
                if item.isascii():
                    length = len(item)
                else:
                    try:
                        length = len(item.encode("utf-8"))
                    except UnicodeEncodeError as exc:
                        raise MarshalError(f"cannot marshal str: {exc}") from None
                total += length + (2 if length < 0x80 else 1 + (length.bit_length() + 6) // 7)
            elif item is None or item is True or item is False:
                total += 1
            elif isinstance(item, int):
                zigzag = item << 1 if item >= 0 else (-item << 1) - 1
                total += 2 if zigzag < 0x80 else 1 + (zigzag.bit_length() + 6) // 7
            elif isinstance(item, Premarshalled):
                if depth + item.nesting > MAX_DEPTH:
                    raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
                total += len(item.raw)
            elif isinstance(item, (dict, list, tuple)):
                length = len(item)
                total += 2 if length < 0x80 else 1 + (length.bit_length() + 6) // 7
                if length:
                    if depth == MAX_DEPTH:
                        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
                    stack.append(items)
                    depth += 1
                    items = flat(item.items()) if isinstance(item, dict) else iter(item)
                    break  # size the children; this run resumes after them
            elif isinstance(item, float):
                total += 9
            elif isinstance(item, (bytes, bytearray)):
                length = len(item)
                total += length + (2 if length < 0x80 else 1 + (length.bit_length() + 6) // 7)
            else:
                raise MarshalError(f"cannot marshal {type(item).__name__}: {item!r}")
        else:
            if not depth:
                return total
            items = stack.pop()
            depth -= 1


def marshalled_size(value: Any) -> int:
    """Size in bytes of the encoded value (what a link would carry).

    Never builds the encoding: a :class:`Premarshalled` answers from
    its cached length (counted in ``codec_stats.marshal_size_fast_total``)
    and everything else is sized arithmetically.
    """
    if isinstance(value, Premarshalled):
        codec_stats.marshal_size_fast_total += 1
        return len(value.raw)
    return _size(value)


_SEAL_HEADER = struct.Struct(">I")  # CRC32 of the sealed body


def seal(data: bytes) -> bytes:
    """Prefix ``data`` with a CRC32 so in-flight corruption is detectable.

    The wire envelope carries the seal; :func:`unseal` verifies it
    before any unmarshalling happens, so a flipped byte surfaces as a
    :class:`MarshalError` instead of a silently wrong value.
    """
    return _SEAL_HEADER.pack(zlib.crc32(data)) + data


def unseal(data: bytes) -> memoryview:
    """Verify and strip the CRC32 prefix added by :func:`seal`.

    Returns a zero-copy ``memoryview`` of the body — the decoder
    consumes buffers directly, so the received frame is never copied
    just to drop its four-byte header.  (``memoryview`` compares equal
    to ``bytes``; call ``.tobytes()`` if an owned copy is needed.)

    Raises :class:`MarshalError` when the frame is too short to carry
    its checksum or the checksum does not match the body.
    """
    if len(data) < _SEAL_HEADER.size:
        raise MarshalError("sealed frame shorter than its checksum")
    (crc,) = _SEAL_HEADER.unpack_from(data)
    body = memoryview(data)[_SEAL_HEADER.size:]
    if zlib.crc32(body) != crc:
        raise MarshalError("sealed frame failed its CRC32 check")
    return body
