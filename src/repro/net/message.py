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

All three tree walkers (encode, decode, size) are flat: each call takes
a run of sibling values and handles leaves and one-byte varints inline,
so a Python call is spent per non-empty container rather than per value
(``tests/test_speed.py`` holds the per-value originals as references and
a call-budget test).
"""

from __future__ import annotations

import struct
import sys
import zlib
from itertools import chain
from typing import Any, Iterable

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
        out = bytearray(_TAG_DICT)
        length = len(self)
        if length < 0x80:
            out.append(length)
        else:
            _write_uvarint(out, length)
        self.nesting = _encode(chain.from_iterable(self.items()), out, 1) if length else 0
        self.raw = bytes(out)


#: Maximum container nesting; beyond this the encoding is rejected
#: rather than risking interpreter recursion limits on hostile input.
MAX_DEPTH = 64


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
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


def _uvarint_len(value: int) -> int:
    return max(1, (value.bit_length() + 6) // 7)


# The walkers below take a *run* of sibling values (see the module
# docstring; docs/PERFORMANCE.md, "CPU hot path, second pass").  A
# dict's entries are one flat run: key, value, key, value, ...


def _encode(items: Iterable[Any], out: bytearray, depth: int = 0) -> int:
    """Append the encodings of ``items`` (values at nesting ``depth``).

    Returns the deepest nesting reached.
    """
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    key_raw = _KEY_RAW
    deepest = depth
    for item in items:
        if isinstance(item, str):
            raw = key_raw.get(item)
            if raw is None:
                raw = item.encode("utf-8")
                out += _TAG_STR
                length = len(raw)
                if length < 0x80:
                    out.append(length)
                else:
                    _write_uvarint(out, length)
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
            if zigzag < 0x80:
                out.append(zigzag)
            else:
                _write_uvarint(out, zigzag)
        elif isinstance(item, Premarshalled):
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
                children = item
            length = len(item)
            if length < 0x80:
                out.append(length)
            else:
                _write_uvarint(out, length)
            if length:
                below = _encode(children, out, depth + 1)
                if below > deepest:
                    deepest = below
        elif isinstance(item, float):
            out += _TAG_FLOAT
            out += _PACK_FLOAT(item)
        elif isinstance(item, (bytes, bytearray)):
            out += _TAG_BYTES
            length = len(item)
            if length < 0x80:
                out.append(length)
            else:
                _write_uvarint(out, length)
            out += item
        else:
            raise MarshalError(f"cannot marshal {type(item).__name__}: {item!r}")
    return deepest


def _decode(data: Any, pos: int, count: int = 1, depth: int = 0) -> tuple[list, int]:
    """Decode the ``count`` values starting at ``pos`` (nesting ``depth``).

    ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview`` —
    indexing yields ints either way, so the hot loop never allocates
    one-byte slices.  Payload slices are materialized (``bytes``/
    ``str``) at their final position; no view escapes into the result.
    """
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    size = len(data)
    interned = _PROTOCOL_KEYS.get
    items: list[Any] = []
    append = items.append
    for _ in range(count):
        if pos >= size:
            raise MarshalError("truncated message")
        tag = data[pos]
        pos += 1
        if tag in _VARINT_TAGS:
            # A varint follows: a length, a count, or the zigzagged int.
            if pos >= size:
                raise MarshalError("truncated varint")
            number = data[pos]
            if number < 0x80:
                pos += 1
            else:
                number, pos = _read_uvarint(data, pos)
            if tag == _T_STR:
                end = pos + number
                if end > size:
                    raise MarshalError("truncated string")
                try:
                    append(str(data[pos:end], "utf-8"))
                except UnicodeDecodeError as exc:
                    raise MarshalError(f"invalid utf-8 in string: {exc}") from None
                pos = end
            elif tag == _T_INT:
                append((number >> 1) ^ -(number & 1))
            elif tag == _T_DICT:
                flat, pos = _decode(data, pos, 2 * number, depth + 1) if number else ([], pos)
                pairs = iter(flat)
                entries: dict[Any, Any] = {}
                try:
                    for key, value in zip(pairs, pairs):
                        entries[interned(key, key)] = value
                except TypeError:
                    raise MarshalError("unhashable dict key") from None
                append(entries)
            elif tag == _T_BYTES:
                end = pos + number
                if end > size:
                    raise MarshalError("truncated bytes")
                append(bytes(data[pos:end]))
                pos = end
            else:
                children, pos = _decode(data, pos, number, depth + 1) if number else ([], pos)
                append(children if tag == _T_LIST else tuple(children))
        elif tag == _T_NONE:
            append(None)
        elif tag == _T_TRUE:
            append(True)
        elif tag == _T_FALSE:
            append(False)
        elif tag == _T_FLOAT:
            if pos + 8 > size:
                raise MarshalError("truncated float")
            append(_UNPACK_FLOAT(data, pos)[0])
            pos += 8
        else:
            raise MarshalError(f"unknown tag {bytes((tag,))!r} at offset {pos - 1}")
    return items, pos


def marshal(value: Any) -> bytes:
    """Encode ``value`` to bytes."""
    if isinstance(value, Premarshalled):
        return value.raw
    out = bytearray()
    _encode((value,), out)
    return bytes(out)


def unmarshal(data: Any) -> Any:
    """Decode a buffer produced by :func:`marshal`.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` (the transport
    hands the :func:`unseal` view straight in).  Raises
    :class:`MarshalError` on trailing garbage or corruption.
    """
    items, pos = _decode(data, 0)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return items[0]


def _size(items: Iterable[Any], depth: int = 0) -> int:
    """Encoded size of ``items`` computed without building the encoding."""
    if depth > MAX_DEPTH:
        raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
    total = 0
    for item in items:
        if isinstance(item, str):
            # ASCII (the protocol's common case) encodes 1:1, so the UTF-8
            # byte length is known without running the encoder.
            length = len(item) if item.isascii() else len(item.encode("utf-8"))
            total += length + (2 if length < 0x80 else 1 + _uvarint_len(length))
        elif item is None or item is True or item is False:
            total += 1
        elif isinstance(item, int):
            zigzag = item << 1 if item >= 0 else (-item << 1) - 1
            total += 2 if zigzag < 0x80 else 1 + _uvarint_len(zigzag)
        elif isinstance(item, Premarshalled):
            if depth + item.nesting > MAX_DEPTH:
                raise MarshalError(f"nesting deeper than {MAX_DEPTH} levels")
            total += len(item.raw)
        elif isinstance(item, (dict, list, tuple)):
            length = len(item)
            total += 2 if length < 0x80 else 1 + _uvarint_len(length)
            if length:
                children = chain.from_iterable(item.items()) if isinstance(item, dict) else item
                total += _size(children, depth + 1)
        elif isinstance(item, float):
            total += 9
        elif isinstance(item, (bytes, bytearray)):
            length = len(item)
            total += length + (2 if length < 0x80 else 1 + _uvarint_len(length))
        else:
            raise MarshalError(f"cannot marshal {type(item).__name__}: {item!r}")
    return total


def marshalled_size(value: Any) -> int:
    """Size in bytes of the encoded value (what a link would carry).

    Never builds the encoding: a :class:`Premarshalled` answers from
    its cached length (counted in ``codec_stats.marshal_size_fast_total``)
    and everything else is sized arithmetically.
    """
    if isinstance(value, Premarshalled):
        codec_stats.marshal_size_fast_total += 1
        return len(value.raw)
    return _size((value,))


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
