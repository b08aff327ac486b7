"""Marshalling tests, including the hypothesis round-trip property."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import MarshalError, marshal, marshalled_size, unmarshal


def test_scalar_roundtrips():
    for value in [None, True, False, 0, 1, -1, 2**80, -(2**80), 0.5, -3.25, "", "héllo", b"", b"\x00\xff"]:
        assert unmarshal(marshal(value)) == value


def test_container_roundtrips():
    value = {
        "list": [1, 2, [3, {"nested": True}]],
        "tuple": (1, "two", None),
        "bytes": b"raw",
        "empty": {},
    }
    assert unmarshal(marshal(value)) == value


def test_tuple_list_distinction_preserved():
    assert unmarshal(marshal((1, 2))) == (1, 2)
    assert unmarshal(marshal([1, 2])) == [1, 2]
    assert isinstance(unmarshal(marshal((1, 2))), tuple)
    assert isinstance(unmarshal(marshal([1, 2])), list)


def test_non_string_dict_keys():
    value = {1: "a", (2, 3): "b", "s": "c"}
    assert unmarshal(marshal(value)) == value


def test_unsupported_type_rejected():
    with pytest.raises(MarshalError):
        marshal({1, 2, 3})
    with pytest.raises(MarshalError):
        marshal(object())


def test_trailing_garbage_rejected():
    data = marshal(1) + b"junk"
    with pytest.raises(MarshalError):
        unmarshal(data)


def test_truncated_data_rejected():
    data = marshal("hello world")
    with pytest.raises(MarshalError):
        unmarshal(data[:-3])


def test_unknown_tag_rejected():
    with pytest.raises(MarshalError):
        unmarshal(b"Z")


def test_empty_input_rejected():
    with pytest.raises(MarshalError):
        unmarshal(b"")


def test_marshalled_size_matches_encoding():
    value = {"key": [1, 2, 3], "text": "abc"}
    assert marshalled_size(value) == len(marshal(value))


def test_size_scales_with_payload():
    small = marshalled_size({"body": "x" * 10})
    large = marshalled_size({"body": "x" * 10_000})
    # 9,990 more payload bytes plus a slightly longer length varint.
    assert 9_990 <= large - small <= 9_994


def test_determinism():
    value = {"a": 1, "b": [True, None, 2.5]}
    assert marshal(value) == marshal(value)


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
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


@settings(max_examples=200)
@given(_values)
def test_roundtrip_property(value):
    assert unmarshal(marshal(value)) == value


@settings(max_examples=50)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_roundtrip_including_specials(value):
    result = unmarshal(marshal(value))
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == value


def test_deep_nesting_rejected_on_encode():
    deep: list = []
    cursor = deep
    for __ in range(200):
        inner: list = []
        cursor.append(inner)
        cursor = inner
    with pytest.raises(MarshalError, match="nesting"):
        marshal(deep)


def test_deep_nesting_rejected_on_decode():
    # 300 nested single-element lists, crafted directly on the wire.
    with pytest.raises(MarshalError, match="nesting"):
        unmarshal(b"l\x01" * 300 + b"N")


def test_reasonable_nesting_still_fine():
    value: object = 1
    for __ in range(50):
        value = [value]
    assert unmarshal(marshal(value)) == value


@pytest.mark.parametrize(
    "frame",
    [
        b"d\x01l\x00N",          # {[]: None}
        b"d\x01d\x00N",          # {{}: None}
        b"d\x01t\x01l\x00N",     # {([],): None}
        b"l\x01d\x02i\x02Nl\x01NT",  # nested, second key a list
    ],
)
def test_unhashable_dict_key_is_a_marshal_error(frame):
    """Receivers catch MarshalError only; a key that decodes to a list
    or dict used to escape as ``TypeError: unhashable type``."""
    with pytest.raises(MarshalError, match="unhashable"):
        unmarshal(frame)
    with pytest.raises(MarshalError, match="unhashable"):
        unmarshal(memoryview(frame))


# Frames an attacker (or a bit flip the CRC missed) could produce:
# arbitrary bytes; "tag soup" dense in structure bytes, which reaches
# the container paths random bytes rarely do; and valid frames mutated
# by flips, deletions and insertions.
_tag_soup = st.lists(
    st.sampled_from(list(b"NTFifsbltd") + [0, 1, 2, 3, 0x7F, 0x80, 0xFF]), max_size=60
).map(bytes)


@st.composite
def _mutated_frames(draw):
    wire = bytearray(marshal(draw(_values)))
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        index = draw(st.integers(min_value=0, max_value=len(wire) - 1))
        action = draw(st.sampled_from(["flip", "delete", "insert", "tag"]))
        if action == "flip":
            wire[index] ^= draw(st.integers(min_value=1, max_value=255))
        elif action == "delete" and len(wire) > 1:
            del wire[index]
        elif action == "insert":
            wire.insert(index, draw(st.integers(min_value=0, max_value=255)))
        else:
            wire[index] = draw(st.sampled_from(list(b"NTFifsbltd")))
    return bytes(wire)


@settings(max_examples=600)
@given(st.one_of(st.binary(max_size=120), _tag_soup, _mutated_frames()))
def test_unmarshal_raises_only_marshal_error(frame):
    for buffer in (frame, memoryview(frame)):
        try:
            value = unmarshal(buffer)
        except MarshalError:
            continue
        # Whatever decodes is an ordinary value: it re-encodes.
        marshal(value)
