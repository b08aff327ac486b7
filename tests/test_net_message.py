"""Marshalling tests, including the hypothesis round-trip property."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import (
    MAX_DEPTH,
    MarshalError,
    Premarshalled,
    changed_keys,
    marshal,
    marshalled_size,
    same_encoding,
    unmarshal,
)
from tests.conftest import codec_pairs, encodes_alike


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


# -- same_encoding: marshal(a) == marshal(b), without encoding either ----------


@settings(max_examples=1000)
@given(codec_pairs)
def test_same_encoding_is_marshal_equality(pair):
    a, b = pair
    expected = encodes_alike(a, b)
    assert same_encoding(a, b) is expected
    assert same_encoding(b, a) is expected


@settings(max_examples=500)
@given(st.lists(codec_pairs, max_size=4), st.lists(st.booleans(), min_size=4, max_size=4))
def test_changed_keys_is_marshal_inequality_per_entry(pairs, in_base):
    """The keys whose values do not encode alike, a key the base lacks
    included: the equal scalars settled in place answer as the
    encodings do."""
    base = {f"k{i}": a for i, (a, __) in enumerate(pairs) if in_base[i]}
    new = {f"k{i}": b for i, (__, b) in enumerate(pairs)}
    assert changed_keys(base, new) == [
        key for key in new if key not in base or not encodes_alike(base[key], new[key])
    ]


def test_changed_keys_settles_only_what_encodes_alike():
    base = {"id": 7, "flag": True, "blob": b"x", "none": None, "text": "hi", "accent": "é"}
    assert changed_keys(base, dict(base)) == []
    assert changed_keys({"t": "\ud800"}, {"t": "\ud800"}) == ["t"]  # equal, never encodes
    assert changed_keys({"n": 1, "f": 0.0}, {"n": True, "f": -0.0}) == ["n", "f"]
    assert changed_keys({"b": b"x"}, {"b": bytearray(b"x"), "new": 1}) == ["new"]


_NAN = float("nan")
_NESTED = Premarshalled({"k": [1, "x"]})


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (True, 1, False),
        (False, 0, False),
        (1.0, 1, False),
        (-0.0, 0.0, False),
        (_NAN, _NAN, True),
        (_NAN, -_NAN, False),
        (b"x", bytearray(b"x"), True),
        ([], (), False),
        ([1, [2]], [1, (2,)], False),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}, False),
        ({1: "x"}, {True: "x"}, False),
        ({"k": True}, {"k": 1}, False),
        ("\ud800", "\ud800", False),
        (["a\udfff"], ["a\udfff"], False),
        ("é", "é", True),
        ({"s": {1, 2}}, {"s": {1, 2}}, False),
        (_NESTED, {"k": [1, "x"]}, True),
        (_NESTED, {"k": (1, "x")}, False),
        ([_NESTED], [{"k": [1, "x"]}], True),
        ([_NESTED], [Premarshalled({"k": [1, "x"]})], True),
        ({"p": _NESTED}, {"p": {"k": [True, "x"]}}, False),
        ([_NESTED], [{"k": [1, {1, 2}]}], False),
    ],
)
def test_same_encoding_near_misses(a, b, expected):
    assert encodes_alike(a, b) is expected
    assert same_encoding(a, b) is expected
    assert same_encoding(b, a) is expected


def _nest(levels, shape, leaf):
    value = leaf
    for __ in range(levels):
        value = {"k": value} if shape is dict else shape((value,))
    return value


@pytest.mark.parametrize("shape", [list, tuple, dict])
@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("leaf", [0, [], [0]])
def test_same_encoding_holds_the_depth_limit(shape, levels, leaf):
    """Equal values nested 63 to 65 deep: the same as marshal's verdict
    (a non-empty container at depth 64 is refused, an empty one is not),
    with a ``Premarshalled`` spliced at the root or one level down."""
    a, b = _nest(levels, shape, leaf), _nest(levels, shape, leaf)
    nesting = levels + (leaf == [0])
    expected = encodes_alike(a, b)
    assert expected is (nesting <= MAX_DEPTH)
    assert same_encoding(a, b) is expected
    if expected and shape is dict:
        assert same_encoding(Premarshalled(a), b) is True
        assert encodes_alike([Premarshalled(a)], [b]) is (nesting < MAX_DEPTH)
        assert same_encoding([Premarshalled(a)], [b]) is (nesting < MAX_DEPTH)
