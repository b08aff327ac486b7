"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core.naming import URN
from repro.core.qrpc import Operation, QRPCRequest
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import CSLIP_14_4, ETHERNET_10M
from repro.net.message import MarshalError, Premarshalled, marshal
from repro.perf.compact import PairRule
from repro.testbed import Testbed, build_testbed

NOTE_CODE = '''
def read(state):
    return state["text"]

def set_text(state, text):
    state["text"] = text
    return text

def length(state):
    return len(state["text"])
'''

NOTE_INTERFACE = RDOInterface(
    [
        MethodSpec("read"),
        MethodSpec("set_text", mutates=True),
        MethodSpec("length"),
    ]
)


def make_note(authority: str = "server", path: str = "notes/n1", text: str = "hello") -> RDO:
    return RDO(
        URN(authority, path),
        "note",
        {"text": text},
        code=NOTE_CODE,
        interface=NOTE_INTERFACE,
    )


# Compaction rules the tests drive the engine with.  A rule's one
# outcome is "fold the earlier request into the later": it returns the
# args the later survives with, or None.


def _invokes(earlier: QRPCRequest, later: QRPCRequest) -> bool:
    return earlier.operation is Operation.INVOKE and later.operation is Operation.INVOKE


class Overwrite(PairRule):
    """A later call of ``method`` makes an earlier call of any method in
    ``over`` (default: ``method`` alone) redundant; with ``key``, only
    when the positional argument at that index is the same on both."""

    def __init__(self, method: str, over: set | None = None, key: int | None = None) -> None:
        self.method = method
        self.over = over or {method}
        self.key = key

    def match(self, earlier: QRPCRequest, later: QRPCRequest):
        if not _invokes(earlier, later) or later.args["method"] != self.method:
            return None
        if earlier.args["method"] not in self.over:
            return None
        if self.key is not None and earlier.args["args"][self.key] != later.args["args"][self.key]:
            return None
        return later.args


class Append(PairRule):
    """Adjacent appends (``append_entry`` of one item, or a batch of
    them) fold into one ``append_entries`` batch."""

    @staticmethod
    def _items(request: QRPCRequest):
        method, args = request.args["method"], request.args["args"]
        if method == "append_entry":
            return [args[0]]
        return list(args[0]) if method == "append_entries" else None

    def match(self, earlier: QRPCRequest, later: QRPCRequest):
        if not _invokes(earlier, later):
            return None
        head, tail = self._items(earlier), self._items(later)
        if head is None or tail is None:
            return None
        return {"method": "append_entries", "args": [head + tail]}


# Pairs over the codec's whole value space, refused values included, for
# the comparator's property (tests/test_net_message.py) and the delta
# reference (tests/test_perf_delta.py): two independent values, or a
# value and its twin -- a copy whose every node is kept, re-typed to the
# same encoding, or nudged to a near miss.


class _Text(str):
    """Encodes as the ``str`` it is."""


class _Count(int):
    """Encodes as the ``int`` it is."""


def encodes_alike(a, b):
    """``marshal(a) == marshal(b)``, a refusal on either side counted as
    different: the comparator's definition, by encoding both sides."""
    try:
        return marshal(a) == marshal(b)
    except MarshalError:
        return False


def _wrap(value: dict):
    """``value`` as a ``Premarshalled`` where it encodes, else itself."""
    try:
        return Premarshalled(value)
    except MarshalError:
        return value


_keys = st.one_of(st.text(max_size=6), st.sampled_from([0, 1, True, False, None, "ok"]))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, float("nan")]),
    st.floats(),
    st.text(max_size=12),
    st.sampled_from(["status", "é", "\ud800", "a\udfffb"]),  # a lone surrogate is refused
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.sampled_from([frozenset(), 1j, object]),  # refused
)
codec_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(_wrap),
    ),
    max_leaves=20,
)


def _retype(value):
    """The same encoding under another type."""
    if isinstance(value, (bytes, bytearray)):
        return bytearray(value) if isinstance(value, bytes) else bytes(value)
    if isinstance(value, str):
        return _Text(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return _Count(value)
    if isinstance(value, dict):
        return dict(value) if isinstance(value, Premarshalled) else _wrap(value)
    return value


def _flip(key):
    if key is True or key is False:
        return int(key)
    return bool(key) if type(key) is int and key in (0, 1) else key


def _nudge(value):
    """A near miss: equal under ``==``, or close, but not on the wire."""
    if value is None or value is True or value is False:
        return False if value is None else int(value)
    if isinstance(value, (int, float)):
        return -value if isinstance(value, float) else float(value)
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass")
    if isinstance(value, (bytes, bytearray)):
        return value.decode("latin-1")
    if isinstance(value, (list, tuple)):
        return tuple(value) if isinstance(value, list) else list(value)
    if isinstance(value, dict):
        if len(value) > 1:
            return dict(reversed(value.items()))
        return {_flip(key): item for key, item in value.items()}
    return value


@st.composite
def _twin(draw, value):
    if isinstance(value, (list, tuple)):
        value = type(value)([draw(_twin(item)) for item in value])
    elif isinstance(value, dict):
        value = {key: draw(_twin(item)) for key, item in value.items()}
    move = draw(st.sampled_from([None, None, _retype, _nudge]))
    return value if move is None else move(value)


codec_pairs = st.one_of(
    st.tuples(codec_values, codec_values),
    codec_values.flatmap(lambda value: _twin(value).map(lambda twin: (value, twin))),
)


@pytest.fixture
def ethernet_bed() -> Testbed:
    return build_testbed(link_spec=ETHERNET_10M)


@pytest.fixture
def cslip_bed() -> Testbed:
    return build_testbed(link_spec=CSLIP_14_4)
