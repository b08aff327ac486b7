"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.naming import URN
from repro.core.qrpc import Operation, QRPCRequest
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import CSLIP_14_4, ETHERNET_10M
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


@pytest.fixture
def ethernet_bed() -> Testbed:
    return build_testbed(link_spec=ETHERNET_10M)


@pytest.fixture
def cslip_bed() -> Testbed:
    return build_testbed(link_spec=CSLIP_14_4)
