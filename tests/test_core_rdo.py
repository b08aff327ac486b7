"""RDO tests: wire format, interfaces, execution, cost model."""

import pytest

from repro.core.interpreter import SafeInterpreter
from repro.core.naming import URN
from repro.core.rdo import (
    RDO,
    ExecutionCostModel,
    MethodSpec,
    RDOError,
    RDOInterface,
)
from tests.conftest import NOTE_CODE, NOTE_INTERFACE, make_note


def test_wire_roundtrip():
    rdo = make_note(text="payload")
    rdo.version = 7
    clone = RDO.from_wire(rdo.to_wire())
    assert clone.urn == rdo.urn
    assert clone.type_name == rdo.type_name
    assert clone.data == rdo.data
    assert clone.code == rdo.code
    assert clone.version == 7
    assert clone.interface.method_names() == rdo.interface.method_names()
    assert clone.interface.mutates("set_text")
    assert not clone.interface.mutates("read")


def test_copy_is_independent():
    rdo = make_note()
    clone = rdo.copy()
    clone.data["text"] = "changed"
    assert rdo.data["text"] == "hello"


def test_size_bytes_tracks_payload():
    small = make_note(text="a")
    large = make_note(text="a" * 5000)
    assert large.size_bytes - small.size_bytes >= 4999


def test_invoke_read_method():
    rdo = make_note(text="xyz")
    interp = SafeInterpreter()
    result, steps = rdo.invoke(interp, "read")
    assert result == "xyz"
    assert steps >= 1


def test_invoke_mutating_method_updates_data():
    rdo = make_note()
    interp = SafeInterpreter()
    rdo.invoke(interp, "set_text", "new")
    assert rdo.data["text"] == "new"


def test_invoke_outside_interface_rejected():
    rdo = RDO(URN("s", "x"), "t", {}, code="def secret(state):\n    return 1\n",
              interface=RDOInterface([]))
    interp = SafeInterpreter()
    with pytest.raises(RDOError, match="not in interface"):
        rdo.invoke(interp, "secret")


def test_functions_cached_across_invocations():
    rdo = make_note()
    interp = SafeInterpreter()
    rdo.invoke(interp, "read")
    first = rdo._functions
    rdo.invoke(interp, "length")
    assert rdo._functions is first


def test_interface_mutates_lookup():
    iface = RDOInterface([MethodSpec("get"), MethodSpec("set", mutates=True)])
    assert not iface.mutates("get")
    assert iface.mutates("set")
    assert not iface.mutates("unknown")
    assert "get" in iface and "missing" not in iface


def test_interface_wire_roundtrip():
    iface = RDOInterface([MethodSpec("a", True, "doc-a"), MethodSpec("b")])
    clone = RDOInterface.from_wire(iface.to_wire())
    assert clone["a"].mutates
    assert clone["a"].doc == "doc-a"
    assert not clone["b"].mutates


class TestCostModel:
    def test_invoke_time_linear_in_steps(self):
        model = ExecutionCostModel(base_s=0.001, per_step_s=0.0001)
        assert model.invoke_time(0) == pytest.approx(0.001)
        assert model.invoke_time(100) == pytest.approx(0.011)

    def test_client_defaults_slower_than_server_defaults(self):
        from repro.core.server import RoverServer  # server cost constants

        client = ExecutionCostModel()
        assert client.invoke_time(100) > 0
