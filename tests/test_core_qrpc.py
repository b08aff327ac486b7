"""QRPC record tests."""

from types import SimpleNamespace

from repro.core.access_manager import OPERATIONS
from repro.core.qrpc import Operation, QRPCRequest
from repro.core.server import SERVICES
from repro.net.message import marshal, unmarshal
from repro.net.scheduler import Priority
from repro.obs.fleet import FleetAggregator
from repro.sim import Simulator


def test_wire_roundtrip():
    request = QRPCRequest(
        request_id="client/3",
        session_id="client/session0",
        operation=Operation.EXPORT,
        urn="urn:rover:server/mail/inbox",
        args={"data": {"x": 1}, "base_version": 4},
        priority=Priority.FOREGROUND,
        created_at=12.5,
    )
    clone = QRPCRequest.from_wire(request.to_wire())
    assert clone.request_id == request.request_id
    assert clone.session_id == request.session_id
    assert clone.operation is Operation.EXPORT
    assert clone.urn == request.urn
    assert clone.args == request.args
    assert clone.priority is Priority.FOREGROUND
    assert clone.created_at == 12.5


def test_wire_format_is_marshallable():
    request = QRPCRequest("id", "s", Operation.IMPORT, "urn:rover:a/b")
    assert unmarshal(marshal(request.to_wire())) == request.to_wire()


def test_the_client_and_server_tables_agree():
    """Every operation has a row, and its row names a service somebody
    serves: the server's door (``SERVICES``), or for telemetry the fleet
    aggregator; and every service of the server's door is some
    operation's."""
    aggregator_services = []
    FleetAggregator(Simulator()).register(
        SimpleNamespace(register=lambda service, handler: aggregator_services.append(service))
    )
    assert aggregator_services == ["rover.telemetry"]
    assert set(OPERATIONS) == set(Operation)
    called = [row.service for row in OPERATIONS.values()]
    assert len(set(called)) == len(called)
    assert set(called) == set(SERVICES) | set(aggregator_services)
    assert OPERATIONS[Operation.TELEMETRY].service == "rover.telemetry"


def test_stage_bookkeeping_is_volatile():
    """What a stage remembers about a request rides on the request but
    never reaches the log or the wire: a recovered client starts fresh."""
    request = QRPCRequest("id", "", Operation.IMPORT, "urn:rover:a/b")
    assert (request.failover_rounds, request.full_only, request.recovered) == (0, False, False)
    request.failover_rounds, request.full_only, request.recovered = 3, True, True
    clone = QRPCRequest.from_wire(request.to_wire())
    assert (clone.failover_rounds, clone.full_only, clone.recovered) == (0, False, False)


def test_operation_string_form():
    assert str(Operation.IMPORT) == "import"
    assert Operation("export") is Operation.EXPORT
