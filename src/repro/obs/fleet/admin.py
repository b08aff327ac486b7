"""The read-only fleet-health admin RDO.

The future control plane should query fleet health *through the
toolkit*, not through a side channel: this module publishes the
aggregator's current health evaluation as a plain-data RDO at
``urn:rover:<authority>/__fleet__/health``.  Any client can then
``import_`` it (cacheable, disconnection-tolerant) or
``invoke_remote`` its methods; every method is ``mutates=False`` so
an import never turns tentative.

The RDO's state is a snapshot — :func:`publish_health` re-renders and
re-publishes it (bumping the object version) whenever the operator or
a periodic server task wants fresher data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import RoverServer
    from repro.obs.fleet.aggregator import FleetAggregator

FLEET_HEALTH_TYPE = "fleet-health"
FLEET_HEALTH_PATH = "__fleet__/health"

FLEET_HEALTH_CODE = '''
def summary(state):
    return state["summary"]

def clients(state):
    names = []
    for row in state["clients"]:
        names.append(row["client"])
    return names

def client(state, name):
    for row in state["clients"]:
        if row["client"] == name:
            return row
    return None

def unhealthy(state):
    result = []
    for row in state["clients"]:
        if not row["healthy"]:
            result.append(row)
    return result

def worst(state, k):
    result = []
    for row in state["worst"]:
        if len(result) >= k:
            break
        result.append(row)
    return result

def events(state):
    return state["events"]

def generated_at(state):
    return state["at"]
'''

FLEET_HEALTH_INTERFACE = RDOInterface(
    [
        MethodSpec("summary", doc="fleet-wide counters"),
        MethodSpec("clients", doc="reporting client names"),
        MethodSpec("client", doc="one client's health row, or None"),
        MethodSpec("unhealthy", doc="rows currently violating an SLO"),
        MethodSpec("worst", doc="the k most-broken clients, worst first"),
        MethodSpec("events", doc="recent health transitions"),
        MethodSpec("generated_at", doc="snapshot time (simulated seconds)"),
    ]
)


def health_state(aggregator: "FleetAggregator", worst_k: int = 10) -> dict:
    """Render the aggregator's last health evaluation as plain data."""
    rows = []
    for client in sorted(aggregator.health()):
        entry = aggregator.health()[client]
        rows.append({
            "client": entry.client,
            "healthy": entry.healthy,
            "silent": entry.silent,
            "violations": list(entry.violations),
            "delivery_rate": entry.delivery_rate,
            "retransmit_ratio": entry.retransmit_ratio,
            "rtt_p50": entry.rtt_p50,
            "rtt_p95": entry.rtt_p95,
            "rtt_p99": entry.rtt_p99,
            "link": aggregator.clients[client].link_class,
            "reports": aggregator.clients[client].reports_applied,
        })
    return {
        "at": aggregator.sim.now,
        "summary": aggregator.summary(),
        "clients": rows,
        "worst": [
            {"client": h.client, "violations": list(h.violations)}
            for h in aggregator.worst_clients(worst_k)
        ],
        "events": [event.as_row() for event in aggregator.events],
    }


def publish_health(
    aggregator: "FleetAggregator",
    server: "RoverServer",
    worst_k: int = 10,
    evaluate: bool = True,
) -> RDO:
    """(Re)evaluate health and publish/refresh the admin RDO."""
    if evaluate:
        aggregator.evaluate_health()
    urn = URN(server.authority, FLEET_HEALTH_PATH)
    existing: Optional[RDO] = server.get_object(str(urn))
    version = existing.version + 1 if existing is not None else 1
    rdo = RDO(
        urn,
        FLEET_HEALTH_TYPE,
        health_state(aggregator, worst_k),
        code=FLEET_HEALTH_CODE,
        interface=FLEET_HEALTH_INTERFACE,
        version=version,
    )
    server.put_object(rdo)
    return rdo
