"""The metrics registry's read surface, pinned.

Two small scenarios, each read through every reader the registry has:

* a replicated home server (three members, two clients) on one shared
  registry, driven through local and remote writes, a delta-shipped
  export, a compacted backlog, group commits and a primary kill;
* one client of a ``per_client_obs`` fleet, with the marshalled bytes
  of its first telemetry report.

``snapshot()`` (names, values, order), ``render()``,
``render_prometheus()`` and the report bytes must equal
``tests/data/registry_golden.json`` exactly.  Regenerate it only after a
deliberate change to what the registry shows::

    PYTHONPATH=src:. python tests/test_registry_golden.py --write
"""

import json
import sys
from pathlib import Path

from repro.chaos import ChaosController, FaultPlan, PrimaryKill
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.ha import build_ha_testbed
from repro.net.link import ETHERNET_10M
from repro.net.message import marshal
from repro.obs.fleet.aggregator import FleetAggregator
from repro.obs.fleet.expo import render_prometheus
from repro.obs.fleet.report import TelemetryReporter
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import build_multi_client_testbed

GOLDEN = Path(__file__).parent / "data" / "registry_golden.json"

NOTE_CODE = '''
def set_text(state, text):
    state["text"] = text
    return len(text)

def get_text(state):
    return state["text"]
'''

NOTE_INTERFACE = RDOInterface(
    [MethodSpec("set_text", mutates=True), MethodSpec("get_text", mutates=False)]
)


def _note(authority: str, path: str) -> RDO:
    return RDO(
        URN(authority, path), "note", {"text": "x" * 300, "pad": "p" * 600},
        code=NOTE_CODE, interface=NOTE_INTERFACE,
    )


def _surface(registry) -> dict:
    return {
        "snapshot": [[key, value] for key, value in registry.snapshot().items()],
        "render": registry.render(),
        "prometheus": render_prometheus(registry),
    }


def ha_surface() -> dict:
    bed = build_ha_testbed(
        n_backups=2, n_clients=2, seed=0, compaction=True, delta_shipping=True,
        group_commit=GroupCommitPolicy(),
    )
    urns = []
    for index in range(2):
        note = _note(bed.authority, f"notes/n{index}")
        bed.put_object(note)
        urns.append(str(note.urn))
    first, second = (stack.access for stack in bed.clients)
    session = first.create_session("alice")
    first.import_(urns[0], session=session).wait(bed.sim)
    for text in ("one", "two", "three"):
        first.invoke(urns[0], "set_text", text, session=session)
        first.export(urns[0], session=session)
    first.drain(timeout=120.0)
    first.import_(urns[0], session=session)
    second.import_(urns[1]).wait(bed.sim)
    second.invoke_remote(urns[1], "set_text", ["remote"])
    second.invoke_remote(urns[1], "get_text")
    ChaosController(bed.sim, obs=bed.obs, seed=0).schedule(
        FaultPlan(seed=0, primary_kills=(PrimaryKill(at=bed.sim.now + 5.0, down_for=1e6),)),
        bed,
    )
    bed.sim.run(until=bed.sim.now + 4.0)
    for text in ("four", "five"):
        first.invoke(urns[0], "set_text", text, session=session)
        first.export(urns[0], session=session)
    # The wrong arity, on purpose: the server answers an error, across the kill.
    second.invoke_remote(urns[1], "set_text", ["after", "again"])
    first.drain(timeout=120.0)
    second.drain(timeout=120.0)
    bed.sim.run(until=bed.sim.now + 30.0)
    return _surface(bed.obs.registry)


def fleet_client_surface() -> dict:
    bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M, per_client_obs=True)
    for index in range(2):
        bed.server.put_object(_note(bed.server.authority, f"obj/{index}"))
    aggregator = FleetAggregator(bed.sim, obs=bed.obs, server=bed.server)
    aggregator.register(bed.server_transport)
    stack = bed.clients[0]
    reporter = TelemetryReporter(stack.access, bed.server.authority, obs=stack.obs)
    urn = f"urn:rover:{bed.server.authority}/obj/0"
    stack.access.import_(urn)
    # The last has the wrong arity, on purpose: the server answers an error.
    for args in (["a"], ["bb"], ["ccc", "extra"]):
        stack.access.invoke_remote(urn, "set_text", args)
    bed.sim.run(until=bed.sim.now + 60.0)
    stack.access.import_(urn)
    stack.access.invoke(urn, "set_text", "local")
    stack.access.export(urn)
    bed.sim.run(until=bed.sim.now + 60.0)
    surface = _surface(stack.obs.registry)
    surface["first_report"] = marshal(reporter.build_report()).hex()
    return surface


def capture() -> dict:
    return {"ha": ha_surface(), "fleet_client": fleet_client_surface()}


def test_ha_registry_reads_as_pinned():
    assert ha_surface() == json.loads(GOLDEN.read_text())["ha"]


def test_the_primary_of_a_group_reads_as_serving():
    """Every member of a group has the group's authority, so the server's
    series are labelled by host as well: the primary's own invokes show.
    Without the host, ``server_requests`` read as the last-built
    backup's zeros, and the counters summed every role."""
    snapshot = dict(ha_surface()["snapshot"])
    assert snapshot["server_requests{authority=server,host=server,kind=invokes_served}"] > 0
    assert snapshot["server_requests{authority=server,host=server-b2,kind=invokes_served}"] == 0


def test_fleet_client_registry_and_first_report_read_as_pinned():
    assert fleet_client_surface() == json.loads(GOLDEN.read_text())["fleet_client"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_registry_golden.py --write")
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
