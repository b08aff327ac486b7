"""warm_read: local invocation on cached RDOs, the paper's headline path.

Closed loop, one caller, no think time.  Set-up prefetches every
document over CSLIP-14.4; the timed region is a seeded mix of a short
read-only ``invoke``, a looping read-only ``invoke`` and ``import_``
cache hits.  The working set fits the cache, so the network, scheduler,
log and server do nothing: the bypass workload for every network-side
optimisation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import CSLIP_14_4
from repro.testbed import Testbed, build_testbed

from perfbench.inputs import OP_LOOP, OP_SHORT, WarmReadInputs
from perfbench.workloads import Outcome, Parts

DOC_CODE = '''
def tag_sum(state):
    total = 0
    for tag in state["tags"]:
        total = total + tag
    return total

def count_word(state, needle):
    hits = 0
    for word in state["words"]:
        if word == needle:
            hits = hits + 1
    return hits
'''

_DOC_INTERFACE = RDOInterface(
    [
        MethodSpec("tag_sum", doc="short read-only method"),
        MethodSpec("count_word", doc="looping read-only method"),
    ]
)

# The E3 object: local invoke vs blocking RPC on it is the 56x gate.
NULL_URN = "urn:rover:server/bench/null"
_NULL_CODE = '''
def ping(state):
    return None

def read_value(state):
    return state["value"]
'''
_NULL_INTERFACE = RDOInterface([MethodSpec("ping"), MethodSpec("read_value")])


@dataclass
class State:
    inputs: WarmReadInputs
    bed: Testbed
    urns: list
    setup_wire_bytes: int
    #: One entry per op: the invoke result, or the imported version.
    results: list = field(default_factory=list)
    #: Virtual seconds charged, one entry per local invoke.
    costs_s: array = field(default_factory=lambda: array("d"))
    events: int = 0


def setup(inputs: WarmReadInputs, obs_trace: bool = False) -> State:
    bed = build_testbed(link_spec=CSLIP_14_4, seed=inputs.net_seed, trace=obs_trace)
    urns = []
    for index, (tags, words) in enumerate(inputs.docs):
        urn = URN(bed.authority, f"docs/{index:04d}")
        bed.server.put_object(
            RDO(
                urn,
                "perfbench-doc",
                {"tags": list(tags), "words": list(words)},
                code=DOC_CODE,
                interface=_DOC_INTERFACE,
            ),
            verify=(index == 0),
        )
        urns.append(str(urn))
    bed.server.put_object(
        RDO(
            URN.parse(NULL_URN),
            "bench-null",
            {"value": 0},
            code=_NULL_CODE,
            interface=_NULL_INTERFACE,
        )
    )
    bed.access.prefetch(urns + [NULL_URN])
    if not bed.access.drain(timeout=1e7):
        raise RuntimeError("warm_read: prefetch never drained")
    # Warm-up: load every document's code once so the timed region is
    # the steady state a user of a warm cache sees.
    for urn in urns:
        bed.access.invoke(urn, "tag_sum")
    return State(
        inputs=inputs,
        bed=bed,
        urns=urns,
        setup_wire_bytes=bed.link.bytes_carried,
    )


def run(state: State) -> None:
    access = state.bed.access
    sim = state.bed.sim
    urns = state.urns
    needles = state.inputs.needles
    results = state.results
    costs = state.costs_s
    events = 0
    for kind, doc, needle in state.inputs.ops:
        if kind == OP_SHORT:
            result, cost = access.invoke(urns[doc], "tag_sum")
        elif kind == OP_LOOP:
            result, cost = access.invoke(urns[doc], "count_word", needles[needle])
        else:
            promise = access.import_(urns[doc])
            events += sim.run()  # a hit resolves at the same instant
            results.append(promise.value.version)
            continue
        results.append(result)
        costs.append(cost)
    state.events = events


def outcome(state: State) -> Outcome:
    wire = state.bed.link.bytes_carried
    return Outcome(
        attempted=len(state.inputs.ops),
        acked=len(state.results),
        latencies_ms=[c * 1000.0 for c in state.costs_s],
        timed_wire_bytes=wire - state.setup_wire_bytes,
        events=state.events,
        clock_elapsed_s=sum(state.costs_s),
    )


def parts(state: State) -> Parts:
    bed = state.bed
    return Parts(
        sims=[bed.sim],
        accesses=[bed.access],
        schedulers=[bed.scheduler],
        transports=[bed.client_transport, bed.server_transport],
        links=[bed.link],
        servers=[bed.server],
        registries=[bed.obs.registry],
    )


def close(state: State) -> None:
    pass
