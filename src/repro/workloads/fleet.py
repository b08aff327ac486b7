"""The mixed-link fleet fixture behind E15 (telemetry) and E16 (drain).

N clients round-robin over the paper's four links, a private
Observatory each, and one small counter object per client at the home
server.  :mod:`repro.obs.fleet.sim` and :mod:`repro.speed.scenario`
put their own connectivity and workload on top.

The two experiments serve different objects, and the committed
baselines are why both sources stay: E15's clients *import* theirs, so
its source text is wire bytes (``foreground_bytes`` in
``BENCH_E15.json``), and its ``echo`` sends the payload back to load
both directions; E16 measures the upstream drain, so its ``echo``
answers with a length.
"""

from __future__ import annotations

from typing import Optional

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import (
    CSLIP_2_4,
    CSLIP_14_4,
    ETHERNET_10M,
    WAVELAN_2M,
    ConnectivityPolicy,
    LinkSpec,
)
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import MultiClientTestbed, build_multi_client_testbed

#: The mixed link population: client ``i`` gets ``LINK_MIX[i % 4]``.
LINK_MIX: tuple[LinkSpec, ...] = (ETHERNET_10M, WAVELAN_2M, CSLIP_14_4, CSLIP_2_4)

#: Payload divisor per :data:`LINK_MIX` position — slow links carry
#: proportionally lighter application payloads, the way a real mobile
#: app adapts fidelity to bandwidth (cf. the paper's CSLIP-aware
#: Exmh/proxy behaviour).
PAYLOAD_DIVISOR = (1, 1, 8, 16)

PING_CODE = '''
def ping(state):
    return state["n"]

def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]

def echo(state, blob):
    return blob
'''

PING_INTERFACE = RDOInterface(
    [
        MethodSpec("ping", doc="read the counter"),
        MethodSpec("bump", mutates=True, doc="advance the counter"),
        MethodSpec("echo", doc="round-trip a payload (foreground load)"),
    ]
)

ECHO_CODE = '''
def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]

def echo(state, blob):
    return len(blob)
'''

ECHO_INTERFACE = RDOInterface(
    [
        MethodSpec("bump", mutates=True, doc="advance the counter"),
        MethodSpec("echo", doc="round-trip a payload"),
    ]
)


def class_payload_bytes(payload_bytes: int, link_index: int) -> int:
    """The fast-link payload size scaled down for a link class."""
    return max(1, payload_bytes // PAYLOAD_DIVISOR[link_index % len(LINK_MIX)])


def build_mixed_fleet(
    n_clients: int,
    policies: list[Optional[ConnectivityPolicy]],
    authority: str,
    seed: int,
    type_name: str,
    code: str,
    interface: RDOInterface,
    group_commit: Optional[GroupCommitPolicy] = None,
) -> MultiClientTestbed:
    """The fleet on :data:`LINK_MIX`, with ``obj/<i>`` stored for client ``i``."""
    bed = build_multi_client_testbed(
        n_clients,
        link_specs=list(LINK_MIX),
        policies=policies,
        authority=authority,
        seed=seed,
        # Private registries: ten thousand clients sharing one would
        # trip the label-cardinality cap, and a telemetry reporter must
        # ship only its own client's series.
        per_client_obs=True,
        group_commit=group_commit,
    )
    for index in range(n_clients):
        bed.server.put_object(
            RDO(URN(authority, f"obj/{index}"), type_name, {"n": 0},
                code=code, interface=interface),
            # Verify the shared source once; the interpreter's compile
            # cache already collapses the repeated loads.
            verify=(index == 0),
        )
    return bed
