"""Network substrate: simulated links, hosts, transports, protocols.

This package replaces the paper's physical testbed (Ethernet, WaveLAN,
CSLIP dial-up lines) with a byte-accurate discrete-event model:

* :mod:`repro.net.message` — compact deterministic marshalling so every
  transfer has an honest size in bytes.
* :mod:`repro.net.link` — link specifications (bandwidth, latency, MTU,
  per-fragment header overhead) and connectivity policies (always-up,
  periodic outages, explicit traces).
* :mod:`repro.net.simnet` — hosts, interfaces, point-to-point links and
  the store-and-forward transmission model.
* :mod:`repro.net.transport` — object-level messaging and a
  request/reply (RPC) layer with timeouts.
* :mod:`repro.net.scheduler` — Rover's network scheduler: priority
  queues, interface selection, retransmission, relay fallback.
* :mod:`repro.net.smtp` — the paper's SMTP transport: a mail relay
  that carries queued QRPCs between endpoints never online together.
"""

from repro.net.link import (
    CSLIP_2_4,
    CSLIP_14_4,
    ETHERNET_10M,
    WAVELAN_2M,
    AlwaysDown,
    AlwaysUp,
    ConnectivityPolicy,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
    STANDARD_LINKS,
)
from repro.net.message import MarshalError, marshal, marshalled_size, unmarshal
from repro.net.scheduler import NetworkScheduler, Priority
from repro.net.simnet import Host, Link, LinkDown, Network
from repro.net.transport import RpcError, RpcTimeout, Transport

__all__ = [
    "AlwaysDown",
    "AlwaysUp",
    "ConnectivityPolicy",
    "CSLIP_14_4",
    "CSLIP_2_4",
    "ETHERNET_10M",
    "Host",
    "IntervalTrace",
    "Link",
    "LinkDown",
    "LinkSpec",
    "MarshalError",
    "Network",
    "NetworkScheduler",
    "PeriodicSchedule",
    "Priority",
    "RpcError",
    "RpcTimeout",
    "STANDARD_LINKS",
    "Transport",
    "WAVELAN_2M",
    "marshal",
    "marshalled_size",
    "unmarshal",
]
