"""The five workloads.  Each module exposes the same four functions:

``setup(inputs, obs_trace=False) -> state``
    Build the testbed and everything the timed region needs (set-up:
    imports, prefetch, queued schedule).  ``obs_trace`` builds it with
    the program's own tracer on (``trace=True``), for the
    ``obs.tracer_on_cpu_ratio`` diagnostic.
``run(state) -> None``
    The timed region.  Nothing else is timed.
``outcome(state) -> Outcome``
    What happened, read from public attributes after the run.
``close(state) -> None``
    Release sockets, threads and files.

A workload sees only its inputs object (``perfbench.inputs``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import STANDARD_LINKS

from perfbench import spec

LINKS_BY_NAME = {spec.name: spec for spec in STANDARD_LINKS}


_COUNTER_CODE = '''
def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]

def echo(state, blob):
    return len(blob)
'''

_COUNTER_INTERFACE = RDOInterface(
    [
        MethodSpec("bump", mutates=True, doc="advance the counter"),
        MethodSpec("echo", doc="round-trip a payload"),
    ]
)


def counter_object(authority: str, index: int) -> RDO:
    """The E16 object three workloads write to: ``bump`` mutates a
    counter, ``echo`` round-trips a payload."""
    return RDO(
        URN(authority, f"obj/{index}"),
        "speed-echo",
        {"n": 0},
        code=_COUNTER_CODE,
        interface=_COUNTER_INTERFACE,
    )


def counter_urn(authority: str, index: int) -> str:
    return f"urn:rover:{authority}/obj/{index}"


def load(name: str) -> Any:
    if name not in spec.FULL_SET:
        raise KeyError(f"unknown workload {name!r}")
    return importlib.import_module(f"perfbench.workloads.{name}")


@dataclass
class Parts:
    """The public objects of a testbed, flattened so per-layer counters
    are read the same way on every workload."""

    sims: list = field(default_factory=list)
    accesses: list = field(default_factory=list)
    schedulers: list = field(default_factory=list)
    #: Every transport, clients' and servers'.
    transports: list = field(default_factory=list)
    links: list = field(default_factory=list)
    servers: list = field(default_factory=list)
    #: Replication groups (``ha_failover`` only).
    groups: list = field(default_factory=list)
    registries: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one run of a workload produced."""

    attempted: int
    acked: int
    #: Per-op latency in the workload's own clock: virtual ms on the
    #: simulated workloads, process-CPU ms on ``live_loopback``.
    latencies_ms: list
    #: Bytes carried on all links during the timed region.
    timed_wire_bytes: int
    #: Sum of ``Simulator.run()`` returns in the timed region.
    events: int = 0
    #: Own-clock seconds the timed region covered.
    clock_elapsed_s: float = 0.0
    #: Workload-specific user-visible numbers (virtual seconds etc.).
    extra: dict = field(default_factory=dict)


def registry_total(registries: list, name: str) -> float:
    """Sum a counter/gauge over every labelled child in every registry."""
    total = 0.0
    for registry in registries:
        metric = registry.get(name)
        if metric is None:
            continue
        if metric.labelnames:
            total += sum(child.value for _, child in metric.children())
        else:
            total += metric.value
    return total


def histogram_values(registries: list, name: str) -> list:
    values: list = []
    for registry in registries:
        metric = registry.get(name)
        if metric is None:
            continue
        for _, child in metric.children():
            values.extend(child.values())
    return values
