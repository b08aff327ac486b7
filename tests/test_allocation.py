"""Allocation gates (docs/PERFORMANCE.md, "Third pass").

The steady-state QRPC path closes no reference cycle, so a drain leaves
nothing that only the cyclic collector could free; an idle client stack
stays lean; and neither changed what must not change — the seeded RNG
streams and the per-request isolation of server-side RDO environments.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc

import pytest

from repro.chaos import ChaosController, FaultPlan, PrimaryKill
from repro.core.interpreter import SAFE_BUILTINS
from repro.core.naming import URN
from repro.core.notification import HISTORY_MAX, EventType, NotificationCenter
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.ha import build_ha_testbed
from repro.net.link import CSLIP_14_4, IntervalTrace, LinkSpec
from repro.net.simnet import Network
from repro.sim import Simulator, make_rng
from repro.speed.scenario import LINK_MIX
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note

#: Unreachable objects one scenario may leave behind.  The fixed path
#: leaves none; the allowance is for interpreter-version noise, three
#: orders of magnitude under what one closed cycle per op produces.
MAX_GARBAGE = 8

#: Traced bytes one more idle client stack may cost.  It costs 19,129
#: on CPython 3.11 (19,001 on 3.12, 19,964 on 3.10) and cost 31,833
#: before the third pass; the ceiling leaves the versions their spread.
MAX_STACK_BYTES = 20_500

_COUNTER_CODE = '''
def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]

def echo(state, blob):
    return len(blob)

def divide(state, by):
    return state["n"] / by

def spin(state):
    for _ in range(10000):
        pass
'''

_COUNTER_INTERFACE = RDOInterface(
    [
        MethodSpec("bump", mutates=True),
        MethodSpec("echo"),
        MethodSpec("divide"),
        MethodSpec("spin"),
    ]
)


def _counter(authority: str, index: int) -> RDO:
    return RDO(
        URN(authority, f"obj/{index}"),
        "counter",
        {"n": 0},
        code=_COUNTER_CODE,
        interface=_COUNTER_INTERFACE,
    )


def _unreachable_after(run) -> int:
    """How many objects ``run()`` leaves that no reference count frees."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _fleet(n_clients: int):
    """The E16 shape: private registries, group commit, the four-class
    link mix, every link down until its reconnect instant."""
    return build_multi_client_testbed(
        n_clients,
        link_specs=list(LINK_MIX),
        policies=[IntervalTrace([(60.0 + index, 1e12)]) for index in range(n_clients)],
        seed=7,
        per_client_obs=True,
        group_commit=GroupCommitPolicy(),
    )


def _schedule_ops(sim, stacks, authority, every_s, count, acked) -> None:
    """``count`` remote invokes per client, ``every_s`` apart: a
    mutating ``bump`` first, then ``echo`` round trips."""
    for index, stack in enumerate(stacks):
        urn = f"urn:rover:{authority}/obj/{index}"
        for step in range(count):
            method, args = ("bump", []) if step % 3 == 0 else ("echo", ["x" * 256])
            sim.schedule_at(
                0.1 * index + step * every_s,
                lambda a=stack.access, u=urn, m=method, g=args: (
                    a.invoke_remote(u, m, g).then(acked.append)
                ),
            )


# -- (a)-(c): nothing for the cyclic collector --------------------------------


def test_fleet_drain_leaves_nothing_for_the_collector():
    bed = _fleet(40)
    for index in range(40):
        bed.server.put_object(_counter(bed.authority, index), verify=(index == 0))
    acked: list = []
    _schedule_ops(bed.sim, bed.clients, bed.authority, 0.0005, 3, acked)

    garbage = _unreachable_after(lambda: bed.sim.run(until=3_600.0))

    assert len(acked) == 120
    assert garbage <= MAX_GARBAGE
    assert not any(link._inflight for link in bed.network.links)


def test_coalesced_export_drain_leaves_nothing_for_the_collector():
    bed = build_testbed(
        CSLIP_14_4,
        policy=IntervalTrace([(0.0, 100.0), (200.0, 1e12)]),
        compaction=True,
        delta_shipping=True,
    )
    notes = [make_note(path=f"notes/n{n}", text="lorem ipsum " * 40) for n in range(8)]
    for note in notes:
        bed.server.put_object(note)
        bed.access.import_(note.urn)
    bed.sim.run(until=150.0)  # imported, then the link went down
    assert bed.access.pending_count() == 0

    def session() -> None:
        for round_ in range(3):
            for note in notes:
                text = f"lorem ipsum {round_} " * 40
                bed.access.invoke(str(note.urn), "set_text", text)
        assert bed.access.drain(timeout=600.0)
        bed.sim.run(until=bed.sim.now + 60.0)

    garbage = _unreachable_after(session)

    assert bed.scheduler.batches_sent >= 1  # the exports did share frames
    assert bed.server.exports_committed >= len(notes)
    assert garbage <= MAX_GARBAGE
    assert not bed.link._inflight


def test_failover_leaves_nothing_for_the_collector():
    """Through a primary kill: attempts withdrawn from the dead member
    and retried in place, fenced requests sent again, transfers failed
    on busy links and the backups' re-executions."""
    bed = build_ha_testbed(n_backups=2, n_clients=2, seed=3)
    for index in range(2):
        bed.put_object(_counter(bed.authority, index), verify=(index == 0))
    ChaosController(bed.sim, obs=bed.obs, seed=3).schedule(
        FaultPlan(seed=3, primary_kills=(PrimaryKill(at=10.0, down_for=30.0),)), bed
    )
    acked: list = []
    _schedule_ops(bed.sim, bed.clients, bed.authority, 0.5, 120, acked)

    garbage = _unreachable_after(lambda: bed.sim.run(until=180.0))

    assert len(acked) == 240
    assert bed.obs.registry.get("qrpc_failovers_total").value > 0
    assert garbage <= MAX_GARBAGE
    assert not any(link._inflight for link in bed.network.links)


# -- (d): what an idle client stack costs --------------------------------------


def _traced_build_bytes(n_clients: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bed = _fleet(n_clients)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_idle_client_stack_is_lean(monkeypatch):
    _fleet(80)  # one-time allocations: imports, interned names, caches
    streams = []

    class CountedRandom(random.Random):
        def __init__(self, *args) -> None:
            streams.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountedRandom)
    per_stack = (_traced_build_bytes(80) - _traced_build_bytes(40)) / 40

    assert per_stack <= MAX_STACK_BYTES
    # A Mersenne Twister state is 2.5 KB; neither the jitter nor the
    # loss stream exists before its first draw.
    assert streams == []


# -- (e): the lazily built streams are the same streams ------------------------


def test_lazy_streams_draw_the_seeded_sequences():
    bed = build_testbed(link_spec=CSLIP_14_4, seed=11)
    expected = make_rng(11, "sched:client")
    assert [bed.scheduler.rng.random() for _ in range(4)] == [
        expected.random() for _ in range(4)
    ]

    sim = Simulator()
    net = Network(sim, seed=11)
    a, b = net.host("a"), net.host("b")
    link = net.connect(a, b, LinkSpec("lossy", 1_000_000, 0.001, loss_rate=0.5))
    outcomes: dict[int, bool] = {}
    b.bind(7, lambda payload, source: outcomes.__setitem__(payload[0], False))
    for n in range(16):
        link.send(a, 7, bytes([n]), on_failed=lambda reason, n=n: outcomes.__setitem__(n, True))
    sim.run()
    expected = make_rng(11, f"loss:{link.name}")
    assert [outcomes[n] for n in range(16)] == [expected.random() < 0.5 for _ in range(16)]


# -- (f): per-request environments, released and never reused -------------------


def _record_loads(server) -> list:
    """Every ``load`` result of the server's interpreter, with the
    builtins table its environment held at load time."""
    loads: list = []
    load = server.interpreter.load

    def recording(source, extra_env=None):
        functions = load(source, extra_env)
        loads.append((functions, functions.env["__builtins__"]))
        return functions

    server.interpreter.load = recording
    return loads


def test_server_side_invokes_get_fresh_environments_and_release_them():
    bed = build_testbed()
    bed.server.put_object(_counter(bed.authority, 0))
    loads = _record_loads(bed.server)
    urn = f"urn:rover:{bed.authority}/obj/0"

    assert bed.access.invoke_remote(urn, "bump", []).wait(bed.sim) == 1
    assert bed.access.invoke_remote(urn, "bump", []).wait(bed.sim) == 2

    (first, first_builtins), (second, second_builtins) = loads
    assert first is not second and first.env is not second.env
    assert first["bump"] is not second["bump"]
    assert first_builtins is not second_builtins
    assert first_builtins is not SAFE_BUILTINS and first_builtins == SAFE_BUILTINS
    # Released: the functions outlive the request, their names do not.
    assert first.env == {} and second.env == {}
    assert first["bump"].__globals__ is first.env
    with pytest.raises(NameError):
        first["bump"]({"n": 0})


def test_a_failing_invoke_still_releases_its_environment():
    bed = build_testbed(max_attempts=1)  # a handler's error is final
    bed.server.put_object(_counter(bed.authority, 0))
    bed.server.interpreter.step_budget = 100
    loads = _record_loads(bed.server)
    urn = f"urn:rover:{bed.authority}/obj/0"

    raised = bed.access.invoke_remote(urn, "divide", [0])
    overran = bed.access.invoke_remote(urn, "spin", [])
    bed.sim.run(until=bed.sim.now + 60.0)

    assert "ZeroDivisionError" in raised.error
    assert "budget" in overran.error
    assert len(loads) == 2
    assert all(functions.env == {} for functions, _ in loads)
    # And the object still serves.
    assert bed.access.invoke_remote(urn, "bump", []).wait(bed.sim) == 1


def test_a_shipped_rdo_releases_its_environment_and_only_its_own():
    import repro.core.server as server_module

    bed = build_testbed(max_attempts=1)
    bed.server.put_object(make_note())
    loads = _record_loads(bed.server)
    # ``peek = lookup`` re-binds a host helper: it is returned among the
    # loaded functions, and its ``__globals__`` is the server's module.
    code = (
        "peek = lookup\n"
        "def main(urn):\n"
        "    return peek(urn)['text']\n"
        "def fail(urn):\n"
        "    return lookup(urn)['no-such-key']\n"
    )
    assert bed.access.ship(bed.authority, code, "main", [str(make_note().urn)]).wait(bed.sim) == "hello"
    failed = bed.access.ship(bed.authority, code, "fail", [str(make_note().urn)])
    bed.sim.run(until=bed.sim.now + 60.0)

    assert "KeyError" in failed.error
    (first, _), (second, _) = loads
    assert first.env is not second.env
    assert first.env == {} and second.env == {}
    assert first["peek"].__globals__ is vars(server_module)
    assert server_module.RoverServer is type(bed.server)  # the host's globals survive


def test_cached_rdos_stay_loaded_between_local_invokes():
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    loads = _record_loads(bed.access)

    assert bed.access.invoke(str(note.urn), "read")[0] == "hello"
    assert bed.access.invoke(str(note.urn), "length")[0] == 5

    ((functions, _),) = loads  # loaded once, on first use, and kept
    assert functions.env["read"] is functions["read"]


# -- the notification history is bounded -----------------------------------------


def test_notification_history_keeps_a_bounded_recent_window():
    center = NotificationCenter()
    total = HISTORY_MAX + HISTORY_MAX // 2
    for n in range(total):
        center.publish(EventType.REQUEST_QUEUED, float(n), n=n)

    assert type(center.history) is list
    assert len(center.history) <= HISTORY_MAX
    assert len(center.history) + center.history_dropped == total
    # The newest events, in order; the counters see the same window.
    assert [note.details["n"] for note in center.history] == list(
        range(center.history_dropped, total)
    )
    assert center.count(EventType.REQUEST_QUEUED) == len(center.history)
    assert center.of_type(EventType.REQUEST_QUEUED) == center.history


def test_slotted_records_carry_no_instance_dict():
    from repro.core.promise import Promise
    from repro.core.qrpc import Operation, QRPCRequest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Span
    from repro.storage.stable_log import LogRecord

    registry = MetricsRegistry()
    records = [
        QRPCRequest("r1", "s1", Operation.INVOKE, "urn:rover:server/x"),
        Promise("p"),
        NotificationCenter().publish(EventType.REQUEST_QUEUED, 0.0),
        LogRecord(1, b"payload"),
        Span("t", "s", "", "name", 0.0, 1.0),
        registry.counter("c_total", labelnames=("host",)),
        registry.gauge("g"),
        registry.histogram("h_seconds"),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert dataclasses.replace(records[0], urn="urn:rover:server/y").urn.endswith("/y")
