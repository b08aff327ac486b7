"""Operation-log compaction: the engine, the durable rewrite, the
replay-equivalence property, and the keyed plan — equal to a plan of the
whole queue, at a cost that does not grow with it.  The engine is driven
with the rules of ``tests/conftest.py``; the product's own folds are the
export follow-up (below) and telemetry's (``tests/test_fleet_pipeline.py``)."""

from __future__ import annotations

import copy
import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.operation_log import OperationLog
from repro.core.qrpc import Operation, QRPCRequest
from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.perf.compact import Compactor, PairRule
from repro.storage.stable_log import StableLog
from repro.testbed import build_testbed
from tests.conftest import Append, Overwrite, make_note
from tests.test_speed import _python_calls

URN = "urn:server:cal/group"


def _invoke(rid: str, method: str, args: list, urn: str = URN) -> QRPCRequest:
    return QRPCRequest(
        request_id=rid,
        session_id="s",
        operation=Operation.INVOKE,
        urn=urn,
        args={"method": method, "args": args},
    )


def _all(request: QRPCRequest) -> bool:
    return True


# -- engine unit tests -------------------------------------------------------


def test_invoke_absorb_drops_the_earlier_call():
    engine = Compactor().add_pair_rule(Overwrite("move_event", key=0))
    a = _invoke("r1", "move_event", ["e1", "10am"])
    b = _invoke("r2", "move_event", ["e1", "11am"])
    plan = engine.plan([a, b], _all)
    assert plan.drops == [(a, "r2")]
    assert not plan.rewrites  # the rule kept the later's own args


def test_invoke_absorb_respects_the_key_argument():
    engine = Compactor().add_pair_rule(Overwrite("move_event", key=0))
    a = _invoke("r1", "move_event", ["e1", "10am"])
    b = _invoke("r2", "move_event", ["e2", "11am"])
    assert engine.plan([a, b], _all).is_empty


def test_requests_on_different_urns_never_pair():
    engine = Compactor().add_pair_rule(Overwrite("mark_read"))
    a = _invoke("r1", "mark_read", [], urn="urn:server:mail/in/m1")
    b = _invoke("r2", "mark_read", [], urn="urn:server:mail/in/m2")
    assert engine.plan([a, b], _all).is_empty


def test_append_merge_folds_a_run_into_one_batch():
    """Each fold rewrites the survivor; the rule sees the earlier one
    with the args it was already rewritten to, and that rewrite leaves
    with it."""
    engine = Compactor().add_pair_rule(Append())
    ops = [_invoke(f"r{i}", "append_entry", [{"id": f"m{i}"}]) for i in range(3)]
    plan = engine.plan(ops, _all)
    assert [rid for __, rid in plan.drops] == ["r1", "r2"]
    assert plan.rewrites == {"r2": {
        "method": "append_entries",
        "args": [[{"id": "m0"}, {"id": "m1"}, {"id": "m2"}]],
    }}


def test_ineligible_request_is_a_barrier():
    engine = Compactor().add_pair_rule(Overwrite("move_event", key=0))
    a = _invoke("r1", "move_event", ["e1", "10am"])
    b = _invoke("r2", "move_event", ["e1", "11am"])
    plan = engine.plan([a, b], lambda r: r.request_id != "r1")
    assert plan.is_empty  # r1 may already be at the server: hands off


def test_barrier_in_the_middle_splits_the_chain():
    engine = Compactor().add_pair_rule(Overwrite("move_event", key=0))
    ops = [
        _invoke("r1", "move_event", ["e1", "a"]),
        _invoke("r2", "move_event", ["e1", "b"]),
        _invoke("r3", "move_event", ["e1", "c"]),
    ]
    plan = engine.plan(ops, lambda r: r.request_id != "r2")
    # r1 cannot pair across the dispatched r2; r3 has no one left.
    assert plan.is_empty


class _SameImport(PairRule):
    def match(self, earlier, later):
        both = earlier.operation is later.operation is Operation.IMPORT
        return later.args if both else None


def test_duplicate_import_coalesce():
    """The engine pairs any operation a rule admits, not only invokes."""
    engine = Compactor().add_pair_rule(_SameImport())
    a = QRPCRequest("r1", "s", Operation.IMPORT, "urn:server:web/p")
    b = QRPCRequest("r2", "s", Operation.IMPORT, "urn:server:web/p")
    plan = engine.plan([a, b], _all)
    assert plan.drops == [(a, "r2")]


def test_absorb_chain_follows_the_final_survivor():
    engine = Compactor().add_pair_rule(Overwrite("move_event", key=0))
    ops = [_invoke(f"r{i}", "move_event", ["e1", f"slot{i}"]) for i in range(4)]
    plan = engine.plan(ops, _all)
    assert [(r.request_id, rid) for r, rid in plan.drops] == [
        ("r0", "r1"), ("r1", "r2"), ("r2", "r3"),
    ]


# -- replay equivalence (property) -------------------------------------------


def _apply(state: dict, request: QRPCRequest) -> None:
    """The semantics the two rules assume: a move overwrites its event's
    slot, appends extend one list in order."""
    method = request.args["method"]
    args = request.args["args"]
    if method == "add_event":
        state[args[0]] = args[1]
    elif method == "move_event":
        if args[0] in state:
            state[args[0]] = args[1]
    elif method == "cancel_event":
        state.pop(args[0], None)
    elif method == "append_entry":
        state.setdefault("log", []).append(args[0])
    elif method == "append_entries":
        state.setdefault("log", []).extend(args[0])


_ops = st.lists(
    st.tuples(st.sampled_from(["add", "move", "cancel", "append"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=5)),
    max_size=20,
)


@settings(max_examples=200)
@given(_ops)
def test_compacted_replay_is_equivalent(ops):
    """Replaying the compacted queue reaches the same server state as
    replaying the original queue, for any op sequence."""
    requests = []
    for i, (kind, ent, slot) in enumerate(ops):
        if kind == "add":
            requests.append(_invoke(f"r{i}", "add_event", [f"e{i}", f"s{slot}"]))
        elif kind == "move":
            requests.append(_invoke(f"r{i}", "move_event", [f"e{ent}", f"s{slot}"]))
        elif kind == "cancel":
            requests.append(_invoke(f"r{i}", "cancel_event", [f"e{ent}"]))
        else:
            requests.append(_invoke(f"r{i}", "append_entry", [f"s{slot}"]))

    engine = Compactor()
    engine.add_pair_rule(Overwrite("move_event", key=0))
    engine.add_pair_rule(Append())
    plan = engine.plan(requests, _all)

    removed = {r.request_id for r, __ in plan.drops}
    compacted = []
    for request in requests:
        if request.request_id in removed:
            continue
        args = plan.rewrites.get(request.request_id, request.args)
        compacted.append(QRPCRequest(
            request.request_id, request.session_id, request.operation,
            request.urn, args,
        ))

    original_state: dict = {}
    for request in requests:
        _apply(original_state, request)
    compacted_state: dict = {}
    for request in compacted:
        _apply(compacted_state, request)
    assert compacted_state == original_state


# -- the durable rewrite -----------------------------------------------------


def test_compact_drops_and_rewrites_survive_recovery_in_order():
    backend_log = StableLog()
    log = OperationLog(backend_log)
    ops = [_invoke(f"r{i}", "append_entry", [{"id": f"m{i}"}]) for i in range(4)]
    for request in ops:
        log.append(request)

    merged = QRPCRequest(
        "r3", "s", Operation.INVOKE, URN,
        {"method": "append_entries",
         "args": [[{"id": f"m{i}"} for i in range(4)]]},
    )
    log.compact(["r0", "r1", "r2"], {"r3": merged})
    assert log.ops_compacted == 3
    assert [r.request_id for r in log.pending()] == ["r3"]

    # A fresh log over the same backend replays exactly the compacted queue.
    recovered = OperationLog(StableLog(backend_log.backend))
    pending = recovered.pending()
    assert [r.request_id for r in pending] == ["r3"]
    assert pending[0].args == merged.args


def test_rewrite_keeps_logical_queue_order_across_recovery():
    backend_log = StableLog()
    log = OperationLog(backend_log)
    first = _invoke("r1", "move_event", ["e1", "9am"], urn="urn:server:cal/a")
    second = _invoke("r2", "move_event", ["e2", "9am"], urn="urn:server:cal/b")
    log.append(first)
    log.append(second)
    # Rewrite the FIRST request: its fresh record lands after r2's, but
    # the carried logical order must keep it first in the queue.
    rewritten = QRPCRequest(
        "r1", "s", Operation.INVOKE, "urn:server:cal/a",
        {"method": "move_event", "args": ["e1", "10am"]},
    )
    log.compact([], {"r1": rewritten})
    assert [r.request_id for r in log.pending()] == ["r1", "r2"]

    recovered = OperationLog(StableLog(backend_log.backend))
    assert [r.request_id for r in recovered.pending()] == ["r1", "r2"]
    assert recovered.pending()[0].args["args"] == ["e1", "10am"]


def test_compact_skips_already_acked_requests():
    log = OperationLog(StableLog())
    request = _invoke("r1", "move_event", ["e1", "9am"])
    log.append(request)
    log.acknowledge("r1")
    log.compact(["r1"], {})
    assert log.ops_compacted == 0


# -- the refresh-export fold (integration) -----------------------------------


def _disconnected_bed(**kwargs):
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 10.0), (100.0, 1e9)]),
        **kwargs,
    )
    note = make_note()
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run(until=5.0)
    return bed, note, session


def test_dirty_followups_fold_into_the_queued_export():
    bed, note, session = _disconnected_bed(compaction=True)
    bed.sim.run(until=20.0)  # disconnected now
    for text in ("one", "two", "three"):
        bed.access.invoke(note.urn, "set_text", text, session=session)
    bed.sim.run()
    # One export carried all three mutations: the server version moved
    # exactly once and holds the final text.
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "three"
    assert server_copy.version == 2  # put_object v1, one export commit
    assert bed.access.log.ops_compacted == 2
    assert bed.access.pending_count() == 0
    assert bed.access.cache.tentative_urns() == []


def test_without_compaction_each_followup_exports():
    bed, note, session = _disconnected_bed(compaction=False)
    bed.sim.run(until=20.0)
    for text in ("one", "two", "three"):
        bed.access.invoke(note.urn, "set_text", text, session=session)
    bed.sim.run()
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "three"
    assert server_copy.version > 2  # follow-up export rounds happened
    assert bed.access.log.ops_compacted == 0


def test_folded_promises_all_resolve():
    bed, note, session = _disconnected_bed(compaction=True)
    bed.sim.run(until=20.0)
    bed.access.invoke(note.urn, "set_text", "one", session=session)
    # Two explicit follow-up rounds while the first sits in the queue:
    # their promises must resolve when the single folded round commits.
    followups = [
        bed.access.export(note.urn, session=session),
        bed.access.export(note.urn, session=session),
    ]
    bed.sim.run()
    for promise in followups:
        assert promise.ready and not promise.failed
    assert bed.access.pending_count() == 0
    assert bed.access.cache.tentative_urns() == []


def test_an_absorbed_write_still_counts_for_its_own_session():
    """The survivor's reply is the absorbed request's reply; read-your-
    writes must hold for the session that issued the absorbed one too."""
    bed, note, survivor_session = _disconnected_bed(compaction=True)
    bed.access.add_compaction_rule(Overwrite("set_text"))
    absorbed_session = bed.access.create_session("absorbed")
    bed.sim.run(until=20.0)  # disconnected now
    first = bed.access.invoke_remote(note.urn, "set_text", ["one"], session=absorbed_session)
    bed.access.invoke_remote(note.urn, "set_text", ["two"], session=survivor_session)
    bed.sim.run()
    assert first.result() == "two"
    assert bed.server.invokes_served == 1
    committed = bed.server.store.version(str(note.urn))
    assert survivor_session.writes() == {str(note.urn): committed}
    assert absorbed_session.writes() == {str(note.urn): committed}


# -- the keyed plan: one bucket per operation --------------------------------


def _stage(access):
    (stage,) = {hook.__self__ for hook in access.on_queued}
    return stage


def _offline_bed(**kwargs):
    """Connected for a second, then never again."""
    bed = build_testbed(
        link_spec=ETHERNET_10M, policy=IntervalTrace([(0.0, 1.0), (1e8, 1e9)]), **kwargs
    )
    bed.sim.run(until=2.0)
    return bed


@pytest.mark.parametrize("register", ["on the app's compactor", "add_compaction_rule"])
def test_a_rule_added_after_the_manager_is_built_applies(register):
    """There is one ``Compactor``: the object the constructor was given
    is the one the stage plans with (a private copy of its rule list,
    taken at construction, used to miss the first spelling until a crash
    recovery rebuilt it)."""
    bed = _offline_bed(compaction=True)
    rule = Overwrite("set_text")
    if register == "add_compaction_rule":
        bed.access.add_compaction_rule(rule)
    else:
        bed.access.compactor.add_pair_rule(rule)
    urn = "urn:rover:server/notes/n1"
    bed.access.invoke_remote(urn, "set_text", ["one"])
    bed.access.invoke_remote(urn, "set_text", ["two"])
    assert [r.args["args"] for r in bed.access.log.pending()] == [["two"]]
    rules_before = list(bed.access.compactor.pair_rules)
    bed.clients[0].crash_and_recover()
    assert bed.access.compactor.pair_rules == rules_before
    assert _stage(bed.access).compactor is bed.access.compactor
    bed.access.invoke_remote(urn, "set_text", ["three"])
    bed.access.invoke_remote(urn, "set_text", ["four"])
    # The replayed request is a barrier; the reborn client's two fold.
    assert [r.args["args"] for r in bed.access.log.pending()] == [["two"], ["four"]]


_URNS = [f"urn:rover:server/obj/{i}" for i in range(4)]
#: method -> args: what the rules of ``_RULES`` match on.
_CALLS = {
    "a": [], "b": [], "m": [],  # Overwrite("m", over={"a", "b"})
    "mark_read": [], "mark_deleted": [],
    "append_entry": [{"id": "e"}],
    "move_event": ["e1", "9am"], "move_other": ["e2", "9am"],
    "lock": [],  # no rule knows it: it pairs with nothing, and separates
}
_RULES = (
    Overwrite("m", over={"a", "b"}),
    Overwrite("mark_read"),
    Overwrite("mark_deleted"),
    Append(),
    Overwrite("move_event", key=0),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("call"), st.integers(0, 3), st.sampled_from(sorted(_CALLS))),
        # A barrier on the k-th pending request, or a second of virtual
        # time (flushes complete, the scheduler is handed the requests).
        st.tuples(
            st.sampled_from(["dispatched", "backing-off", "recovered", "tick"]),
            st.integers(0, 7),
            st.none(),
        ),
    ),
    max_size=30,
)


def _whole_queue_fixpoint(compactor, shadow, eligible):
    """The reference: ``Compactor.plan`` over the *whole* queue, carried
    out on copies, again until it finds nothing."""
    while True:
        plan = compactor.plan(shadow, eligible)
        if plan.is_empty:
            return shadow
        gone = {r.request_id for r, __ in plan.drops}
        shadow = [r for r in shadow if r.request_id not in gone]
        for request in shadow:
            if request.request_id in plan.rewrites:
                request.args = plan.rewrites[request.request_id]


@settings(max_examples=120, deadline=None)
@given(_steps)
@example([("call", 0, "a"), ("call", 0, "b"), ("call", 0, "m")])  # the cascade
@example([("call", 1, "mark_read"), ("tick", 0, None), ("backing-off", 0, None),
          ("call", 1, "mark_read"), ("call", 1, "mark_read")])
def test_planning_one_bucket_equals_planning_the_whole_queue(steps):
    """After every queued operation the pending queue — ids, order, args
    — is what planning everything to a fixpoint would have left."""
    bed = _offline_bed(compaction=True)
    access = bed.access
    for rule in _RULES:
        access.add_compaction_rule(rule)
    session = access.create_session("s")
    # Every request as it was issued, before anything folded it.
    issued: list[QRPCRequest] = []
    access.on_submit.append(lambda request: issued.append(copy.deepcopy(request)))
    shadow: list[QRPCRequest] = []
    barriers: set[str] = set()

    def eligible(copy_of: QRPCRequest) -> bool:
        return copy_of.request_id not in barriers

    for kind, index, method in steps:
        if kind == "call":
            if method == "lock":
                access.acquire_lock(_URNS[index], session)
            else:
                name = "move_event" if method == "move_other" else method
                access.invoke_remote(_URNS[index], name, list(_CALLS[method]))
            shadow.append(issued.pop())
            shadow = _whole_queue_fixpoint(access.compactor, shadow, eligible)
        elif kind == "tick":
            bed.sim.run(until=bed.sim.now + 1.0)
        elif index < access.pending_count():
            request = access.log.pending()[index]
            message = access.attempt(request)
            if kind == "recovered":
                request.recovered = True
            elif message is None:
                continue  # its flush is in progress: nothing to have sent
            elif kind == "dispatched":
                message.state = "inflight"
            else:
                message.attempts = 1
            barriers.add(request.request_id)
        assert [(r.request_id, r.args) for r in access.log.pending()] == [
            (r.request_id, r.args) for r in shadow
        ]


def test_queuing_an_operation_costs_the_same_behind_a_long_queue():
    """Flatness: disconnected, the 400th ``invoke_remote`` — minting,
    logging, planning, and the events it leaves the simulator: the flush
    and the scheduler's pump — makes the Python calls the 40th made.
    (Planning the whole queue per operation cost about four calls per
    request already queued; a pump that walked the queue for want of a
    route, one route lookup per message already queued.)"""
    bed = _offline_bed(compaction=True)
    access = bed.access
    for rule in _RULES:
        access.add_compaction_rule(rule)

    def queue_one(urn):
        access.invoke_remote(urn, "mark_read", [])
        bed.sim.run(until=bed.sim.now + 1.0)  # flushed, and pumped

    calls = []
    gc.collect()
    gc.disable()  # a collection inside the measure runs other tests' finalizers
    try:
        for index in range(400):
            calls.append(_python_calls(queue_one, f"urn:rover:server/mail/m{index}"))
    finally:
        gc.enable()
    assert access.pending_count() == 400
    assert calls[399] == calls[39]


def test_a_pair_a_departed_barrier_kept_apart_waits_for_its_bucket_or_link_up():
    """What a bucket plan leaves to later, pinned: ``a`` (background,
    unsent) and ``c`` become neighbours when the barrier between them is
    answered; an operation on *another* object does not revisit them, the
    next one on theirs — or the reconnection — does."""
    bed = _offline_bed(compaction=True)
    access = bed.access
    access.add_compaction_rule(Overwrite("set_text"))
    urn, other = "urn:rover:server/notes/n1", "urn:rover:server/notes/n2"
    access.invoke_remote(urn, "set_text", ["a"])
    access.invoke_remote(urn, "touch", [])  # no rule pairs it: it separates
    bed.sim.run(until=bed.sim.now + 1.0)
    barrier = access.log.pending()[1]
    access.attempt(barrier).attempts = 1
    access.invoke_remote(urn, "set_text", ["c"])
    access.fail(barrier, "gone")
    access.invoke_remote(other, "set_text", ["elsewhere"])
    assert [r.args["args"] for r in access.log.pending()] == [["a"], ["c"], ["elsewhere"]]
    assert _stage(access).compact() == 1  # the drain hook: a link came up
    assert [r.args["args"] for r in access.log.pending()] == [["c"], ["elsewhere"]]
