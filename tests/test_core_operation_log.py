"""Operation log tests: pending tracking, recovery, at-most-once."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operation_log import OperationLog
from repro.net.message import MAX_DEPTH, MarshalError, Premarshalled
from repro.core.qrpc import Operation, QRPCRequest
from repro.storage.stable_log import MemoryLogBackend, StableLog
from repro.testbed import build_testbed
from tests.conftest import make_note


def make_request(n: int, op: Operation = Operation.IMPORT) -> QRPCRequest:
    return QRPCRequest(f"client/{n}", "", op, f"urn:rover:s/obj{n}")


def test_append_makes_pending():
    log = OperationLog()
    flush_time = log.append(make_request(0))
    assert flush_time > 0
    assert log.pending_count() == 1
    assert log.get("client/0") is not None


def test_acknowledge_removes_pending():
    log = OperationLog()
    log.append(make_request(0))
    log.acknowledge("client/0")
    assert log.pending_count() == 0
    assert log.get("client/0") is None


def test_duplicate_acknowledge_is_noop():
    log = OperationLog()
    log.append(make_request(0))
    assert log.acknowledge("client/0") > 0
    assert log.acknowledge("client/0") == 0.0
    assert log.acknowledge("never-seen") == 0.0


def test_pending_ordered_oldest_first():
    log = OperationLog()
    for n in range(5):
        log.append(make_request(n))
    log.acknowledge("client/2")
    assert [r.request_id for r in log.pending()] == [
        "client/0", "client/1", "client/3", "client/4",
    ]


def test_recovery_after_crash_restores_pending():
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    log.append(make_request(0))
    log.append(make_request(1))
    log.acknowledge("client/0")

    # Simulated restart: a new OperationLog over the same backend.
    recovered = OperationLog(StableLog(stable.backend))
    assert [r.request_id for r in recovered.pending()] == ["client/1"]


def test_crash_before_flush_loses_nothing_already_flushed():
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    log.append(make_request(0))  # append() flushes internally
    stable.crash()
    recovered = OperationLog(StableLog(stable.backend))
    assert recovered.pending_count() == 1


def test_request_content_survives_recovery():
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    request = QRPCRequest(
        "client/0", "sess", Operation.EXPORT, "urn:rover:s/x",
        args={"data": {"k": [1, 2]}, "base_version": 3},
    )
    log.append(request)
    recovered = OperationLog(StableLog(stable.backend))
    restored = recovered.pending()[0]
    assert restored.operation is Operation.EXPORT
    assert restored.args == {"data": {"k": [1, 2]}, "base_version": 3}


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "premarshalled"])
@pytest.mark.parametrize("levels", range(MAX_DEPTH - 4, MAX_DEPTH + 2))
def test_nothing_the_log_accepts_poisons_recovery(levels, wrapped):
    """Args sit two containers down in a log record.  Nested near
    MAX_DEPTH they are either refused at append or decode again after a
    crash -- also when they arrive already encoded, and so were checked
    against the limit one level up from where the record splices them."""
    data = 0
    for _ in range(levels):
        data = [data]
    args = {"data": data}
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    log.append(make_request(0))
    try:
        request = QRPCRequest(
            "client/1", "", Operation.EXPORT, "urn:rover:s/x",
            args=Premarshalled(args) if wrapped else args,
        )
        log.append(request)
        accepted = True
    except MarshalError:
        accepted = False
    # args at depth 2, "data" value at 3, its innermost leaf at 3 + levels.
    assert accepted == (3 + levels <= MAX_DEPTH)
    recovered = OperationLog(StableLog(stable.backend))
    assert [r.request_id for r in recovered.pending()] == (
        ["client/0", "client/1"] if accepted else ["client/0"]
    )
    if accepted:
        assert recovered.pending()[1].args == args


def test_fully_acked_log_truncates_to_empty():
    log = OperationLog()
    for n in range(3):
        log.append(make_request(n))
    for n in range(3):
        log.acknowledge(f"client/{n}")
    assert log.stable.records() == []


def test_mark_failed_removes_pending():
    log = OperationLog()
    log.append(make_request(0))
    log.mark_failed("client/0")
    assert log.pending_count() == 0


@settings(max_examples=60)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["append", "ack"]), st.integers(0, 9)),
        max_size=40,
    )
)
def test_recovery_matches_live_state(ops):
    """Property: recovering from the durable log reproduces exactly the
    live pending set, for any interleaving of appends and acks."""
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    appended = set()
    for action, n in ops:
        request_id = f"client/{n}"
        if action == "append" and n not in appended:
            log.append(make_request(n))
            appended.add(n)
        elif action == "ack":
            log.acknowledge(request_id)

    recovered = OperationLog(StableLog(stable.backend))
    live_ids = sorted(r.request_id for r in log.pending())
    recovered_ids = sorted(r.request_id for r in recovered.pending())
    assert recovered_ids == live_ids


# -- the per-URN index ---------------------------------------------------------


def _check_index(log: OperationLog) -> None:
    """The index is ``pending()`` regrouped: same requests, same order;
    ``pending()`` itself is in logical order; no empty bucket is kept."""
    pending = log.pending()
    assert [r.request_id for r in pending] == sorted(log._pending, key=log._order.__getitem__)
    by_urn: dict = {}
    for request in pending:
        by_urn.setdefault(request.urn, []).append(request)
    assert {urn: list(bucket.values()) for urn, bucket in log._by_urn.items()} == by_urn
    for urn, requests in by_urn.items():
        assert log.pending_for(urn) == requests
        assert all(a is b for a, b in zip(log.pending_for(urn), requests))
    assert log.pending_for("urn:rover:s/nobody") == []


def _on(urn_index: int, n: int) -> QRPCRequest:
    return QRPCRequest(
        f"client/{n}", "", Operation.INVOKE, f"urn:rover:s/obj{urn_index}",
        {"method": "set", "args": [n]},
    )


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "ack", "fail", "drop", "rewrite", "recover"]),
            st.integers(0, 2),   # which object an append is for
            st.integers(0, 11),  # which pending request the others mean
        ),
        max_size=40,
    )
)
def test_urn_index_is_pending_regrouped_after_every_mutation(ops):
    stable = StableLog(MemoryLogBackend())
    log = OperationLog(stable)
    minted = 0
    for action, urn_index, k in ops:
        pending = log.pending()
        target = pending[k % len(pending)] if pending else None
        if action == "append":
            log.append(_on(urn_index, minted))
            minted += 1
        elif action == "recover":
            log = OperationLog(StableLog(stable.backend))
        elif target is None:
            continue
        elif action == "ack":
            log.acknowledge(target.request_id)
            assert log.acknowledge(target.request_id) == 0.0
        elif action == "fail":
            log.mark_failed(target.request_id)
        elif action == "drop":
            log.compact([target.request_id, "client/never"], {})
        else:  # a rewrite keeps its place, in the queue and in its bucket
            rewritten = QRPCRequest(
                target.request_id, "", Operation.INVOKE, target.urn,
                {"method": "set", "args": ["rewritten"]},
            )
            log.compact([], {target.request_id: rewritten})
            assert log.get(target.request_id) is rewritten
        _check_index(log)
    assert (log.pending_count() == 0) == (log._by_urn == {})


def test_recovery_rebuilds_the_index_from_acks_rewrites_and_a_torn_tail(tmp_path):
    from repro.storage.stable_log import FileLogBackend

    backend = FileLogBackend(str(tmp_path / "log.bin"))
    log = OperationLog(StableLog(backend))
    for n in range(5):
        log.append(_on(n % 2, n))
    log.acknowledge("client/0")  # the prefix is truncated away
    first = log.get("client/1")
    first.args = {"method": "set", "args": ["rewritten"]}
    # client/1's fresh record lands behind client/4's; once client/2
    # leaves, its original is truncated and only ``ord`` places it.
    log.compact(["client/2"], {"client/1": first})
    log.append(_on(0, 5))
    backend.tear_tail(5)  # the crash tore client/5's record
    recovered = OperationLog(StableLog(FileLogBackend(str(tmp_path / "log.bin"))))
    assert [r.request_id for r in recovered.pending()] == ["client/1", "client/3", "client/4"]
    assert all(r.recovered for r in recovered.pending())
    assert recovered.pending()[0].args["args"] == ["rewritten"]
    assert [r.request_id for r in recovered.pending_for("urn:rover:s/obj1")] == [
        "client/1", "client/3"
    ]
    assert [r.request_id for r in recovered.pending_for("urn:rover:s/obj0")] == ["client/4"]
    _check_index(recovered)
    assert recovered.first_pending_id("client/") == "client/1"
    assert recovered.first_pending_id("client+1/") is None
    recovered.stable.close()
    log.stable.close()


def test_an_acknowledged_or_compacted_request_leaves_nothing_behind():
    """The per-request indexes hold the pending requests only: an
    acknowledged or compacted-away request once stayed in them for
    good, live and after recovery alike."""
    log = OperationLog()
    for n in range(4):
        log.append(make_request(n))
    log.acknowledge("client/1")
    log.compact(["client/0"], {"client/2": make_request(2)})
    assert set(log._record_seq) == set(log._order) == {"client/2", "client/3"}
    recovered = OperationLog(StableLog(log.stable.backend))
    assert set(recovered._record_seq) == set(recovered._order) == {"client/2", "client/3"}


def test_a_drained_client_log_remembers_no_request():
    """200 remote invokes, once drained, left 200 entries in each index."""
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    for __ in range(200):
        bed.access.invoke_remote(note.urn, "read", [])
    bed.sim.run()
    log = bed.access.log
    assert log.pending_count() == 0 and log._record_seq == log._order == {}
