"""Per-workload output checks.  A run whose check fails reports
``correct: false`` and prints no metric.

Each check returns violation strings (empty = correct), in the style of
``repro.chaos.invariants``, so one failed run lists everything wrong
with it.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.invariants import (
    check_cache_coherent,
    check_logs_drained,
    check_no_orphan_tentative,
)
from repro.core.operation_log import OperationLog
from repro.storage.stable_log import FileLogBackend, StableLog

from perfbench import ledger
from perfbench.inputs import OP_LOOP, OP_SHORT
from perfbench.workloads import (
    Outcome,
    counter_urn,
    fleet_drain,
    ha_failover,
    live_loopback,
    mail_slowlink,
    warm_read,
)

#: E3 as a gate: local invoke vs blocking RPC on CSLIP-14.4, the paper's 56x.
_E3_RATIO = 56.0
_E3_TOLERANCE = 0.10


def _all_acked(out: Outcome) -> list[str]:
    if out.acked != out.attempted:
        return [f"{out.attempted - out.acked} of {out.attempted} ops never acknowledged"]
    return []


def _fleet_drain(state: fleet_drain.State, out: Outcome, before: dict, after: dict) -> list[str]:
    violations = _all_acked(out)
    bed = state.bed
    for client, bumps in enumerate(state.bumps):
        counter = bed.server.get_object(counter_urn(bed.authority, client)).data["n"]
        if counter != bumps:
            violations.append(f"client{client}: server counter {counter}, {bumps} bumps sent")
    violations += check_logs_drained(c.access for c in bed.clients)
    return violations


def _warm_read(state: warm_read.State, out: Outcome, before: dict, after: dict) -> list[str]:
    violations = _all_acked(out)
    inputs = state.inputs
    # The same methods in plain Python on the same state; one
    # evaluation per distinct (method, document, argument).
    expected: dict = {}
    wrong = 0
    for (kind, doc, needle), got in zip(inputs.ops, state.results):
        key = (kind, doc, needle if kind == OP_LOOP else 0)
        want = expected.get(key)
        if want is None:
            tags, words = inputs.docs[doc]
            if kind == OP_SHORT:
                want = sum(tags)
            elif kind == OP_LOOP:
                want = words.count(inputs.needles[needle])
            else:
                want = state.bed.server.get_object(state.urns[doc]).version
            expected[key] = want
        if got != want:
            wrong += 1
    if wrong:
        violations.append(f"{wrong} results differ from the plain-Python evaluation")
    if ledger.hit_ratio(before, after) != 1.0:
        violations.append(f"cache hit ratio {ledger.hit_ratio(before, after)} is not 1.0")
    if out.timed_wire_bytes:
        violations.append(f"{out.timed_wire_bytes} wire bytes in the timed region")
    # After the byte count is taken: the same null method, local vs a
    # blocking RPC over the same CSLIP-14.4 link.
    bed = state.bed
    _, local_s = bed.access.invoke(warm_read.NULL_URN, "read_value")
    start = bed.sim.now
    bed.client_transport.call_blocking(
        bed.server_host,
        "rover.invoke",
        {"urn": warm_read.NULL_URN, "method": "read_value", "args": []},
    )
    ratio = (bed.sim.now - start) / local_s
    if abs(ratio - _E3_RATIO) > _E3_TOLERANCE * _E3_RATIO:
        violations.append(f"local invoke vs RPC is {ratio:.1f}x, not 56x +/- 10%")
    return violations


def _mail_slowlink(
    state: mail_slowlink.State, out: Outcome, before: dict, after: dict
) -> list[str]:
    # acked == attempted already says every flag and reply of the
    # script is at the server (see the workload's ``outcome``).
    violations = _all_acked(out)
    for session in state.sessions:
        bed = session.bed
        violations += check_logs_drained([bed.access])
        violations += check_cache_coherent(bed.server, [bed.access])
        violations += check_no_orphan_tentative([bed.access])
        outbox = bed.server.get_object(str(session.reader.folder_urn(mail_slowlink.OUTBOX)))
        sent = [entry["id"] for entry in outbox.data["index"]]
        scripted = [reply_id for reply_id, _, _ in session.script.replies]
        if sent != scripted:
            violations.append(f"outbox holds {sent}, script sent {scripted}")
    return violations


def _ha_failover(state: ha_failover.State, out: Outcome, before: dict, after: dict) -> list[str]:
    violations = _all_acked(out)
    bed = state.bed
    for client, results in enumerate(state.bump_results):
        counter = bed.server.get_object(counter_urn(bed.authority, client)).data["n"]
        # Every acknowledged bump is present exactly once: the results
        # are distinct and the counter covers them.
        if len(set(results)) != len(results) or counter < len(results):
            violations.append(
                f"client{client}: {len(results)} bumps acked, server counter {counter}"
            )
    vectors = [server.state_vector() for server, _ in bed.members]
    if any(vector != vectors[0] for vector in vectors[1:]):
        violations.append("members' state vectors differ after quiesce")
    failovers = after["ha_failovers"] - before["ha_failovers"]
    if failovers != 1:
        violations.append(f"{failovers} failovers, expected exactly one")
    return violations


def _live_loopback(
    state: live_loopback.State, out: Outcome, before: dict, after: dict
) -> list[str]:
    violations = _all_acked(out)
    if state.timed_out:
        violations.append("a phase ran into its wall-clock budget")
    inputs = state.inputs
    bumps = sum(1 for op in inputs.closed + inputs.burst if op is None)
    counter = state.server.get_object(live_loopback.OBJECT_URN).data["n"]
    if counter != bumps or sorted(state.bump_results) != list(range(1, bumps + 1)):
        violations.append(f"server counter {counter}, {bumps} bumps sent")
    for name, clock in (("client", state.clock), ("server", state.server.clock)):
        if clock.errors:
            violations.append(f"{name} loop recorded {len(clock.errors)} callback errors")
    # What a restarted client would find in the log file.
    reopened = StableLog(FileLogBackend(state.log_path))
    try:
        pending = OperationLog(reopened).pending_count()
    finally:
        reopened.close()
    if pending:
        violations.append(f"re-opened log recovers {pending} pending QRPCs")
    return violations


_CHECKS = {
    "fleet_drain": _fleet_drain,
    "warm_read": _warm_read,
    "mail_slowlink": _mail_slowlink,
    "ha_failover": _ha_failover,
    "live_loopback": _live_loopback,
}


def check(workload: str, state: Any, out: Outcome, before: dict, after: dict) -> list[str]:
    """Violations of ``workload``'s output checks (empty = correct)."""
    return _CHECKS[workload](state, out, before, after)
