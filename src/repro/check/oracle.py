"""Terminal-state validation: sequential oracle + protocol invariants.

A terminal state is valid when it could have been produced by *some*
sequential execution of the operations the clients issued (QRPC is
at-most-once, not exactly-ordered, so any interleaving of the
per-client programs is legal) and the end-to-end chaos invariants hold
(acked updates durable exactly once, logs drained, caches coherent).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.chaos.invariants import (
    check_acked_updates_durable,
    check_cache_coherent,
    check_logs_drained,
    check_no_orphan_tentative,
)


def check_sequential_append(
    final_items: list,
    per_client_issued: dict[str, list[str]],
    acked: Iterable[str],
    key: str = "id",
    require_order: bool = False,
) -> list[str]:
    """``final_items`` must be a legal merge of the clients' appends.

    Legal means: every element was issued by some client, no element
    appears twice (at-most-once), and every *acknowledged* element is
    present (durability).  ``require_order=True`` additionally demands
    each client's surviving elements appear in that client's issue
    order — only meaningful for strictly serialized pipelines.  QRPC
    itself does not promise it: request ids are order-independent (see
    docs/ROBUSTNESS.md) and a timed-out request re-enters the queue
    behind younger ones, so under drop faults a later append can
    legally commit first.
    """
    violations: list[str] = []
    tokens = [
        item.get(key) if isinstance(item, dict) else item for item in final_items
    ]
    issued_by: dict[str, str] = {}
    for client, issued in per_client_issued.items():
        for token in issued:
            issued_by[token] = client
    seen: dict[str, int] = {}
    for token in tokens:
        seen[token] = seen.get(token, 0) + 1
        if token not in issued_by:
            violations.append(f"server holds {token!r} that no client issued")
    for token, count in seen.items():
        if count > 1:
            violations.append(f"{token!r} applied {count} times (at-most-once broken)")
    for token in acked:
        if token not in seen:
            violations.append(f"acked update {token!r} lost at server")
    if not require_order:
        return violations
    for client, issued in per_client_issued.items():
        survivors = [t for t in tokens if issued_by.get(t) == client]
        in_order = [t for t in issued if t in seen]
        # Compare against first-occurrence order so a duplicate (already
        # reported above) does not cascade into a bogus ordering report.
        first_occurrence = list(dict.fromkeys(survivors))
        if first_occurrence != in_order:
            violations.append(
                f"{client}: server order {first_occurrence} breaks issue order {in_order}"
            )
    return violations


def check_linearizable_reads(reads: list[dict], final_items: list) -> list[str]:
    """Reads of an append-only list are linearizable.

    ``reads`` in each client's issue order: ``{"client", "seen"}`` (the
    appends acknowledged to anyone before the read was issued) and
    ``"items"`` (what it returned; ``None`` for a read that failed).
    Each read holds every append acknowledged before it was issued,
    nothing that did not survive to ``final_items``, and all that the
    same client's previous read held.
    """
    violations: list[str] = []
    durable = set(final_items)
    last: dict[str, set] = {}
    for index, read in enumerate(reads):
        if read["items"] is None:
            continue
        held = set(read["items"])
        client = read["client"]
        missing = sorted(set(read["seen"]) - held)
        if missing:
            violations.append(f"read {index} ({client}) misses acked appends {missing}")
        phantom = sorted(held - durable)
        if phantom:
            violations.append(f"read {index} ({client}) saw appends that were lost: {phantom}")
        went_back = sorted(last.get(client, set()) - held)
        if went_back:
            violations.append(f"read {index} ({client}) lost {went_back} an earlier read held")
        last[client] = held
    return violations


def standard_checks(
    server: Any,
    accesses: list[Any],
    conflicted_hosts: frozenset[str] = frozenset(),
) -> list[str]:
    """The chaos invariants every scenario asserts at quiescence."""
    violations: list[str] = []
    violations += check_logs_drained(accesses)
    violations += check_cache_coherent(server, accesses)
    violations += check_no_orphan_tentative(accesses, conflicted=conflicted_hosts)
    return violations


def durable_exactly_once(
    server: Any, urn: str, acked: Iterable[str], field: str, key: str = "id"
) -> list[str]:
    return check_acked_updates_durable(server, urn, acked, field=field, key=key)


# -- terminal-state hashing ---------------------------------------------------


def terminal_state(server: Any, accesses: list[Any], harness: Any) -> dict:
    """Protocol-visible terminal state, canonically structured.

    Deliberately excludes transport/scheduler counters, retry counts and
    timings: two runs that converge to the same stores, caches, logs and
    conflict sets are the *same* outcome for the oracle, no matter how
    many retransmissions it took to get there.  That is what makes
    counting unique terminal states meaningful — and what makes
    commutativity pruning checkable (pruned and unpruned explorations
    must produce identical terminal-state sets).
    """
    store_view = {}
    for urn in sorted(server.store.keys()):
        wire = server.store.get_value(urn) or {}
        store_view[urn] = {
            "version": server.store.version(urn),
            "data": wire.get("data"),
        }
    clients = []
    for access in accesses:
        cache_view = {}
        for entry in access.cache:
            cache_view[str(entry.rdo.urn)] = {
                "version": entry.rdo.version,
                "tentative": entry.tentative,
                "data": entry.rdo.data,
            }
        clients.append(
            {
                "host": access.host.name,
                "cache": cache_view,
                "pending": sorted(r.request_id for r in access.log.pending()),
            }
        )
    return {
        "server": store_view,
        "clients": clients,
        "conflicts": sorted(harness.conflicts),
    }


def state_hash(state: dict) -> str:
    canonical = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
