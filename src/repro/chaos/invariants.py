"""Post-run invariant checkers shared by tests and benchmarks.

Each checker returns a list of violation strings (empty = invariant
holds) so a caller can collect every violation across checkers instead
of stopping at the first assert.  These are the end-to-end guarantees
the fault plans must not be able to break:

* an update the client saw acknowledged is durable at the server;
* no QRPC is applied twice (at-most-once across crashes);
* every client's operation log drains empty after stabilization;
* committed cached copies agree with the server's authoritative state;
* corrupted frames were detected, never silently unmarshalled.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.net.message import same_encoding


def check_logs_drained(clients: Iterable[Any]) -> list[str]:
    """Every access manager's operation log must be empty post-run."""
    violations = []
    for access in clients:
        count = access.pending_count()
        if count:
            stuck = [r.request_id for r in access.log.pending()]
            violations.append(
                f"{access.host.name}: {count} QRPCs never acknowledged: {stuck}"
            )
    return violations


def check_acked_updates_durable(
    server: Any,
    urn: str,
    acked_ids: Iterable[str],
    field: str = "index",
) -> list[str]:
    """Acked updates are present at the server — each exactly once.

    ``field`` names the list inside the object's data; an element is
    identified by itself, or by its ``id`` if it is a dict.  A missing
    id is a lost acked update; a repeated id is a QRPC applied twice.
    """
    violations = []
    rdo = server.get_object(urn)
    if rdo is None:
        return [f"{urn} missing from server store"]
    entries = rdo.data.get(field, [])
    present: dict[str, int] = {}
    for entry in entries:
        entry_id = entry.get("id") if isinstance(entry, dict) else entry
        present[entry_id] = present.get(entry_id, 0) + 1
    for acked in acked_ids:
        if acked not in present:
            violations.append(f"acked update {acked!r} lost at server ({urn})")
    for entry_id, count in present.items():
        if count > 1:
            violations.append(
                f"update {entry_id!r} applied {count} times at server ({urn})"
            )
    return violations


def check_cache_coherent(server: Any, clients: Iterable[Any]) -> list[str]:
    """Committed cached copies must match the server's state.

    Tentative entries are skipped (they are *supposed* to diverge until
    exported).  A committed copy must never be *ahead* of the server,
    and an equal-version copy must hold byte-identical data.
    """
    violations = []
    for access in clients:
        for entry in access.cache:
            if entry.tentative:
                continue
            urn = str(entry.rdo.urn)
            authoritative = server.get_object(urn)
            if authoritative is None:
                violations.append(
                    f"{access.host.name}: cached {urn} has no server copy"
                )
                continue
            if entry.rdo.version > authoritative.version:
                violations.append(
                    f"{access.host.name}: cached {urn} v{entry.rdo.version} "
                    f"ahead of server v{authoritative.version}"
                )
            elif entry.rdo.version == authoritative.version and not same_encoding(
                entry.rdo.data, authoritative.data
            ):
                violations.append(
                    f"{access.host.name}: cached {urn} v{entry.rdo.version} "
                    f"differs from server copy at the same version"
                )
    return violations


def check_no_orphan_tentative(
    clients: Iterable[Any], conflicted: frozenset = frozenset()
) -> list[str]:
    """After stabilization nothing should still be tentative.

    Hosts named in ``conflicted`` are exempt: an unresolved
    application-level conflict legitimately leaves its loser tentative
    until manual repair.
    """
    violations = []
    for access in clients:
        if access.host.name in conflicted:
            continue
        stuck = access.cache.tentative_urns()
        if stuck:
            violations.append(
                f"{access.host.name}: still tentative after drain: {sorted(stuck)}"
            )
    return violations


def check_corruption_accounted(
    injectors: Iterable[Any], transports: Iterable[Any]
) -> list[str]:
    """Corruption detection bookkeeping is consistent.

    Every detected corrupt frame must trace back to an injected one
    (detected > injected would mean a *genuine* frame failed its CRC —
    the seal itself is broken).  Detected may be lower than injected:
    a corrupted frame can also be dropped by loss or a dead port.
    """
    injected = sum(i.injected["corrupt"] for i in injectors)
    detected = sum(t.corrupt_frames_detected for t in transports)
    if detected > injected:
        return [
            f"{detected} corrupt frames detected but only {injected} injected "
            "(a clean frame failed its CRC)"
        ]
    return []
