"""Cohort-vectorized client population generation (repro.speed).

Fleet scenarios used to generate each client's workload independently:
10,000 clients meant 10,000 RNG streams and 10,000 distinct payload
bodies — most of the build time of a large drain went into workload
synthesis rather than the system under test.  This module generates the
population *per cohort* instead:

* Clients are partitioned into cohorts by link class.  All randomness
  for a cohort comes from one ``make_rng(seed, "population:<cohort>")``
  stream, drawn as arrays up front (one Python-level loop per cohort,
  not per client).
* Payload bodies come from a small per-cohort pool that clients share
  (:data:`POOL_SIZE` variants).  Identical to the eye of the protocol —
  every payload still has the cohort's size and marshals identically —
  but the synthesis cost is O(cohorts × pool) instead of
  O(clients × payload).
* Submission stagger is arithmetic (golden-ratio low-discrepancy
  sequence), so it costs nothing and spreads load evenly no matter the
  cohort size.

Determinism: the profile list depends only on ``(seed, n_clients,
link class list, per-cohort parameters)`` — same inputs, same
population, every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import make_rng

#: Golden-ratio conjugate for low-discrepancy stagger.
_PHI_CONJUGATE = 0.6180339887498949
#: Distinct payload bodies per cohort.
POOL_SIZE = 8


@dataclass(frozen=True)
class ClientProfile:
    """Everything a fleet scenario needs to wire up one client."""

    client_id: int
    cohort: str
    link_index: int
    #: Submission start offset within the scenario's stagger window.
    start_offset_s: float
    n_ops: int
    payload: bytes


@dataclass(frozen=True)
class CohortSpec:
    """Per-link-class workload shape."""

    name: str
    link_index: int
    n_ops: int
    payload_bytes: int


def _payload_pool(rng, cohort: str, size: int) -> list[bytes]:
    """:data:`POOL_SIZE` distinct bodies of exactly ``size`` bytes."""
    pool = []
    for variant in range(POOL_SIZE):
        head = f"{cohort}:{variant}:".encode()
        if len(head) >= size:
            pool.append(head[:size])
            continue
        filler = bytes(rng.randrange(256) for _ in range(min(64, size - len(head))))
        body = head + filler
        # Tile the random filler out to the target size: the bytes stay
        # cohort/variant-distinct without per-byte RNG draws.
        repeats = (size - len(body)) // max(1, len(filler)) + 1
        body += filler * repeats
        pool.append(body[:size])
    return pool


def generate_population(
    seed: int,
    n_clients: int,
    cohorts: list[CohortSpec],
    stagger_window_s: float = 60.0,
) -> list[ClientProfile]:
    """Generate ``n_clients`` profiles, cohort by cohort.

    Client ``i`` joins cohort ``i % len(cohorts)`` (the same round-robin
    the multi-client testbed uses for ``link_specs``), so profile
    ``i``'s link index always matches the testbed's link assignment.
    """
    n_cohorts = len(cohorts)
    members: list[list[int]] = [[] for _ in range(n_cohorts)]
    for client_id in range(n_clients):
        members[client_id % n_cohorts].append(client_id)

    profiles: list[ClientProfile] = [None] * n_clients  # type: ignore[list-item]
    for cohort_index, spec in enumerate(cohorts):
        rng = make_rng(seed, f"population:{spec.name}")
        pool = _payload_pool(rng, spec.name, spec.payload_bytes)
        for rank, client_id in enumerate(members[cohort_index]):
            fraction = (client_id * _PHI_CONJUGATE) % 1.0
            profiles[client_id] = ClientProfile(
                client_id=client_id,
                cohort=spec.name,
                link_index=spec.link_index,
                start_offset_s=fraction * stagger_window_s,
                n_ops=spec.n_ops,
                payload=pool[rank % POOL_SIZE],
            )
    return profiles
