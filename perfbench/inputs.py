"""Seed -> inputs.  The only perfbench module that sees ``--seed``.

Every workload receives one frozen inputs object built here and nothing
else: not the seed, not its own name.  ``digest`` hashes the object so
two runs can show they were given the same inputs (and ``--selfcheck``
can show a different seed gives different ones).

Sizes: ``full`` is what the benchmark measures, ``tiny`` is for the
smoke test and ``--selfcheck``, ``e16_gate`` is the 500-client drain
whose simulated totals ``BENCH_E16.json`` pins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Any

from repro.net.link import STANDARD_LINKS
from repro.workloads.generators import generate_mail_corpus
from repro.workloads.population import ClientProfile, CohortSpec, generate_population

#: Four-class link mix, by name (the workload maps names to LinkSpecs).
FLEET_LINKS = tuple(spec.name for spec in STANDARD_LINKS)
#: Slow links carry proportionally lighter payloads (as in E16).
_FLEET_PAYLOAD_DIVISOR = (1, 1, 8, 16)

SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "fleet_drain": {
        "full": {"n_clients": 1200, "ops_per_client": 3, "vary_payload": True},
        "tiny": {"n_clients": 40, "ops_per_client": 3, "vary_payload": True},
        # Exactly repro.speed.scenario's population, so the pinned E16
        # totals must come out.
        "e16_gate": {"n_clients": 500, "ops_per_client": 3, "vary_payload": False},
    },
    "warm_read": {
        "full": {"n_docs": 400, "n_ops": 200_000},
        "tiny": {"n_docs": 24, "n_ops": 2_000},
    },
    "mail_slowlink": {
        "full": {"n_sessions": 24, "n_messages": 40},
        "tiny": {"n_sessions": 2, "n_messages": 8},
    },
    "ha_failover": {
        "full": {"n_clients": 8, "horizon_s": 180.0, "kill_at": 40.0, "down_for": 30.0},
        "tiny": {"n_clients": 4, "horizon_s": 70.0, "kill_at": 15.0, "down_for": 20.0},
    },
    "live_loopback": {
        "full": {"n_closed": 300, "n_burst": 300},
        "tiny": {"n_closed": 30, "n_burst": 30},
    },
}


# -- fleet_drain ---------------------------------------------------------------


@dataclass(frozen=True)
class FleetInputs:
    profiles: tuple[ClientProfile, ...]
    links: tuple[str, ...]
    net_seed: int
    #: Every link is down until ``reconnect_at + start_offset_s``.
    reconnect_at: float
    #: Ops of one client are submitted this far apart (a user's burst).
    burst_gap_s: float


def _fleet_drain(rng: random.Random, seed: int, size: dict) -> FleetInputs:
    payload_bytes = 2048
    cohorts = [
        CohortSpec(
            name=name,
            link_index=index,
            n_ops=size["ops_per_client"],
            payload_bytes=max(1, payload_bytes // _FLEET_PAYLOAD_DIVISOR[index]),
        )
        for index, name in enumerate(FLEET_LINKS)
    ]
    profiles = generate_population(seed, size["n_clients"], cohorts)
    if size["vary_payload"]:
        # The E16 population has the same payload sizes and golden-ratio
        # offsets under every seed, so every simulated time would read
        # the same on every run.  Seeded payload lengths (half to full
        # cohort size) make link time depend on the inputs.
        profiles = [
            dataclasses.replace(
                p, payload=p.payload[: rng.randrange(len(p.payload) // 2, len(p.payload) + 1)]
            )
            for p in profiles
        ]
    return FleetInputs(
        profiles=tuple(profiles),
        links=FLEET_LINKS,
        net_seed=rng.getrandbits(31),
        reconnect_at=300.0,
        burst_gap_s=0.0005,
    )


# -- warm_read -----------------------------------------------------------------

_WORDS = (
    "rover", "queue", "cache", "relocate", "object", "mobile", "link",
    "tentative", "commit", "import", "export", "session", "server", "log",
)

#: op kinds in ``WarmReadInputs.ops``
OP_SHORT, OP_LOOP, OP_IMPORT = 0, 1, 2


@dataclass(frozen=True)
class WarmReadInputs:
    #: Per document: (tags, words).
    docs: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]
    needles: tuple[str, ...]
    #: (kind, doc index, needle index) per operation.
    ops: tuple[tuple[int, int, int], ...]
    net_seed: int


def _warm_read(rng: random.Random, size: dict) -> WarmReadInputs:
    docs = []
    for _ in range(size["n_docs"]):
        tags = tuple(rng.randrange(1000) for _ in range(rng.randint(1, 48)))
        words = tuple(rng.choice(_WORDS) for _ in range(rng.randint(20, 80)))
        docs.append((tags, words))
    ops = []
    for _ in range(size["n_ops"]):
        draw = rng.random()
        kind = OP_SHORT if draw < 0.6 else OP_LOOP if draw < 0.9 else OP_IMPORT
        ops.append((kind, rng.randrange(size["n_docs"]), rng.randrange(len(_WORDS))))
    return WarmReadInputs(
        docs=tuple(docs), needles=_WORDS, ops=tuple(ops), net_seed=rng.getrandbits(31)
    )


# -- mail_slowlink -------------------------------------------------------------


@dataclass(frozen=True)
class MailSession:
    #: (msg_id, sender, subject, body) per message of the one folder.
    messages: tuple[tuple[str, str, str, str], ...]
    #: msg ids the user reads / then deletes while disconnected.
    read_ids: tuple[str, ...]
    deleted_ids: tuple[str, ...]
    #: (reply id, subject, body) appended to the outbox.
    replies: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class MailInputs:
    sessions: tuple[MailSession, ...]
    folder: str
    net_seed: int
    #: Connected until ``disconnect_at``, back at ``reconnect_at``.
    disconnect_at: float
    reconnect_at: float


def _mail_slowlink(rng: random.Random, size: dict) -> MailInputs:
    sessions = []
    for _ in range(size["n_sessions"]):
        corpus = generate_mail_corpus(
            seed=rng.getrandbits(31),
            n_folders=1,
            messages_per_folder=size["n_messages"],
            mean_body_bytes=1024,
        )
        messages = corpus.folders["inbox"]
        ids = [m.msg_id for m in messages]
        read_ids = [i for i in ids if rng.random() < 0.85] or ids[:1]
        deleted_ids = [i for i in read_ids if rng.random() < 0.5]
        replies = tuple(
            (f"reply-{n}", f"re {n}", "x" * rng.randint(80, 1200))
            for n in range(rng.randint(4, 10))
        )
        sessions.append(
            MailSession(
                messages=tuple((m.msg_id, m.sender, m.subject, m.body) for m in messages),
                read_ids=tuple(read_ids),
                deleted_ids=tuple(deleted_ids),
                replies=replies,
            )
        )
    return MailInputs(
        sessions=tuple(sessions),
        folder="inbox",
        net_seed=rng.getrandbits(31),
        disconnect_at=900.0,
        reconnect_at=2000.0,
    )


# -- ha_failover ---------------------------------------------------------------


@dataclass(frozen=True)
class HAInputs:
    #: Per client: (due time, payload or None) per op; None is a ``bump``
    #: (mutating), bytes an ``echo`` of that payload.
    schedules: tuple[tuple[tuple[float, Any], ...], ...]
    net_seed: int
    horizon_s: float
    kill_at: float
    down_for: float


def _ha_failover(rng: random.Random, size: dict) -> HAInputs:
    period = 0.5  # 2 ops/s per client, fixed schedule
    schedules = []
    for _ in range(size["n_clients"]):
        phase = rng.random() * period
        ops = []
        step = 0
        while phase + step * period < size["horizon_s"]:
            payload = None if step % 2 == 0 else rng.randbytes(rng.randint(64, 1024))
            ops.append((phase + step * period, payload))
            step += 1
        schedules.append(tuple(ops))
    return HAInputs(
        schedules=tuple(schedules),
        net_seed=rng.getrandbits(31),
        horizon_s=size["horizon_s"],
        kill_at=size["kill_at"],
        down_for=size["down_for"],
    )


# -- live_loopback -------------------------------------------------------------


@dataclass(frozen=True)
class LiveInputs:
    #: Payload (``echo``) or None (``bump``) per op; phase A is a closed
    #: loop with one outstanding, phase B a backlog queued at once.
    closed: tuple[Any, ...]
    burst: tuple[Any, ...]


def _live_loopback(rng: random.Random, size: dict) -> LiveInputs:
    def ops(n: int) -> tuple:
        return tuple(
            None if i % 3 == 0 else rng.randbytes(rng.randint(64, 512)) for i in range(n)
        )

    return LiveInputs(closed=ops(size["n_closed"]), burst=ops(size["n_burst"]))


# -- entry points --------------------------------------------------------------


def generate(workload: str, seed: int, size: str = "full") -> Any:
    """Build ``workload``'s inputs from ``seed`` (same seed, same inputs)."""
    params = SIZES[workload][size]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "fleet_drain":
        return _fleet_drain(rng, seed, params)
    if workload == "warm_read":
        return _warm_read(rng, params)
    if workload == "mail_slowlink":
        return _mail_slowlink(rng, params)
    if workload == "ha_failover":
        return _ha_failover(rng, params)
    if workload == "live_loopback":
        return _live_loopback(rng, params)
    raise KeyError(workload)


def _feed(h: "hashlib._Hash", value: Any) -> None:
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, bytes):
        h.update(b"b%d:" % len(value) + value)
    elif isinstance(value, str):
        raw = value.encode()
        h.update(b"s%d:" % len(raw) + raw)
    elif isinstance(value, float):
        h.update(b"f" + struct.pack(">d", value))
    elif isinstance(value, int):  # bool included
        h.update(b"i%d;" % value)
    elif value is None:
        h.update(b"n")
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(inputs: Any) -> str:
    """Stable hash of an inputs object (independent of PYTHONHASHSEED)."""
    h = hashlib.sha256()
    _feed(h, inputs)
    return h.hexdigest()[:16]
