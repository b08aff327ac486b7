"""Layer contracts: which effects are allowed where.

``repro.lint.rules`` is the precedent for this module's role — a pile
of declarative tables shared between the static tooling and the
runtime, so the two can never drift apart.  Here the tables answer a
different question: *which side effects may code in each layer of the
tree perform, directly or transitively?*

Three kinds of contract:

* **Scope contracts** (:data:`LAYER_CONTRACTS`) — every function whose
  file lives under one of the contract's path prefixes must avoid the
  forbidden effects.  No analysed code outside the sanctioned files may
  read the real clock, sleep, draw unseeded randomness, or iterate in
  hash order (``deterministic``); the simulation kernel, the Rover
  core, and the simulated network may not reach the clock, unseeded
  randomness or real sockets even through a callee elsewhere
  (``sim-pure``): a scenario's entire trace must be a pure function of
  its parameters and seed.

* **Entry-point contracts** — functions *registered* somewhere
  (QRPC server handlers, compaction rules) must be **replay-pure**:
  the whole call tree under them may not reach any effect in
  :data:`REPLAY_FORBIDS`, because the stable log replays them and the
  paper's coherence story assumes re-execution is deterministic and
  idempotent.  Marked via :func:`replay_pure` or discovered from
  ``transport.register(...)`` call sites.

* **Marshal contracts** — ``to_wire``/``from_wire`` and anything
  marked :func:`marshal_stable` may not iterate unordered containers
  (:data:`MARSHAL_FORBIDS`): bytes-on-wire must not depend on the
  per-process string hash salt.

This module imports only the standard library so that ``repro.core``,
``repro.net`` and ``repro.perf`` can import the decorators without
cycles.
"""

from __future__ import annotations

import enum
from typing import Callable, TypeVar


class Effect(enum.Enum):
    """The effect lattice tracked by :mod:`repro.lint.effects`."""

    WALLCLOCK = "WALLCLOCK"           # time.time(), datetime.now(), ...
    UNSEEDED_RNG = "UNSEEDED_RNG"     # module-level random.*, os.urandom, uuid4
    REAL_SOCKET = "REAL_SOCKET"       # socket.socket() and friends
    FS_IO = "FS_IO"                   # open(), os file ops, pathlib writes
    BLOCKING_SLEEP = "BLOCKING_SLEEP" # time.sleep()
    DURABLE_LOG_WRITE = "DURABLE_LOG_WRITE"  # StableLog.append and backends
    GLOBAL_MUTATION = "GLOBAL_MUTATION"      # assignment through `global`
    UNORDERED_ITER = "UNORDERED_ITER"        # iterating a set in hash order

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return self.value


#: Effects a replayed function may never reach: replaying the stable
#: log must be deterministic (no clock/RNG/iteration-order input) and
#: idempotent (no I/O or global state outside the object store).
REPLAY_FORBIDS = frozenset(
    {
        Effect.WALLCLOCK,
        Effect.UNSEEDED_RNG,
        Effect.REAL_SOCKET,
        Effect.FS_IO,
        Effect.BLOCKING_SLEEP,
        Effect.DURABLE_LOG_WRITE,
        Effect.GLOBAL_MUTATION,
    }
)

#: Effects a marshal path may never reach: wire bytes are compared and
#: hashed across processes, so hash-order iteration is a silent
#: cross-process divergence.
MARSHAL_FORBIDS = frozenset({Effect.UNORDERED_ITER})


class LayerContract:
    """Every function under ``prefixes`` must avoid ``forbids``."""

    __slots__ = ("name", "prefixes", "forbids", "rationale")

    def __init__(
        self,
        name: str,
        prefixes: tuple[str, ...],
        forbids: frozenset[Effect],
        rationale: str,
    ) -> None:
        self.name = name
        self.prefixes = prefixes
        self.forbids = forbids
        self.rationale = rationale

    def covers(self, relpath: str) -> bool:
        """True when ``relpath`` (posix, relative to the source root,
        e.g. ``repro/sim/events.py``) falls under this contract.  The
        empty prefix covers every analysed file."""
        normalized = relpath.replace("\\", "/")
        for prefix in self.prefixes:
            if not prefix or prefix.endswith("/"):
                if normalized.startswith(prefix) or ("/" + prefix) in normalized:
                    return True
            elif normalized == prefix or normalized.endswith("/" + prefix):
                return True
        return False


#: The scope contracts, checked by ``python -m repro.lint src/repro``.
#: A function and effect both break is reported once, under the first.
LAYER_CONTRACTS: tuple[LayerContract, ...] = (
    LayerContract(
        name="sim-pure",
        prefixes=("repro/sim/", "repro/core/", "repro/net/simnet.py"),
        forbids=frozenset(
            {Effect.WALLCLOCK, Effect.UNSEEDED_RNG, Effect.REAL_SOCKET}
        ),
        rationale=(
            "simulated time and seeded RNG are the only nondeterminism "
            "sources a scenario may have"
        ),
    ),
    LayerContract(
        name="deterministic",
        prefixes=("",),
        forbids=frozenset(
            {
                Effect.WALLCLOCK,
                Effect.UNSEEDED_RNG,
                Effect.BLOCKING_SLEEP,
                Effect.UNORDERED_ITER,
            }
        ),
        rationale=(
            "event traces, stable logs, and wire bytes must not depend on "
            "the real clock, an unseeded RNG, or the per-process string "
            "hash salt; only the sanctioned files below may"
        ),
    ),
)


#: Files allowed to touch the real clock (``WALLCLOCK`` and
#: ``BLOCKING_SLEEP``).  This used to be a blanket ``repro/live/``
#: exemption; only these modules legitimately bridge simulated and real
#: time.
WALLCLOCK_SANCTIONED: tuple[str, ...] = (
    "repro/live/clock.py",
    "repro/live/transport.py",
    # The speed benchmark measures the real CPU cost of running the
    # (still fully deterministic) simulation; all its clock reads are
    # confined to this one module.
    "repro/speed/measure.py",
)

#: Files allowed to construct RNGs.  ``repro/sim/rng.py`` derives
#: seeded ``random.Random`` streams; nothing else may.
RNG_SANCTIONED: tuple[str, ...] = ("repro/sim/rng.py",)

#: Files allowed to open real sockets.
SOCKET_SANCTIONED: tuple[str, ...] = ("repro/live/transport.py",)


def sanctioned_for(effect: Effect) -> tuple[str, ...]:
    """Paths exempt from scope-contract findings for ``effect``."""
    if effect in (Effect.WALLCLOCK, Effect.BLOCKING_SLEEP):
        return WALLCLOCK_SANCTIONED
    if effect is Effect.UNSEEDED_RNG:
        return RNG_SANCTIONED
    if effect is Effect.REAL_SOCKET:
        return SOCKET_SANCTIONED
    return ()


# ---------------------------------------------------------------------------
# Entry-point discovery tables
# ---------------------------------------------------------------------------

#: Qualified names (``module:Class.method`` or ``module:function``)
#: that are replay entry points even though no decorator or
#: ``register()`` call site names them.  Keep this list short — prefer
#: the decorator.
DECLARED_ENTRY_POINTS: dict[str, str] = {
    # marshal() walks arbitrary structured values into wire form; its
    # output is hashed and diffed across hosts.
    "repro/net/message.py:marshal": "marshal",
    "repro/net/message.py:unmarshal": "marshal",
    # The non-allocating sizer mirrors marshal()'s walk without
    # building bytes; it must honor the same iteration-order contract
    # or its byte counts drift from the real encoding.
    "repro/net/message.py:marshalled_size": "marshal",
    # The walkers behind those three (each walks a whole value in one
    # call, on a stack of its own), named directly:
    # Premarshalled.__init__ enters _encode without going through
    # marshal().
    "repro/net/message.py:_encode": "marshal",
    "repro/net/message.py:_decode": "marshal",
    "repro/net/message.py:_size": "marshal",
    "repro/net/message.py:Premarshalled.__init__": "marshal",
}

#: Functions whose *declared* effect is accepted as their whole story:
#: the analyzer uses this intrinsic set and does not descend into their
#: bodies.  The justification lives here, next to the declaration.
DECLARED_EFFECTS: dict[str, frozenset[Effect]] = {
    # StableLog.append is the durability point by design; replayed
    # handlers must stay above it (the access manager logs, handlers
    # never re-log).
    "repro/storage/stable_log.py:StableLog.append": frozenset(
        {Effect.DURABLE_LOG_WRITE}
    ),
    # The file backend's append writes through a handle opened in
    # __init__; the write is file I/O even though no open() appears in
    # the method body.
    "repro/storage/stable_log.py:FileLogBackend.append": frozenset(
        {Effect.DURABLE_LOG_WRITE, Effect.FS_IO}
    ),
}

#: Functions asserted effect-free despite suspicious bodies — each with
#: a reason the analyzer cannot infer.
DECLARED_PURE: frozenset[str] = frozenset(
    {
        # make_rng derives a Random from an explicit (seed, stream)
        # pair — the construction is the sanctioned seeding point.
        "repro/sim/rng.py:make_rng",
    }
)


_F = TypeVar("_F", bound=Callable)


def replay_pure(fn: _F) -> _F:
    """Mark ``fn`` as a replay entry point.

    Identity at runtime; ``repro.lint.effects`` treats every function
    carrying this decorator — and every override of a decorated base
    method — as a root that must avoid :data:`REPLAY_FORBIDS`.
    """
    return fn


def marshal_stable(fn: _F) -> _F:
    """Mark ``fn`` as a marshal path (no unordered iteration).

    Identity at runtime; checked transitively against
    :data:`MARSHAL_FORBIDS` by ``python -m repro.lint src/repro``.
    """
    return fn
