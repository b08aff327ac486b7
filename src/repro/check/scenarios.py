"""Named checker scenarios: small protocol workloads with oracles.

Each scenario builds a fresh testbed, installs the decision-point seams
(:mod:`repro.check.seam`), drives 1–3 model clients through a short
QRPC program, runs to quiescence, and validates the terminal state.
One ``Scenario.run()`` call is one *interleaving*: the installed
:class:`Chooser` resolves every decision point from a sparse
``{position: choice}`` trace (missing positions take the fault-free
default), so the same trace always reproduces the same run bit for
bit — that is what the explorer enumerates and the replayer pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.invariants import check_acked_updates_durable
from repro.check import oracle
from repro.check.seam import (
    CheckHarness,
    SwitchablePolicy,
    arm_crash_points,
    count_dispatch_while_down,
    install_injectors,
)
from repro.core.access_manager import AccessManagerError
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import CSLIP_14_4
from repro.net.simnet import Delivery
from repro.testbed import build_multi_client_testbed


@dataclass
class Decision:
    """One resolved decision point in a run's trace."""

    n: int
    chosen: int
    meta: dict


@dataclass
class RunResult:
    """Everything one interleaving produced."""

    scenario: str
    trace: list[Decision]
    #: Sparse non-default choices actually taken — the replayable trace.
    choices: dict[int, int]
    violations: list[str]
    state: dict
    state_hash: str
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class Chooser:
    """Positional choice provider: ``{position: choice}``, default 0.

    Positions index decision points in the order the run reaches them.
    Because everything upstream of a decision is a deterministic
    function of the earlier choices, a position means the same thing on
    every run that shares the earlier choices — sparse traces replay
    exactly.
    """

    def __init__(self, choices: Optional[dict[int, int]] = None) -> None:
        self.choices = dict(choices or {})
        self.trace: list[Decision] = []

    def __call__(self, n: int, meta: dict) -> int:
        position = len(self.trace)
        choice = self.choices.get(position, 0)
        if not 0 <= choice < n:
            choice = 0
        self.trace.append(Decision(n, choice, meta))
        return choice

    def taken(self) -> dict[int, int]:
        return {
            index: decision.chosen
            for index, decision in enumerate(self.trace)
            if decision.chosen != 0
        }


# -- the model objects --------------------------------------------------------

BOX_CODE = '''
def add(state, item):
    state["items"] = state["items"] + [item]
    return len(state["items"])

def read(state):
    return state["items"]
'''

BOX_INTERFACE = RDOInterface(
    [MethodSpec("add", mutates=True), MethodSpec("read")]
)

NOTE_CODE = '''
def read(state):
    return state["text"]

def set_text(state, text):
    state["text"] = text
    return text
'''

NOTE_INTERFACE = RDOInterface(
    [MethodSpec("read"), MethodSpec("set_text", mutates=True)]
)


def make_box(authority: str, path: str = "check/box") -> RDO:
    return RDO(
        URN(authority, path),
        "box",
        {"items": []},
        code=BOX_CODE,
        interface=BOX_INTERFACE,
    )


def make_note(authority: str, path: str, text: str, pad: int = 0) -> RDO:
    data: dict[str, Any] = {"text": text}
    if pad:
        data["pad"] = "x" * pad
    return RDO(URN(authority, path), "note", data, code=NOTE_CODE, interface=NOTE_INTERFACE)


# -- scenario skeleton --------------------------------------------------------


class Scenario:
    """One named workload + oracle; subclasses fill in the hooks."""

    name = ""
    description = ""
    #: Interleavings a default sweep explores, per committed depth;
    #: ``python -m repro.check`` fails on any other count.
    interleavings: dict[int, int] = {}
    n_clients = 1
    flap_choices = False
    crash_budget = 0
    dup_delay_s = 3.0
    delay_s = 0.25
    link_policy_factory: Optional[type] = None

    # hooks -------------------------------------------------------------

    def build(self) -> Any:
        """Return a wired :class:`~repro.testbed.Testbed`."""
        raise NotImplementedError

    def contention(self, ctx: dict) -> tuple[frozenset[str], frozenset[str]]:
        """(contended urns, written urns) for commutativity pruning."""
        raise NotImplementedError

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        raise NotImplementedError

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        raise NotImplementedError

    # machinery ---------------------------------------------------------

    def run(
        self, chooser: Optional[Chooser] = None, pruning: bool = True
    ) -> RunResult:
        bed = self.build()
        ctx: dict = {}
        self.populate(bed, ctx)
        contended, written = self.contention(ctx)
        harness = CheckHarness(
            bed.sim,
            contended=contended,
            written=written,
            pruning=pruning,
            flap_choices=self.flap_choices,
            crash_budget=self.crash_budget,
            dup_delay_s=self.dup_delay_s,
            delay_s=self.delay_s,
        )
        install_injectors(harness, bed.network.links)
        for stack in bed.clients:
            # Fast virtual-time retries so every run settles quickly.
            stack.scheduler.base_backoff = 0.05
            stack.scheduler.max_backoff = 0.25
            count_dispatch_while_down(harness, stack.transport)
            stack.access.on_conflict(
                lambda report, host=stack.host.name: harness.conflicts.append(
                    (host, report.urn)
                )
            )
            if self.crash_budget > 0:
                arm_crash_points(harness, stack)
        chooser = chooser if chooser is not None else Chooser()
        bed.sim.decision_provider = chooser
        self.drive(bed, harness, ctx)
        accesses = [stack.access for stack in bed.clients]
        violations = self.check(bed, harness, ctx)
        state = oracle.terminal_state(bed.server, accesses, harness)
        return RunResult(
            scenario=self.name,
            trace=list(chooser.trace),
            choices=chooser.taken(),
            violations=violations,
            state=state,
            state_hash=oracle.state_hash(state),
            stats={
                "decision_points": harness.decision_points,
                "pruned_points": harness.pruned_points,
                "dispatch_while_down": harness.dispatch_while_down,
                "crashes": len(harness.crashes),
                "virtual_time": bed.sim.now,
            },
        )

    def populate(self, bed: Any, ctx: dict) -> None:
        raise NotImplementedError

    # shared driving helpers --------------------------------------------

    def _drained(self, bed: Any) -> bool:
        return all(
            stack.access.pending_count() == 0 and stack.scheduler.idle()
            for stack in bed.clients
        )

    def drain(self, bed: Any, timeout: float = 600.0) -> bool:
        return bed.sim.run_until(lambda: self._drained(bed), timeout=timeout)

    def settle(self, bed: Any, harness: CheckHarness) -> None:
        """Quiescence: drain, outwait every delayed replay, drain again."""
        self.drain(bed)
        tail = self.dup_delay_s + self.delay_s + harness.FLAP_HEAL_S + 2.0
        bed.sim.run(until=bed.sim.now + tail)
        self.drain(bed)


# -- warm-import races --------------------------------------------------------


class WarmImportScenario(Scenario):
    """2–3 clients race imports and server-side appends on one object.

    The richest pure-message-race suite: every request/reply frame of
    the shared object can be dropped, duplicated (late replay) or
    delayed.  The oracle demands the terminal item list be a legal
    at-most-once merge of the clients' programs — a late duplicate of a
    *settled* append that re-applies (the acknowledged-id-watermark
    eviction bug) shows up as an item applied twice.
    """

    name = "warm-import"
    description = "import + server-append races between clients on one object"
    interleavings = {1: 145}
    n_clients = 3
    adds_pipelined = 6
    adds_after_drain = 1

    def build(self) -> Any:
        return build_multi_client_testbed(self.n_clients, rpc_timeout_s=1.0)

    def populate(self, bed: Any, ctx: dict) -> None:
        box = make_box(bed.authority)
        bed.server.put_object(box)
        ctx["urn"] = str(box.urn)
        # One private note per client: real traffic on uncontended
        # objects, which pruning may soundly refuse to branch on.
        ctx["private"] = {}
        for stack in bed.clients:
            note = make_note(bed.authority, f"check/{stack.host.name}", "hi")
            bed.server.put_object(note)
            ctx["private"][stack.host.name] = str(note.urn)

    def contention(self, ctx: dict) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset({ctx["urn"]}), frozenset({ctx["urn"]})

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        issued: dict[str, list[str]] = {}
        acked: set[str] = set()
        ctx["issued"], ctx["acked"] = issued, acked
        sessions = {}
        for stack in bed.clients:
            sessions[stack.host.name] = stack.access.create_session()
            stack.access.import_(urn, session=sessions[stack.host.name])
            stack.access.import_(
                ctx["private"][stack.host.name], session=sessions[stack.host.name]
            )
        self.drain(bed)

        def add(stack: Any, token: str) -> None:
            issued.setdefault(stack.host.name, []).append(token)
            stack.access.invoke_remote(
                urn, "add", [token], session=sessions[stack.host.name]
            ).then(lambda _value, t=token: acked.add(t))

        for round_index in range(self.adds_pipelined):
            for stack in bed.clients:
                add(stack, f"{stack.host.name}-{round_index}")
        self.drain(bed)
        # Issued after the earlier appends settled client-side, these
        # carry an acknowledged-id watermark past them — the envelope
        # that lets the server prune its at-most-once cache.
        for stack in bed.clients:
            add(stack, f"{stack.host.name}-final")
        self.settle(bed, harness)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        accesses = [stack.access for stack in bed.clients]
        violations = oracle.standard_checks(
            bed.server,
            accesses,
            conflicted_hosts=frozenset(host for host, _ in harness.conflicts),
        )
        violations += check_acked_updates_durable(
            bed.server, ctx["urn"], sorted(ctx["acked"]), field="items"
        )
        rdo = bed.server.get_object(ctx["urn"])
        final_items = rdo.data.get("items", []) if rdo is not None else []
        violations += oracle.check_sequential_append(
            final_items, ctx["issued"], sorted(ctx["acked"])
        )
        if harness.dispatch_while_down:
            violations.append(
                f"{harness.dispatch_while_down} dispatches attempted while link down"
            )
        return violations


# -- crash during queue drain -------------------------------------------------


class CrashDrainScenario(WarmImportScenario):
    """One client drains a queued backlog through crashes and link flaps.

    Adds the crash choice at every stable-log record boundary and the
    mid-transfer link-flap choice to the frame alternatives; the
    scheduler runs with a window of one so a flapped transfer leaves
    parked messages behind it (the stale-route-cache window).
    """

    name = "crash-during-drain"
    description = "single client: crash at log-flush boundaries, flap mid-transfer"
    interleavings = {2: 873}
    n_clients = 1
    adds_pipelined = 3
    adds_after_drain = 0
    flap_choices = True
    crash_budget = 1

    def build(self) -> Any:
        # The 14.4k dial-up link makes transmit time dominate the log
        # flush, so later appends genuinely queue behind an in-flight
        # one (a window of one) — the backlog a mid-transfer flap
        # strands, and the state the stale-route-cache bug needs.
        bed = build_multi_client_testbed(
            self.n_clients,
            link_spec=CSLIP_14_4,
            policies=[SwitchablePolicy() for _ in range(self.n_clients)],
            rpc_timeout_s=2.0,
        )
        for stack in bed.clients:
            stack.scheduler.max_inflight = 1
        return bed

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        issued: dict[str, list[str]] = {}
        acked: set[str] = set()
        ctx["issued"], ctx["acked"] = issued, acked
        stack = bed.clients[0]
        session = stack.access.create_session()
        stack.access.import_(urn, session=session)
        self.drain(bed)
        for index in range(self.adds_pipelined):
            token = f"{stack.host.name}-{index}"
            issued.setdefault(stack.host.name, []).append(token)
            # The stack's access manager is replaced on crash; late
            # promises from a dead incarnation simply never ack.
            stack.access.invoke_remote(urn, "add", [token], session=session).then(
                lambda _value, t=token: acked.add(t)
            )
        self.settle(bed, harness)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        violations = super().check(bed, harness, ctx)
        return violations


# -- a coalesced reconnect frame ------------------------------------------------


class CoalescedDrainScenario(CrashDrainScenario):
    """A disconnected backlog returns as one coalesced frame.

    The appends are queued while the link is down and each is padded
    past the 14.4k link's break-even size, so on reconnection they
    leave as one ``rover.batch`` exchange.  Every frame alternative now
    hits all members at once — the frame dropped, replayed late after
    its members settled, its one reply lost — and a further append
    issued while the frame is out puts a stable-log flush, hence a
    crash choice, between send and reply.  The oracle is the one a lone
    request faces: each member applied at most once, in issue order.
    """

    name = "coalesced-drain"
    description = "single client: a coalesced reconnect frame dropped, replayed, crashed under"
    interleavings = {2: 611}
    down_s = 5.0
    #: Pads an append's request body past ~175 B, where its bytes cost
    #: more than the link's propagation delay.
    token_pad = "-" + "x" * 80

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        issued: dict[str, list[str]] = {}
        acked: set[str] = set()
        ctx["issued"], ctx["acked"] = issued, acked
        stack = bed.clients[0]
        session = stack.access.create_session()
        stack.access.import_(urn, session=session)
        self.drain(bed)

        def add(label: str) -> None:
            token = f"{stack.host.name}-{label}{self.token_pad}"
            issued.setdefault(stack.host.name, []).append(token)
            stack.access.invoke_remote(urn, "add", [token], session=session).then(
                lambda _value, t=token: acked.add(t)
            )

        stack.link.policy.force_down(bed.sim.now, self.down_s)
        stack.link._handle_transition()
        reconnect_at = bed.sim.now + self.down_s
        for index in range(self.adds_pipelined):
            add(str(index))
        # Logged while the frame carrying the backlog is on the wire.
        bed.sim.schedule_at(reconnect_at + 0.3, add, "late")
        bed.sim.run(until=reconnect_at + 0.3)
        self.settle(bed, harness)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        violations = super().check(bed, harness, ctx)
        if bed.clients[0].scheduler.batches_sent == 0:
            violations.append("the backlog never left as a coalesced frame")
        return violations


# -- conflict-resolve vs concurrent export ------------------------------------


class ConflictExportScenario(Scenario):
    """Two clients export conflicting updates to one unresolvable object.

    Exactly one export must commit and exactly one must be reported as
    a conflict, whatever the interleaving; faults must not double-count
    either outcome or leave a winner tentative.
    """

    name = "conflict-export"
    description = "concurrent conflicting exports; exactly one commit, one conflict"
    interleavings = {2: 325}
    n_clients = 2

    def build(self) -> Any:
        return build_multi_client_testbed(self.n_clients, rpc_timeout_s=1.0)

    def populate(self, bed: Any, ctx: dict) -> None:
        note = make_note(bed.authority, "check/shared-note", "start")
        bed.server.put_object(note)
        ctx["urn"] = str(note.urn)

    def contention(self, ctx: dict) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset({ctx["urn"]}), frozenset({ctx["urn"]})

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        ctx["values"] = {}
        sessions = {}
        for stack in bed.clients:
            sessions[stack.host.name] = stack.access.create_session()
            stack.access.import_(urn, session=sessions[stack.host.name])
        self.drain(bed)
        for stack in bed.clients:
            value = f"from-{stack.host.name}"
            ctx["values"][stack.host.name] = value
            stack.access.invoke(
                urn, "set_text", value, session=sessions[stack.host.name]
            )
        self.settle(bed, harness)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        accesses = [stack.access for stack in bed.clients]
        conflicted = frozenset(host for host, _ in harness.conflicts)
        violations = oracle.standard_checks(
            bed.server, accesses, conflicted_hosts=conflicted
        )
        rdo = bed.server.get_object(ctx["urn"])
        text = rdo.data.get("text") if rdo is not None else None
        legal = set(ctx["values"].values())
        if text not in legal:
            violations.append(f"server text {text!r} not among exports {sorted(legal)}")
        if bed.server.exports_committed != 1:
            violations.append(
                f"{bed.server.exports_committed} exports committed (expected exactly 1)"
            )
        if len(conflicted) != 1:
            violations.append(
                f"conflicts reported to {sorted(conflicted)} (expected exactly one loser)"
            )
        return violations


# -- delta-ship negotiation ---------------------------------------------------


class DeltaShipScenario(Scenario):
    """Single writer with delta shipping on and a tiny at-most-once cache.

    A single sequential writer must never see a conflict — but a late
    replay of an export whose cached reply was evicted re-negotiates
    against the object's own history and, without the committer index,
    manufactures one.  The small ``applied_cache_cap`` makes the
    eviction reachable within a depth-2 trace.
    """

    name = "delta-ship"
    description = "delta-shipped exports + warm re-import under a tiny applied cache"
    interleavings = {2: 830}
    n_clients = 1
    crash_budget = 1
    edits = 3

    def build(self) -> Any:
        bed = build_multi_client_testbed(
            self.n_clients, rpc_timeout_s=1.0, delta_shipping=True
        )
        bed.server.applied_cache_cap = 2
        return bed

    def populate(self, bed: Any, ctx: dict) -> None:
        note = make_note(bed.authority, "check/padded-note", "v0", pad=400)
        bed.server.put_object(note)
        ctx["urn"] = str(note.urn)

    def contention(self, ctx: dict) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset({ctx["urn"]}), frozenset({ctx["urn"]})

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        stack = bed.clients[0]
        session = stack.access.create_session()
        stack.access.import_(urn, session=session)
        self.drain(bed)
        for index in range(1, self.edits + 1):
            # Local edit marks the copy tentative and auto-queues an
            # export; draining between edits keeps each export a clean
            # fast-forward (this writer can never legitimately conflict).
            try:
                stack.access.invoke(urn, "set_text", f"v{index}", session=session)
            except AccessManagerError:
                # A crash choice wiped the warm cache (imports are not
                # durable; only queued exports replay from the stable
                # log).  Recover the way a real client does: fresh
                # session, re-import, retry the edit.
                session = stack.access.create_session()
                stack.access.import_(urn, session=session)
                self.drain(bed)
                stack.access.invoke(urn, "set_text", f"v{index}", session=session)
            self.drain(bed)
        stack.access.import_(urn, session=session, refresh=True)
        self.settle(bed, harness)
        ctx["final"] = f"v{self.edits}"

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        accesses = [stack.access for stack in bed.clients]
        violations = oracle.standard_checks(bed.server, accesses)
        if bed.server.exports_conflicted or harness.conflicts:
            violations.append(
                "single sequential writer saw a conflict "
                f"(server counted {bed.server.exports_conflicted}, "
                f"clients saw {harness.conflicts})"
            )
        rdo = bed.server.get_object(ctx["urn"])
        text = rdo.data.get("text") if rdo is not None else None
        if text != ctx["final"]:
            violations.append(
                f"server text {text!r} != last committed edit {ctx['final']!r}"
            )
        if harness.dispatch_while_down:
            violations.append(
                f"{harness.dispatch_while_down} dispatches attempted while link down"
            )
        return violations


# -- primary failover ---------------------------------------------------------


class HAFailoverScenario(Scenario):
    """One client appends through a primary kill in a 3-member group.

    The first two decision points pick *when* the primary dies relative
    to the append burst and whether it later rejoins (anti-entropy) or
    stays down; every client frame then carries the usual
    drop/dup/delay alternatives, every answer to an election poll
    deliver/drop/delay, and one candidate may die between sending its
    poll and deciding it, to restart :attr:`candidate_down_s` later
    (its voters hold a promise nobody will redeem).  Whatever the
    interleaving, the oracle
    demands: every acked append durable exactly once on the current
    primary, appends a legal sequential merge, exactly one live
    primary, all live members on one epoch, and one state on every live
    member -- all three when the ex-primary rejoined -- once the writes
    quiesced: state vectors, committer indexes and lock tables.
    """

    name = "ha-failover"
    description = "primary kill/promotion/rejoin interleavings in a replica group"
    interleavings = {1: 113}
    n_clients = 1
    adds = 4
    #: Kill offsets relative to the append burst: before the first
    #: frame, inside the burst, during the drain tail, and after most
    #: of the traffic settled.
    kill_offsets = (0.01, 0.1, 0.5, 2.0)
    #: How long a candidate killed mid-election stays down.
    candidate_down_s = 3.0

    def build(self, **client_options: Any) -> Any:
        from repro.ha import build_ha_testbed

        # Tight lease/heartbeat and a short RPC budget so detection,
        # election, and client failover all converge within one run.
        return build_ha_testbed(
            n_backups=2,
            n_clients=self.n_clients,
            rpc_timeout_s=1.0,
            max_attempts=2,
            lease_s=1.5,
            heartbeat_s=0.5,
            **client_options,
        )

    def populate(self, bed: Any, ctx: dict) -> None:
        box = make_box(bed.authority, "check/ha-box")
        bed.put_object(box)
        ctx["urn"] = str(box.urn)

    def contention(self, ctx: dict) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset({ctx["urn"]}), frozenset({ctx["urn"]})

    def arm_primary_kill(self, bed: Any, ctx: dict, origin: float) -> None:
        """The suite's own two decisions: which of :attr:`kill_offsets`
        past ``origin`` the primary dies at, and whether it rejoins."""
        from repro.chaos import ChaosController

        kill_at = bed.sim.decide(
            len(self.kill_offsets), {"point": "primary-kill-at"}
        )
        rejoin = bed.sim.decide(2, {"point": "primary-stays-down"}) == 0
        ctx["rejoin"] = rejoin
        controller = ChaosController(bed.sim, obs=bed.obs)
        controller.schedule_primary_kill(
            bed.group,
            at=origin + self.kill_offsets[kill_at],
            down_for=20.0 if rejoin else 100_000.0,
        )
        for agent in bed.group.agents:
            self.arm_election_kill(bed, ctx, controller, agent)

    def arm_election_kill(self, bed: Any, ctx: dict, controller: Any, agent: Any) -> None:
        """A third decision, offered each time ``agent`` has sent an
        election poll until one run takes it: the candidate dies before
        any answer reaches it, and restarts a few seconds later."""
        start_election = agent._start_election

        def start_and_offer_kill() -> None:
            polls = agent._election
            start_election()
            if agent._election == polls or "candidate_killed" in ctx:
                return  # no poll went out, or a candidate died already
            if bed.sim.decide(
                2, {"point": "kill-during-election", "candidate": agent.host.name}
            ):
                ctx["candidate_killed"] = agent.host.name
                controller.schedule_server_outage(
                    agent.server, at=bed.sim.now, down_for=self.candidate_down_s
                )

        agent._start_election = start_and_offer_kill

    def settle_group(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        """Settle the clients, then give replication and (on rejoin)
        anti-entropy time to settle group state before the oracle reads
        it: with a rejoin the ex-primary must first come back (20
        virtual seconds) and then finish its sync round."""
        self.settle(bed, harness)
        bed.sim.run_until(
            lambda: self._converged(bed, ctx["rejoin"]), timeout=200.0
        )

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        stack = bed.clients[0]
        session = stack.access.create_session()
        stack.access.import_(urn, session=session)
        self.drain(bed)
        self.arm_primary_kill(bed, ctx, bed.sim.now)

        issued: dict[str, list[str]] = {}
        acked: set[str] = set()
        ctx["issued"], ctx["acked"] = issued, acked
        for index in range(self.adds):
            token = f"{stack.host.name}-{index}"
            issued.setdefault(stack.host.name, []).append(token)
            stack.access.invoke_remote(urn, "add", [token], session=session).then(
                lambda _value, t=token: acked.add(t)
            )
        self.settle_group(bed, harness, ctx)

    def _converged(self, bed: Any, rejoin: bool) -> bool:
        if rejoin and any(agent._crashed for agent in bed.group.agents):
            return False
        primary = bed.group.primary_agent()
        live = [agent for agent in bed.group.agents if not agent._crashed]
        return all(
            agent.seq == primary.seq
            and not agent._needs_sync
            and not agent._syncing
            for agent in live
        )

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        accesses = [stack.access for stack in bed.clients]
        violations = oracle.standard_checks(bed.server, accesses)
        violations += check_acked_updates_durable(
            bed.server, ctx["urn"], sorted(ctx["acked"]), field="items"
        )
        rdo = bed.server.get_object(ctx["urn"])
        final_items = rdo.data.get("items", []) if rdo is not None else []
        violations += oracle.check_sequential_append(
            final_items, ctx["issued"], sorted(ctx["acked"])
        )
        live = [agent for agent in bed.group.agents if not agent._crashed]
        primaries = [agent for agent in live if agent.role == "primary"]
        if len(primaries) != 1:
            violations.append(
                f"{len(primaries)} live primaries "
                f"({[agent.host.name for agent in primaries]})"
            )
        epochs = sorted({agent.epoch for agent in live})
        if len(epochs) != 1:
            violations.append(f"live members disagree on epoch: {epochs}")
        # Every live member -- all three, when the ex-primary rejoined.
        violations += oracle.check_replicas_agree([agent.server for agent in live], bed.sim.now)
        return violations


class HAFailoverFeaturesScenario(HAFailoverScenario):
    """The failover wave carries a compacted, delta-shipped backlog.

    ROADMAP aim 3, seam (b), as a suite: with compaction and delta
    shipping on, the client edits its cached copy while every link to
    the group is down — the overwriting exports fold into one, which
    leaves as a delta against the base all members hold — and the
    primary dies around the reconnection: before it (the backlog's
    first target is a corpse), while the export is at the primary or
    being replicated, or after it settled.  Same oracle as the parent
    suite, read off a single sequential writer: every edit durable
    exactly once, in order, and nobody saw a conflict.
    """

    name = "ha-failover-features"
    description = "primary kill around the reconnect drain of a compacted, delta-shipped backlog"
    interleavings = {2: 445}
    down_s = 5.0
    #: Kill offsets relative to the reconnection: while the client is
    #: still away, with the export on its way to the primary, with the
    #: primary's ship on its way to the backups, with their acks on the
    #: way back (the client's reply still gated), and after it all.
    kill_offsets = (-1.0, 0.0005, 0.0012, 0.002, 2.0)

    def build(self) -> Any:
        return super().build(
            policies=[SwitchablePolicy() for _ in range(self.n_clients)],
            compaction=True,
            delta_shipping=True,
        )

    def populate(self, bed: Any, ctx: dict) -> None:
        box = make_box(bed.authority, "check/ha-box")
        box.data["pad"] = "x" * 400  # bulk the edits leave alone: a delta pays
        bed.put_object(box)
        ctx["urn"] = str(box.urn)

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        stack = bed.clients[0]
        stack.access.import_(urn)
        self.drain(bed)

        # One policy governs the client's link to every member.
        stack.link.policy.force_down(bed.sim.now, self.down_s)
        for link in stack.host.links:
            link._handle_transition()
        self.arm_primary_kill(bed, ctx, bed.sim.now + self.down_s)
        tokens = [f"{stack.host.name}-{index}" for index in range(self.adds)]
        for token in tokens:
            # Tentative copy, auto-queued export, folded into the round
            # already waiting for the link.
            stack.access.invoke(urn, "add", token)
        self.settle_group(bed, harness, ctx)
        ctx["issued"] = {stack.host.name: tokens}
        # A local edit is acknowledged once no copy is left tentative.
        ctx["acked"] = set() if stack.access.cache.tentative_urns() else set(tokens)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        violations = super().check(bed, harness, ctx)
        access = bed.clients[0].access
        rdo = bed.server.get_object(ctx["urn"])
        items = rdo.data.get("items") if rdo is not None else None
        if items != ctx["issued"][access.host.name]:
            violations.append(f"primary holds {items!r}, not the edits in order")
        conflicted = sum(
            agent.server.exports_conflicted
            for agent in bed.group.agents
            if not agent._crashed
        )
        if conflicted or harness.conflicts:
            violations.append(
                "single sequential writer saw a conflict "
                f"(members counted {conflicted}, client saw {harness.conflicts})"
            )
        if access.log.ops_compacted < self.adds - 1:
            violations.append(
                f"only {access.log.ops_compacted} exports folded: the backlog was not compacted"
            )
        if sum(server.delta_bytes_saved_up for server, __ in bed.members) <= 0:
            violations.append("no export crossed the wire as a delta")
        return violations


class _Blackhole:
    """A link's fault injector that loses every frame inside a window
    and hands the rest to the one it wraps: a path that looks up and
    carries nothing, so its sender times out and fails over."""

    def __init__(self, inner: Any, sim: Any, start: float, end: float) -> None:
        self.inner, self.sim, self.start, self.end = inner, sim, start, end

    def plan(self, link: Any, delivery: Delivery) -> list[Delivery]:
        if self.start <= self.sim.now < self.end:
            return [Delivery(delivery.time, delivery.payload, "partitioned")]
        return self.inner.plan(link, delivery)


class HAReadScenario(HAFailoverScenario):
    """A writer appends and a reader reads through a primary that turns
    zombie or dies.

    The reader calls the read-only ``read``, imports afresh and ships an
    RDO, by turns: the primary answers each without a record, under its
    lease or after a heartbeat round (docs/ROBUSTNESS.md, "The read
    path").  There is no list reader: the clients create no objects, so
    a list cannot go stale here.  The suite's own decision picks the fault and its
    time: a partition that cuts the primary off from both backups --
    with the writer on the backups' side, so the new primary
    acknowledges appends the zombie never sees, cut off with the zombie,
    so its appends run there and go nowhere, or offline until the
    partition heals -- or the primary's death.  The reader reaches every
    member throughout and reads one read at a time; every client frame
    then carries the usual alternatives.  The parent suite's oracle
    holds for the appends, and the reads are linearizable: each holds
    every append acknowledged before it was issued, none that was lost,
    and all that the reader's previous read held.
    """

    name = "ha-read"
    description = "linearizable reads through a zombie or killed primary in a replica group"
    interleavings = {1: 125}
    n_clients = 2
    adds = 4
    #: Seconds between the writer's appends.
    add_every_s = 1.2
    reads = 8
    #: What each read is, in turn: the read-only method, a refreshing
    #: import, a shipped RDO.
    read_kinds = ("invoke", "import", "ship")
    ship_read = "def main(urn):\n    return list(lookup(urn)['items'])\n"
    #: The reader's pause between one read settling and the next.
    read_gap_s = 0.5
    #: Fault offsets from the first append: with the lease renewed
    #: since, inside its replication, and just after the second.
    kill_offsets = (0.7, 0.0008, 1.6)
    faults = ("zombie", "zombie-with-writer", "kill", "zombie-writer-parked")
    partition_s = 5.0

    def build(self) -> Any:
        # The primary's side of the mesh, switchable.
        return super().build(mesh_policies={(0, 1): SwitchablePolicy(), (0, 2): SwitchablePolicy()})

    def arm_fault(self, bed: Any, ctx: dict, origin: float) -> None:
        """The suite's own decision, one choice so that every fault at
        every time is one alternative away: which of :attr:`faults`, and
        which of :attr:`kill_offsets` past ``origin`` it strikes at.  A
        partition takes the primary's mesh links down and loses the
        writer's frames to the side it is cut off from -- or, parked,
        takes its link to the zombie down too: the writer waits for that
        link, and its backlog reaches the zombie as both heal, before
        the zombie has heard of the new reign."""
        from repro.chaos import ChaosController

        plans = [(fault, at) for fault in self.faults for at in self.kill_offsets]
        fault, at = plans[bed.sim.decide(len(plans), {"point": "fault"})]
        at += origin
        ctx["rejoin"] = True
        if fault == "kill":
            ChaosController(bed.sim, obs=bed.obs).schedule_primary_kill(
                bed.group, at=at, down_for=20.0
            )
            return
        primary, writer = bed.group.agents[0].host, bed.clients[0].host
        down = [link for link in primary.links if isinstance(link.policy, SwitchablePolicy)]
        for link in writer.links:
            toward_zombie = primary in (link.host_a, link.host_b)
            if fault == "zombie-writer-parked":
                if toward_zombie:
                    link.policy = SwitchablePolicy()
                    down.append(link)
            elif toward_zombie == (fault == "zombie"):
                link.fault_injector = _Blackhole(
                    link.fault_injector, bed.sim, at, at + self.partition_s
                )

        def partition() -> None:
            for link in down:
                link.policy.force_down(bed.sim.now, self.partition_s)
                link._handle_transition()

        bed.sim.schedule_at(at, partition)

    def drive(self, bed: Any, harness: CheckHarness, ctx: dict) -> None:
        urn = ctx["urn"]
        writer, reader = bed.clients
        for stack in bed.clients:
            stack.access.import_(urn)
        self.drain(bed)
        origin = bed.sim.now
        self.arm_fault(bed, ctx, origin)

        tokens = [f"{writer.host.name}-{index}" for index in range(self.adds)]
        acked: set[str] = set()
        ctx["issued"], ctx["acked"] = {writer.host.name: tokens}, acked
        for index, token in enumerate(tokens):
            bed.sim.schedule_at(
                origin + index * self.add_every_s,
                lambda t=token: writer.access.invoke_remote(urn, "add", [t]).then(
                    lambda _value: acked.add(t)
                ),
            )

        reads: list[dict] = []
        ctx["reads"] = reads

        def read() -> None:
            entry = {"client": reader.host.name, "seen": sorted(acked), "items": None}
            kind = self.read_kinds[len(reads) % len(self.read_kinds)]
            reads.append(entry)
            if kind == "invoke":
                promise = reader.access.invoke_remote(urn, "read", [])
            elif kind == "import":
                promise = reader.access.import_(urn, refresh=True)
            else:
                promise = reader.access.ship(bed.authority, self.ship_read, args=[urn])
            promise.then(
                lambda value: settled(entry, list(value.data["items"]) if kind == "import" else value)
            )
            promise.on_failure(lambda _reason: settled(entry, None))

        done: list[dict] = []

        def settled(entry: dict, items: Any) -> None:
            entry["items"] = items
            done.append(entry)
            if len(reads) < self.reads:
                bed.sim.schedule(self.read_gap_s, read)

        # Just behind the first append: the read runs while it replicates.
        bed.sim.schedule_at(origin + 0.0003, read)
        bed.sim.run(until=origin + self.adds * self.add_every_s)
        bed.sim.run_until(lambda: len(done) == self.reads, timeout=600.0)
        self.settle_group(bed, harness, ctx)

    def check(self, bed: Any, harness: CheckHarness, ctx: dict) -> list[str]:
        violations = super().check(bed, harness, ctx)
        rdo = bed.server.get_object(ctx["urn"])
        final_items = rdo.data.get("items", []) if rdo is not None else []
        violations += oracle.check_linearizable_reads(ctx["reads"], final_items)
        if len(ctx["reads"]) != self.reads:
            violations.append(f"the reader issued {len(ctx['reads'])} of {self.reads} reads")
        return violations


SCENARIOS: dict[str, type[Scenario]] = {
    scenario.name: scenario
    for scenario in (
        WarmImportScenario,
        CrashDrainScenario,
        CoalescedDrainScenario,
        ConflictExportScenario,
        DeltaShipScenario,
        HAFailoverScenario,
        HAFailoverFeaturesScenario,
        HAReadScenario,
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
