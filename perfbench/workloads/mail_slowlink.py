"""mail_slowlink: disconnected mail sessions drained over CSLIP-14.4.

A scripted user session in virtual time, one client per session (the
E14 pattern, scaled up): set-up prefetches the folder while connected;
the timed region triages it while disconnected (mark read, delete,
reply, re-import the index), reconnects and drains, with compaction and
delta shipping on.  Host CPU matters little here; virtual seconds and
bytes on the 14.4 kbit/s line are what the user sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.mail import MailServerApp, RoverMailReader
from repro.core.notification import EventType
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.net.scheduler import Priority
from repro.testbed import Testbed, build_testbed
from repro.workloads.generators import MailCorpus, MailMessage

from perfbench.inputs import MailInputs, MailSession
from perfbench.workloads import Outcome, Parts

OUTBOX = "outbox"
#: Virtual-time budget for one session's drain.
_DRAIN_BUDGET_S = 36_000.0


@dataclass
class Session:
    script: MailSession
    bed: Testbed
    reader: RoverMailReader
    setup_wire_bytes: int
    reimport: object = None


@dataclass
class State:
    inputs: MailInputs
    sessions: list = field(default_factory=list)
    events: int = 0


def setup(inputs: MailInputs, obs_trace: bool = False) -> State:
    state = State(inputs=inputs)
    for index, script in enumerate(inputs.sessions):
        bed = build_testbed(
            link_spec=CSLIP_14_4,
            policy=IntervalTrace(
                [(0.0, inputs.disconnect_at), (inputs.reconnect_at, 1e12)]
            ),
            compaction=True,
            delta_shipping=True,
            seed=inputs.net_seed + index,
            trace=obs_trace,
        )
        corpus = MailCorpus(
            {inputs.folder: [MailMessage(*fields) for fields in script.messages]}
        )
        app = MailServerApp(bed.server, corpus)
        app.create_folder(OUTBOX)
        reader = RoverMailReader(bed.access, bed.authority)
        reader.prefetch_folder(inputs.folder)
        reader.open_folder(OUTBOX)
        bed.sim.run(until=inputs.disconnect_at - 10.0)
        if bed.access.pending_count():
            raise RuntimeError("mail_slowlink: prefetch did not finish while connected")
        state.sessions.append(
            Session(script, bed, reader, setup_wire_bytes=bed.link.bytes_carried)
        )
    return state


def run(state: State) -> None:
    inputs = state.inputs
    folder = inputs.folder
    events = 0
    for session in state.sessions:
        bed, reader, script = session.bed, session.reader, session.script
        access, sim = bed.access, bed.sim
        events += sim.run(until=inputs.disconnect_at + 100.0)
        # Disconnected: the classic triage pass, then the replies.
        for msg_id in script.read_ids:
            access.invoke(reader.message_urn(folder, msg_id), "mark_read", session=reader.session)
        for msg_id in script.deleted_ids:
            access.invoke(
                reader.message_urn(folder, msg_id), "mark_deleted", session=reader.session
            )
        for reply_id, subject, body in script.replies:
            reader.send_message(
                OUTBOX, {"id": reply_id, "from": "me", "subject": subject, "body": body}
            )
        # Queued behind the exports; served as a delta once the link
        # returns (warm cache).
        session.reimport = access.import_(
            reader.folder_urn(folder),
            session=reader.session,
            priority=Priority.BACKGROUND,
            refresh=True,
        )
        events += sim.run(until=inputs.reconnect_at - 1.0)
        deadline = inputs.reconnect_at + _DRAIN_BUDGET_S
        while access.pending_count() and sim.now < deadline:
            events += sim.run(until=sim.now + 60.0)
        events += sim.run(until=sim.now + 60.0)  # trailing acks and timers
    state.events = events


def _ack_times(session: Session) -> dict:
    """urn -> virtual time its last update was acknowledged."""
    times: dict = {}
    for note in session.bed.access.notifications.history:
        if note.event in (
            EventType.OBJECT_COMMITTED,
            EventType.CONFLICT_RESOLVED,
            EventType.OBJECT_IMPORTED,
        ):
            times[note.details["urn"]] = note.time
    return times


def outcome(state: State) -> Outcome:
    inputs = state.inputs
    folder = inputs.folder
    attempted = acked = timed_wire = 0
    latencies_ms: list = []
    drains: list = []
    for session in state.sessions:
        bed, reader, script = session.bed, session.reader, session.script
        times = _ack_times(session)
        # (urn, did the server end up with the op's effect)
        ops = []
        for msg_id in script.read_ids:
            urn = str(reader.message_urn(folder, msg_id))
            ops.append((urn, bed.server.get_object(urn).data["flags"].get("read") is True))
        for msg_id in script.deleted_ids:
            urn = str(reader.message_urn(folder, msg_id))
            ops.append((urn, bed.server.get_object(urn).data["flags"].get("deleted") is True))
        outbox_urn = str(reader.folder_urn(OUTBOX))
        sent = {e["id"] for e in bed.server.get_object(outbox_urn).data["index"]}
        for reply_id, _, _ in script.replies:
            ops.append((outbox_urn, reply_id in sent))
        ops.append((str(reader.folder_urn(folder)), session.reimport.ready))
        attempted += len(ops)
        for urn, ok in ops:
            at = times.get(urn, 0.0)
            if ok and at >= inputs.reconnect_at:
                acked += 1
                latencies_ms.append((at - inputs.reconnect_at) * 1000.0)
        responses = [
            n.time
            for n in bed.access.notifications.history
            if n.event is EventType.RESPONSE_ARRIVED and n.time >= inputs.reconnect_at
        ]
        drains.append(max(responses, default=inputs.reconnect_at) - inputs.reconnect_at)
        timed_wire += bed.link.bytes_carried - session.setup_wire_bytes
    return Outcome(
        attempted=attempted,
        acked=acked,
        latencies_ms=latencies_ms,
        timed_wire_bytes=timed_wire,
        events=state.events,
        clock_elapsed_s=sum(drains),
        extra={"drain_sim_s": sum(drains) / len(drains)},
    )


def parts(state: State) -> Parts:
    beds = [s.bed for s in state.sessions]
    return Parts(
        sims=[b.sim for b in beds],
        accesses=[b.access for b in beds],
        schedulers=[b.scheduler for b in beds],
        transports=[t for b in beds for t in (b.client_transport, b.server_transport)],
        links=[b.link for b in beds],
        servers=[b.server for b in beds],
        registries=[b.obs.registry for b in beds],
    )


def close(state: State) -> None:
    pass
