"""Replication group: primary/backup RoverServers with epoch fencing.

One :class:`ReplicaAgent` stands at each member server's door.  It takes
every client service (:data:`CLIENT_SERVICES`, the keys of the server's
:data:`~repro.core.server.SERVICES` table), fences it on a backup, and on
the primary hands it to :meth:`RoverServer.serve` and sorts it by one
rule, which the server states: a request the server counts in
``reads_served`` -- one its table marks a read (an import, a list, a
ship, a subscription), or an invoke of a method its interface declares
read-only -- is a read; everything else is a write.

* **Writes** -- exports, locks and unlocks, mutating invokes, and an
  invoke answered from a reply cache -- run on the primary alone.  What one
  wrote there (:meth:`RoverServer.write_set`: the object's new version
  and data, its committer-index entry, the lease, the client's
  watermark; for a write that changed nothing, at most the reply its
  at-most-once cache kept) is appended to
  an in-memory record log and shipped to the backups; the client's
  reply is withheld (via :class:`~repro.net.transport.AsyncReply`)
  until a majority of the group holds the record.  The log holds only
  what some peer still lacks: the primary forgets a record once every
  peer has acked it, and a backup keeps none.  This is
  primary-backup replication, not state-machine replication: a backup
  installs the values the primary wrote (:meth:`RoverServer.install`,
  the path anti-entropy takes too) and runs no handler, so no clock is
  pinned and no re-run can differ.  A record a backup cannot install
  is refused with nothing changed, counted, and healed by anti-entropy.
* **Reads** run on the primary alone: no record, no ship.  The reply
  waits until every record through the primary's ``seq`` is on a
  quorum (a read never shows what a failover could lose), and is given
  only under the primary's *lease*: a quorum of peers acked a frame it
  sent at ``t`` with ``now <= t + lease_s``.  Each such peer had
  granted no newer epoch when the frame came (it would have refused
  it) nor was standing for one (it acks with that epoch, which
  confirms nothing), and answers ``heard`` to every election poll, and
  stands for none, until at least ``t + lease_s``; every election
  majority overlaps that quorum, so no other primary exists yet.
  Without the lease (just after a promotion, on a zombie) the read
  waits for a quorum to ack a heartbeat sent at or after it ran.
  Confirmations belong to one reign.  A subscription is a read too:
  the table it joins is the member's own and is not replicated.

Failure handling:

* **Frames** -- the primary reaches a peer over ``rover.ha.replicate``
  alone: a frame carries records, none (a heartbeat), or ``"gap":
  true`` (the peer's cursor is below the trimmed log: anti-entropy).
  One record or gap frame is in flight per peer; one that fails or
  moves the cursor nowhere only frees that slot: the tick ships again.
* **Leases** -- backups expect a heartbeat every ``heartbeat_s``; a
  backup that has heard nothing for ``lease_s`` polls its peers and
  promotes itself when it holds the highest ``(applied seq, -index)``
  rank among a responding majority, none of whom heard the primary
  recently.  Voters promise the candidate's proposed epoch, so two
  concurrent elections can never mint the same epoch number, and take
  no frame from below an epoch they granted.
* **Epoch fencing** -- every frame and client reply carries
  the sender's epoch.  A member receiving a frame from a lower epoch
  rejects it (``stale-epoch``); a primary whose ship-back is rejected
  demotes itself on the spot, abandons its gated client replies
  (the callers time out and fail over), and schedules anti-entropy.
* **Anti-entropy rejoin** -- a restarted, deposed or lagging member sends its
  per-urn ``[version, crc32]`` state vector to the current primary,
  which answers with exactly the differing objects (plus deletions and
  the live lock table); the joiner installs them and resumes as a
  backup at the primary's sequence number.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Optional

from repro.core.server import SERVICES, RoverServer
from repro.lint.contracts import replay_pure
from repro.net.message import Premarshalled
from repro.net.scheduler import MOVED, NO_PROGRESS
from repro.net.simnet import Address, Host
from repro.net.transport import AsyncReply, DelayedReply, RpcError, Transport, error_answer
from repro.sim import Simulator

#: The client services the agent interposes on: fenced on a backup,
#: sorted into reads and writes by the server on the primary.
CLIENT_SERVICES = tuple(SERVICES)

#: How many records ride in one replicate frame.
SHIP_BATCH = 64

#: Cap on the primary's record log, which holds what some peer has not
#: acked (a backup keeps none); past it the oldest go, counted, and a
#: peer that lacks them is healed by anti-entropy instead.
LOG_CAP = 1024


class ReplicaSet:
    """A client's view of one authority's replication group.

    Duck-typed into ``AccessManager.servers`` as a *replicated
    destination*: the network scheduler reads :attr:`current_host` when
    a message is about to leave, reports a member that did not answer
    through :meth:`advance_past` and asks :meth:`read_reply` what each
    answer is.  Each client owns a private instance — membership is
    shared knowledge, but *which member to try next* is per-client.
    """

    #: Attempt budgets a message gets past its first before it fails for
    #: good: the probe loop's bound when no member is primary or reachable.
    max_rounds = 8

    def __init__(self, hosts: list[Host], authority: str) -> None:
        if not hosts:
            raise ValueError("a replica set needs at least one member")
        self.hosts = list(hosts)
        self.authority = authority
        #: Where the next attempt goes.
        self.current_host = self.hosts[0]
        #: The member this client's last unanswered attempt went to: a
        #: hint naming it is not believed.  Cleared by any genuine answer
        #: and when rotation comes round to it again — one lost reply
        #: must not cost a live primary this client for good.
        self.suspect = ""
        #: Highest replication epoch seen in any stamped reply; replies
        #: from lower epochs come from a deposed primary.
        self.epoch_seen = 0
        self.rotations = 0

    def learn_primary(self, host_name: str) -> bool:
        """Point at the named member; False when it is not one of ours."""
        for host in self.hosts:
            if host.name == host_name:
                self.current_host = host
                return True
        return False

    def rotate(self) -> Host:
        """Advance to the next member (round-robin failover probe)."""
        self.rotations += 1
        following = (self.hosts.index(self.current_host) + 1) % len(self.hosts)
        self.current_host = self.hosts[following]
        if self.current_host.name == self.suspect:
            self.suspect = ""  # everyone else was asked: its turn again
        return self.current_host

    def advance_past(self, host_name: str) -> Host:
        """An attempt to ``host_name`` went unanswered: suspect it, and
        rotate only if still pointed at it (compare-and-swap).

        Several outstanding requests share this set; when each rotates
        unconditionally on its own failure, a wave of N simultaneous
        failures advances the pointer N times — with N == group size
        that lands right back on the dead member, in lockstep, forever.
        The first failed request moves the pointer; the rest see it has
        already moved past their failed target and simply follow it.
        """
        self.suspect = host_name
        if self.current_host.name == host_name:
            return self.rotate()
        return self.current_host

    def observe_epoch(self, epoch: int) -> bool:
        """Record a stamped reply's epoch; False when it is stale."""
        if epoch < self.epoch_seen:
            return False
        self.epoch_seen = epoch
        return True

    def read_reply(self, member: str, reply: Any) -> Optional[str]:
        """What ``member``'s ``reply`` is: None when it is the answer
        (not a fence, from the current reign: every status it stamps, a
        handler's ``error`` too); ``MOVED`` when the set now points
        elsewhere — at a member a fence named, or already away from a
        deposed primary's late answer; ``NO_PROGRESS`` otherwise, and
        whenever its ``ha_epoch`` is not an ``int``: no member stamps
        one, so it is never believed."""
        if not isinstance(reply, dict):
            return None
        epoch = reply.get("ha_epoch")
        if epoch is not None and type(epoch) is not int:
            return NO_PROGRESS
        fresh = epoch is None or self.observe_epoch(epoch)
        fenced = reply.get("status") == "not-primary"
        if fresh and not fenced:
            self.suspect = ""
            return None
        hinted = (reply.get("primary") or "") if fenced else ""
        # Not believed: a backup naming itself, or the member that just left
        # this client unanswered (its lease on the corpse has not run out).
        if hinted and hinted not in (member, self.suspect) and self.learn_primary(hinted):
            return MOVED
        if not fenced and member != self.current_host.name:
            return MOVED  # a deposed primary's late answer; the set has left it since
        return NO_PROGRESS


def _rank(member: dict) -> Optional[tuple[int, int]]:
    """Election rank a poll or its answer reports: most applied, then
    lowest index; None when either is not an integer (no member sends
    that: the message is refused)."""
    seq, index = member.get("seq", -1), member.get("index", 0)
    if type(seq) is int and type(index) is int:
        return seq, -index
    return None


def _refused(reply: dict) -> bool:
    """A poll answer whose rank or epoch is not an integer: it grants,
    objects to and reports nothing, like no answer."""
    return _rank(reply) is None or type(reply.get("epoch", 0)) is not int


class ReplicaAgent:
    """One member's replication logic, standing at its server's door."""

    METRICS = (
        ("ha_records_shipped_total", "counter",
         "Replication records acknowledged by this backup", "records_shipped"),
        ("ha_records_applied_total", "counter",
         "Replication records installed on this member", "records_applied"),
        ("ha_records_refused_total", "counter",
         "Replication records a backup could not install (left to anti-entropy)",
         "records_refused"),
        ("ha_stale_epoch_rejected_total", "counter",
         "Frames and replies rejected for carrying a stale epoch", "stale_epoch_rejected"),
        ("ha_log_evicted_total", "counter",
         "Records the log cap dropped before every peer acked them", "log_evicted"),
        # One series for the group: the members' promotions summed.
        ("ha_failovers_total", "counter", "Backup promotions to primary", "failovers",
         {"host": None}),
        ("ha_replication_lag", "gauge",
         "Records this member trails the primary's commit seq by", "_lag"),
    )

    def __init__(
        self, sim: Simulator, server: RoverServer, transport: Transport,
        group: "ReplicationGroup", index: int, lease_s: float, heartbeat_s: float,
    ) -> None:
        self.sim = sim
        self.server = server
        self.transport = transport
        self.group = group
        self.index = index
        self.host = transport.host
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s
        self.role = "backup"
        self.epoch = 0
        #: Highest epoch promised to an election candidate (never
        #: adopted until the candidate wins; keeps concurrent
        #: elections from minting the same epoch twice).
        self.promised = 0
        #: Highest epoch granted to another candidate's poll.  Whether
        #: that candidate won this member cannot tell, so it takes no
        #: frame from a lower epoch again: a primary it still heard
        #: would otherwise commit, and hold a lease, beside a new one.
        self._granted = 0
        self.primary_name = ""
        #: Sequence number of the last record executed (primary) or
        #: applied (backup) on this member.
        self.seq = 0
        #: Records (base_seq, seq] that some peer has not acked (primary
        #: only, at most LOG_CAP); empty, with base_seq == seq, otherwise.
        self.log: list[dict] = []
        self.base_seq = 0
        self.last_heard = sim.now
        #: Election hold-off deadline (set when a poll learns some peer
        #: still hears a primary) — deliberately not ``last_heard``.
        self._hold_until = 0.0
        #: Commit seq advertised by the primary (backup-side lag view).
        self._primary_seq = 0
        #: Peer cursors, populated by the group after every member
        #: exists: [{index, host, acked_seq, confirmed, probe, inflight}].
        self.peers: list[dict] = []
        #: Backup acks needed before a client reply may complete (a
        #: majority, less the primary itself); set with the peers.
        self.quorum_backups = 0
        #: Client replies gated on quorum: [{seq, epoch, since, gate,
        #: reply}] -- released once a quorum of peers acked ``seq`` and
        #: confirmed a frame sent at or after ``since`` (``-inf`` for a
        #: write, and for a read served under the lease).
        self._waiters: list[dict] = []
        #: The epoch this member proposed in the election poll it has
        #: open (0: none), and how many polls it has opened — a poll's
        #: answers and its timer decide that poll only.
        self._standing = 0
        self._election = 0
        self._needs_sync = False
        self._syncing = False
        self._crashed = False
        self._incarnation = 0

        #: Counts of :attr:`METRICS`, bumped where they happen.
        self.records_shipped = 0
        self.records_applied = 0
        self.records_refused = 0
        self.stale_epoch_rejected = 0
        self.log_evicted = 0
        self.failovers = 0
        server.obs.registry.expose(self, {"authority": server.authority, "host": self.host.name})

        server.ha_agent = self
        for service in CLIENT_SERVICES:
            transport.register(service, functools.partial(self._serve_client, service))
        transport.register("rover.ha.replicate", self._on_replicate)
        transport.register("rover.ha.poll", self._on_poll)
        transport.register("rover.ha.sync", self._on_sync)

    # -- wiring --------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeat/failure-detection ticks (group calls this)."""
        incarnation = self._incarnation
        # Stagger the first tick per member so election checks have a
        # canonical order even when every lease expires the same instant.
        self.sim.schedule(self.heartbeat_s + 0.01 * self.index, self._tick, incarnation)

    def _alive(self, incarnation: int) -> bool:
        return incarnation == self._incarnation and not self._crashed

    def _lag(self) -> float:
        if self.role == "primary":
            return 0.0
        return float(max(0, self._primary_seq - self.seq))

    def _hears_primary(self) -> bool:
        """Is the primary this member would name alive as far as it can
        tell — itself, or one heard from within the lease?  One answer
        for the candidate that polls and the client that is fenced: a
        lapsed lease is no hint."""
        return self.role == "primary" or self.sim.now - self.last_heard <= self.lease_s

    def _call(
        self, peer_host: Host, service: str, body: dict,
        on_reply: Callable[[Any], None], on_error: Callable[[RpcError], None], timeout: float,
    ) -> bool:
        """Call ``service`` on a peer.  With no route to it right now,
        ``on_error`` runs at once and the answer is False."""
        try:
            self.transport.call(
                peer_host, service, body, on_reply=on_reply, on_error=on_error, timeout=timeout
            )
        except RpcError as no_route:
            on_error(no_route)
            return False
        return True

    # -- client-facing funnel -----------------------------------------------

    @replay_pure
    def _serve_client(self, service: str, body: Any, source: Address) -> Any:
        """Fence, execute, replicate, and quorum-gate one client request."""
        if self.role != "primary":
            return {
                "status": "not-primary",
                "primary": self.primary_name if self._hears_primary() else "",
                "ha_epoch": self.epoch,
                "ha_member": self.host.name,
            }
        server = self.server
        reads = server.reads_served
        urn = body.get("urn") if isinstance(body, dict) else None
        mark = server.write_mark(urn)
        stamped = server.serve(service, body, source)
        if isinstance(stamped, DelayedReply):  # the handler's own, made for this call
            stamped.body = self._stamp(stamped.body)
        else:
            stamped = self._stamp(stamped)
        if server.reads_served != reads:
            return self._serve_read(stamped)
        # Every write takes a seq, one that changed nothing too: the
        # quorum gate releases its reply by it.
        write = server.write_set(urn, mark, body)
        record = {"seq": self.seq + 1, "epoch": self.epoch, "write": write}
        self.seq = record["seq"]
        if self.quorum_backups == 0:  # no peer to need the record
            self.base_seq = self.seq
            return stamped
        self.log.append(record)
        if len(self.log) > LOG_CAP:
            self.base_seq = self.log.pop(0)["seq"]
            self.log_evicted += 1
        gate = AsyncReply()
        self._waiters.append({
            "seq": record["seq"], "epoch": self.epoch, "since": -math.inf,
            "gate": gate, "reply": stamped,
        })
        for peer in self.peers:
            self._ship_to(peer)
        return gate

    def _serve_read(self, stamped: Any) -> Any:
        """Answer a read that already ran here: no record, no ship.

        Its reply waits for every record through the current ``seq`` to
        reach a quorum (it may show their effects, which must survive a
        failover).  It is answered from here only under the lease: a
        quorum of peers acked a frame this reign sent at most
        ``lease_s`` ago, none of them had granted or stood for a newer
        epoch (:meth:`_note_peer_reply`), and each answers ``heard`` to
        any poll until that frame is ``lease_s`` old, so no other
        primary exists yet.  Without the lease the read waits for a
        quorum to ack a heartbeat sent at or after it ran
        (:meth:`_probe`); a deposed primary hears ``stale-epoch``
        instead and drops it.  A reply that waits is encoded now
        (:meth:`_frozen`): a write may change the live data it holds.
        """
        if self.quorum_backups == 0:
            return stamped
        now = self.sim.now
        lease = now - self.lease_s
        if self._quorum_holds(self.seq, lease):
            return stamped
        leased = self._quorum_holds(-math.inf, lease)  # the lease alone
        gate = AsyncReply()
        self._waiters.append({
            "seq": self.seq, "epoch": self.epoch,
            "since": -math.inf if leased else now,
            "gate": gate, "reply": self._frozen(stamped),
        })
        if not leased:
            for peer in self.peers:
                if peer["probe"] is None:
                    self._probe(peer)
        return gate

    @staticmethod
    def _frozen(reply: Any) -> Any:
        """``reply`` with its body encoded now, so it ships the state it
        ran on (a body the codec refuses fails the read here, as the
        transport would fail it when it sends)."""
        if not isinstance(reply, DelayedReply):
            return Premarshalled(reply)
        reply.body = Premarshalled(reply.body)
        return reply

    def _probe(self, peer: dict) -> None:
        """Send ``peer`` a read-index heartbeat, one at a time: when it
        is answered, another goes only if some read still waits on a
        frame sent after it.  A read waiting for a round is served by
        the one that answers next, not by a round of its own."""
        sent = peer["probe"] = self.sim.now

        def answered() -> None:
            peer["probe"] = None
            if any(waiter["since"] > sent for waiter in self._waiters):
                self._probe(peer)

        self._send_heartbeat(peer, answered)

    def _stamp(self, reply: Any) -> Any:
        """Copy-and-mark a reply with this primary's epoch + identity.

        Stamping a *copy* matters: the at-most-once caches inside the
        server hold the original reply object, and a replay answered
        after a failover must carry the answering primary's epoch, not
        the epoch frozen in at first execution.
        """
        if not isinstance(reply, dict):
            return reply
        stamped = dict(reply)
        stamped["ha_epoch"] = self.epoch
        stamped["ha_member"] = self.host.name
        return stamped

    def _check_waiters(self) -> None:
        """Complete every gated reply whose record reached quorum (and,
        for a read waiting on a heartbeat round, whose round did)."""
        if self.role != "primary" or self._crashed:
            return
        remaining: list[dict] = []
        for waiter in self._waiters:
            if waiter["epoch"] != self.epoch:
                continue  # a previous reign's gate: never complete it
            if self._quorum_holds(waiter["seq"], waiter["since"]):
                waiter["gate"].complete(waiter["reply"])
            else:
                remaining.append(waiter)
        self._waiters = remaining

    def _quorum_holds(self, seq: float, since: float) -> bool:
        """Has a quorum of peers acked every record through ``seq``, and
        a quorum acked a frame this reign sent at or after ``since``?"""
        acked = confirmed = 0
        for peer in self.peers:
            if peer["acked_seq"] >= seq:
                acked += 1
            if peer["confirmed"] >= since:
                confirmed += 1
        needed = self.quorum_backups
        return acked >= needed and confirmed >= needed

    def _end_reign(self) -> None:
        """Demotion or crash: abandon gated replies (callers time out),
        drop the record log and forget what the peers confirmed -- a
        later reign's records and lease are its own."""
        self._waiters = []
        self.log, self.base_seq = [], self.seq
        for peer in self.peers:
            peer["confirmed"] = -math.inf
            peer["probe"] = None

    # -- primary: shipping + heartbeats ---------------------------------------

    def _tick(self, incarnation: int) -> None:
        if not self._alive(incarnation):
            return
        if self.role == "primary":
            # Lease-clock housekeeping rides the heartbeat: expire
            # overdue locks even when nobody touches the objects.
            self.server.sweep_expired_locks()
            for peer in self.peers:
                if peer["acked_seq"] < self.seq:
                    self._ship_to(peer)
                else:
                    self._send_heartbeat(peer)
        elif (
            self.sim.now - self.last_heard > self.lease_s
            and self.sim.now >= self._hold_until
        ):
            # Lease expiry trumps sync-need: a backup that still wants
            # anti-entropy may have nobody to sync *from* (its recorded
            # primary died, or was itself).  Standing for election is
            # safe even then — rank deferral plus the majority
            # requirement mean a behind member cannot win while any
            # fresher member answers the poll.
            self._start_election()
        elif self._needs_sync:
            self._start_sync()
        self.sim.schedule(self.heartbeat_s, self._tick, incarnation)

    def _ship_to(self, peer: dict) -> None:
        """Send ``peer`` the records after its cursor, or a ``gap`` frame
        if it fell behind the trimmed log (anti-entropy heals it), one
        frame in flight at a time.  A frame that fails or moves the
        cursor nowhere only frees the slot: the tick ships again."""
        if peer["inflight"] or self.role != "primary" or self._crashed:
            return
        epoch, sent = self.epoch, self.sim.now
        body = {"epoch": epoch, "primary": self.host.name}
        # The log holds (base_seq, seq] without a gap: the peer has its
        # first ``held`` records and the batch is the slice after them.
        held = peer["acked_seq"] - self.base_seq
        if held < 0:
            records, timeout = None, 2.0 * self.heartbeat_s
            body["gap"] = True
        else:
            records, timeout = self.log[held : held + SHIP_BATCH], 4.0 * self.heartbeat_s
            if not records:
                return
            body["records"], body["commit_seq"] = records, self.seq
        incarnation = self._incarnation
        peer["inflight"] = True
        before = peer["acked_seq"]

        def on_reply(reply: Any) -> None:
            peer["inflight"] = False
            if not self._alive(incarnation):
                return
            self._note_peer_reply(peer, reply, epoch, sent)
            # After a gap frame the cursor moves only by anti-entropy:
            # nothing was shipped, and the next write or tick goes on.
            if records and peer["acked_seq"] > before:
                self.records_shipped += peer["acked_seq"] - before
                if peer["acked_seq"] < self.seq:
                    self._ship_to(peer)

        def on_error(error: RpcError) -> None:
            peer["inflight"] = False

        try:  # not through _call: a ship is on every write's path
            self.transport.call(
                peer["host"], "rover.ha.replicate", body,
                on_reply=on_reply, on_error=on_error, timeout=timeout,
            )
        except RpcError as no_route:
            on_error(no_route)

    def _send_heartbeat(
        self, peer: dict, answered: Callable[[], None] = lambda: None
    ) -> None:
        """Send ``peer`` a heartbeat; ``answered`` runs once when its
        reply or error comes back in this incarnation."""
        incarnation = self._incarnation
        epoch, sent = self.epoch, self.sim.now
        body = {"epoch": epoch, "primary": self.host.name, "commit_seq": self.seq}

        def on_reply(reply: Any) -> None:
            if not self._alive(incarnation):
                return
            self._note_peer_reply(peer, reply, epoch, sent)
            answered()

        def on_error(error: RpcError) -> None:
            if self._alive(incarnation):
                answered()  # without a route, at once; the next tick retries

        self._call(peer["host"], "rover.ha.replicate", body, on_reply, on_error,
                   2.0 * self.heartbeat_s)

    def _note_peer_reply(
        self, peer: dict, reply: Any, epoch: int, sent: float
    ) -> None:
        """Fold a peer's ack/stale-epoch feedback into primary state.

        An ack of a frame sent at ``sent`` in epoch ``epoch`` confirms
        this reign to that peer as of then: the peer took the frame, had
        granted no newer epoch (it would have refused the frame), and
        holds off elections until it is ``lease_s`` old.  An ack of a
        previous reign's frame confirms nothing, nor does one from a
        peer standing for a newer epoch (it acks with that epoch).
        """
        if not isinstance(reply, dict):
            return
        if reply.get("status") == "stale-epoch":
            self._deposed(reply)
            return
        acked, their_epoch = reply.get("ack_seq", -1), reply.get("epoch", -1)
        if type(acked) is not int or type(their_epoch) is not int:
            return  # no member answers so: refused
        moved = acked > peer["acked_seq"]
        if moved:
            peer["acked_seq"] = acked
            # Forget the records every peer now holds (the low-water mark).
            low = self.seq
            for other in self.peers:
                if other["acked_seq"] < low:
                    low = other["acked_seq"]
            if low > self.base_seq:
                del self.log[: low - self.base_seq]
                self.base_seq = low
        if (
            acked >= 0
            and sent > peer["confirmed"]
            and epoch == self.epoch == their_epoch
            and self.role == "primary"
        ):
            peer["confirmed"] = sent
            moved = True
        if moved:
            self._check_waiters()

    def _deposed(self, reply: dict) -> None:
        """A higher epoch exists: step down and reconcile (not on the
        word of a reply whose epoch is not an integer)."""
        epoch = reply.get("epoch", self.epoch)
        if self.role != "primary" or type(epoch) is not int:
            return
        self.role = "backup"
        self.epoch = max(self.epoch, epoch)
        self.primary_name = str(reply.get("primary") or "")
        self.last_heard = self.sim.now
        self._end_reign()
        self._needs_sync = True
        self._start_sync()

    # -- backup: install + failure detection ----------------------------------

    def _on_replicate(self, body: Any, source: Address) -> Any:
        """Install the primary's records in sequence; a gap (in them, or
        the one a ``gap`` frame reports: the primary's log no longer
        covers it) and a record that does not install are for anti-entropy."""
        epoch, commit_seq = body.get("epoch", 0), body.get("commit_seq", self._primary_seq)
        if type(epoch) is not int or type(commit_seq) is not int:
            return error_answer(ValueError("replicate frame: epoch or commit_seq not an integer"))
        verdict = self._observe_authority(epoch, str(body.get("primary", "")))
        if verdict is not None:
            return verdict
        gap = "gap" in body
        self._primary_seq = commit_seq
        for record in body.get("records", []):
            seq = record.get("seq") if isinstance(record, dict) else None
            if type(seq) is not int:
                self.records_refused += 1  # as one that does not install
                gap = True
                break
            if seq <= self.seq:
                continue  # duplicate delivery
            if seq != self.seq + 1 or not self._apply(record):
                gap = True  # missing prefix or refused: only anti-entropy can heal
                break
        if gap and not self._needs_sync:
            self._needs_sync = True
            self.sim.schedule(0.0, self._start_sync)
        # A candidate still standing may yet win: its ack renews no
        # lease of the reign it is trying to end.
        return {"ack_seq": self.seq, "epoch": max(self.epoch, self._standing)}

    def _observe_authority(self, epoch: int, primary: str) -> Optional[dict]:
        """Common epoch fence for primary-originated frames.

        Returns the rejection reply for stale frames -- from below this
        member's epoch, or below one it granted -- and None to proceed.
        Adopting a higher epoch demotes this member if it believed
        itself primary (it lost a partition race) and marks it for
        anti-entropy, since its un-replicated suffix may diverge.
        """
        if epoch < self.epoch or epoch < self._granted:
            self.stale_epoch_rejected += 1
            return {"status": "stale-epoch", "epoch": self.epoch, "primary": self.primary_name}
        if epoch > self.epoch or self.primary_name != primary:
            was_primary = self.role == "primary"
            self.epoch = epoch
            self.primary_name = primary
            if was_primary and primary != self.host.name:
                self.role = "backup"
                self._end_reign()
                self._needs_sync = True
                self.sim.schedule(0.0, self._start_sync)
        self.last_heard = self.sim.now
        return None

    def _apply(self, record: dict) -> bool:
        """Install one shipped record's write set; refuse one that does
        not install here (counted), with nothing changed."""
        if not self.server.install_write(record.get("write")):
            self.records_refused += 1
            return False
        self.seq = self.base_seq = record["seq"]  # a backup keeps no log
        self.records_applied += 1
        return True

    def _on_poll(self, body: Any, source: Address) -> Any:
        """Answer an election poll: rank, epoch, and freshness."""
        proposed = body.get("proposed", 0)
        heard = self._hears_primary()
        floor = max(self.epoch, self.promised)
        granted = type(proposed) is int and not heard and (
            proposed > floor or self._yields_to(body, proposed)
        )
        if granted:
            self.promised = self._granted = proposed
        return {
            "seq": self.seq,
            "index": self.index,
            "epoch": floor,
            "heard": heard,
            "granted": granted,
        }

    def _yields_to(self, poll: Any, proposed: int) -> bool:
        """Two candidates whose polls crossed proposed the same epoch:
        the lower-ranked one closes its own poll and votes for the other.

        Each promised the number to itself; both refusing, they would
        stand down and — ticking at the same instants, as after a
        restart — propose the same next number again, for good (found by
        ``ha-failover-features``).  The vote moves, it is not cast
        twice: the closed poll's answers and timer decide nothing.
        """
        if proposed != self._standing or proposed != self.promised:
            return False
        rank = _rank(poll)
        if rank is None or rank <= (self.seq, -self.index):
            return False
        self._standing = 0
        return True

    def _start_election(self) -> None:
        """Poll every peer, and decide the moment the outcome is settled:
        every polled peer has answered, or — sooner — a majority
        (counting this candidate) has granted and no answer so far
        reports a primary still ``heard``, a floor epoch at or above the
        proposal, or a higher rank (:meth:`_wins`); waiting on could
        only add grants.  A poll nobody settles — the dead primary never
        answers — is decided when its calls time out, ``2 ×
        heartbeat_s`` on.

        Deciding early is as safe as deciding then: the granting
        majority intersects every ack quorum, and each granter has
        promised the epoch and not heard the old primary for ``lease_s``
        — a primary a majority has not heard for a lease is not
        committing (docs/ROBUSTNESS.md, "Elections"; the proof is
        ``make ha``).
        """
        if self._standing or self.role == "primary" or self._crashed:
            return
        self._election += 1
        election = self._election
        proposed = max(self.epoch, self.promised) + 1
        self.promised = self._standing = proposed
        replies: list[dict] = []
        polled = 0

        def on_reply(reply: Any) -> None:
            replies.append(reply if isinstance(reply, dict) else {})
            if len(replies) == polled or self._wins(proposed, replies):
                self._decide_election(proposed, replies, election)

        poll = {"proposed": proposed, "seq": self.seq, "index": self.index,
                "candidate": self.host.name}
        for agent in self.group.agents:
            if agent is not self and self._call(
                agent.host, "rover.ha.poll", poll, on_reply, lambda error: None,
                2.0 * self.heartbeat_s,
            ):
                polled += 1
        self.sim.schedule(
            2.0 * self.heartbeat_s + 0.01,
            self._decide_election,
            proposed,
            replies,
            election,
        )

    def _wins(self, proposed: int, replies: list[dict]) -> bool:
        """A majority granted ``proposed`` and no reply objects to it."""
        my_rank = (self.seq, -self.index)
        votes = 1
        for reply in replies:
            if _refused(reply):
                continue
            if reply.get("heard") or _rank(reply) > my_rank:
                return False
            if reply.get("granted"):
                votes += 1
            elif reply.get("epoch", 0) >= proposed:
                return False
        return votes > len(self.group.agents) // 2

    def _decide_election(
        self, proposed: int, replies: list[dict], election: int
    ) -> None:
        """Close poll number ``election`` — once: a later answer to it,
        or its timer firing after a newer poll began (or after a crash
        closed it), decides nothing."""
        if election != self._election or not self._standing:
            return
        self._standing = 0
        if self._wins(proposed, replies):
            self._promote(proposed, replies)
        elif any(reply.get("heard") for reply in replies):
            # Someone still hears the primary: not a failure, a
            # partition on our side.  Hold off and stand down — on a
            # *separate* clock: resetting ``last_heard`` here would
            # make our own poll replies claim we hear a primary we do
            # not, and mutual stand-downs then livelock the group with
            # no primary at all.
            self._hold_until = self.sim.now + self.lease_s
        else:
            # A newer reign may exist that we have not heard from yet:
            # retry later with a higher proposal (next tick).  Otherwise
            # a better-positioned peer will win its own election, or no
            # majority is reachable: stay a backup (CP choice).
            self.promised = max(
                [self.promised, *(r.get("epoch", 0) for r in replies if not _refused(r))]
            )

    def _promote(self, new_epoch: int, replies: list[dict]) -> None:
        self.epoch = new_epoch
        self.role = "primary"
        self.primary_name = self.host.name
        self._needs_sync = False
        self._syncing = False
        self.failovers += 1
        # Seed ship cursors from what the voters reported.  The log
        # starts empty at this member's seq (a backup keeps none), so a
        # peer that reported less, or did not answer (the dead primary),
        # is sent a gap frame (anti-entropy) rather than records.
        reported = {
            reply.get("index", -1): reply.get("seq", -1)
            for reply in replies
            if not _refused(reply)
        }
        for peer in self.peers:
            peer["acked_seq"] = reported.get(peer["index"], -1)
            peer["confirmed"] = -math.inf  # the lease starts with this reign
            if peer["acked_seq"] < self.seq:
                self._ship_to(peer)
            else:
                self._send_heartbeat(peer)  # declare the new epoch now

    # -- anti-entropy ----------------------------------------------------------

    def _start_sync(self) -> None:
        if self._syncing or self._crashed or self.role == "primary" or not self._needs_sync:
            return
        target = None
        for agent in self.group.agents:
            if agent.host.name == self.primary_name and agent is not self:
                target = agent.host
        if target is None:
            return  # primary unknown; the tick retries after election
        self._syncing = True
        incarnation = self._incarnation
        body = {
            "vector": self.server.state_vector(),
            "seq": self.seq,
            "epoch": self.epoch,
            "member": self.host.name,
        }

        def on_reply(reply: Any) -> None:
            self._syncing = False
            if not self._alive(incarnation):
                return
            if not isinstance(reply, dict) or reply.get("status") != "ok":
                return  # primary moved again; the tick retries
            self._adopt_sync(reply)

        def on_error(error: RpcError) -> None:
            self._syncing = False  # the tick retries

        self._call(target, "rover.ha.sync", body, on_reply, on_error, 4.0 * self.heartbeat_s)

    def _adopt_sync(self, reply: dict) -> None:
        """Install the primary's anti-entropy answer (its differing
        objects and its lock table) and resume at its ``seq``.  An answer
        any part of which is malformed is refused whole and counted:
        nothing changes, and the member still needs a sync (the tick
        asks again)."""
        seq = reply.get("seq", self.seq)
        epoch = reply.get("epoch", self.epoch)
        primary = reply.get("primary", self.primary_name)
        if not (
            type(seq) is int and type(epoch) is int and type(primary) is str
            and self.server.merge_subset(
                reply.get("subset", {}), reply.get("deletions", []), reply.get("locks", [])
            )
        ):
            # Registered at the first: a member never refused an answer
            # holds no family for it.
            self.server.obs.registry.counter(
                "ha_sync_answers_refused_total",
                "Anti-entropy answers refused whole as malformed (the member syncs again)",
                labelnames=("authority", "host"),
            ).labels(authority=self.server.authority, host=self.host.name).inc()
            return
        self.seq = seq
        self.base_seq = seq
        self.log = []
        self.epoch = max(self.epoch, epoch)
        self.primary_name = primary
        self.role = "backup"
        self._needs_sync = False
        self.last_heard = self.sim.now

    def _on_sync(self, body: Any, source: Address) -> Any:
        """Serve an anti-entropy request (primary side)."""
        if self.role != "primary":
            return {"status": "not-primary", "primary": self.primary_name, "ha_epoch": self.epoch}
        return {
            "status": "ok",
            **self.server.sync_answer(body.get("vector", {})),
            "seq": self.seq,
            "epoch": self.epoch,
            "primary": self.host.name,
        }

    # -- process faults ---------------------------------------------------------

    def crash(self) -> None:
        """The member's process died (chaos): volatile agent state goes."""
        self._crashed = True
        self._incarnation += 1
        self._end_reign()
        self._standing = 0
        self._syncing = False
        for peer in self.peers:
            peer["inflight"] = False

    def restart(self) -> None:
        """Rejoin after a crash: resume as a backup and reconcile."""
        self._crashed = False
        self._incarnation += 1
        self.role = "backup"
        self.promised = max(self.promised, self.epoch)
        # A lease's grace before standing for election, on the hold-off
        # clock: a restart is not a primary heard from, and saying so to
        # a poll or a client keeps a group that lost its primary
        # meanwhile headless for another lease (ha-failover-features).
        self._hold_until = self.sim.now + self.lease_s
        self._needs_sync = True
        self.sim.schedule(0.0, self._start_sync)
        self.start()


class ReplicationGroup:
    """Wires N member servers into one primary + K backups."""

    def __init__(
        self,
        sim: Simulator,
        members: list[tuple[RoverServer, Transport]],
        lease_s: float = 6.0,
        heartbeat_s: float = 2.0,
    ) -> None:
        if not members:
            raise ValueError("a replication group needs at least one member")
        self.sim = sim
        self.authority = members[0][0].authority
        self.agents = [
            ReplicaAgent(sim, server, transport, self, index, lease_s, heartbeat_s)
            for index, (server, transport) in enumerate(members)
        ]
        first = self.agents[0]
        first.role = "primary"
        for agent in self.agents:
            agent.primary_name = first.host.name
            agent.quorum_backups = len(self.agents) // 2
            agent.peers = [
                {
                    "index": other.index,
                    "host": other.host,
                    "acked_seq": 0,
                    #: Send time of the newest frame this reign sent the
                    #: peer that it acked (the lease's clock).
                    "confirmed": -math.inf,
                    #: Send time of the read-index heartbeat in flight
                    #: to the peer (None: none).
                    "probe": None,
                    "inflight": False,
                }
                for other in self.agents
                if other is not agent
            ]
            agent.start()

    def primary_agent(self) -> ReplicaAgent:
        """The member currently acting as primary (highest live epoch)."""
        best = None
        for agent in self.agents:
            if agent.role == "primary" and not agent._crashed:
                if best is None or agent.epoch > best.epoch:
                    best = agent
        return best if best is not None else self.agents[0]

    def make_replica_set(self) -> ReplicaSet:
        """A fresh client-side membership view (one per client)."""
        return ReplicaSet([agent.host for agent in self.agents], self.authority)
