"""Replication group: primary/backup RoverServers with epoch fencing.

One :class:`ReplicaAgent` wraps each member server's transport service
table.  The primary's agent intercepts every client-facing service:
read-only services are answered directly (primary-only reads), while
mutating services (:data:`REPLICATED_SERVICES`) are executed locally,
appended to an in-memory operation record log, and synchronously
shipped to the backups — the client's reply is withheld (via
:class:`~repro.net.transport.AsyncReply`) until a majority of the
group holds the record.  Backups re-execute shipped records through
the very same server handlers (state-machine replication; sound
because the handlers live under the replay-pure effect contract), with
the server's lease clock pinned to the primary's execution time so
lock-lease decisions replay identically.

Failure handling:

* **Leases** — backups expect a heartbeat every ``heartbeat_s``; a
  backup that has heard nothing for ``lease_s`` polls its peers and
  promotes itself when it holds the highest ``(applied seq, -index)``
  rank among a responding majority, none of whom heard the primary
  recently.  Voters promise the candidate's proposed epoch, so two
  concurrent elections can never mint the same epoch number.
* **Epoch fencing** — every ship, heartbeat and client reply carries
  the sender's epoch.  A member receiving a frame from a lower epoch
  rejects it (``stale-epoch``); a primary whose ship-back is rejected
  demotes itself on the spot, abandons its un-acked client replies
  (the callers time out and fail over), and schedules anti-entropy.
* **Anti-entropy rejoin** — a restarted or deposed member sends its
  per-urn ``[version, crc32]`` state vector to the current primary,
  which answers with exactly the differing objects (plus deletions and
  the live lock table); the joiner adopts them wholesale and resumes
  as a backup at the primary's sequence number.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

from repro.core.naming import URN
from repro.core.server import RoverServer
from repro.lint.contracts import replay_pure
from repro.net.simnet import Address, Host
from repro.net.transport import AsyncReply, DelayedReply, RpcError, Transport
from repro.sim import Simulator, make_rng

#: Client services whose effects mutate server state: these are the
#: operations the primary ships to its backups.  Everything else the
#: client can ask for (import/list/ship/subscribe) is read-only and is
#: answered by the primary alone.
REPLICATED_SERVICES = (
    "rover.export",
    "rover.invoke",
    "rover.lock",
    "rover.unlock",
)

#: Read-only client services: fenced on backups (a backup may be
#: stale), served directly on the primary without replication.
READONLY_SERVICES = (
    "rover.import",
    "rover.list",
    "rover.ship",
    "rover.subscribe",
)

#: How many records ride in one replicate frame.
SHIP_BATCH = 64

#: In-memory record-log cap per member; older records are trimmed and
#: stragglers below the trim point are healed by anti-entropy instead.
LOG_CAP = 1024


class ReplicaSet:
    """A client's view of one authority's replication group.

    Duck-typed into ``AccessManager.servers`` as a *replicated
    destination*: the network scheduler reads :attr:`current_host` when
    a message is about to leave and reports a member that did not answer
    through :meth:`advance_past`; :meth:`client_stage` installs the
    :class:`ClientFailover` that reads the group's fences.  Each client
    owns a private instance — membership is shared knowledge, but *which
    member to try next* is per-client.
    """

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

    def client_stage(self, manager: Any) -> "ClientFailover":
        """Install this set's failover stage on an access manager."""
        return ClientFailover(manager, self)


class ClientFailover:
    """The replication group's fence, read on the access manager's seam.

    Retrying is the scheduler's: it names the member per attempt and
    moves on, in place, from one that does not answer.  Left here is
    what only a *reply* says — ``not-primary``, or the stamp of a
    deposed reign: this stage moves the :class:`ReplicaSet`'s pointer
    (to the hinted member, or on by one) and has the manager ``retry``
    the request, which stays pending under the scheduler message and
    sequence number it has.  No queue, no timer.
    """

    #: Rotations one request may trigger before its failure turns
    #: terminal (bounds the probe loop when a whole replication group
    #: is unreachable or has no primary).
    max_rounds = 8

    def __init__(self, manager: Any, replica_set: ReplicaSet) -> None:
        self.manager = manager
        self.replica_set = replica_set
        self._m_failovers = manager.obs.registry.counter(
            "qrpc_failovers_total",
            "QRPCs sent again on a replica-group member's word (or silence)",
            labelnames=("host",),
        )
        manager.on_reply.append(self.on_reply)
        manager.on_failed.append(self.on_failed)

    def _retry(self, request: Any, rest: float) -> None:
        self._m_failovers.labels(host=self.manager.host.name).inc()
        self.manager.retry(request, rest)

    def _spend_round(self, request: Any, reason: str, past: str = "") -> None:
        """The probe made no progress: charge ``request`` a round, move
        on from ``past`` if the set still points at it, and retry after
        the scheduler's capped, jittered backoff for the rounds spent (a
        group-wide outage must not turn into a tight probe loop) — or
        fail the request for good, one round too many."""
        request.failover_rounds += 1
        if request.failover_rounds > self.max_rounds:
            self.manager.fail(request, reason)
            return
        if past == self.replica_set.current_host.name:
            self.replica_set.rotate()
        self._retry(request, self.manager.scheduler._backoff_delay(request.failover_rounds))

    def on_reply(self, request: Any, reply: Any) -> bool:
        """Route around the group's non-primary / deposed members.

        True when the reply was a redirect (``not-primary`` fence, or a
        reply stamped with a stale replication epoch — a deposed primary
        that does not yet know it lost): the request stays pending,
        unacknowledged, and goes out again toward the real primary.
        """
        replica_set = self.replica_set
        if (
            not isinstance(reply, dict)
            or URN.parse(request.urn).authority != replica_set.authority
        ):
            return False
        epoch = reply.get("ha_epoch")
        fresh = epoch is None or replica_set.observe_epoch(int(epoch))
        fenced = reply.get("status") == "not-primary"
        if fresh and not fenced:
            replica_set.suspect = ""
            return False  # an answer, from the current reign
        member = str(reply.get("ha_member", ""))
        hinted = (reply.get("primary") or "") if fenced else ""
        # A hint to believe is not: a backup pointing at itself, or one
        # naming the member that just left this client unanswered (its
        # lease on the corpse has not run out yet).
        believed = hinted and hinted not in (member, replica_set.suspect)
        if believed and replica_set.learn_primary(hinted):
            self._retry(request, 0.05)
        elif not fenced and member != replica_set.current_host.name:
            # A deposed primary's late answer; the set has left it since.
            self._retry(request, 0.05)
        else:
            self._spend_round(request, "replica group has no reachable primary", past=member)
        return True

    def on_failed(self, request: Any, reason: str) -> bool:
        """Renew the attempt budget of a QRPC no member answered (the
        scheduler asked one per attempt), while its rounds last."""
        if (
            URN.parse(request.urn).authority != self.replica_set.authority
            or not self.manager.pending(request)
        ):
            return False
        self._spend_round(request, reason)
        return True


def _rank(member: dict) -> tuple[int, int]:
    """Election rank a poll or its answer reports: most applied, then
    lowest index."""
    return int(member.get("seq", -1)), -int(member.get("index", 0))


class ReplicaAgent:
    """One member's replication logic, shimmed over its transport."""

    def __init__(
        self,
        sim: Simulator,
        server: RoverServer,
        transport: Transport,
        group: "ReplicationGroup",
        index: int,
        lease_s: float,
        heartbeat_s: float,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.server = server
        self.transport = transport
        self.group = group
        self.index = index
        self.host = transport.host
        self.lease_s = lease_s
        self.heartbeat_s = heartbeat_s
        self.rng = make_rng(seed, f"ha:{self.host.name}")
        self.role = "backup"
        self.epoch = 0
        #: Highest epoch promised to an election candidate (never
        #: adopted until the candidate wins; keeps concurrent
        #: elections from minting the same epoch twice).
        self.promised = 0
        self.primary_name = ""
        #: Sequence number of the last record executed (primary) or
        #: applied (backup) on this member.
        self.seq = 0
        #: Records (base_seq, seq]; older entries trimmed to LOG_CAP.
        self.log: list[dict] = []
        self.base_seq = 0
        self.last_heard = sim.now
        #: Election hold-off deadline (set when a poll learns some peer
        #: still hears a primary) — deliberately not ``last_heard``.
        self._hold_until = 0.0
        #: Commit seq advertised by the primary (backup-side lag view).
        self._primary_seq = 0
        #: Peer cursors, populated by the group after every member
        #: exists: [{name, host, acked_seq, inflight, attempts}].
        self.peers: list[dict] = []
        #: Backup acks needed before a client reply may complete (a
        #: majority, less the primary itself); set with the peers.
        self.quorum_backups = 0
        #: Client replies gated on quorum: [{seq, epoch, gate, reply}].
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
        #: Original (server-registered) handlers, keyed by service.
        #: Called through this table on both the primary's execute path
        #: and the backup's apply path.
        self._inner: dict[str, Callable[[Any, Address], Any]] = {}

        registry = server.obs.registry
        labels = {"authority": server.authority, "host": self.host.name}
        self._m_shipped = registry.counter(
            "ha_records_shipped_total",
            "Replication records acknowledged by this backup",
            labelnames=("authority", "host"),
        ).labels(**labels)
        self._m_applied = registry.counter(
            "ha_records_applied_total",
            "Replication records applied on this member",
            labelnames=("authority", "host"),
        ).labels(**labels)
        self._m_failovers = registry.counter(
            "ha_failovers_total",
            "Backup promotions to primary",
            labelnames=("authority",),
        ).labels(authority=server.authority)
        self._m_stale = registry.counter(
            "ha_stale_epoch_rejected_total",
            "Frames and replies rejected for carrying a stale epoch",
            labelnames=("authority", "host"),
        ).labels(**labels)
        registry.gauge(
            "ha_replication_lag",
            "Records this member trails the primary's commit seq by",
            labelnames=("authority", "host"),
        ).labels(**labels).set_function(self._lag)

        server.ha_agent = self
        self._install_shims()
        # A heartbeat is a replicate frame without records; a resync
        # nudge, one whose sender knows of a gap it has no records for.
        transport.register("rover.ha.replicate", self._on_replicate)
        transport.register("rover.ha.heartbeat", self._on_replicate)
        transport.register("rover.ha.resync", functools.partial(self._on_replicate, gap=True))
        transport.register("rover.ha.poll", self._on_poll)
        transport.register("rover.ha.sync", self._on_sync)

    # -- wiring --------------------------------------------------------------

    def _install_shims(self) -> None:
        """Interpose on every client-facing service the server exposes."""
        table = self.transport._request_handlers
        for service in REPLICATED_SERVICES + READONLY_SERVICES:
            handler = table.get(service)
            if handler is not None:
                self._inner[service] = handler
            self.transport.register(service, functools.partial(self._serve_client, service))

    def start(self) -> None:
        """Begin heartbeat/failure-detection ticks (group calls this)."""
        incarnation = self._incarnation
        # Stagger the first tick per member so election checks have a
        # canonical order even when every lease expires the same instant.
        self.sim.schedule(
            self.heartbeat_s + 0.01 * self.index, self._tick, incarnation
        )

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
        return (
            self.role == "primary"
            or (self.sim.now - self.last_heard) <= self.lease_s
        )

    def _backoff(self, attempts: int) -> float:
        ceiling = min(
            4.0 * self.heartbeat_s, self.heartbeat_s * (2 ** max(0, attempts - 1))
        )
        return ceiling * (0.5 + 0.5 * self.rng.random())

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
        inner = self._inner.get(service)
        if inner is None:
            return {"error": f"unknown service {service!r}"}
        if service not in REPLICATED_SERVICES:
            return self._stamp(inner(body, source))
        at = self.sim.now
        raw = inner(body, source)
        delay_s = 0.0
        reply = raw
        if isinstance(raw, DelayedReply):
            delay_s = raw.delay_s
            reply = raw.body
        record = {
            "seq": self.seq + 1,
            "epoch": self.epoch,
            "service": service,
            "body": body,
            "at": at,
            "src": source[0],
        }
        self.seq = record["seq"]
        self.log.append(record)
        if len(self.log) > LOG_CAP:
            self._trim_log()
        stamped = self._stamp(reply)
        if delay_s > 0:
            stamped = DelayedReply(delay_s, stamped)
        if self.quorum_backups == 0:
            return stamped
        gate = AsyncReply()
        self._waiters.append(
            {"seq": record["seq"], "epoch": self.epoch, "gate": gate, "reply": stamped}
        )
        for peer in self.peers:
            self._ship_to(peer)
        return gate

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

    def _trim_log(self) -> None:
        """Drop what the log holds beyond ``LOG_CAP`` (callers test)."""
        dropped = len(self.log) - LOG_CAP
        self.base_seq = self.log[dropped - 1]["seq"]
        del self.log[:dropped]

    def _check_waiters(self) -> None:
        """Complete every gated reply whose record reached quorum."""
        if self.role != "primary" or self._crashed:
            return
        needed = self.quorum_backups
        remaining: list[dict] = []
        for waiter in self._waiters:
            if waiter["epoch"] != self.epoch:
                continue  # a previous reign's gate: never complete it
            acked = sum(
                1 for peer in self.peers if peer["acked_seq"] >= waiter["seq"]
            )
            if acked >= needed:
                waiter["gate"].complete(waiter["reply"])
            else:
                remaining.append(waiter)
        self._waiters = remaining

    def _drop_waiters(self) -> None:
        """Abandon gated replies (demotion/crash): callers time out."""
        self._waiters = []

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
        if peer["inflight"] or self.role != "primary" or self._crashed:
            return
        # The log holds (base_seq, seq] without a gap: the peer has its
        # first ``held`` records and the batch is the slice after them.
        held = peer["acked_seq"] - self.base_seq
        if held < 0:
            # Fell behind the trimmed log: anti-entropy, not records.
            self._nudge_resync(peer)
            return
        records = self.log[held : held + SHIP_BATCH]
        if not records:
            return
        incarnation = self._incarnation
        body = {
            "epoch": self.epoch,
            "primary": self.host.name,
            "records": records,
            "commit_seq": self.seq,
        }
        peer["inflight"] = True
        before = peer["acked_seq"]

        def on_reply(reply: Any) -> None:
            peer["inflight"] = False
            if not self._alive(incarnation):
                return
            self._note_peer_reply(peer, reply)
            if peer["acked_seq"] > before:
                peer["attempts"] = 0
                self._m_shipped.inc(peer["acked_seq"] - before)
                if self.role == "primary" and peer["acked_seq"] < self.seq:
                    self._ship_to(peer)
            elif self.role == "primary":
                # No progress (peer mid-resync): damp the retry.
                self.sim.schedule(
                    self.heartbeat_s, self._retry_ship, peer, incarnation
                )

        def on_error(error: RpcError) -> None:
            peer["inflight"] = False
            if not self._alive(incarnation) or self.role != "primary":
                return
            peer["attempts"] += 1
            self.sim.schedule(
                self._backoff(peer["attempts"]), self._retry_ship, peer, incarnation
            )

        try:
            self.transport.call(
                peer["host"],
                "rover.ha.replicate",
                body,
                on_reply=on_reply,
                on_error=on_error,
                timeout=4.0 * self.heartbeat_s,
            )
        except RpcError as no_route:
            on_error(no_route)

    def _retry_ship(self, peer: dict, incarnation: int) -> None:
        if self._alive(incarnation) and self.role == "primary":
            self._ship_to(peer)

    def _send_heartbeat(self, peer: dict) -> None:
        incarnation = self._incarnation
        body = {
            "epoch": self.epoch,
            "primary": self.host.name,
            "commit_seq": self.seq,
        }

        def on_reply(reply: Any) -> None:
            if not self._alive(incarnation):
                return
            self._note_peer_reply(peer, reply)

        try:
            self.transport.call(
                peer["host"],
                "rover.ha.heartbeat",
                body,
                on_reply=on_reply,
                on_error=lambda error: None,
                timeout=2.0 * self.heartbeat_s,
            )
        except RpcError:
            pass  # no route to the peer right now; next tick retries

    def _note_peer_reply(self, peer: dict, reply: Any) -> None:
        """Fold a peer's ack/stale-epoch feedback into primary state."""
        if not isinstance(reply, dict):
            return
        if reply.get("status") == "stale-epoch":
            self._deposed(reply)
            return
        acked = int(reply.get("ack_seq", -1))
        if acked > peer["acked_seq"]:
            peer["acked_seq"] = acked
            self._check_waiters()

    def _nudge_resync(self, peer: dict) -> None:
        """Tell a straggler to run anti-entropy (its gap outlived the log)."""
        if peer["inflight"]:
            return
        incarnation = self._incarnation
        peer["inflight"] = True

        def on_reply(reply: Any) -> None:
            peer["inflight"] = False
            if self._alive(incarnation):
                self._note_peer_reply(peer, reply)

        def on_error(error: RpcError) -> None:
            peer["inflight"] = False

        try:
            self.transport.call(
                peer["host"],
                "rover.ha.resync",
                {"epoch": self.epoch, "primary": self.host.name},
                on_reply=on_reply,
                on_error=on_error,
                timeout=2.0 * self.heartbeat_s,
            )
        except RpcError:
            peer["inflight"] = False

    def _deposed(self, reply: dict) -> None:
        """A higher epoch exists: step down and reconcile."""
        if self.role != "primary":
            return
        self.role = "backup"
        self.epoch = max(self.epoch, int(reply.get("epoch", self.epoch)))
        self.primary_name = str(reply.get("primary") or "")
        self.last_heard = self.sim.now
        self._drop_waiters()
        self._needs_sync = True
        self._start_sync()

    # -- backup: apply + failure detection ------------------------------------

    def _on_replicate(self, body: Any, source: Address, gap: bool = False) -> Any:
        """Apply the primary's records in sequence; a ``gap`` (in them,
        or one the primary's log no longer covers) is for anti-entropy."""
        epoch = int(body.get("epoch", 0))
        verdict = self._observe_authority(epoch, str(body.get("primary", "")))
        if verdict is not None:
            return verdict
        self._primary_seq = int(body.get("commit_seq", self._primary_seq))
        for record in body.get("records", []):
            seq = int(record.get("seq", 0))
            if seq <= self.seq:
                continue  # duplicate delivery
            if seq != self.seq + 1:
                gap = True  # missing prefix: only anti-entropy can heal
                break
            self._apply(record)
        if gap and not self._needs_sync:
            self._needs_sync = True
            self.sim.schedule(0.0, self._start_sync)
        return {"ack_seq": self.seq, "epoch": self.epoch}

    def _observe_authority(self, epoch: int, primary: str) -> Optional[dict]:
        """Common epoch fence for primary-originated frames.

        Returns the rejection reply for stale frames, None to proceed.
        Adopting a higher epoch demotes this member if it believed
        itself primary (it lost a partition race) and marks it for
        anti-entropy, since its un-replicated suffix may diverge.
        """
        if epoch < self.epoch:
            self._m_stale.inc()
            return {
                "status": "stale-epoch",
                "epoch": self.epoch,
                "primary": self.primary_name,
            }
        if epoch > self.epoch or self.primary_name != primary:
            was_primary = self.role == "primary"
            self.epoch = epoch
            self.primary_name = primary
            if was_primary and primary != self.host.name:
                self.role = "backup"
                self._drop_waiters()
                self._needs_sync = True
                self.sim.schedule(0.0, self._start_sync)
        self.last_heard = self.sim.now
        return None

    def _apply(self, record: dict) -> None:
        """Re-execute one shipped record through the server's handler.

        The lease clock is pinned to the record's primary-side
        execution time for the duration, so lock grants and expiries
        evaluate identically here and there.
        """
        inner = self._inner.get(record.get("service", ""))
        if inner is not None:
            self.server._apply_now = float(record.get("at", self.sim.now))
            try:
                inner(record.get("body"), (str(record.get("src", "")), 0))
            except Exception:
                # Divergent apply: record it by falling behind nothing —
                # the state vector diff at the next anti-entropy round
                # repairs whatever this left inconsistent.
                pass
            finally:
                self.server._apply_now = None
        self.seq = int(record["seq"])
        self.log.append(record)
        if len(self.log) > LOG_CAP:
            self._trim_log()
        self._m_applied.inc()

    def _on_poll(self, body: Any, source: Address) -> Any:
        """Answer an election poll: rank, epoch, and freshness."""
        proposed = int(body.get("proposed", 0))
        heard = self._hears_primary()
        floor = max(self.epoch, self.promised)
        granted = not heard and (proposed > floor or self._yields_to(body, proposed))
        if granted:
            self.promised = proposed
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
        if _rank(poll) <= (self.seq, -self.index):
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

        for agent in self.group.agents:
            if agent is self:
                continue
            try:
                self.transport.call(
                    agent.host,
                    "rover.ha.poll",
                    {
                        "proposed": proposed,
                        "seq": self.seq,
                        "index": self.index,
                        "candidate": self.host.name,
                    },
                    on_reply=on_reply,
                    on_error=lambda error: None,
                    timeout=2.0 * self.heartbeat_s,
                )
            except RpcError:
                continue
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
            if reply.get("heard") or _rank(reply) > my_rank:
                return False
            if reply.get("granted"):
                votes += 1
            elif int(reply.get("epoch", 0)) >= proposed:
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
            self.promised = max([self.promised, *(int(r.get("epoch", 0)) for r in replies)])

    def _promote(self, new_epoch: int, replies: list[dict]) -> None:
        self.epoch = new_epoch
        self.role = "primary"
        self.primary_name = self.host.name
        self._needs_sync = False
        self._syncing = False
        self._m_failovers.inc()
        # Seed ship cursors from what the voters reported; members that
        # did not answer (the dead primary) restart from the log floor
        # and are healed by duplicate-skip or anti-entropy.
        reported = {
            int(reply.get("index", -1)): int(reply.get("seq", -1))
            for reply in replies
        }
        for peer in self.peers:
            peer["acked_seq"] = reported.get(peer["index"], -1)
            peer["attempts"] = 0
        for peer in self.peers:
            if peer["acked_seq"] < self.seq:
                self._ship_to(peer)
            else:
                self._send_heartbeat(peer)  # declare the new epoch now

    # -- anti-entropy ----------------------------------------------------------

    def _start_sync(self) -> None:
        if (
            self._syncing
            or self._crashed
            or self.role == "primary"
            or not self._needs_sync
        ):
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

        try:
            self.transport.call(
                target,
                "rover.ha.sync",
                body,
                on_reply=on_reply,
                on_error=on_error,
                timeout=4.0 * self.heartbeat_s,
            )
        except RpcError:
            self._syncing = False

    def _adopt_sync(self, reply: dict) -> None:
        """Install the primary's anti-entropy answer wholesale."""
        self.server.merge_subset(
            reply.get("subset", {}), reply.get("deletions", [])
        )
        self.server._locks = {
            urn: (holder, float(expires))
            for urn, holder, expires in reply.get("locks", [])
        }
        self.seq = int(reply.get("seq", self.seq))
        self.base_seq = self.seq
        self.log = []
        self.epoch = max(self.epoch, int(reply.get("epoch", self.epoch)))
        self.primary_name = str(reply.get("primary", self.primary_name))
        self.role = "backup"
        self._needs_sync = False
        self.last_heard = self.sim.now

    def _on_sync(self, body: Any, source: Address) -> Any:
        """Serve an anti-entropy request (primary side)."""
        if self.role != "primary":
            return {
                "status": "not-primary",
                "primary": self.primary_name,
                "ha_epoch": self.epoch,
            }
        theirs = body.get("vector", {})
        mine = self.server.state_vector()
        differing = sorted(
            urn for urn, signature in mine.items() if theirs.get(urn) != signature
        )
        deletions = sorted(urn for urn in theirs if urn not in mine)
        return {
            "status": "ok",
            "subset": self.server.subset_snapshot(differing),
            "deletions": deletions,
            "locks": sorted(
                [urn, holder, expires]
                for urn, (holder, expires) in self.server._locks.items()
            ),
            "seq": self.seq,
            "epoch": self.epoch,
            "primary": self.host.name,
        }

    # -- process faults ---------------------------------------------------------

    def crash(self) -> None:
        """The member's process died (chaos): volatile agent state goes."""
        self._crashed = True
        self._incarnation += 1
        self._drop_waiters()
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
        seed: int = 0,
    ) -> None:
        if not members:
            raise ValueError("a replication group needs at least one member")
        self.sim = sim
        self.authority = members[0][0].authority
        self.agents = [
            ReplicaAgent(
                sim,
                server,
                transport,
                group=self,
                index=index,
                lease_s=lease_s,
                heartbeat_s=heartbeat_s,
                seed=seed,
            )
            for index, (server, transport) in enumerate(members)
        ]
        first = self.agents[0]
        first.role = "primary"
        for agent in self.agents:
            agent.primary_name = first.host.name
            agent.quorum_backups = len(self.agents) // 2
            agent.peers = [
                {
                    "name": other.host.name,
                    "index": other.index,
                    "host": other.host,
                    "acked_seq": 0,
                    "inflight": False,
                    "attempts": 0,
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

    def primary_server(self) -> RoverServer:
        return self.primary_agent().server

    def hosts(self) -> list[Host]:
        return [agent.host for agent in self.agents]

    def make_replica_set(self) -> ReplicaSet:
        """A fresh client-side membership view (one per client)."""
        return ReplicaSet(self.hosts(), self.authority)
