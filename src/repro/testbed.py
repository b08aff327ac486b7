"""Scenario builders — one-call setup of paper-style testbeds.

Shared by the tests, the benchmarks, and the examples so they all
measure the same configuration: mobile clients and a home server (or a
replication group), an optional SMTP relay, the full Rover stack on
every side.  One body wires every shape; the three builders name its
clients."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from repro.core.access_manager import AccessManager
from repro.core.notification import NotificationCenter
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.core.server import RoverServer
from repro.net.link import ConnectivityPolicy, LinkSpec, ETHERNET_10M
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Host, Link, Network
from repro.net.smtp import MailRelay, Mailbox, MailRoute
from repro.net.transport import Transport
from repro.obs import Observatory, active_capture
from repro.sim import Simulator
from repro.storage.stable_log import FlushModel, GroupCommitPolicy, StableLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ha.group import ReplicationGroup


@dataclass
class ClientStack:
    """One mobile client's full Rover stack."""

    host: Host
    #: The link to the first member (a client is linked to every member).
    link: Link
    transport: Transport
    scheduler: NetworkScheduler
    access: AccessManager
    #: This client's private Observatory under ``per_client_obs=True``;
    #: ``None`` when all clients share ``bed.obs``.
    obs: Optional[Observatory] = None

    def crash_and_recover(self) -> list[str]:
        """Crash this client process and rebuild it from the stable log
        (:func:`repro.chaos.recovery.crash_and_recover_client`); the
        rebuilt manager replaces ``self.access``.  Returns replayed ids."""
        from repro.chaos.recovery import crash_and_recover_client

        self.access, replayed = crash_and_recover_client(self.access)
        return replayed


def wire_access_manager(
    scheduler: NetworkScheduler,
    servers: dict,
    obs: Observatory,
    stable_backend=None,
    flush_model: Optional[FlushModel] = None,
    **access_options,
) -> AccessManager:
    """The volatile upper half of a client: a fresh cache, operation log
    and notification center around ``scheduler``, all labelled with its
    host and reporting to ``obs``.  ``stable_backend`` is the crash
    survivor a reborn client is rebuilt over (None: a new in-memory
    one); ``access_options`` go to :class:`AccessManager` as given."""
    sim = scheduler.sim
    owner = scheduler.host.name
    return AccessManager(
        sim,
        scheduler,
        servers=servers,
        cache=ObjectCache(clock=lambda: sim.now, obs=obs, owner=owner),
        log=OperationLog(
            StableLog(stable_backend, flush_model=flush_model, obs=obs, owner=owner),
            obs=obs,
            owner=owner,
        ),
        notifications=NotificationCenter(),
        obs=obs,
        **access_options,
    )


@dataclass
class Testbed:
    """Everything a scenario needs, fully wired: client stacks and a
    home server, or a replication group of member servers."""

    sim: Simulator
    network: Network
    #: Shared metrics registry + tracer for every component in this bed.
    obs: Observatory
    #: ``(server, transport)`` per member, primary first at build time.
    members: list[tuple[RoverServer, Transport]]
    clients: list[ClientStack]
    #: The replication group; None unless built with ``n_backups``.
    group: Optional[ReplicationGroup] = None
    relay_host: Optional[Host] = None
    relay: Optional[MailRelay] = None
    client_mailbox: Optional[Mailbox] = None
    server_mailbox: Optional[Mailbox] = None

    @property
    def authority(self) -> str:
        return self.members[0][0].authority

    @property
    def server(self) -> RoverServer:
        """The home server; in a group, the *current* primary's."""
        if self.group is None:
            return self.members[0][0]
        return self.group.primary_agent().server

    # The one-client names: client 0's stack and member 0's side.
    access = property(lambda self: self.clients[0].access)
    scheduler = property(lambda self: self.clients[0].scheduler)
    client_transport = property(lambda self: self.clients[0].transport)
    client_host = property(lambda self: self.clients[0].host)
    link = property(lambda self: self.clients[0].link)
    server_transport = property(lambda self: self.members[0][1])
    server_host = property(lambda self: self.members[0][1].host)

    def put_object(self, rdo, verify: bool = True) -> int:
        """Install an object on *every* member, like a release would:
        administration bypasses replication.  Each member gets its own
        *copy* (:meth:`RDO.copy`); members sharing one state dict would
        count every replicated apply twice."""
        version = 0
        for server, _transport in self.members:
            version = server.put_object(rdo.copy(), verify=verify)
        return version


MultiClientTestbed = Testbed
HATestbed = Testbed


def _build(
    client_names: list[str],
    link_spec: LinkSpec = ETHERNET_10M,
    policies: Optional[list[Optional[ConnectivityPolicy]]] = None,
    authority: str = "server",
    seed: int = 0,
    trace: bool = False,
    adapt_to_link: bool = True,
    compaction: bool = False,
    max_inflight: int = 4,
    max_attempts: int = 8,
    fifo_only: bool = False,
    rpc_timeout_s: float = 600.0,
    link_specs: Optional[list[LinkSpec]] = None,
    shared_medium: bool = False,
    per_client_obs: bool = False,
    n_backups: Optional[int] = None,
    lease_s: float = 6.0,
    heartbeat_s: float = 2.0,
    mesh_policies: Optional[dict[tuple[int, int], ConnectivityPolicy]] = None,
    with_relay: bool = False,
    relay_link_spec: Optional[LinkSpec] = None,
    relay_client_policy: Optional[ConnectivityPolicy] = None,
    relay_server_policy: Optional[ConnectivityPolicy] = None,
    flush_model: Optional[FlushModel] = None,
    delta_shipping: bool = False,
    group_commit: Optional[GroupCommitPolicy] = None,
    stable_backend=None,
) -> Testbed:
    """Every builder's body, and the one place its options are declared.

    It builds the members (``authority``, then ``authority-b1`` …), a
    client stack per name linked to every member, then the relay on
    client 0.  The options:

    * ``link_spec``: every link's spec; ``link_specs``: client ``i``
      gets ``link_specs[i % len(link_specs)]`` (a mixed population);
    * ``policies``: one connectivity policy (or None) per client;
    * ``shared_medium``: the client links contend on one channel (a
      wireless cell);
    * ``authority``: the home server's name; ``seed``: the network's;
    * ``trace``: spans on.  Every component shares ``bed.obs``: a
      :func:`repro.obs.set_capture` capture if one is installed, else a
      fresh Observatory; ``per_client_obs``: each client gets a private
      one (``stack.obs``), so telemetry reporters ship disjoint
      registries;
    * ``adapt_to_link=False``: every transport on the paper
      prototype's wire (see :attr:`Transport.adapt_to_link`);
    * the scheduler's ``max_inflight``, ``max_attempts``, ``fifo_only``
      and ``rpc_timeout_s``;
    * ``n_backups``: a :class:`~repro.ha.group.ReplicationGroup` of
      ``1 + n_backups`` fully meshed members, with ``lease_s`` and
      ``heartbeat_s``; each client fails over by its own
      :class:`~repro.ha.group.ReplicaSet`.  None: one home server;
    * ``mesh_policies``: scripts the mesh per member pair ``(a, b)``,
      ``a < b``;
    * ``with_relay``: an SMTP relay that carries mailed QRPCs, linked to
      client 0 and the home server by ``relay_link_spec`` (default
      ``link_spec``) under ``relay_client_policy`` and
      ``relay_server_policy``;
    * the access manager's ``compaction``, ``delta_shipping``,
      ``group_commit`` and ``flush_model``; ``stable_backend`` holds
      the client's log (e.g. a
      :class:`~repro.storage.stable_log.FileLogBackend`).

    An option that cannot apply to the shape asked for is a
    ``ValueError`` before anything is built.
    """
    n_members = 1 + (n_backups or 0)
    if policies is not None and len(policies) != len(client_names):
        raise ValueError(
            f"policies has {len(policies)} entries for {len(client_names)} clients"
        )
    for a, b in mesh_policies or {}:
        if not 0 <= a < b < n_members:
            raise ValueError(
                f"mesh_policies key {(a, b)} is not a member pair (a, b), a < b, "
                f"of {n_members} members"
            )
    obs = active_capture() or Observatory(tracing=trace)
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    network = Network(sim, seed=seed)

    members: list[tuple[RoverServer, Transport]] = []
    for index in range(n_members):
        host = network.host(authority if index == 0 else f"{authority}-b{index}")
        transport = Transport(sim, host, obs=obs, adapt_to_link=adapt_to_link)
        members.append((RoverServer(sim, transport, authority), transport))
    member_hosts = [transport.host for _server, transport in members]
    # Full replication mesh: every member can ship/poll every other.
    for a, b in combinations(range(len(members)), 2):
        mesh_policy = (mesh_policies or {}).get((a, b))
        network.connect(member_hosts[a], member_hosts[b], link_spec, mesh_policy)
    group = None
    if n_backups is not None:
        from repro.ha.group import ReplicationGroup  # repro.ha imports this module

        group = ReplicationGroup(sim, members, lease_s=lease_s, heartbeat_s=heartbeat_s)
    medium = network.medium(f"{link_spec.name}-cell") if shared_medium else None

    clients: list[ClientStack] = []
    for index, name in enumerate(client_names):
        host = network.host(name)
        policy = policies[index] if policies is not None else None
        spec = link_specs[index % len(link_specs)] if link_specs else link_spec
        links = [network.connect(host, m, spec, policy, medium=medium) for m in member_hosts]
        client_obs = Observatory(tracing=False) if per_client_obs else obs
        servers = {authority: group.make_replica_set() if group is not None else member_hosts[0]}
        transport = Transport(sim, host, obs=client_obs, adapt_to_link=adapt_to_link)
        scheduler = NetworkScheduler(
            sim, transport, max_inflight=max_inflight, max_attempts=max_attempts,
            fifo_only=fifo_only, obs=client_obs, rpc_timeout=rpc_timeout_s,
        )
        access = wire_access_manager(
            scheduler, servers, client_obs, stable_backend=stable_backend,
            flush_model=flush_model, compaction=compaction,
            delta_shipping=delta_shipping, group_commit=group_commit,
        )
        stack_obs = client_obs if per_client_obs else None
        clients.append(ClientStack(host, links[0], transport, scheduler, access, stack_obs))

    bed = Testbed(sim, network, obs, members, clients, group)
    if with_relay:
        stack = clients[0]
        relay_spec = relay_link_spec or link_spec
        bed.relay_host = network.host("relay")
        network.connect(stack.host, bed.relay_host, relay_spec, relay_client_policy)
        network.connect(bed.relay_host, member_hosts[0], relay_spec, relay_server_policy)
        relay_transport = Transport(sim, bed.relay_host, obs=obs, adapt_to_link=adapt_to_link)
        bed.relay = MailRelay(sim, relay_transport)
        bed.relay.watch_new_links()
        bed.client_mailbox = Mailbox(sim, stack.transport, bed.relay_host)
        bed.server_mailbox = Mailbox(sim, members[0][1], bed.relay_host)
        stack.scheduler.add_route(MailRoute(bed.client_mailbox))
        # The relay link was attached after the stack was wired.
        stack.access.watch_new_links()
    return bed


def build_testbed(*, policy: Optional[ConnectivityPolicy] = None, **options) -> Testbed:
    """Client ``client`` and home server ``authority``; ``policy``
    scripts the client's link.  ``options``: :func:`_build`'s."""
    return _build(["client"], policies=[policy], **options)


def build_multi_client_testbed(n_clients: int, **options) -> Testbed:
    """Clients ``client0`` … ``client{n_clients - 1}``, each with its own
    link.  ``options``: :func:`_build`'s."""
    return _build([f"client{index}" for index in range(n_clients)], **options)


def build_ha_testbed(
    n_backups: int = 2,
    n_clients: int = 1,
    rpc_timeout_s: float = 5.0,
    max_attempts: int = 3,
    **options,
) -> Testbed:
    """Clients ``client0`` … against a replication group of ``1 +
    n_backups`` members, with short RPC budgets so a primary kill
    converges quickly.  ``options``: :func:`_build`'s."""
    return _build(
        [f"client{index}" for index in range(n_clients)], n_backups=n_backups,
        rpc_timeout_s=rpc_timeout_s, max_attempts=max_attempts, **options,
    )
