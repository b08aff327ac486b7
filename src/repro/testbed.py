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
from repro.net.smtp import MailRelay, Mailbox, MailRoute, MailRpcEndpoint
from repro.net.transport import Transport
from repro.obs import Observatory, active_capture
from repro.perf.compact import Compactor
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
    #: The replication group; None unless built by :func:`build_ha_testbed`.
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
        return self.group.primary_server()

    # The one-client names: client 0's stack and member 0's side.
    access = property(lambda self: self.clients[0].access)
    scheduler = property(lambda self: self.clients[0].scheduler)
    client_transport = property(lambda self: self.clients[0].transport)
    client_host = property(lambda self: self.clients[0].host)
    link = property(lambda self: self.clients[0].link)
    server_transport = property(lambda self: self.members[0][1])
    server_host = property(lambda self: self.members[0][1].host)

    def put_object(self, rdo, verify: Optional[bool] = None) -> int:
        """Install an object on *every* member, like a release would:
        administration bypasses replication.  Each member gets its own
        *copy* (:meth:`RDO.copy`); members sharing one state dict would
        count every replicated apply twice."""
        version = 0
        for server, _transport in self.members:
            version = server.put_object(rdo.copy(), verify=verify)
        return version

    def crash_and_recover_client(self) -> list[str]:
        """:meth:`ClientStack.crash_and_recover` on client 0: its volatile
        state dies, the new manager replays pending QRPCs from the log."""
        return self.clients[0].crash_and_recover()


MultiClientTestbed = Testbed
HATestbed = Testbed


def _build(
    client_names: list[str],
    link_spec: LinkSpec = ETHERNET_10M,
    policies: Optional[list[Optional[ConnectivityPolicy]]] = None,
    authority: str = "server",
    seed: int = 0,
    obs: Optional[Observatory] = None,
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
    **wiring,
) -> Testbed:
    """Every builder's body: the members (``1 + n_backups`` of them in
    a replication group, one home server when ``n_backups`` is None),
    then a client stack per name, linked to every member, then the
    relay on client 0.  ``wiring`` goes to :func:`wire_access_manager`."""
    if obs is None:
        obs = active_capture() or Observatory(tracing=trace)
    elif trace:
        obs.tracer.enabled = True
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    network = Network(sim, seed=seed)

    members: list[tuple[RoverServer, Transport]] = []
    for index in range(1 + (n_backups or 0)):
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

        group = ReplicationGroup(sim, members, lease_s=lease_s, heartbeat_s=heartbeat_s, seed=seed)
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
        compactor = Compactor() if compaction else None
        access = wire_access_manager(scheduler, servers, client_obs, compactor=compactor, **wiring)
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
        MailRpcEndpoint(sim, members[0][1], bed.server_mailbox)
        stack.scheduler.add_route(MailRoute(sim, bed.client_mailbox))
        # The relay link was attached after the stack was wired.
        stack.access.watch_new_links()
    return bed


def build_testbed(
    link_spec: LinkSpec = ETHERNET_10M,
    policy: Optional[ConnectivityPolicy] = None,
    flush_model: Optional[FlushModel] = None,
    with_relay: bool = False,
    relay_link_spec: Optional[LinkSpec] = None,
    relay_client_policy: Optional[ConnectivityPolicy] = None,
    relay_server_policy: Optional[ConnectivityPolicy] = None,
    authority: str = "server",
    max_inflight: int = 4,
    fifo_only: bool = False,
    adapt_to_link: bool = True,
    seed: int = 0,
    obs: Optional[Observatory] = None,
    trace: bool = False,
    rpc_timeout_s: float = 600.0,
    max_attempts: int = 8,
    compaction: bool = False,
    delta_shipping: bool = False,
    group_commit: Optional[GroupCommitPolicy] = None,
    stable_backend=None,
) -> Testbed:
    """Client ``client`` and home server ``authority`` on one link.

    ``with_relay`` adds an SMTP relay (links: ``relay_link_spec`` or
    the same spec) that carries mailed QRPCs.  Every component shares
    ``bed.obs``: ``obs``, else a :func:`repro.obs.set_capture` capture,
    else a fresh one (``trace=True``: spans on).  ``adapt_to_link=False``
    puts every transport on the paper prototype's wire (see
    :attr:`Transport.adapt_to_link`).  ``stable_backend`` holds the
    client's log (e.g. a :class:`~repro.storage.stable_log.FileLogBackend`).
    """
    return _build(
        ["client"], link_spec=link_spec, policies=[policy], authority=authority,
        seed=seed, obs=obs, trace=trace, adapt_to_link=adapt_to_link,
        compaction=compaction, max_inflight=max_inflight, max_attempts=max_attempts,
        fifo_only=fifo_only, rpc_timeout_s=rpc_timeout_s, with_relay=with_relay,
        relay_link_spec=relay_link_spec, relay_client_policy=relay_client_policy,
        relay_server_policy=relay_server_policy, flush_model=flush_model,
        delta_shipping=delta_shipping, group_commit=group_commit,
        stable_backend=stable_backend,
    )


def build_multi_client_testbed(
    n_clients: int,
    link_spec: LinkSpec = ETHERNET_10M,
    policies: Optional[list[Optional[ConnectivityPolicy]]] = None,
    flush_model: Optional[FlushModel] = None,
    authority: str = "server",
    shared_medium: bool = False,
    seed: int = 0,
    obs: Optional[Observatory] = None,
    trace: bool = False,
    rpc_timeout_s: float = 600.0,
    compaction: bool = False,
    delta_shipping: bool = False,
    per_client_obs: bool = False,
    link_specs: Optional[list[LinkSpec]] = None,
    group_commit: Optional[GroupCommitPolicy] = None,
    adapt_to_link: bool = True,
) -> Testbed:
    """Clients ``client0`` … each with its own link (and policy) to one
    home server.  ``shared_medium=True``: the links contend on one
    channel (a wireless cell).  ``per_client_obs=True``: every client
    gets a private Observatory (``stack.obs``), so telemetry reporters
    ship disjoint registries.  ``link_specs``: client ``i`` gets
    ``link_specs[i % len(link_specs)]`` (a mixed population)."""
    return _build(
        [f"client{index}" for index in range(n_clients)], link_spec=link_spec,
        policies=policies, authority=authority, seed=seed, obs=obs, trace=trace,
        adapt_to_link=adapt_to_link, compaction=compaction, rpc_timeout_s=rpc_timeout_s,
        link_specs=link_specs, shared_medium=shared_medium,
        per_client_obs=per_client_obs, flush_model=flush_model,
        delta_shipping=delta_shipping, group_commit=group_commit,
    )


def build_ha_testbed(
    n_backups: int = 2,
    n_clients: int = 1,
    link_spec: LinkSpec = ETHERNET_10M,
    policies: Optional[list[Optional[ConnectivityPolicy]]] = None,
    authority: str = "server",
    seed: int = 0,
    obs: Optional[Observatory] = None,
    trace: bool = False,
    rpc_timeout_s: float = 5.0,
    max_attempts: int = 3,
    lease_s: float = 6.0,
    heartbeat_s: float = 2.0,
    flush_model: Optional[FlushModel] = None,
    mesh_policies: Optional[dict[tuple[int, int], ConnectivityPolicy]] = None,
    **client_options,
) -> Testbed:
    """A :class:`~repro.ha.group.ReplicationGroup` of ``1 + n_backups``
    fully meshed members (``server``, ``server-b1``, …) and clients
    ``client0`` … linked to every member, each with its own
    :class:`~repro.ha.group.ReplicaSet` to fail over by; short RPC
    budgets, so a primary kill converges quickly.  ``mesh_policies``
    scripts the mesh per member pair ``(a, b)``, ``a < b``;
    ``client_options`` are :func:`build_testbed`'s (``compaction``, …)."""
    return _build(
        [f"client{index}" for index in range(n_clients)], link_spec=link_spec,
        policies=policies, authority=authority, seed=seed, obs=obs, trace=trace,
        rpc_timeout_s=rpc_timeout_s, max_attempts=max_attempts, n_backups=n_backups,
        lease_s=lease_s, heartbeat_s=heartbeat_s, mesh_policies=mesh_policies,
        flush_model=flush_model, **client_options,
    )
