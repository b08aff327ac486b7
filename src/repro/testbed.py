"""Scenario builders — one-call setup of paper-style testbeds.

Shared by the tests, the benchmarks, and the examples so they all
measure the same configuration: a mobile client and a home server
joined by one of the paper's four links (plus optional SMTP relay),
with the full Rover stack wired on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class ClientStack:
    """One mobile client's full Rover stack."""

    host: Host
    link: Link
    transport: Transport
    scheduler: NetworkScheduler
    access: AccessManager
    #: This client's private Observatory when the testbed was built
    #: with ``per_client_obs=True`` (fleet telemetry needs per-client
    #: registries so each reporter ships only its own series);
    #: ``None`` when all clients share ``bed.obs``.
    obs: Optional[Observatory] = None

    def crash_and_recover(self) -> list[str]:
        """Crash this client process and rebuild it from the stable log.

        See :func:`repro.chaos.recovery.crash_and_recover_client`; the
        rebuilt manager replaces ``self.access``.  Returns replayed ids.
        """
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


def build_client_stack(
    sim: Simulator,
    host: Host,
    link: Link,
    servers: dict,
    obs: Observatory,
    adapt_to_link: bool = True,
    compaction: bool = False,
    max_inflight: int = 4,
    max_attempts: int = 8,
    fifo_only: bool = False,
    rpc_timeout_s: float = 600.0,
    **wiring,
) -> ClientStack:
    """Wire one mobile client on ``host``: transport, scheduler and, on
    top, what :func:`wire_access_manager` builds (``wiring`` is handed
    to it).  Every testbed builder's clients come from here; ``servers``
    is what the client resolves an authority to (a home-server host, or
    a replica set)."""
    transport = Transport(sim, host, obs=obs, adapt_to_link=adapt_to_link)
    scheduler = NetworkScheduler(
        sim,
        transport,
        max_inflight=max_inflight,
        max_attempts=max_attempts,
        fifo_only=fifo_only,
        obs=obs,
        rpc_timeout=rpc_timeout_s,
    )
    compactor = Compactor() if compaction else None
    access = wire_access_manager(scheduler, servers, obs, compactor=compactor, **wiring)
    return ClientStack(host, link, transport, scheduler, access)


@dataclass
class Testbed:
    """Everything a scenario needs, fully wired."""

    sim: Simulator
    network: Network
    client_host: Host
    server_host: Host
    link: Link
    client_transport: Transport
    server_transport: Transport
    scheduler: NetworkScheduler
    server: RoverServer
    access: AccessManager
    #: Shared metrics registry + tracer for every component in this bed.
    obs: Observatory = field(default_factory=Observatory)
    relay_host: Optional[Host] = None
    relay: Optional[MailRelay] = None
    client_mailbox: Optional[Mailbox] = None
    server_mailbox: Optional[Mailbox] = None
    extra: dict = field(default_factory=dict)

    @property
    def authority(self) -> str:
        return self.server.authority

    def crash_and_recover_client(self) -> list[str]:
        """Crash the client process and rebuild it from the stable log.

        Volatile state (scheduler queue, promises, cache, unflushed log
        tail) dies; the new :class:`AccessManager` replays pending
        QRPCs from the log.  Returns the replayed request ids; the
        rebuilt manager replaces ``self.access``.
        """
        from repro.chaos.recovery import crash_and_recover_client

        self.access, replayed = crash_and_recover_client(self.access)
        return replayed


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
    """Build the canonical client/server testbed.

    ``link_spec``/``policy`` describe the direct client-server link.
    With ``with_relay`` an SMTP relay host is added with its own links
    (default: same spec, always up), the client's scheduler learns the
    mail route, and the server answers mailed QRPCs.

    Observability: every component shares one :class:`Observatory`
    (``bed.obs``) so metrics land in a single registry and client and
    server spans join into one trace.  Pass ``obs`` to supply your own
    (e.g. shared across beds), ``trace=True`` for a fresh one with
    span recording on, or neither for metrics-only.  A process-wide
    capture installed via :func:`repro.obs.set_capture` (the bench
    CLI's ``--trace-out``/``--metrics`` path) takes effect when no
    explicit ``obs`` is given.

    ``adapt_to_link=False`` is for the ablation rows that reproduce the
    paper's prototype on a slow link (no compression, one QRPC per
    exchange); see :attr:`Transport.adapt_to_link`.  ``stable_backend``
    is :func:`wire_access_manager`'s: what the client's log is kept on
    (e.g. a :class:`~repro.storage.stable_log.FileLogBackend`).
    """
    if obs is None:
        obs = active_capture() or Observatory(tracing=trace)
    elif trace:
        obs.tracer.enabled = True
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    network = Network(sim, seed=seed)
    client_host = network.host("client")
    server_host = network.host(authority)
    link = network.connect(client_host, server_host, link_spec, policy)

    server_transport = Transport(sim, server_host, obs=obs, adapt_to_link=adapt_to_link)
    server = RoverServer(sim, server_transport, authority)
    stack = build_client_stack(
        sim,
        client_host,
        link,
        {authority: server_host},
        obs,
        flush_model=flush_model,
        max_inflight=max_inflight,
        max_attempts=max_attempts,
        fifo_only=fifo_only,
        adapt_to_link=adapt_to_link,
        rpc_timeout_s=rpc_timeout_s,
        compaction=compaction,
        delta_shipping=delta_shipping,
        group_commit=group_commit,
        stable_backend=stable_backend,
    )

    relay_host = relay = client_mailbox = server_mailbox = None
    if with_relay:
        relay_spec = relay_link_spec or link_spec
        relay_host = network.host("relay")
        network.connect(client_host, relay_host, relay_spec, relay_client_policy)
        network.connect(relay_host, server_host, relay_spec, relay_server_policy)
        relay_transport = Transport(sim, relay_host, obs=obs)
        relay = MailRelay(sim, relay_transport)
        relay.watch_new_links()
        client_mailbox = Mailbox(sim, stack.transport, relay_host)
        server_mailbox = Mailbox(sim, server_transport, relay_host)
        MailRpcEndpoint(sim, server_transport, server_mailbox)
        stack.scheduler.add_route(MailRoute(sim, client_mailbox))
        # The relay link was attached after the stack was wired.
        stack.access.watch_new_links()

    return Testbed(
        sim=sim,
        network=network,
        client_host=client_host,
        server_host=server_host,
        link=link,
        client_transport=stack.transport,
        server_transport=server_transport,
        scheduler=stack.scheduler,
        server=server,
        access=stack.access,
        obs=obs,
        relay_host=relay_host,
        relay=relay,
        client_mailbox=client_mailbox,
        server_mailbox=server_mailbox,
    )


@dataclass
class MultiClientTestbed:
    """Several mobile clients sharing one home server."""

    sim: Simulator
    network: Network
    server_host: Host
    server_transport: Transport
    server: RoverServer
    clients: list[ClientStack]
    #: Shared metrics registry + tracer across the server and all clients.
    obs: Observatory = field(default_factory=Observatory)

    @property
    def authority(self) -> str:
        return self.server.authority


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
) -> MultiClientTestbed:
    """Build N clients, each with its own link (and policy) to one server.

    Used by the calendar experiments, where two disconnected replicas
    make overlapping updates and reconcile at the home server.  With
    ``shared_medium=True`` every client link contends on one channel —
    a wireless cell rather than N dedicated wires.  Per-client metric
    series are told apart by their ``host``/``owner`` labels in the
    shared ``bed.obs`` registry — unless ``per_client_obs=True``, which
    gives every client a private Observatory (``stack.obs``) so fleet
    telemetry reporters ship disjoint registries; the server keeps
    ``bed.obs``.  ``link_specs`` assigns heterogeneous links: client
    ``i`` gets ``link_specs[i % len(link_specs)]`` (a mixed fleet
    population) instead of the uniform ``link_spec``.  ``adapt_to_link``
    is :func:`build_testbed`'s: False puts the server and every client
    on the paper prototype's wire.
    """
    if obs is None:
        obs = active_capture() or Observatory(tracing=trace)
    elif trace:
        obs.tracer.enabled = True
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    network = Network(sim, seed=seed)
    server_host = network.host(authority)
    server_transport = Transport(sim, server_host, obs=obs, adapt_to_link=adapt_to_link)
    server = RoverServer(sim, server_transport, authority)
    medium = network.medium(f"{link_spec.name}-cell") if shared_medium else None

    clients: list[ClientStack] = []
    for index in range(n_clients):
        host = network.host(f"client{index}")
        policy = policies[index] if policies is not None else None
        spec = (
            link_specs[index % len(link_specs)] if link_specs else link_spec
        )
        link = network.connect(host, server_host, spec, policy, medium=medium)
        client_obs = Observatory(tracing=False) if per_client_obs else obs
        stack = build_client_stack(
            sim,
            host,
            link,
            {authority: server_host},
            client_obs,
            flush_model=flush_model,
            rpc_timeout_s=rpc_timeout_s,
            compaction=compaction,
            delta_shipping=delta_shipping,
            group_commit=group_commit,
            adapt_to_link=adapt_to_link,
        )
        if per_client_obs:
            stack.obs = client_obs
        clients.append(stack)

    return MultiClientTestbed(
        sim=sim,
        network=network,
        server_host=server_host,
        server_transport=server_transport,
        server=server,
        clients=clients,
        obs=obs,
    )
