"""One-call setup of a replicated-home-server testbed.

Mirrors :func:`repro.testbed.build_testbed`, but the single home
server becomes a :class:`~repro.ha.group.ReplicationGroup` of
``1 + n_backups`` member servers sharing one authority, and every
client holds its own :class:`~repro.ha.group.ReplicaSet` in
``AccessManager.servers`` so QRPCs fail over when the primary dies.

Member hosts are named ``server``, ``server-b1``, ``server-b2``, …;
members are fully meshed and every client is linked to every member
(the failover path must exist before the failure does).  Default RPC
timeouts and attempt budgets are much shorter than the base testbed's
so tests converge quickly after a primary kill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.server import RoverServer
from repro.ha.group import ReplicationGroup
from repro.net.link import ConnectivityPolicy, LinkSpec, ETHERNET_10M
from repro.net.simnet import Host, Network
from repro.net.transport import Transport
from repro.obs import Observatory, active_capture
from repro.sim import Simulator
from repro.storage.stable_log import FlushModel
from repro.testbed import ClientStack, build_client_stack


@dataclass
class HATestbed:
    """A replication group plus its mobile clients, fully wired."""

    sim: Simulator
    network: Network
    group: ReplicationGroup
    #: ``(server, transport)`` per member, primary first at build time.
    members: list[tuple[RoverServer, Transport]]
    clients: list[ClientStack]
    obs: Observatory = field(default_factory=Observatory)

    @property
    def authority(self) -> str:
        return self.group.authority

    @property
    def server(self) -> RoverServer:
        """The *current* primary's server (moves across failovers)."""
        return self.group.primary_server()

    def put_object(self, rdo, verify: Optional[bool] = None) -> int:
        """Install an object on *every* member (pre-provisioned state).

        Server-side administration bypasses the replication path, so
        seeding only the primary would leave the backups without the
        object; install it group-wide, like a release would.  Each
        member gets its own *copy* (:meth:`RDO.copy`): the store holds
        ``rdo.to_wire()`` by reference, and members sharing one mutable
        state dict would count every replicated apply twice (found by
        the ha-failover checker suite).
        """
        version = 0
        for server, _transport in self.members:
            version = server.put_object(rdo.copy(), verify=verify)
        return version


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
) -> HATestbed:
    """Build ``1 + n_backups`` member servers and ``n_clients`` clients.

    ``policies`` applies per client, to *all* of that client's member
    links (a flaky mobile link is flaky toward the whole group).
    ``mesh_policies`` scripts connectivity on the *member* mesh, keyed
    by member index pair ``(a, b)`` with ``a < b`` — the lever for
    partitioning a primary away from its backups while clients still
    reach it (split-brain drills).  ``client_options`` go to
    :func:`~repro.testbed.build_client_stack` (``compaction``,
    ``delta_shipping``, ``group_commit``, ``adapt_to_link``).
    """
    if obs is None:
        obs = active_capture() or Observatory(tracing=trace)
    elif trace:
        obs.tracer.enabled = True
    obs.tracer.scope_attrs["link"] = link_spec.name
    sim = Simulator()
    network = Network(sim, seed=seed)

    members: list[tuple[RoverServer, Transport]] = []
    member_hosts: list[Host] = []
    for index in range(1 + n_backups):
        name = authority if index == 0 else f"{authority}-b{index}"
        host = network.host(name)
        transport = Transport(sim, host, obs=obs)
        server = RoverServer(sim, transport, authority)
        members.append((server, transport))
        member_hosts.append(host)
    # Full replication mesh: every member can ship/poll every other.
    for a in range(len(member_hosts)):
        for b in range(a + 1, len(member_hosts)):
            mesh_policy = (mesh_policies or {}).get((a, b))
            network.connect(
                member_hosts[a], member_hosts[b], link_spec, mesh_policy
            )

    group = ReplicationGroup(
        sim, members, lease_s=lease_s, heartbeat_s=heartbeat_s, seed=seed
    )

    clients: list[ClientStack] = []
    for index in range(n_clients):
        host = network.host(f"client{index}")
        policy = policies[index] if policies is not None else None
        first_link = None
        for member_host in member_hosts:
            link = network.connect(host, member_host, link_spec, policy)
            if first_link is None:
                first_link = link
        assert first_link is not None
        clients.append(
            build_client_stack(
                sim,
                host,
                first_link,
                {authority: group.make_replica_set()},
                obs,
                flush_model=flush_model,
                max_attempts=max_attempts,
                rpc_timeout_s=rpc_timeout_s,
                **client_options,
            )
        )

    return HATestbed(
        sim=sim,
        network=network,
        group=group,
        members=members,
        clients=clients,
        obs=obs,
    )
