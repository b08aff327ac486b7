"""Mid-run process faults: crash and restart server/client processes.

The :class:`ChaosController` turns process failure into ordinary
simulator events.  Crashing the server leaves its object table as it
is -- each object's stored wire, version history and committer index,
what the server would hold on disk -- and:

* takes every port binding off the host (the sockets close; traffic
  arriving while down counts as ``dropped_to_unbound``),
* crashes the transport (pending call timers cancelled, reply epoch
  bumped so replies computed by the dead incarnation never transmit),
* fails every in-flight transfer on the host's links — senders see
  the failure through their normal callbacks and retransmit.

Restarting reverses it: ports come back and ``RoverServer.restart``
empties what was volatile, the at-most-once reply cache and the lock
leases.  Clients ride the outage out through the scheduler's
retransmit/backoff path; a retransmitted write that already committed
is answered from its object's committer index, and one that did not
meets the version stamps and resolvers, as the paper's design intends.

Client crashes delegate to :mod:`repro.chaos.recovery`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.chaos.faults import ChaosError, FaultyLink
from repro.chaos.plan import FaultPlan
from repro.sim import Simulator, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testbed import Testbed


class ChaosController:
    """Schedules and executes process faults against a running testbed."""

    def __init__(
        self,
        sim: Simulator,
        obs: Optional[Any] = None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.obs = obs
        self.seed = seed
        #: (virtual time, kind, detail) for every executed fault.
        self.timeline: list[tuple[float, str, str]] = []
        #: host name -> the port bindings taken while the server is
        #: down.  Keyed by host, not authority: replication-group
        #: members share one authority but crash independently.
        self._down: dict[str, dict] = {}
        self.server_crashes = 0
        self.client_crashes = 0
        self.replayed_total = 0
        self._m_events = None
        if obs is not None:
            self._m_events = obs.registry.counter(
                "chaos_process_events_total",
                "Process faults executed by the ChaosController",
                labelnames=("kind",),
            )

    def _note(self, kind: str, detail: str) -> None:
        self.timeline.append((self.sim.now, kind, detail))
        if self._m_events is not None:
            self._m_events.labels(kind=kind).inc()

    # -- server process faults -------------------------------------------

    def crash_server(self, server: Any) -> None:
        """Crash the server process right now (volatile state dies)."""
        host = server.transport.host
        if host.name in self._down:
            raise ChaosError(f"server {host.name} is already down")
        self._down[host.name] = host.take_ports()
        server.transport.crash()
        agent = getattr(server, "ha_agent", None)
        if agent is not None:
            agent.crash()
        for link in host.links:
            link.fail_inflight(f"peer {host.name} crashed")
        self.server_crashes += 1
        self._note("server_crash", host.name)

    def restart_server(self, server: Any) -> None:
        """Bring a crashed server back on its durable state."""
        host = server.transport.host
        ports = self._down.pop(host.name, None)
        if ports is None:
            raise ChaosError(f"server {host.name} is not down")
        host.restore_ports(ports)
        server.restart()
        agent = getattr(server, "ha_agent", None)
        if agent is not None:
            agent.restart()
        self._note("server_restart", host.name)

    def schedule_server_outage(
        self, server: Any, at: float, down_for: float
    ) -> None:
        """Arm one crash/restart cycle as future simulator events."""
        if down_for <= 0:
            raise ChaosError(f"outage duration {down_for} must be positive")
        self.sim.schedule_at(at, self.crash_server, server)
        self.sim.schedule_at(at + down_for, self.restart_server, server)

    def schedule_primary_kill(
        self, group: Any, at: float, down_for: float
    ) -> None:
        """Crash whichever member is primary when ``at`` arrives.

        The victim is resolved at fire time via
        ``group.primary_agent()`` — after an earlier kill and
        failover, this takes down the *promoted* member, not the
        original one.
        """
        if down_for <= 0:
            raise ChaosError(f"kill duration {down_for} must be positive")

        def execute() -> None:
            victim = group.primary_agent().server
            self.crash_server(victim)
            self.sim.schedule_at(
                self.sim.now + down_for, self.restart_server, victim
            )

        self.sim.schedule_at(at, execute)

    # -- client process faults -------------------------------------------

    def schedule_client_crash(
        self,
        at: float,
        recover_fn: Callable[[], list[str]],
        label: str = "client",
    ) -> None:
        """Arm a client crash at ``at``; ``recover_fn`` does the rebuild
        (e.g. ``ClientStack.crash_and_recover``) and returns replayed ids."""

        def execute() -> None:
            replayed = recover_fn()
            self.client_crashes += 1
            self.replayed_total += len(replayed)
            self._note("client_crash", f"{label} replayed={len(replayed)}")

        self.sim.schedule_at(at, execute)

    # -- declarative plans -------------------------------------------------

    def schedule(self, plan: FaultPlan, bed: "Testbed") -> list[FaultyLink]:
        """Arm a whole :class:`FaultPlan` against a
        :class:`repro.testbed.Testbed`.  Returns the created link
        injectors so callers can read their ``injected`` counters
        post-run.
        """
        injectors: list[FaultyLink] = []
        for index, window in enumerate(plan.link_windows):
            links = [
                link
                for link in bed.network.links
                if window.link is None or link.name == window.link
            ]
            if not links:
                raise ChaosError(f"window {index} matches no link ({window.link!r})")
            for link in links:
                injector = FaultyLink(
                    link,
                    window.spec,
                    make_rng(plan.seed, f"chaos.link:{index}:{link.name}"),
                    obs=self.obs,
                )
                injectors.append(injector)
                if window.start <= self.sim.now:
                    injector.install()
                else:
                    self.sim.schedule_at(window.start, injector.install)
                if window.end is not None:
                    self.sim.schedule_at(window.end, injector.uninstall)
        for outage in plan.server_outages:
            self.schedule_server_outage(bed.server, outage.at, outage.down_for)
        for kill in plan.primary_kills:
            if bed.group is None:
                raise ChaosError("primary_kills needs a replicated testbed")
            self.schedule_primary_kill(bed.group, kill.at, kill.down_for)
        for crash in plan.client_crashes:
            if not 0 <= crash.client < len(bed.clients):
                raise ChaosError(f"testbed has no client {crash.client}")
            self.schedule_client_crash(
                crash.at,
                bed.clients[crash.client].crash_and_recover,
                label=f"client{crash.client}",
            )
        return injectors
