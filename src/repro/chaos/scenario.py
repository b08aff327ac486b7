"""The canonical chaos scenario: a mail workload under a fault plan.

One client appends messages to a shared folder over a wireless link
while the :func:`standard_plan` runs against it: two server
crash/restart cycles, one client crash with stable-log recovery, and
always-on probabilistic drop/duplication/corruption/reordering.  After
the workload horizon, the run drains to quiescence and the shared
invariant checkers pass judgement.

``run_chaos_scenario`` is consumed three ways:

* the chaos test suite asserts the acceptance criteria on it;
* benchmark E13 compares it against a fault-free control run;
* same-seed determinism: two runs with one seed produce identical
  result dicts, including a CRC digest of the final server state.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.apps.mail import MailServerApp
from repro.chaos.controller import ChaosController
from repro.chaos.invariants import (
    check_acked_updates_durable,
    check_cache_coherent,
    check_corruption_accounted,
    check_logs_drained,
    check_no_orphan_tentative,
)
from repro.chaos.plan import ClientCrash, FaultPlan, LinkFaultWindow, ServerOutage
from repro.chaos.faults import LinkFaultSpec
from repro.net.link import WAVELAN_2M
from repro.net.message import marshal
from repro.obs.metrics import percentile
from repro.storage.stable_log import FileLogBackend
from repro.testbed import build_testbed


def standard_plan(seed: int) -> FaultPlan:
    """The acceptance-criteria plan: ≥2 server outages, one client
    crash, and nonzero drop/duplication/corruption on every link."""
    return FaultPlan(
        seed=seed,
        server_outages=(
            ServerOutage(at=400.0, down_for=120.0),
            ServerOutage(at=1100.0, down_for=90.0),
        ),
        # Mid-outage: the server is down, so QRPCs sent since t=400 are
        # still pending in the stable log — the crash must replay them.
        client_crashes=(ClientCrash(at=490.0, client=0),),
        link_windows=(
            LinkFaultWindow(
                LinkFaultSpec(drop=0.08, duplicate=0.05, corrupt=0.05, reorder=0.05)
            ),
        ),
    )


def run_chaos_scenario(
    seed: int = 0,
    *,
    faults: bool = True,
    log_path: Optional[str] = None,
    n_messages: int = 20,
    horizon: float = 2000.0,
) -> dict:
    """Run the mail workload under :func:`standard_plan` (or fault-free).

    ``log_path`` backs the client's operation log with a real
    :class:`FileLogBackend` so the client crash exercises fsync-offset
    truncation and file-based recovery.  Returns a result dict that is
    bit-identical across same-seed reruns.
    """
    # Short per-attempt timeout: a corrupted or dropped request frame
    # is invisible to the sender, so only the timeout recovers it.  12
    # attempts rides out a full outage's worth of burned attempts.
    bed = build_testbed(
        link_spec=WAVELAN_2M,
        seed=seed,
        rpc_timeout_s=60.0,
        max_attempts=12,
        stable_backend=FileLogBackend(log_path) if log_path is not None else None,
    )
    app = MailServerApp(bed.server)
    folder_urn = str(app.create_folder("chaos"))

    controller = ChaosController(bed.sim, obs=bed.obs, seed=seed)
    injectors = controller.schedule(standard_plan(seed), bed) if faults else []

    acked_ids: list[str] = []
    ack_latencies: list[float] = []

    def send_message(index: int) -> None:
        # Read bed.access on every send: the client crash rebinds it.
        access = bed.access
        sent_at = bed.sim.now
        entry = {
            "id": f"m{index}",
            "from": "chaos@repro",
            "subject": f"chaos message {index}",
            "size": 64 + index,
        }

        def append(_rdo=None) -> None:
            access.invoke(folder_urn, "append_entry", entry)
            access.export(folder_urn).then(on_ack)

        def on_ack(_reply) -> None:
            acked_ids.append(entry["id"])
            ack_latencies.append(bed.sim.now - sent_at)

        if access.cache.lookup(folder_urn) is not None:
            append()
        else:
            # Post-crash (or slow first import): (re-)import the
            # folder, append when the copy arrives.
            access.import_(folder_urn).then(append)

    bed.access.import_(folder_urn)
    step = horizon / (n_messages + 1)
    for index in range(n_messages):
        bed.sim.schedule_at(step * (index + 1), send_message, index)

    bed.sim.run(until=horizon)
    drained = bed.sim.run_until(
        lambda: bed.access.pending_count() == 0 and bed.scheduler.idle(),
        timeout=6000.0,
    )
    bed.sim.run()  # late duplicates etc.; terminates (timers are eager-cancelled)

    violations = (
        check_logs_drained([bed.access])
        + check_acked_updates_durable(bed.server, folder_urn, acked_ids)
        + check_cache_coherent(bed.server, [bed.access])
        + check_no_orphan_tentative([bed.access])
        + check_corruption_accounted(
            injectors, [bed.client_transport, bed.server_transport]
        )
    )

    final = bed.server.get_object(folder_urn)
    injected = {"drop": 0, "duplicate": 0, "corrupt": 0, "reorder": 0}
    for injector in injectors:
        for kind, count in injector.injected.items():
            injected[kind] += count

    return {
        "seed": seed,
        "faults": faults,
        "sends": n_messages,
        "acked": len(acked_ids),
        "mean_ack_s": (
            round(sum(ack_latencies) / len(ack_latencies), 6) if ack_latencies else 0.0
        ),
        "p95_ack_s": round(percentile(ack_latencies, 95), 6) if ack_latencies else 0.0,
        "retransmissions": bed.scheduler.retransmissions,
        "server_crashes": controller.server_crashes,
        "client_crashes": controller.client_crashes,
        "replayed": controller.replayed_total,
        "injected": injected,
        "corrupt_detected": (
            bed.client_transport.corrupt_frames_detected
            + bed.server_transport.corrupt_frames_detected
        ),
        "duplicates_suppressed": bed.server.duplicates_suppressed,
        "drained": drained,
        "violations": violations,
        "digest": zlib.crc32(marshal(final.data)) if final is not None else 0,
    }
