"""Experiment drivers — one per table/figure of the evaluation.

Each ``run_*`` function builds its scenario on the simulated testbed,
runs it in virtual time, and returns a list of result rows (dicts).
:mod:`repro.bench.registry` declares, once per experiment, the table
those rows print as, the wire they are measured on and the gate that
pins them; ``benchmarks/test_experiments.py`` asserts the expected
shape; EXPERIMENTS.md records the numbers next to the paper's claims.

The byte-bound paper tables (E5, E7, E8, F1, F3) run on the prototype's
wire, ``adapt_to_link=False``: the paper's prototype "does not perform
any compression", and the synthetic payloads here (``"x" * size``,
generated mail and page text) deflate to nothing on the default wire,
which would measure the generator, not the link.
"""

from __future__ import annotations

import dataclasses
import gc
import math

from repro.apps.calendar import CalendarReplica, install_calendar
from repro.apps.mail import BlockingMailReader, MailServerApp, RoverMailReader
from repro.apps.webproxy import BlockingBrowser, ClickAheadProxy, WebServerApp
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import (
    CSLIP_2_4,
    CSLIP_14_4,
    ETHERNET_10M,
    STANDARD_LINKS,
    WAVELAN_2M,
    IntervalTrace,
    LinkSpec,
)
from repro.net.scheduler import Priority
from repro.net.transport import RpcError
from repro.storage.stable_log import FlushModel, GroupCommitPolicy
from repro.testbed import build_multi_client_testbed, build_testbed
from repro.workloads import (
    browse_path,
    generate_calendar_ops,
    generate_mail_corpus,
    generate_site,
)

NULL_CODE = '''
def ping(state):
    return None

def read_value(state):
    return state["value"]
'''

NULL_INTERFACE = RDOInterface([MethodSpec("ping"), MethodSpec("read_value")])


def _null_object(path: str = "bench/null", value: int = 0) -> RDO:
    return RDO(
        URN("server", path),
        "bench-null",
        {"value": value},
        code=NULL_CODE,
        interface=NULL_INTERFACE,
    )


# ---------------------------------------------------------------------------
# E1 — null-QRPC latency per network
# ---------------------------------------------------------------------------


def run_e1_qrpc_latency() -> list[dict]:
    """Null QRPC vs blocking null RPC on each of the paper's links."""
    rows = []
    for spec in STANDARD_LINKS:
        # Blocking RPC baseline: no log, no queue.
        bed = build_testbed(link_spec=spec)
        bed.server.put_object(_null_object())
        start = bed.sim.now
        bed.client_transport.call_blocking(
            bed.server_host,
            "rover.invoke",
            {"urn": "urn:rover:server/bench/null", "method": "ping", "args": []},
        )
        rpc_time = bed.sim.now - start

        # QRPC: logged, flushed, queued, scheduled.
        bed2 = build_testbed(link_spec=spec)
        bed2.server.put_object(_null_object())
        start = bed2.sim.now
        promise = bed2.access.invoke_remote("urn:rover:server/bench/null", "ping")
        promise.wait(bed2.sim)
        qrpc_time = bed2.sim.now - start

        rows.append(
            {
                "link": spec.name,
                "rpc_s": rpc_time,
                "qrpc_s": qrpc_time,
                "overhead_s": qrpc_time - rpc_time,
                "overhead_pct": 100.0 * (qrpc_time - rpc_time) / qrpc_time,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E2 — stable-log flush overhead on the critical path
# ---------------------------------------------------------------------------


def run_e2_log_overhead() -> list[dict]:
    """End-to-end QRPC time with the flush enabled vs disabled."""
    rows = []
    for spec in STANDARD_LINKS:
        times = {}
        for label, model in (("flush", None), ("no_flush", FlushModel.free())):
            bed = build_testbed(link_spec=spec, flush_model=model)
            bed.server.put_object(_null_object())
            start = bed.sim.now
            promise = bed.access.invoke_remote("urn:rover:server/bench/null", "ping")
            promise.wait(bed.sim)
            times[label] = bed.sim.now - start
            if label == "flush":
                flush_cost = bed.access.flush_seconds_total
        rows.append(
            {
                "link": spec.name,
                "qrpc_with_flush_s": times["flush"],
                "qrpc_without_flush_s": times["no_flush"],
                "flush_cost_s": flush_cost,
                "flush_fraction_pct": 100.0 * (times["flush"] - times["no_flush"]) / times["flush"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E2b — group-commit ablation
# ---------------------------------------------------------------------------


def run_e2b_group_commit() -> list[dict]:
    """Ablation the paper *names* but does not build: group commit.

    A burst of QRPCs on the fast LAN, where E2 shows the per-request
    flush dominating.  Group commit amortizes one flush across the
    burst at the cost of a wider crash-loss window.
    """
    n_requests = 10
    rows = []
    for window in (0.0, 0.02, 0.1):
        bed = build_testbed(
            link_spec=ETHERNET_10M,
            group_commit=GroupCommitPolicy.fixed(window) if window > 0 else None,
        )
        for index in range(n_requests):
            bed.server.put_object(
                RDO(URN("server", f"bench/gc/{index:02d}"), "blob", {"n": index})
            )
        start = bed.sim.now
        promises = [
            bed.access.import_(f"urn:rover:server/bench/gc/{index:02d}")
            for index in range(n_requests)
        ]
        bed.sim.run_until(lambda: all(p.is_done for p in promises), timeout=1e6)
        rows.append(
            {
                "window_s": window,
                "burst_completion_s": bed.sim.now - start,
                "flushes": bed.access.log.stable.flushes,
                "flush_seconds": bed.access.flush_seconds_total,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E3 — cached-RDO local invocation vs RPC (the paper's 56x claim)
# ---------------------------------------------------------------------------


def run_e3_local_vs_rpc() -> list[dict]:
    """Invoke a small method on the cached copy vs the same via RPC."""
    rows = []
    for spec in STANDARD_LINKS:
        bed = build_testbed(link_spec=spec)
        bed.server.put_object(_null_object())
        bed.access.import_("urn:rover:server/bench/null").wait(bed.sim)

        __, local_time = bed.access.invoke("urn:rover:server/bench/null", "read_value")

        start = bed.sim.now
        bed.client_transport.call_blocking(
            bed.server_host,
            "rover.invoke",
            {"urn": "urn:rover:server/bench/null", "method": "read_value", "args": []},
        )
        rpc_time = bed.sim.now - start
        rows.append(
            {
                "link": spec.name,
                "local_invoke_s": local_time,
                "rpc_s": rpc_time,
                "speedup": rpc_time / local_time,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E4 — RDO migration: N round trips vs one shipped RDO
# ---------------------------------------------------------------------------


def run_e4_migration() -> list[dict]:
    """A task needing N server-side lookups: N QRPCs vs 1 shipped RDO."""
    rows = []
    for spec in (ETHERNET_10M, CSLIP_14_4):
        for n in (1, 2, 4, 8, 16):
            bed, bed2 = build_testbed(link_spec=spec), build_testbed(link_spec=spec)
            for index in range(n):
                for server in (bed.server, bed2.server):
                    server.put_object(_null_object(f"bench/items/{index:03d}", index))
            # Per-operation QRPCs (sequential, as an app loop would be).
            start = bed.sim.now
            total = 0
            for index in range(n):
                promise = bed.access.invoke_remote(
                    f"urn:rover:server/bench/items/{index:03d}", "read_value"
                )
                total += promise.wait(bed.sim)
            per_op_time = bed.sim.now - start
            assert total == sum(range(n))

            # One shipped RDO doing the loop server-side.
            code = (
                "def main(prefix):\n"
                "    total = 0\n"
                "    for key in objects(prefix):\n"
                "        total = total + lookup(key)['value']\n"
                "    return total\n"
            )
            start = bed2.sim.now
            promise = bed2.access.ship(
                "server", code, args=["urn:rover:server/bench/items/"]
            )
            shipped_total = promise.wait(bed2.sim)
            ship_time = bed2.sim.now - start
            assert shipped_total == sum(range(n))

            rows.append(
                {
                    "link": spec.name,
                    "n_ops": n,
                    "per_op_qrpc_s": per_op_time,
                    "shipped_rdo_s": ship_time,
                    "speedup": per_op_time / ship_time,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E5 — mail reader performance
# ---------------------------------------------------------------------------


def run_e5_mail() -> list[dict]:
    """Scan a folder and read every message: Rover cold, Rover after
    prefetch, and the conventional blocking reader, per link."""
    rows = []
    for spec in STANDARD_LINKS:
        corpus = generate_mail_corpus(seed=42, n_folders=1, messages_per_folder=12)
        ids = [m.msg_id for m in corpus.folders["inbox"]]

        # Rover, cold cache: queue all reads at once (click-ahead style).
        bed = build_testbed(link_spec=spec, adapt_to_link=False)
        MailServerApp(bed.server, corpus)
        reader = RoverMailReader(bed.access, bed.authority)
        start = bed.sim.now
        reader.open_folder("inbox").wait(bed.sim)
        promises = [reader.read_message("inbox", msg_id) for msg_id in ids]
        bed.sim.run_until(lambda: all(p.is_done for p in promises), timeout=1e7)
        rover_cold = bed.sim.now - start

        # Rover after prefetch: user-visible read latency is cache-hit
        # plus the local interpreter cost of rendering/marking each
        # message (cache hits do not advance the network clock).
        bed2 = build_testbed(link_spec=spec, adapt_to_link=False)
        MailServerApp(bed2.server, corpus)
        reader2 = RoverMailReader(bed2.access, bed2.authority)
        reader2.prefetch_folder("inbox").wait(bed2.sim)
        bed2.access.drain(timeout=1e7)
        start = bed2.sim.now
        local_cost_start = bed2.access.local_invoke_seconds_total
        promises = [reader2.read_message("inbox", msg_id) for msg_id in ids]
        bed2.sim.run_until(lambda: all(p.is_done for p in promises), timeout=1e7)
        rover_warm = (bed2.sim.now - start) + (
            bed2.access.local_invoke_seconds_total - local_cost_start
        )

        # Conventional blocking reader.
        bed3 = build_testbed(link_spec=spec, adapt_to_link=False)
        MailServerApp(bed3.server, corpus)
        blocking = BlockingMailReader(
            bed3.client_transport, bed3.server_host, bed3.authority
        )
        start = bed3.sim.now
        blocking.folder_index("inbox")
        for msg_id in ids:
            blocking.read_message("inbox", msg_id)
        blocking_time = bed3.sim.now - start

        rows.append(
            {
                "link": spec.name,
                "rover_cold_s": rover_cold,
                "rover_prefetched_s": rover_warm,
                "blocking_s": blocking_time,
                "warm_speedup_vs_blocking": blocking_time / rover_warm,
            }
        )
    return rows


def run_e5_disconnected_mail() -> list[dict]:
    """Disconnected-operation companion: Rover keeps working, the
    blocking reader dies."""
    n_messages = 8
    corpus = generate_mail_corpus(seed=42, n_folders=1, messages_per_folder=n_messages)
    ids = [m.msg_id for m in corpus.folders["inbox"]]

    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 2_000.0), (50_000.0, 1e9)]),
        adapt_to_link=False,
    )
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)
    reader.prefetch_folder("inbox").wait(bed.sim)
    bed.access.drain(timeout=1_900)
    bed.sim.run(until=3_000)  # disconnected now

    start = bed.sim.now
    local_cost_start = bed.access.local_invoke_seconds_total
    reads_ok = 0
    for msg_id in ids:
        promise = reader.read_message("inbox", msg_id)
        bed.sim.run_until(lambda: promise.is_done, timeout=5.0)
        if promise.ready:
            reads_ok += 1
    rover_disconnected_time = (bed.sim.now - start) + (
        bed.access.local_invoke_seconds_total - local_cost_start
    )

    blocking = BlockingMailReader(bed.client_transport, bed.server_host, bed.authority)
    blocking_failed = False
    try:
        blocking.folder_index("inbox")
    except RpcError:
        blocking_failed = True

    bed.sim.run(until=60_000)  # reconnect; queued flag updates drain
    flags_committed = sum(
        1
        for msg_id in ids
        if bed.server.get_object(str(reader.message_urn("inbox", msg_id))).data[
            "flags"
        ]["read"]
    )
    return [
        {
            "rover_reads_while_disconnected": reads_ok,
            "rover_disconnected_read_time_s": rover_disconnected_time,
            "blocking_reader_failed": blocking_failed,
            "flag_updates_committed_after_reconnect": flags_committed,
            "n_messages": n_messages,
        }
    ]


# ---------------------------------------------------------------------------
# E6 — calendar conflicts
# ---------------------------------------------------------------------------


def run_e6_calendar() -> list[dict]:
    """Two disconnected replicas make overlapping updates; reconcile.

    One row per resolver: 'calendar' (type-specific with auto re-slot),
    'calendar-strict' (type-specific, no re-slot), or 'keep-server'
    (no type-specific resolution at all).
    """
    return [_e6_one(resolver) for resolver in ("calendar", "calendar-strict", "keep-server")]


def _e6_one(resolver: str) -> dict:
    policies = [
        IntervalTrace([(0.0, 10.0), (1_000.0, 1e9)]),
        IntervalTrace([(0.0, 10.0), (1_500.0, 1e9)]),
    ]
    bed = build_multi_client_testbed(2, link_spec=WAVELAN_2M, policies=policies)
    if resolver == "keep-server":
        urn, merge = install_calendar(bed.server)
        # Unregister the type-specific resolver: fall back to default.
        bed.server.resolvers._resolvers.pop("calendar", None)
    else:
        urn, merge = install_calendar(
            bed.server, auto_reslot=(resolver == "calendar")
        )
    replicas = [CalendarReplica(client.access, urn) for client in bed.clients]
    for replica in replicas:
        replica.checkout().wait(bed.sim)
    bed.sim.run(until=20)  # both disconnected

    # One room and a small hot slot range: disconnected replicas are
    # very likely to double-book, which is what E6 is probing.
    ops = [
        generate_calendar_ops(
            seed=7,
            replica=label,
            n_ops=15,
            n_rooms=1,
            n_slots=20,
            hot_fraction=0.6,
        )
        for label in ("A", "B")
    ]
    applied = 0
    for replica, replica_ops in zip(replicas, ops):
        for op in replica_ops:
            replica.apply_op(op)
            applied += 1

    bed.sim.run(until=30_000)
    server_events = bed.server.get_object(str(urn)).data["events"]
    conflicts = sum(len(replica.conflicts) for replica in replicas)
    return {
        "resolver": resolver,
        "ops_applied": applied,
        "server_events": len(server_events),
        "exports_committed": bed.server.exports_committed,
        "exports_resolved": bed.server.exports_resolved,
        "exports_conflicted": bed.server.exports_conflicted,
        "manual_conflicts_reported": conflicts,
        "auto_reslotted": getattr(merge, "reslotted", 0),
        "replicas_clean": all(not replica.tentative for replica in replicas),
    }


# ---------------------------------------------------------------------------
# E7 — web click-ahead
# ---------------------------------------------------------------------------

#: The user's think time between clicks.
THINK_TIME_S = 30.0


def run_e7_clickahead() -> list[dict]:
    """A user reading a site with think time between clicks.

    Blocking browser: think, fetch (blocked), think, fetch...
    Rover proxy: clicks go into the queue immediately (click-ahead);
    transfers overlap the think time.  With prefetch, linked pages are
    warmed in the background.
    """
    rows = []
    for spec in (CSLIP_14_4, CSLIP_2_4):
        site = generate_site(seed=7, n_pages=18)
        path = browse_path(site, 6)

        # Blocking browser.
        bed = build_testbed(link_spec=spec, adapt_to_link=False)
        WebServerApp(bed.server, site)
        browser = BlockingBrowser(bed.client_transport, bed.server_host, bed.authority)
        start = bed.sim.now
        for url in path:
            browser.navigate(url)
            bed.sim.run(until=bed.sim.now + THINK_TIME_S)
        blocking_session = bed.sim.now - start
        # The conventional browser blocks the user until the page is
        # fully rendered (HTML + inline images).  (fsum: the baseline
        # pins these sums exactly, and built-in sum() rounds floats
        # differently from Python 3.12 on.)
        blocking_wait = math.fsum(
            (v.full_latency if v.full_latency is not None else v.latency) or 0.0
            for v in browser.views
        )

        results = {}
        for mode, prefetch in (("clickahead", False), ("clickahead+prefetch", True)):
            bed2 = build_testbed(link_spec=spec, adapt_to_link=False)
            WebServerApp(bed2.server, site)
            proxy = ClickAheadProxy(
                bed2.access,
                bed2.authority,
                prefetch_links=prefetch,
                prefetch_delay_threshold_s=0.5,
            )
            start = bed2.sim.now
            views = []
            for url in path:
                views.append(proxy.navigate(url))
                bed2.sim.run(until=bed2.sim.now + THINK_TIME_S)
            bed2.sim.run_until(
                lambda: all(v.displayed or v.failed for v in views), timeout=1e7
            )
            session = bed2.sim.now - start
            # User-visible wait: click-to-display latency per page.
            waits = [v.latency or 0.0 for v in views]
            results[mode] = {
                "session": session,
                "wait": math.fsum(waits),
                "prefetches": proxy.prefetches_issued,
            }

        rows.append(
            {
                "link": spec.name,
                "blocking_session_s": blocking_session,
                "blocking_user_wait_s": blocking_wait,
                "clickahead_session_s": results["clickahead"]["session"],
                "clickahead_user_wait_s": results["clickahead"]["wait"],
                "prefetch_session_s": results["clickahead+prefetch"]["session"],
                "prefetch_user_wait_s": results["clickahead+prefetch"]["wait"],
                "prefetches_issued": results["clickahead+prefetch"]["prefetches"],
            }
        )
    return rows


def run_e7_threshold_sweep() -> list[dict]:
    """Ablation: prefetch threshold vs wasted bytes and user wait."""
    rows = []
    for threshold in (0.0, 0.5, 2.0, 10.0, 1e9):
        site = generate_site(seed=7, n_pages=18)
        path = browse_path(site, 5)
        bed = build_testbed(link_spec=CSLIP_14_4, adapt_to_link=False)
        WebServerApp(bed.server, site)
        proxy = ClickAheadProxy(
            bed.access,
            bed.authority,
            prefetch_links=True,
            prefetch_delay_threshold_s=threshold,
        )
        views = []
        for url in path:
            views.append(proxy.navigate(url))
            bed.sim.run(until=bed.sim.now + THINK_TIME_S)
        bed.sim.run_until(lambda: all(v.displayed for v in views), timeout=1e7)
        bed.access.drain(timeout=1e7)
        waits = [v.latency or 0.0 for v in views]
        rows.append(
            {
                "threshold_s": threshold,
                "user_wait_s": math.fsum(waits),
                "prefetches": proxy.prefetches_issued,
                "bytes_on_wire": bed.link.bytes_carried,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E8 — network scheduler: priority + relay fallback
# ---------------------------------------------------------------------------


def run_e8_priority() -> list[dict]:
    """Foreground requests compete with queued bulk transfers, under
    the priority scheduler and under the FIFO ablation."""
    return [_e8_one(fifo_only) for fifo_only in (False, True)]


def _e8_one(fifo_only: bool) -> dict:
    n_bulk = 12
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(50.0, 1e9)]),  # everything queues first
        fifo_only=fifo_only,
        max_inflight=1,
        adapt_to_link=False,
    )
    bed.server.put_object(_null_object())
    for index in range(n_bulk):
        bed.server.put_object(
            RDO(
                URN("server", f"bench/bulk/{index:02d}"),
                "bulk",
                {"body": "x" * 4096},
            )
        )
    done_times: dict[str, float] = {}
    for index in range(n_bulk):
        urn = f"urn:rover:server/bench/bulk/{index:02d}"
        bed.access.import_(urn, priority=Priority.BACKGROUND).then(
            lambda rdo, u=urn: done_times.__setitem__(u, bed.sim.now)
        )
    bed.sim.run(until=20.0)
    # The user clicks something urgent while the bulk queue is parked.
    urgent = bed.access.invoke_remote(
        "urn:rover:server/bench/null", "ping", priority=Priority.FOREGROUND
    )
    urgent.then(lambda value: done_times.__setitem__("urgent", bed.sim.now))
    bed.sim.run(until=5_000)
    bulk_times = [t for key, t in done_times.items() if key != "urgent"]
    return {
        "mode": "fifo" if fifo_only else "priority",
        "urgent_done_s": done_times.get("urgent", float("nan")) - 50.0,
        "first_bulk_done_s": (min(bulk_times) - 50.0) if bulk_times else float("nan"),
        "last_bulk_done_s": (max(bulk_times) - 50.0) if bulk_times else float("nan"),
        "all_done": len(done_times) == n_bulk + 1,
    }


def run_e8_relay_fallback() -> list[dict]:
    """Direct link down for 10 minutes; relay (slow) available."""
    results = {}
    for label, with_relay in (("direct-only", False), ("with-relay", True)):
        bed = build_testbed(
            link_spec=ETHERNET_10M,
            policy=IntervalTrace([(0.0, 1.0), (600.0, 1e9)]),
            with_relay=with_relay,
            relay_link_spec=CSLIP_14_4,
        )
        bed.server.put_object(_null_object())
        bed.sim.run(until=10.0)  # direct link now down
        promise = bed.access.invoke_remote("urn:rover:server/bench/null", "ping")
        done = {}
        promise.add_callback(lambda w: done.__setitem__("t", bed.sim.now))
        bed.sim.run(until=2_000)
        results[label] = done.get("t", float("nan")) - 10.0
    return [
        {
            "direct_only_latency_s": results["direct-only"],
            "with_relay_latency_s": results["with-relay"],
        }
    ]


# ---------------------------------------------------------------------------
# E9 — end-to-end disconnected operation, all three applications
# ---------------------------------------------------------------------------


def run_e9_disconnected() -> list[dict]:
    """One client, one disconnection cycle, all three apps: verify that
    no operation blocks while down and all state converges after."""
    bed = build_testbed(
        link_spec=WAVELAN_2M,
        policy=IntervalTrace([(0.0, 120.0), (2_000.0, 1e9)]),
    )
    corpus = generate_mail_corpus(seed=33, n_folders=1, messages_per_folder=4)
    mail = MailServerApp(bed.server, corpus)
    site = generate_site(seed=33, n_pages=8)
    WebServerApp(bed.server, site)
    cal_urn, __ = install_calendar(bed.server)

    reader = RoverMailReader(bed.access, bed.authority)
    proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_delay_threshold_s=0.0)
    replica = CalendarReplica(bed.access, cal_urn)

    # Connected phase: hoard.
    reader.prefetch_folder("inbox").wait(bed.sim)
    root_view = proxy.navigate(site.root)
    replica.checkout().wait(bed.sim)
    bed.access.drain(timeout=110)

    bed.sim.run(until=200)  # disconnected
    disconnected_at = bed.sim.now
    assert not bed.link.is_up

    # Work offline.
    reads = 0
    for entry in reader.folder_index("inbox"):
        promise = reader.read_message("inbox", entry["id"])
        bed.sim.run_until(lambda: promise.is_done, timeout=2.0)
        reads += 1 if promise.ready else 0
    from repro.workloads import CalendarOp

    replica.apply_op(
        CalendarOp(op="add", event_id="offline-ev", title="t", room="r", slot=4, alt_slots=[5])
    )
    offline_view = proxy.navigate(site.pages[site.root].links[0])
    offline_cached = offline_view.displayed or offline_view.from_cache
    queued = bed.access.pending_count()

    bed.sim.run(until=5_000)  # reconnected at t=2000
    server_events = bed.server.get_object(str(cal_urn)).data["events"]
    return [
        {
            "offline_reads_served": reads,
            "offline_page_from_cache": bool(offline_cached),
            "qrpcs_queued_while_down": queued,
            "pending_after_reconnect": bed.access.pending_count(),
            "calendar_event_committed": "offline-ev" in server_events,
            "tentative_after_reconnect": len(bed.access.cache.tentative_urns()),
            "disconnected_at_s": disconnected_at,
        }
    ]


# ---------------------------------------------------------------------------
# E10 — wire compression ablation (named but omitted by the paper)
# ---------------------------------------------------------------------------


def run_e10_compression() -> list[dict]:
    """Prefetch a mail folder as the paper's prototype and as the default.

    The paper's prototype "does not perform any compression"; the
    transport now compresses a frame whenever its bytes cost more than
    the chosen link's propagation delay.  This ablation quantifies what
    that buys per link: bytes on the wire and time to complete the
    prefetch.
    """
    corpus = generate_mail_corpus(seed=42, n_folders=1, messages_per_folder=8)
    rows = []
    for spec in (WAVELAN_2M, CSLIP_14_4, CSLIP_2_4):
        measured = {}
        for label, adapt in (("raw", False), ("compressed", True)):
            bed = build_testbed(link_spec=spec, adapt_to_link=adapt)
            MailServerApp(bed.server, corpus)
            reader = RoverMailReader(bed.access, bed.authority)
            reader.prefetch_folder("inbox").wait(bed.sim)
            bed.access.drain(timeout=1e7)
            measured[label] = {
                "bytes": bed.link.bytes_carried,
                "time": bed.sim.now,
            }
        rows.append(
            {
                "link": spec.name,
                "raw_bytes": measured["raw"]["bytes"],
                "compressed_bytes": measured["compressed"]["bytes"],
                "raw_time_s": measured["raw"]["time"],
                "compressed_time_s": measured["compressed"]["time"],
                "time_saved_pct": 100.0
                * (measured["raw"]["time"] - measured["compressed"]["time"])
                / measured["raw"]["time"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E11 — batched log draining (channel-use optimization)
# ---------------------------------------------------------------------------


def run_e11_batching() -> list[dict]:
    """Drain a parked QRPC queue on reconnection: prototype vs. default.

    While disconnected the client queues 12 imports; on
    reconnection the scheduler drains them one exchange each (the
    paper's prototype) or as the default does: every frame compressed,
    and queued requests sharing a frame where one request alone already
    costs more line time than the link's propagation delay.  The 80 B
    import requests pass that mark on the 2.4k modem (45 B) and not on
    the 14.4k one (175 B), so the two links show both sides of the rule.
    """
    rows = []
    for spec in (CSLIP_14_4, CSLIP_2_4):
        for config, adapt in (("prototype", False), ("default", True)):
            bed = build_testbed(
                link_spec=spec,
                policy=IntervalTrace([(100.0, 1e9)]),
                adapt_to_link=adapt,
                max_inflight=1,
            )
            urns = []
            for index in range(12):
                urn = URN("server", f"bench/drain/{index:02d}")
                bed.server.put_object(RDO(urn, "blob", {"n": index, "pad": "x" * 512}))
                urns.append(str(urn))
            promises = [bed.access.import_(urn) for urn in urns]
            bed.sim.run_until(lambda: all(p.is_done for p in promises), timeout=1e6)
            rows.append(
                {
                    "link": spec.name,
                    "config": config,
                    "drain_time_s": bed.sim.now - 100.0,
                    "exchanges": bed.client_transport.messages_sent,
                    "batches": bed.scheduler.batches_sent,
                    "bytes_wire": bed.link.bytes_carried,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# F1 — import latency vs object size (figure-style series)
# ---------------------------------------------------------------------------


def run_f1_size_sweep() -> list[dict]:
    """Import latency as a function of object size, per link.

    The figure-style series behind every table: latency is affine in
    size with slope ~8/bandwidth and intercept ~(flush + 2*latency).
    """
    rows = []
    for spec in STANDARD_LINKS:
        for size in (1024, 4096, 16 * 1024, 64 * 1024, 128 * 1024):
            bed = build_testbed(link_spec=spec, adapt_to_link=False)
            urn = URN("server", f"bench/size/{size}")
            bed.server.put_object(RDO(urn, "blob", {"body": "x" * size}))
            start = bed.sim.now
            bed.access.import_(str(urn)).wait(bed.sim, timeout=1e6)
            rows.append(
                {
                    "link": spec.name,
                    "size_bytes": size,
                    "import_s": bed.sim.now - start,
                    "analytic_tx_s": spec.transfer_time(size),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# F2 — availability vs connectivity duty cycle (figure-style series)
# ---------------------------------------------------------------------------


def run_f2_availability() -> list[dict]:
    """Fraction of mail reads served instantly vs link duty cycle.

    The paper's thesis, as a curve: a conventional client's
    availability tracks the link's duty cycle, while Rover (prefetch +
    cache + queued updates) keeps serving reads locally regardless.
    Reads land at deterministic times spread across several
    connect/disconnect cycles; "served" means the message displays
    within one virtual second of the request.
    """
    from repro.core.hoard import Hoarder, HoardProfile
    from repro.net.link import PeriodicSchedule
    from repro.sim import make_rng

    seed, period_s, n_reads = 5, 600.0, 20
    rows = []
    corpus = generate_mail_corpus(seed=seed, n_folders=1, messages_per_folder=10)
    ids = [m.msg_id for m in corpus.folders["inbox"]]
    for duty in (0.05, 0.25, 0.5, 1.0):
        if duty >= 1.0:
            policy = None
        else:
            policy = PeriodicSchedule(
                up_duration=duty * period_s,
                down_duration=(1.0 - duty) * period_s,
            )
        bed = build_testbed(link_spec=CSLIP_14_4, policy=policy)
        MailServerApp(bed.server, corpus)
        reader = RoverMailReader(bed.access, bed.authority)
        profile = HoardProfile().add("urn:rover:server/mail/")
        Hoarder(bed.access, "server", profile, refresh_interval_s=period_s).start()

        rng = make_rng(seed, f"f2:{duty}")
        read_times = sorted(
            rng.uniform(period_s, period_s * 6) for __ in range(n_reads)
        )
        rover_served = 0
        blocking_served = 0
        for when in read_times:
            bed.sim.run(until=when)
            msg_id = ids[rng.randrange(len(ids))]
            promise = reader.read_message("inbox", msg_id)
            bed.sim.run_until(lambda: promise.is_done, timeout=1.0)
            if promise.ready:
                rover_served += 1
            # The conventional client needs the link up right now.
            if bed.link.is_up:
                blocking_served += 1
        rows.append(
            {
                "duty_cycle_pct": duty * 100.0,
                "rover_availability_pct": 100.0 * rover_served / n_reads,
                "blocking_availability_pct": 100.0 * blocking_served / n_reads,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# F3 — shared wireless cell: per-client hoard time vs population
# ---------------------------------------------------------------------------


def run_f3_shared_cell() -> list[dict]:
    """N clients hoard a folder at once over one WaveLAN cell.

    Dedicated links would finish in constant time regardless of N; a
    shared 2 Mbit/s cell serializes air time, so the last client's
    finish time grows ~linearly with the population — the contention
    reality behind the paper's wireless numbers.
    """
    corpus = generate_mail_corpus(seed=9, n_folders=1, messages_per_folder=6)
    rows = []
    for n in (1, 2, 4, 8):
        results = {}
        for label, shared in (("shared", True), ("dedicated", False)):
            bed = build_multi_client_testbed(
                n, link_spec=WAVELAN_2M, shared_medium=shared, seed=9,
                adapt_to_link=False,
            )
            MailServerApp(bed.server, corpus)
            readers = [
                RoverMailReader(client.access, bed.authority)
                for client in bed.clients
            ]
            promises = [reader.prefetch_folder("inbox") for reader in readers]
            bed.sim.run_until(
                lambda: all(
                    client.access.pending_count() == 0 for client in bed.clients
                )
                and all(p.is_done for p in promises),
                timeout=1e6,
            )
            results[label] = bed.sim.now
        rows.append(
            {
                "clients": n,
                "shared_cell_s": results["shared"],
                "dedicated_links_s": results["dedicated"],
                "slowdown": results["shared"] / results["dedicated"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E12 — optimistic concurrency vs application-level locks
# ---------------------------------------------------------------------------


def run_e12_locking() -> list[dict]:
    """M clients edit the *same field* of one object, optimistically vs
    with check-out locks.

    The paper expects some applications to be "structured as a
    collection of independent atomic actions, where the importing
    action sets an appropriate application-level lock".  This measures
    what that buys: optimistic concurrency on an unmergeable type
    yields manual conflicts; lock-then-edit serializes cleanly at the
    cost of lock waits.
    """
    from repro.core.promise import Promise

    n_clients, edits_per_client = 4, 2
    note_code = (
        "def read(state):\n"
        "    return state['text']\n"
        "\n"
        "def set_text(state, text):\n"
        "    state['text'] = text\n"
        "    return text\n"
    )
    note_interface = RDOInterface(
        [MethodSpec("read"), MethodSpec("set_text", mutates=True)]
    )
    rows = []
    for mode in ("optimistic", "locked"):
        bed = build_multi_client_testbed(n_clients, link_spec=ETHERNET_10M)
        note = RDO(
            URN("server", "bench/contended"),
            "note",
            {"text": "initial"},
            code=note_code,
            interface=note_interface,
        )
        bed.server.put_object(note)
        urn = str(note.urn)
        conflicts = {"n": 0}
        edits_done = {"n": 0}

        def client_script(stack, label: str):
            session = stack.access.create_session(f"s-{label}")
            stack.access.on_conflict(lambda report: conflicts.__setitem__("n", conflicts["n"] + 1))
            for edit in range(edits_per_client):
                if mode == "locked":
                    while True:
                        grant = stack.access.acquire_lock(urn, session)
                        yield grant
                        if grant.ready:
                            break
                        yield 0.5  # lock held elsewhere: retry shortly
                fresh = stack.access.import_(urn, session, refresh=True)
                yield fresh
                if fresh.failed:
                    continue
                stack.access.invoke(urn, "set_text", f"{label}-edit{edit}", session=session)
                # Wait for this client's export round to settle.
                done = Promise(label="settle")
                deadline_poll = 0.05

                def check(d=done):
                    if stack.access.pending_count() == 0:
                        d.resolve(True)
                    else:
                        bed.sim.schedule(deadline_poll, check)

                bed.sim.schedule(deadline_poll, check)
                yield done
                if mode == "locked":
                    release = stack.access.release_lock(urn, session)
                    yield release
                edits_done["n"] += 1

        processes = [
            bed.sim.spawn(client_script(stack, f"c{index}"), name=f"c{index}")
            for index, stack in enumerate(bed.clients)
        ]
        start = bed.sim.now
        bed.sim.run_until(lambda: all(p.is_done for p in processes), timeout=1e5)
        rows.append(
            {
                "mode": mode,
                "edits_attempted": n_clients * edits_per_client,
                "edits_completed": edits_done["n"],
                "manual_conflicts": conflicts["n"],
                "server_version": bed.server.store.version(urn) or 0,
                "elapsed_s": bed.sim.now - start,
                "lock_denials": bed.server.locks_denied,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E13 — availability under seeded chaos (mail workload)
# ---------------------------------------------------------------------------


def run_e13_chaos() -> list[dict]:
    """The chaos acceptance scenario vs a fault-free control run.

    The seed is the ``CHAOS_SEED`` environment variable (the CI seed
    matrix; 0 when unset) so a failing matrix entry reproduces locally
    with ``CHAOS_SEED=<n> python -m repro.bench --metrics e13``.
    """
    import os
    import tempfile

    from repro.chaos.scenario import run_chaos_scenario

    seed = int(os.environ.get("CHAOS_SEED", "0"))
    rows = []
    for config, faults in (("clean", False), ("chaos", True)):
        with tempfile.TemporaryDirectory() as tmp:
            result = run_chaos_scenario(
                seed=seed, faults=faults, log_path=os.path.join(tmp, "oplog.bin")
            )
        rows.append(
            {
                "config": config,
                "seed": seed,
                "sends": result["sends"],
                "acked": result["acked"],
                "mean_ack_s": result["mean_ack_s"],
                "p95_ack_s": result["p95_ack_s"],
                "retransmissions": result["retransmissions"],
                "faults_injected": sum(result["injected"].values()),
                "corrupt_detected": result["corrupt_detected"],
                "violations": len(result["violations"]),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E14 — bytes-on-wire: log compaction + delta shipping on slow links
# ---------------------------------------------------------------------------


def _e14_one(link_spec: LinkSpec, compaction: bool, delta_shipping: bool, coalesce: bool) -> dict:
    """One E14 cell: the disconnected-mail-session workload on one link.

    Connected warm-up imports the inbox and every body; a long
    disconnection accumulates flag flips (mark read, then delete — the
    classic triage pass) and outbox appends; reconnection drains the
    queue over the slow link.  Bytes-on-wire counts everything after
    the warm-up, so the measured traffic is exactly the disconnected
    session's eventual cost.  Without ``coalesce`` the wire behaves as
    the paper's prototype (one raw frame per QRPC), which isolates what
    compaction and delta shipping save on their own.
    """
    from repro.chaos.invariants import (
        check_cache_coherent,
        check_logs_drained,
        check_no_orphan_tentative,
    )

    reconnect_at = 1000.0
    bed = build_testbed(
        link_spec=link_spec,
        policy=IntervalTrace([(0.0, 300.0), (reconnect_at, 1e9)]),
        compaction=compaction,
        delta_shipping=delta_shipping,
        adapt_to_link=coalesce,
    )
    corpus = generate_mail_corpus(seed=7, n_folders=1, messages_per_folder=10)
    app = MailServerApp(bed.server, corpus)
    app.create_folder("outbox")
    reader = RoverMailReader(bed.access, bed.authority)
    folder = sorted(corpus.folders)[0]

    # -- connected: warm the cache -------------------------------------
    reader.prefetch_folder(folder)
    reader.open_folder("outbox")
    bed.sim.run(until=290.0)
    warm_bytes = bed.link.bytes_carried

    # -- disconnected: triage the folder, send replies -----------------
    bed.sim.run(until=400.0)
    index = reader.folder_index(folder)
    for entry in index:
        urn = reader.message_urn(folder, entry["id"])
        bed.access.invoke(urn, "mark_read", session=reader.session)
    for entry in index:
        urn = reader.message_urn(folder, entry["id"])
        bed.access.invoke(urn, "mark_deleted", session=reader.session)
    for i in range(6):
        reader.send_message(
            "outbox",
            {"id": f"reply-{i}", "from": "me", "subject": f"re {i}", "body": "x" * 200},
        )
    # Re-import the folder while disconnected: queued behind the
    # exports, served as a delta once the link returns (warm cache).
    reader.open_folder(folder, priority=Priority.BACKGROUND)

    # -- reconnect: drain ----------------------------------------------
    bed.sim.run(until=reconnect_at - 1.0)
    queued = bed.access.pending_count()
    drained = bed.sim.run_until(lambda: bed.access.pending_count() == 0, timeout=1e8)
    drain_s = bed.sim.now - reconnect_at
    bed.sim.run()

    def total(name: str) -> int:
        metric = bed.obs.registry.get(name)
        return int(metric.value) if metric is not None else 0

    violations = list(check_logs_drained([bed.access]))
    violations += check_cache_coherent(bed.server, [bed.access])
    violations += check_no_orphan_tentative([bed.access])
    if not drained:
        violations.append("drain never completed")
    return {
        "link": link_spec.name,
        "config": (
            ("compaction+delta" if delta_shipping else "compaction")
            if compaction
            else "clean"
        )
        + ("+coalesce" if coalesce else ""),
        "queued_at_reconnect": queued,
        "bytes_wire": bed.link.bytes_carried - warm_bytes,
        "drain_s": round(drain_s, 3),
        "ops_compacted": bed.access.log.ops_compacted,
        "delta_bytes_saved": total("ship_delta_bytes_saved_total"),
        "marshal_cache_hits": total("marshal_cache_hits_total"),
        "violations": len(violations),
        "violation_detail": violations,
    }


def run_e14_wire() -> list[dict]:
    """Bytes-on-wire and drain time for clean vs compaction vs
    compaction+delta (each on the prototype's wire) vs all of it on the
    default wire (coalesced, compressed frames), on the paper's serial
    links."""
    return [
        _e14_one(link_spec, compaction, delta, coalesce)
        for link_spec in (CSLIP_14_4, CSLIP_2_4)
        for compaction, delta, coalesce in (
            (False, False, False), (True, False, False), (True, True, False), (True, True, True)
        )
    ]


# ---------------------------------------------------------------------------
# E15 — fleet telemetry: shipping overhead and aggregation exactness
# ---------------------------------------------------------------------------


def _e15_row(config: str, result, clean_wire_bytes: int) -> dict:
    """Flatten one fleet run into a benchmark row."""
    summary = result.aggregator.summary() if result.aggregator is not None else {}
    return {
        "config": config,
        "clients": result.scenario.n_clients,
        "wire_bytes": result.wire_bytes,
        "foreground_bytes": result.foreground_bytes,
        "telemetry_bytes": result.telemetry_bytes,
        "overhead_pct": round(result.overhead_pct, 3),
        "reports_sent": result.reports_sent,
        "reports_acked": result.reports_acked,
        "reports_reshipped": result.reports_reshipped,
        "exact": result.exact,
        "mismatched": len(result.mismatched_clients),
        **{name: summary.get(name, 0) for name in ("duplicates", "open_gaps", "late", "unhealthy")},
        # Reference only: against the clean control, the raw wire delta
        # confounds the tax with timing-shifted foreground re-sends.
        "ab_delta_bytes": result.wire_bytes - clean_wire_bytes,
    }


def run_e15_fleet(n_clients: int = 1000) -> list[dict]:
    """Fleet telemetry at scale: overhead and exactness, clean and chaotic.

    Three runs over the mixed link population (Ethernet / WaveLAN /
    14.4K CSLIP / cycling 2.4K CSLIP): a telemetry-off control, the
    telemetry run, and the telemetry run under the E15 chaos plan
    (lossy link windows plus a server outage).  The overhead gate is
    the *attributed* telemetry share of the telemetry run's wire
    bytes — see :mod:`repro.obs.fleet.sim` for why the raw A/B delta
    is not the tax.  Exactness means the aggregator's per-client
    counter totals equal each client's ground-truth registry captured
    at the horizon.
    """
    from repro.obs.fleet.sim import FleetScenario, run_fleet

    scenario = FleetScenario(n_clients=n_clients)
    rows: list[dict] = []
    for config, telemetry, chaos in (
        ("clean", False, False),
        ("telemetry", True, False),
        ("telemetry+chaos", True, True),
    ):
        result = run_fleet(dataclasses.replace(scenario, telemetry=telemetry, chaos=chaos))
        clean_wire_bytes = rows[0]["wire_bytes"] if rows else result.wire_bytes
        rows.append(_e15_row(config, result, clean_wire_bytes))
    return rows


# ---------------------------------------------------------------------------
# E16 — CPU hot path: drain throughput and codec cost
# ---------------------------------------------------------------------------


def run_e16_speed(n_clients: int = 10_000) -> list[dict]:
    """CPU cost of the mixed-link reconnection drain.

    One row.  The simulation fields (ops, appends, flushes, group
    commits, bytes on wire, ``done_at_s``, ``kernel_events``) are pure
    functions of the scenario; ``kernel_events`` is the CPU proxy that
    repeats exactly.  Wall time and ops/s are real measurements,
    reported and never compared.  ``cyclic_garbage_objects`` is what the
    run left for the cyclic collector (found by its passes during the
    run plus one full pass after): zero while the QRPC path closes no
    cycle.
    """
    from repro.speed import SpeedScenario, Stopwatch, run_drain

    scenario = SpeedScenario(n_clients=n_clients)
    gc.collect()
    collected_before = sum(generation["collected"] for generation in gc.get_stats())
    with Stopwatch() as clock:
        metrics, _bed = run_drain(scenario)
    garbage = sum(generation["collected"] for generation in gc.get_stats()) - collected_before
    garbage += gc.collect()
    wall = clock.wall_s or 1e-9
    return [
        {
            "clients": n_clients,
            **dataclasses.asdict(metrics),
            "cyclic_garbage_objects": garbage,
            "drain_wall_s": round(clock.wall_s, 3),
            "ops_per_s": round(metrics.ops_acked / wall),
        }
    ]
