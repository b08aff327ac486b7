"""The per-layer ledger: counters read from outside plus the traced run.

``snapshot`` reads every layer's public counters off a workload's
``Parts``; it is taken before and after the timed region so that every
count is the timed region's own.  ``user_visible`` gives the per-layer
rows that need no spans and are measured on untraced repeats;
``per_layer`` turns two snapshots, the outcome and the recorder's spans
into the rest (``spec.per_layer_of``).  A metric whose layer does no
work on a workload reads 0 there; the rows only the real-time workload
can produce are reported by it alone.
"""

from __future__ import annotations

import statistics
import time
from repro.obs.metrics import percentile

from perfbench.trace import LAYERS, UNATTRIBUTED, Recorder
from perfbench.workloads import Outcome, Parts, histogram_values, registry_total

_SERVER_REQUEST_COUNTERS = (
    "imports_served",
    "exports_committed",
    "exports_resolved",
    "exports_conflicted",
    "invokes_served",
    "ships_served",
    "duplicates_suppressed",
)


def snapshot(parts: Parts) -> dict:
    """Every counter the ledger uses, as plain numbers."""
    stables = [a.log.stable for a in parts.accesses]
    caches = [a.cache for a in parts.accesses]
    registries = parts.registries
    return {
        "compactions": sum(s.compactions for s in parts.sims),
        "msgs": sum(t.messages_sent for t in parts.transports),
        "corrupt": sum(getattr(t, "corrupt_frames_detected", 0) for t in parts.transports),
        "queue_waits": len(histogram_values(registries, "sched_queue_wait_seconds")),
        "retransmissions": sum(s.retransmissions for s in parts.schedulers),
        "sched_failed": sum(s.failed for s in parts.schedulers),
        "flushes": sum(s.flushes for s in stables),
        "fsyncs_saved": sum(s.fsyncs_saved for s in stables),
        "bytes_flushed": sum(s.bytes_flushed for s in stables),
        "ops_compacted": sum(a.log.ops_compacted for a in parts.accesses),
        "flush_sim_s": sum(a.flush_seconds_total for a in parts.accesses),
        "qrpc_failovers": registry_total(registries, "qrpc_failovers_total"),
        "cache_hits": sum(c.hits for c in caches),
        "cache_misses": sum(c.misses for c in caches),
        "cache_evictions": sum(c.evictions for c in caches),
        "local_invokes": sum(a.local_invokes for a in parts.accesses),
        "local_invoke_s": sum(a.local_invoke_seconds_total for a in parts.accesses),
        "server_requests": sum(
            getattr(s, name) for s in parts.servers for name in _SERVER_REQUEST_COUNTERS
        ),
        "duplicates": sum(s.duplicates_suppressed for s in parts.servers),
        "delta_saved": registry_total(registries, "ship_delta_bytes_saved_total"),
        "ha_shipped": registry_total(registries, "ha_records_shipped_total"),
        "ha_failovers": registry_total(registries, "ha_failovers_total"),
        "ha_stale": registry_total(registries, "ha_stale_epoch_rejected_total"),
        "ha_commits": max((agent.seq for g in parts.groups for agent in g.agents), default=0),
        "link_busy_s": sum(
            link.bytes_carried * 8.0 / link.spec.bandwidth_bps for link in parts.links
        ),
        "links_used": sum(1 for link in parts.links if link.bytes_carried),
    }


def hit_ratio(before: dict, after: dict) -> float:
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def user_visible(out: Outcome, timed_cpu_s: float, is_live: bool) -> dict:
    """``spec.UNTRACED_PER_LAYER``: what a user of the system sees, so
    read off untraced repeats like the end-to-end metrics."""
    ops = max(1, out.acked)
    rows = {
        "host.cpu_us_per_op": timed_cpu_s / ops * 1e6,
        "net.link.wire_bytes_per_op": out.timed_wire_bytes / ops,
        "net.link.drain_sim_s": out.extra.get("drain_sim_s", 0.0),
        "ha.group.unavailable_sim_s": out.extra.get("unavailable_sim_s", 0.0),
    }
    if is_live:
        rows["live.scheduler.burst_ops_per_s"] = out.extra["burst_ops_per_s"]
        rows["live.transport.op_wall_p50_ms"] = out.extra["wall_latency_p50_ms"]
        rows["live.transport.op_wall_tail_ms"] = out.extra["wall_latency_tail_ms"]
    return rows


def _codec_replay(recorder: Recorder) -> tuple[float, float, float]:
    """Replay the captured envelope mix through the codec's own
    functions (not the traced wrappers): us per encode, us per decode,
    bytes per frame."""
    envelopes = recorder.envelopes
    if not envelopes:
        return 0.0, 0.0, 0.0
    marshal, seal, unseal, unmarshal = (
        recorder.originals[name] for name in ("marshal", "seal", "unseal", "unmarshal")
    )
    encode_s, decode_s = [], []
    frames: list = []
    for _ in range(5):
        start = time.perf_counter()
        frames = [seal(marshal(value)) for value in envelopes]
        encode_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        for frame in frames:
            unmarshal(unseal(frame))
        decode_s.append(time.perf_counter() - start)
    n = len(envelopes)
    return (
        statistics.median(encode_s) / n * 1e6,
        statistics.median(decode_s) / n * 1e6,
        sum(len(f) for f in frames) / n,
    )


def per_layer(
    before: dict,
    after: dict,
    parts: Parts,
    out: Outcome,
    recorder: Recorder,
    ledger: dict,
    timed_wall_s: float,
) -> dict:
    """Every per-layer metric that needs the traced run, except the
    three the parent process works out across repeats (tracer ratio,
    trace overhead, calibration).  ``ledger`` is ``recorder.ledger()``."""
    ops = max(1, out.acked)
    is_live = recorder.threaded

    def delta(key: str) -> float:
        return after[key] - before[key]

    total = ledger["total_ns"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        if layer.startswith("live.") and not is_live:
            continue
        metrics[f"{layer}.self_cpu_share"] = ledger["self_ns"][layer] / total
        metrics[f"{layer}.calls_per_op"] = ledger["calls"][layer] / ops
    metrics[f"{UNATTRIBUTED}.self_cpu_share"] = ledger["self_ns"][UNATTRIBUTED] / total

    encode_us, decode_us, frame_bytes = _codec_replay(recorder)
    queue_waits = histogram_values(parts.registries, "sched_queue_wait_seconds")
    queue_waits = queue_waits[int(before["queue_waits"]):]
    local_invokes = delta("local_invokes")
    cost_model = parts.accesses[0].cost_model
    interp_ms = recorder.durations_ms("SafeInterpreter.invoke")
    flush_ms = recorder.durations_ms("FileLogBackend.flush")
    truncate_ms = recorder.durations_ms("FileLogBackend.truncate_through")
    rtt_ms = recorder.durations_ms("LiveTransport.call.<locals>.worker")
    saved = delta("delta_saved")
    elapsed = out.clock_elapsed_s

    metrics.update(
        {
            "sim.events.events_per_op": out.events / ops,
            "sim.events.compactions": delta("compactions"),
            "net.message.encode_us_per_msg": encode_us,
            "net.message.decode_us_per_msg": decode_us,
            "net.message.bytes_per_msg": frame_bytes,
            "net.simnet.frames_per_op": len(recorder.starts("Link.send")) / ops,
            "net.link.busy_share": (
                delta("link_busy_s") / (after["links_used"] * elapsed)
                if after["links_used"] and elapsed
                else 0.0
            ),
            "net.transport.msgs_per_op": delta("msgs") / ops,
            "net.transport.corrupt_frames": delta("corrupt"),
            "net.scheduler.queue_wait_sim_p50_ms": (
                statistics.median(queue_waits) * 1000.0 if queue_waits else 0.0
            ),
            "net.scheduler.retransmissions_per_op": delta("retransmissions") / ops,
            "net.scheduler.failed": delta("sched_failed"),
            "storage.stable_log.flushes_per_op": delta("flushes") / ops,
            "storage.stable_log.fsyncs_saved_per_op": delta("fsyncs_saved") / ops,
            "storage.stable_log.bytes_flushed_per_op": delta("bytes_flushed") / ops,
            "core.operation_log.pending_peak": _pending_peak(recorder),
            "core.operation_log.ops_compacted_share": delta("ops_compacted") / max(1, out.attempted),
            "core.access_manager.flush_sim_s_per_op": 0.0 if is_live else delta("flush_sim_s") / ops,
            "core.access_manager.failovers": delta("qrpc_failovers"),
            "core.object_cache.hit_ratio": hit_ratio(before, after),
            "core.object_cache.evictions": delta("cache_evictions"),
            "core.interpreter.steps_per_invoke": (
                (delta("local_invoke_s") - local_invokes * cost_model.base_s)
                / cost_model.per_step_s
                / local_invokes
                if local_invokes
                else 0.0
            ),
            "core.interpreter.invoke_us": (
                statistics.fmean(interp_ms) * 1000.0 if interp_ms else 0.0
            ),
            "core.server.requests_per_op": delta("server_requests") / ops,
            "core.server.duplicates_suppressed": delta("duplicates"),
            "perf.delta.bytes_saved_share": (
                saved / (saved + out.timed_wire_bytes) if saved else 0.0
            ),
            "ha.group.records_shipped_per_commit": (
                delta("ha_shipped") / delta("ha_commits") if delta("ha_commits") else 0.0
            ),
            "ha.group.failovers": delta("ha_failovers"),
            "ha.group.stale_epoch_rejected": delta("ha_stale"),
            "ha.group.replication_lag_max": out.extra.get("replication_lag_max", 0.0),
        }
    )
    if is_live:
        metrics.update(
            {
                "storage.stable_log.flush_wall_p50_ms": statistics.median(flush_ms),
                "storage.stable_log.truncate_wall_share": (
                    sum(truncate_ms) / 1000.0 / timed_wall_s
                ),
                "live.transport.connects_per_op": delta("msgs") / ops,
                "live.transport.rtt_p99_ms": percentile(rtt_ms, 99),
                "live.clock.post_lag_p50_ms": out.extra["post_lag_p50_ms"],
            }
        )
    return metrics


def _pending_peak(recorder: Recorder) -> float:
    """Most QRPCs logged and not yet acknowledged at one moment, summed
    over every client, from the order of the operation log's spans
    (queue-time compaction drops are not subtracted)."""
    events = sorted(
        [(at, 1) for at in recorder.starts("OperationLog.append")]
        + [(at, -1) for at in recorder.starts("OperationLog.acknowledge")]
    )
    pending = peak = 0
    for _, step in events:
        pending += step
        peak = max(peak, pending)
    return float(peak)
