"""live_loopback: real TCP on 127.0.0.1 and a real ``fsync`` per QRPC.

The one workload outside virtual time.  The client's ``AccessManager``
is built exactly as ``LiveClient`` builds it except that the log is
``StableLog(FileLogBackend(tmpfile))``: a real ``write`` + ``fsync``
per QRPC, the paper's discipline.

Phase A is a closed loop with one outstanding QRPC (latency per op).
Phase B queues a backlog at once and drains it with
``LiveScheduler(max_inflight=2)`` (ops per second), where every ack
rewrites the log file with a long pending set.  The load generator is
this one process; it never has more than two requests in flight.

Loopback is not a link and the ``fsync`` is the sandbox's disk, whose
median moves between 0.4 and 2 ms within seconds.  So each closed-loop
op is timed twice: on the wall clock (reported per layer, too unsteady
here to bound) and on the process's CPU clock, which with one request
outstanding is the CPU the whole path spent on that op, client and
server side.  The CPU figure is this workload's end-to-end latency.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.access_manager import AccessManager
from repro.core.notification import NotificationCenter
from repro.core.object_cache import ObjectCache
from repro.core.operation_log import OperationLog
from repro.live import LiveServer
from repro.live.clock import RealTimeClock
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport
from repro.storage.stable_log import FileLogBackend, FlushModel, StableLog

from perfbench.inputs import LiveInputs
from repro.obs.metrics import percentile

from perfbench.stats import tail_percentile
from perfbench.workloads import Outcome, Parts, counter_object, counter_urn

MAX_INFLIGHT = 2
OBJECT_URN = counter_urn("server", 0)
#: Wall-clock budget for each phase.
_PHASE_TIMEOUT_S = 120.0
#: Scratch files stay inside the checkout (the benchmark may write
#: nowhere else).
_SCRATCH_ROOT = Path(__file__).resolve().parents[2] / ".perfbench_tmp"


@dataclass
class State:
    inputs: LiveInputs
    server: LiveServer
    clock: RealTimeClock
    transport: LiveTransport
    scheduler: LiveScheduler
    access: AccessManager
    stable: StableLog
    scratch: str
    log_path: str
    #: Bytes both transports had sent when set-up (the warm-up round
    #: trip) ended.
    setup_wire_bytes: int = 0
    #: Most requests (one connection each) in flight at any ack.
    inflight_peak: int = 0
    #: Per closed-loop op, invoke_remote to promise resolution.
    wall_latencies_s: list = field(default_factory=list)
    cpu_latencies_s: list = field(default_factory=list)
    bump_results: list = field(default_factory=list)
    burst_acked: int = 0
    burst_wall_s: float = 0.0
    timed_out: bool = False
    #: Set by a traced repeat: between the phases, post timestamped
    #: no-ops to the client's loop and record how late each one ran.
    probe_post_lag: bool = False
    post_lags_ms: list = field(default_factory=list)


def setup(inputs: LiveInputs, obs_trace: bool = False) -> State:
    _SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="live-", dir=_SCRATCH_ROOT)
    log_path = os.path.join(scratch, "oplog.bin")
    server = LiveServer("server")
    server.put_object(counter_object("server", 0))
    # As LiveClient wires it, but with the log on a real file.
    clock = RealTimeClock(name="laptop-loop")
    transport = LiveTransport(clock, "laptop")
    scheduler = LiveScheduler(clock, transport, max_inflight=MAX_INFLIGHT)
    stable = StableLog(FileLogBackend(log_path), flush_model=FlushModel.free())
    access = AccessManager(
        clock,
        scheduler,
        servers={"server": server.address},
        cache=ObjectCache(clock=lambda: clock.now),
        log=OperationLog(stable),
        notifications=NotificationCenter(keep_history=False),
    )
    state = State(
        inputs=inputs,
        server=server,
        clock=clock,
        transport=transport,
        scheduler=scheduler,
        access=access,
        stable=stable,
        scratch=scratch,
        log_path=log_path,
    )
    # Warm-up: one round trip so connection set-up paths, code loading
    # and the file's first block are out of the timed region.
    done = threading.Event()
    clock.post(lambda: access.invoke_remote(OBJECT_URN, "echo", [b"warm"]).then(
        lambda _r: done.set()
    ))
    if not done.wait(_PHASE_TIMEOUT_S):
        raise RuntimeError("live_loopback: warm-up round trip never completed")
    state.setup_wire_bytes = _wire_bytes(state)
    return state


def _wire_bytes(state: State) -> int:
    return state.transport.bytes_sent + state.server.transport.bytes_sent


def _submit(state: State, payload, on_ack) -> None:
    """Runs on the loop thread, like every toolkit mutation."""
    if payload is None:
        promise = state.access.invoke_remote(OBJECT_URN, "bump")
        promise.then(state.bump_results.append)
    else:
        promise = state.access.invoke_remote(OBJECT_URN, "echo", [payload])

    def acked(result) -> None:
        # The scheduler has already taken this reply off its count.
        state.inflight_peak = max(state.inflight_peak, state.scheduler.inflight + 1)
        on_ack(result)

    promise.then(acked)


def _closed_loop(state: State) -> None:
    ops = state.inputs.closed
    done = threading.Event()
    clock = state.clock

    def step(index: int) -> None:
        if index == len(ops):
            done.set()
            return
        sent = time.perf_counter()
        sent_cpu = time.process_time()

        def acked(_result) -> None:
            state.cpu_latencies_s.append(time.process_time() - sent_cpu)
            state.wall_latencies_s.append(time.perf_counter() - sent)
            clock.post(step, index + 1)

        _submit(state, ops[index], acked)

    clock.post(step, 0)
    if not done.wait(_PHASE_TIMEOUT_S):
        state.timed_out = True


def _burst(state: State) -> None:
    ops = state.inputs.burst
    done = threading.Event()
    started = [0.0]

    def acked(_result) -> None:
        state.burst_acked += 1
        if state.burst_acked == len(ops):
            state.burst_wall_s = time.perf_counter() - started[0]
            done.set()

    def queue_all() -> None:
        started[0] = time.perf_counter()
        for payload in ops:
            _submit(state, payload, acked)

    state.clock.post(queue_all)
    if not done.wait(_PHASE_TIMEOUT_S):
        state.timed_out = True
        state.burst_wall_s = time.perf_counter() - started[0]


def _post_lag_probe(state: State, samples: int = 50) -> None:
    lags = state.post_lags_ms
    done = threading.Event()

    def landed(posted: float) -> None:
        lags.append((time.perf_counter() - posted) * 1000.0)
        if len(lags) == samples:
            done.set()

    for _ in range(samples):
        state.clock.post(landed, time.perf_counter())
        time.sleep(0.002)
    done.wait(10.0)


def run(state: State) -> None:
    _closed_loop(state)
    if state.probe_post_lag:
        _post_lag_probe(state)
    _burst(state)


def outcome(state: State) -> Outcome:
    inputs = state.inputs
    wall_ms = [s * 1000.0 for s in state.wall_latencies_s]
    return Outcome(
        attempted=len(inputs.closed) + len(inputs.burst),
        acked=len(wall_ms) + state.burst_acked,
        latencies_ms=[s * 1000.0 for s in state.cpu_latencies_s],
        timed_wire_bytes=_wire_bytes(state) - state.setup_wire_bytes,
        clock_elapsed_s=sum(state.wall_latencies_s) + state.burst_wall_s,
        extra={
            "wall_latency_p50_ms": statistics.median(wall_ms) if wall_ms else 0.0,
            "wall_latency_tail_ms": (
                percentile(wall_ms, tail_percentile(len(wall_ms))) if wall_ms else 0.0
            ),
            "burst_ops_per_s": (
                state.burst_acked / state.burst_wall_s if state.burst_wall_s else 0.0
            ),
            "post_lag_p50_ms": (
                statistics.median(state.post_lags_ms) if state.post_lags_ms else 0.0
            ),
            "inflight_peak": state.inflight_peak,
        },
    )


def parts(state: State) -> Parts:
    return Parts(
        accesses=[state.access],
        schedulers=[state.scheduler],
        transports=[state.transport, state.server.transport],
        servers=[state.server.server],
        registries=[state.access.obs.registry, state.server.server.obs.registry],
    )


def close(state: State) -> None:
    state.transport.close()
    state.clock.close()
    state.server.close()
    state.stable.close()
    shutil.rmtree(state.scratch, ignore_errors=True)
    try:
        _SCRATCH_ROOT.rmdir()
    except OSError:
        pass  # another run is using it
