"""One repeat of one workload, in a process of its own.

Started by ``perfbench.runner`` as ``python -m perfbench.repeat``: builds
the inputs from the seed, sets up, runs the timed region once, checks the outputs and
prints one JSON object as its last line.  ``--mode traced`` installs
``perfbench.trace`` first and adds the per-layer ledger; ``--mode obs``
builds the testbed with the program's own tracer on; ``--mode count``
runs the timed region under ``cProfile`` and reports the number of
Python-level function calls instead of times.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import threading
import time

from repro.obs.metrics import percentile

from perfbench import inputs as inputs_module
from perfbench import ledger, spec, verify
from perfbench.stats import tail_percentile
from perfbench.trace import Recorder
from perfbench.workloads import load


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.repeat")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("plain", "traced", "obs", "count"), default="plain")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    is_live = args.workload == spec.REAL_TIME_WORKLOAD
    recorder = None
    if args.mode == "traced":
        recorder = Recorder(threaded=is_live)
        recorder.install()
    # Python-level calls only: builtins would double the overhead.
    profiler = cProfile.Profile(subcalls=False, builtins=False) if args.mode == "count" else None

    workload = load(args.workload)
    # Before the program is built: the load generator's own threads.
    generator_threads = threading.active_count()
    inputs = inputs_module.generate(args.workload, args.seed, args.size)
    # The program is given the inputs and nothing else: not the seed,
    # not the workload's name.
    state = workload.setup(inputs, obs_trace=(args.mode == "obs"))
    try:
        if recorder is not None and hasattr(state, "probe_post_lag"):
            state.probe_post_lag = True
        before = ledger.snapshot(workload.parts(state))
        gc.collect()
        setup_s = time.time() - spawned_at

        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if recorder is not None:
            recorder.begin()
        if profiler is not None:
            profiler.enable()
        workload.run(state)
        if profiler is not None:
            profiler.disable()
        if recorder is not None:
            recorder.end()
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        out = workload.outcome(state)
        parts = workload.parts(state)
        after = ledger.snapshot(parts)
        violations = verify.check(args.workload, state, out, before, after)

        result: dict = {
            "workload": args.workload,
            "mode": args.mode,
            "input_digest": inputs_module.digest(inputs),
            "attempted": out.attempted,
            "failed": out.attempted - out.acked,
            "correct": not violations,
            "violations": violations[:20],
            "latency_samples": len(out.latencies_ms),
            "extra": out.extra,
            "generator_threads": generator_threads,
            "timed_cpu_s": cpu_s,
            "timed_wall_s": wall_s,
        }
        if not violations:
            tail = tail_percentile(len(out.latencies_ms))
            result["tail_percentile"] = tail
            result["metrics"] = {
                "latency_p50_ms": statistics.median(out.latencies_ms),
                "latency_tail_ms": percentile(out.latencies_ms, tail),
            }
            if profiler is not None:
                calls = sum(entry.callcount for entry in profiler.getstats())
                result["metrics"]["py_calls_per_op"] = calls / out.acked
            else:
                result["metrics"].update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
                result["metrics"].update(ledger.user_visible(out, cpu_s, is_live))
            if recorder is not None:
                # The region on this file's own clocks, not the recorder's.
                book = recorder.ledger(int((cpu_s if is_live else wall_s) * 1e9))
                result["ledger_sum_error"] = book["sum_error"]
                result["spans"] = book["spans"]
                result["layers"] = ledger.per_layer(before, after, parts, out, recorder, book, wall_s)
                if args.trace_out:
                    result["spans_written"] = recorder.write_jsonl(args.trace_out)
    finally:
        workload.close(state)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
