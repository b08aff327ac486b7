"""Run repeats in fresh processes and reduce them to medians.

Protocol: every repeat is its own ``python`` process started with
``PYTHONHASHSEED=0`` (repeats inside one process drift as the heap
ages); every metric is the median over repeats, kept with its quartiles
and sample count.  ``gc.collect()`` runs once between set-up and the
timed region in the child; nothing else about the interpreter is
altered.  The load generator is one process at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Optional

from perfbench import spec
from perfbench.stats import quartiles

#: One repeat may not take longer than this (the driver allows a run 180 s).
_CHILD_TIMEOUT_S = 150.0
#: Workloads whose builders take the program's own ``trace=True``.
OBS_TRACED = ("mail_slowlink", "ha_failover")
#: End-to-end metrics that come from the ``count`` repeat.
COUNTED = ("py_calls_per_op",)
HOST_CPU = "host.cpu_us_per_op"


class RepeatFailed(Exception):
    """A repeat crashed, hung, or printed no result."""


def spawn(
    workload: str,
    seed: int,
    size: str = "full",
    mode: str = "plain",
    trace_out: Optional[str] = None,
    hash_seed: str = "0",
) -> dict:
    """One repeat in a fresh process; returns the JSON it printed."""
    command = [
        sys.executable,
        "-m",
        "perfbench.repeat",
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--mode", mode,
        "--spawned-at", repr(time.time()),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(spec.ROOT / "src"), str(spec.ROOT)]),
    )
    try:
        done = subprocess.run(
            command,
            env=env,
            cwd=spec.ROOT,
            capture_output=True,
            text=True,
            timeout=_CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepeatFailed(f"{workload}: repeat exceeded {_CHILD_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RepeatFailed(
            f"{workload}: repeat exited {done.returncode} without a result\n{done.stderr[-2000:]}"
        ) from None
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def reduce_repeats(workload: str, repeats: list) -> dict:
    """Medians over one workload's repeats, after checking them.

    ``repeats`` are children's results, any mix of modes.  Returns
    ``{"correct", "attempted", "failed", "violations", "digest",
    "end_to_end": {name: summary}, "per_layer": {name: summary}}``.
    End-to-end numbers and the user-visible per-layer rows
    (``spec.UNTRACED_PER_LAYER``) come from the untraced repeats, the
    rest of ``per_layer`` from the traced ones.
    """
    violations = [v for r in repeats for v in r["violations"]]
    digests = {r["input_digest"] for r in repeats}
    if len(digests) > 1:
        violations.append(f"repeats saw different inputs: {sorted(digests)}")
    by_mode: dict = {"plain": [], "traced": [], "obs": [], "count": []}
    for repeat in repeats:
        if repeat["correct"]:
            by_mode[repeat["mode"]].append(repeat)
    plain, traced, obs, counted = (by_mode[m] for m in ("plain", "traced", "obs", "count"))

    end_to_end = {}
    for name in spec.END_TO_END:
        values = [r["metrics"][name] for r in (counted if name in COUNTED else plain)]
        if values:
            end_to_end[name] = summarize(values)
    per_layer = {
        name: summarize([r["metrics"][name] for r in plain])
        for name in spec.UNTRACED_PER_LAYER
        if plain and name in plain[0]["metrics"]
    }
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = summarize([r["layers"][name] for r in traced])
        if plain:
            cpu = per_layer[HOST_CPU]["median"]
            per_layer["trace.overhead_share"] = summarize(
                [r["metrics"][HOST_CPU] / cpu - 1.0 for r in traced]
            )
            # The program's own tracer is only switched on where its
            # builders take trace=True; elsewhere the ratio reads 0.
            per_layer["obs.tracer_on_cpu_ratio"] = summarize(
                [r["metrics"][HOST_CPU] / cpu for r in obs] or [0.0]
            )

    # Simulation-derived numbers must repeat bit for bit, with
    # perfbench's spans on or off.  (The program's own tracer is
    # another matter: it puts trace context on the wire.)
    for name in spec.EXACT:
        if not spec.is_exact(name, workload):
            continue
        seen = {r["metrics"][name] for r in plain + traced + counted if name in r["metrics"]}
        seen |= {r["layers"][name] for r in traced if name in r["layers"]}
        if len(seen) > 1:
            violations.append(f"{name} is simulation-derived but read {sorted(seen)}")

    timed = plain or traced
    return {
        "correct": not violations and bool(timed),
        "violations": violations,
        "digest": sorted(digests)[0] if digests else "",
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "tail_percentile": timed[0].get("tail_percentile") if timed else None,
        "latency_samples": timed[0].get("latency_samples") if timed else None,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def calibration_s() -> float:
    """``repro.speed.measure``'s fixed reference load, so two sets of
    numbers that disagree can be told from a machine that changed."""
    from repro.speed.measure import calibration_seconds

    return calibration_seconds()


def mode_of(workload: str, traced: bool, index: int) -> str:
    """The mode of a run's ``index``-th repeat."""
    if traced:
        # Alternating, so every per-layer number has as many samples as
        # the run has time for and drift lands on both alike.
        cycle = ["plain", "traced"] + (["obs"] if workload in OBS_TRACED else [])
        return cycle[index % len(cycle)]
    # The call count is exact, so one ``count`` repeat is enough; the
    # profiler sees one thread, so not on the threaded workload.
    return "count" if index == 3 and workload != spec.REAL_TIME_WORKLOAD else "plain"


#: Fewest repeats of a run: three untraced ones and the counting one, or
#: one full traced cycle.
_MIN_REPEATS = 4


def run_for_seconds(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat ``workload`` for about ``seconds`` (the driver's contract):
    fresh processes one after another, ``_MIN_REPEATS`` at least, then
    for as long as the next one would end nearer to ``seconds`` than
    stopping now does."""
    started = time.monotonic()
    repeats: list = []
    while True:
        elapsed = time.monotonic() - started
        if len(repeats) >= _MIN_REPEATS and elapsed + elapsed / len(repeats) / 2 > seconds:
            break
        repeats.append(spawn(workload, seed, "full", mode_of(workload, traced, len(repeats))))
    return reduce_repeats(workload, repeats)
