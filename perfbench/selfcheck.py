"""``python -m perfbench --selfcheck``: checks on the benchmark itself.

At tiny sizes: every simulated workload, run under two different
``PYTHONHASHSEED`` values, yields identical simulation-derived metrics
and identical input digests; another ``--seed`` yields another digest;
and the inputs a workload receives contain neither the seed nor the
workload's name.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from perfbench import inputs, runner, spec

#: Distinctive, so it cannot turn up in the inputs by chance.
_PROBE_SEED = 987_654_321


def _contains(value: Any, needle: Any) -> bool:
    if dataclasses.is_dataclass(value):
        return any(_contains(getattr(value, f.name), needle) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return any(_contains(item, needle) for item in value)
    return type(value) is type(needle) and value == needle


def main(seed: int) -> int:
    failures: list = []
    for workload in spec.FULL_SET:
        digests = {
            s: inputs.digest(inputs.generate(workload, s, "tiny")) for s in (seed, seed + 1)
        }
        if digests[seed] == digests[seed + 1]:
            failures.append(f"{workload}: seeds {seed} and {seed + 1} give the same inputs")
        probe = inputs.generate(workload, _PROBE_SEED, "tiny")
        if _contains(probe, _PROBE_SEED) or _contains(probe, workload):
            failures.append(f"{workload}: inputs carry the seed or the workload's name")
        if workload == spec.REAL_TIME_WORKLOAD:
            continue
        # Traced, so the per-layer counts are compared as well, and
        # under the profiler for the call count.
        runs = [
            runner.spawn(workload, seed, "tiny", mode, hash_seed=h)
            for h in ("1", "2")
            for mode in ("traced", "count")
        ]
        for run in runs:
            failures += [f"{workload}: {v}" for v in run["violations"]]
        if any(not run["correct"] for run in runs):
            continue
        if {run["input_digest"] for run in runs} != {digests[seed]}:
            failures.append(f"{workload}: input digest depends on PYTHONHASHSEED")
        for metric in sorted(spec.EXACT):
            values = {
                run[kind][metric]
                for run in runs
                for kind in ("metrics", "layers")
                if metric in run.get(kind, {})
            }
            if len(values) > 1:
                failures.append(
                    f"{workload}: {metric} depends on PYTHONHASHSEED: {sorted(values)}"
                )
        print(f"selfcheck: {workload}: two hash seeds agree, inputs {digests[seed]}")
    for line in failures:
        print(f"selfcheck: FAIL {line}")
    print("selfcheck: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
