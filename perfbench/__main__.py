"""``PYTHONPATH=src python -m perfbench --seed N``: the full set.

All five workloads, five fresh-process repeats each, interleaved
round-robin (A B C D E, A B C D E, ...) so slow machine drift lands on
all of them alike; outputs checked; every end-to-end metric printed by
name with unit, median, quartiles and sample count.  ``--traced`` adds
the per-layer run and writes the span JSONL.  ``--compare A.json
B.json`` judges two sets; ``--selfcheck`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import compare, runner, selfcheck, spec

#: Where ``--traced`` writes one span file per workload.
TRACE_DIR = spec.ROOT / ".perfbench_out"


def run_set(seed: int, traced: bool) -> dict:
    """All workloads, interleaved; returns the set as one JSON-able dict."""
    children: dict = {name: [] for name in spec.FULL_SET}

    def repeat(name: str, mode: str, label: str) -> None:
        print(f"  {label}  {name}", file=sys.stderr)
        out = None
        if mode == "traced":
            TRACE_DIR.mkdir(exist_ok=True)
            out = str(TRACE_DIR / f"{name}.seed{seed}.spans.jsonl")
        children[name].append(runner.spawn(name, seed, "full", mode, out))

    for index in range(spec.REPEATS):
        for name in spec.FULL_SET:
            repeat(name, "plain", f"repeat {index + 1}/{spec.REPEATS}")
    for name in spec.FULL_SET:
        if name != spec.REAL_TIME_WORKLOAD:  # the profiler sees one thread
            repeat(name, "count", "count")
    if traced:
        for name in spec.FULL_SET:
            repeat(name, "traced", "traced")
            if name in runner.OBS_TRACED:
                repeat(name, "obs", "obs")
    result = {
        "seed": seed,
        "repeats": spec.REPEATS,
        "calibration_s": runner.calibration_s(),
        "workloads": {},
    }
    for name in spec.FULL_SET:
        reduced = runner.reduce_repeats(name, children[name])
        if traced:
            reduced["per_layer"]["host.calibration_s"] = runner.summarize(
                [result["calibration_s"]]
            )
        result["workloads"][name] = reduced
    return result


def print_set(result: dict) -> None:
    for name, reduced in result["workloads"].items():
        status = "correct" if reduced["correct"] else "INCORRECT"
        print(
            f"\n{name}  [{status}]  attempted {reduced['attempted']}  "
            f"failed {reduced['failed']}  inputs {reduced['digest']}  "
            f"latency samples {reduced['latency_samples']} "
            f"(tail = p{reduced['tail_percentile']})"
        )
        for line in reduced["violations"]:
            print(f"  ! {line}")
        if not reduced["correct"]:
            continue  # output checks gate metric printing
        per_layer = spec.per_layer_of(name)
        user_visible = {m: per_layer[m] for m in spec.UNTRACED_PER_LAYER if m in per_layer}
        for title, declared, measured in (
            ("end to end", spec.END_TO_END, reduced["end_to_end"]),
            ("end to end, ISSUE 12's own (per-layer rows to the driver)", user_visible,
             reduced["per_layer"]),
            ("per layer", {m: per_layer[m] for m in per_layer if m not in user_visible},
             reduced["per_layer"]),
        ):
            rows = [(metric, info) for metric, info in declared.items() if metric in measured]
            if not rows:
                continue
            print(f"  {title}:")
            for metric, info in rows:
                row = measured[metric]
                print(
                    f"    {metric:<46} {row['median']:>16.6g} {info['unit']:<6}"
                    f" q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}"
                )


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", action="store_true", help="add the per-layer run")
    parser.add_argument("--out", help="also write the set as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    if args.selfcheck:
        return selfcheck.main(args.seed)
    result = run_set(args.seed, args.traced)
    print_set(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
