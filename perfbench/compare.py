"""``python -m perfbench --compare A.json B.json``: judge two sets.

A is the parent (or the first set), B the change (or the second), both
run under one seed.  One row per (metric, workload), judged by the
metric's own direction and bound: ``BENCHMARK.json``'s for an end-to-end
metric, ISSUE 12's (``spec.UNTRACED_PER_LAYER``) for the user-visible
per-layer rows, and 0 for a simulation-derived metric.

``ok``          B's median is no worse than A's by more than the bound.
``worse``       it is worse by more than the bound.
``unresolved``  the quartile spread of either side is wider than the
                bound, unless every run of B reads better than every
                run of A.
``moved``       not a regression, but worth a look: a simulation-derived
                value that changed for the better, or changed at all
                where the metric has no bound; any other unbounded
                per-layer metric that moved by more than a tenth.

Two sets of one commit agree when no row is ``worse`` or ``unresolved``
and no simulation-derived row ``moved``.  Exits non-zero on any
``worse``.
"""

from __future__ import annotations

import json
from typing import Optional

from perfbench import spec
from perfbench.stats import spread


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == b:
        return 0.0
    if a == 0:
        return float("inf") if (b > 0) == (better == "lower") else float("-inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def judge(better: str, bound: Optional[float], exact: bool, a: dict, b: dict) -> tuple:
    """(verdict, detail) for one row; ``exact``: simulation-derived."""
    worse_by = _worse_by(a["median"], b["median"], better)
    direction = "worse" if worse_by > 0 else "better"
    detail = f"{a['median']:.6g} -> {b['median']:.6g} ({abs(worse_by):.1%} {direction})"
    if exact:
        if a["median"] == b["median"]:
            return "ok", "identical"
        verdict = "worse" if bound is not None and worse_by > 0 else "moved"
        return verdict, "simulation-derived, " + detail
    if bound is None:
        return ("moved" if abs(worse_by) > 0.10 else "ok"), detail
    widest = max(spread(a["values"]), spread(b["values"]))
    if widest > bound:
        b_wins = (
            max(b["values"]) < min(a["values"])
            if better == "lower"
            else min(b["values"]) > max(a["values"])
        )
        if not b_wins:
            return "unresolved", detail + f", spread {widest:.1%} > bound"
    return ("worse" if worse_by > bound else "ok"), detail


def main(path_a: str, path_b: str) -> int:
    set_a, set_b = _load(path_a), _load(path_b)
    for key in ("seed", "repeats"):
        # Other inputs are another experiment; other repeat counts
        # have other spreads.
        if set_a[key] != set_b[key]:
            print(f"the sets differ in {key} ({set_a[key]} and {set_b[key]}): nothing to compare")
            return 2
    print(
        f"A: {path_a} (seed {set_a['seed']}, calibration {set_a['calibration_s']:.4f} s)\n"
        f"B: {path_b} (seed {set_b['seed']}, calibration {set_b['calibration_s']:.4f} s)"
    )
    counts = {"ok": 0, "worse": 0, "unresolved": 0, "moved": 0}
    for workload in spec.FULL_SET:
        a, b = set_a["workloads"][workload], set_b["workloads"][workload]
        if not (a["correct"] and b["correct"]):
            print(f"{workload}: a set failed its output checks; nothing to compare")
            counts["worse"] += 1
            continue
        for kind, declared in (
            ("end_to_end", spec.END_TO_END),
            ("per_layer", spec.per_layer_of(workload)),
        ):
            for metric, info in declared.items():
                if metric not in a[kind] or metric not in b[kind]:
                    continue
                bound = info.get("bound", spec.UNTRACED_PER_LAYER.get(metric))
                row_a, row_b = a[kind][metric], b[kind][metric]
                verdict, detail = judge(
                    info["better"], bound, spec.is_exact(metric, workload), row_a, row_b
                )
                counts[verdict] += 1
                # Every bounded row the workload reports, and whatever moved.
                bounded = bound is not None and (row_a["median"] or row_b["median"])
                if bounded or verdict != "ok":
                    print(f"{verdict:<10} {workload:<14} {metric:<44} {detail}")
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["worse"] else 0
