"""The command in ``BENCHMARK.json``: one workload, one run, one JSON line.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  Repeats the workload in fresh processes
for about S seconds and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}`` with every
``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
(``--trace 1``), each the median over the run's repeats.  Exits non-zero
without a result where the program is not there to build.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to run: {_ROOT / 'src' / 'repro'} is missing")
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import runner, spec  # noqa: E402


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)  # BENCHMARK.json's
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    reduced = runner.run_for_seconds(args.workload, args.seed, args.seconds, traced)
    declared = spec.PER_LAYER if traced else spec.END_TO_END
    measured = reduced["per_layer"] if traced else reduced["end_to_end"]
    if traced:
        measured["host.calibration_s"] = runner.summarize([runner.calibration_s()])
    for line in reduced["violations"]:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    missing = sorted(set(declared) - set(measured))
    if missing:
        # No repeat passed its output checks (or the ledger and
        # BENCHMARK.json disagree): there is nothing true to print.
        print(f"perfbench: {args.workload}: no value for {missing}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": reduced["correct"],
                "attempted": reduced["attempted"],
                "failed": reduced["failed"],
                "metrics": {
                    name: {"value": measured[name]["median"], "unit": declared[name]["unit"]}
                    for name in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
