"""repro.speed — CPU hot-path benchmark harness (experiment E16).

The simulation's *virtual* time is pinned by seeds; this package runs
the scenario whose *real* CPU cost the hot-path work is judged by: a
10k-client mixed-link reconnection drain.  Its rows are committed as
``BENCH_E16.json`` and gated by the ``e16`` entry of
:mod:`repro.bench.registry`, on fields that repeat exactly: the
simulation's counters and ``kernel_events``, the CPU proxy.  Wall time
and ops/sec are reported beside them, never compared.

Real-clock reads live only in :mod:`repro.speed.measure`, which is
sanctioned for wall-clock access in ``repro.lint.contracts`` — the
scenario itself stays sim-pure.
"""

from repro.speed.measure import Stopwatch
from repro.speed.scenario import DrainMetrics, SpeedScenario, run_drain

__all__ = ["DrainMetrics", "SpeedScenario", "Stopwatch", "run_drain"]
