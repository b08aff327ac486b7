"""Benchmark harness: experiment drivers and table rendering.

Every table/figure of the paper's evaluation has a driver in
:mod:`repro.bench.experiments` that builds the scenario, runs it in
virtual time, and returns rows, and one declaration in
:mod:`repro.bench.registry` (table, wire, gate) that the CLI and
``benchmarks/test_experiments.py`` both read; the latter also asserts
the expected *shape* (orderings, ratios, crossovers).
"""

from repro.bench.tables import format_seconds, format_table
from repro.bench.timeline import Timeline
from repro.bench import experiments

__all__ = ["Timeline", "experiments", "format_seconds", "format_table"]
