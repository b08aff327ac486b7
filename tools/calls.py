"""``make calls``: one count-mode repeat of a perfbench workload, one line.

Runs ``perfbench.repeat`` in this process with ``--mode count`` (cProfile
over the timed region, seed 7) and prints the workload's
``py_calls_per_op``, then the ``setup_s`` and ``peak_rss_mb`` of that
same repeat, which count mode does not report itself.  Set-up is timed
from this script's start to the garbage collection the repeat runs just
before its timed region; the peak is read once the repeat returns.  One
sample, taken under cProfile, so it reports and gates nothing::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py mail_slowlink

``--top N`` then prints the N functions with the most Python calls per
op, read from the profiler that counted the line above (so the ledger
and the line agree exactly), most first; a dataclass's generated
``__init__`` is named by its class::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py mail_slowlink --top 20

``--under MODULE:QUALNAME`` then prints the Python calls per op made
while that function ran -- itself and everything it called, at any
depth -- and how many times it ran, read off the same profiler: the
function is wrapped before the workload is built, and each outermost
call is charged the profiler's call count across it.  The first line
leaves the wrapper's own calls out, so it reads as without the flag::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py ha_failover \
        --under repro.ha.group:ReplicaAgent._on_replicate

``--retained N`` then runs the repeat twice more, under ``tracemalloc``
and without the profiler, and prints what is live at the timed region's
traced peak: the largest traced total seen at the end of any
``Simulator.run`` call in the region (its end counts as one).  The first
run finds that call, the second snapshots there (the workloads are
seeded, so it is the same call); the line names its virtual time.  Then
come the bytes and blocks live at that instant (set-up allocations
included) and the N allocation sites holding the most of them, with
their block counts, most first.  It reports and gates nothing.  It is a
memory ledger for ``peak_rss_mb``, which ``fleet_drain`` sets mid-drain,
while every client's requests are still queued, not at the end: what
the program keeps at its peak, by the line that made it::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py ha_failover --retained 15

``--by file`` groups that ledger by source file instead of by line (what
``make footprint`` prints for ``fleet_drain``)::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py fleet_drain --retained 20 --by file
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import operator
import os
import resource
import sys
import time
import tracemalloc
import types

_STARTED = time.time()

from perfbench import repeat  # noqa: E402  (its imports are set-up too)
from repro.sim import Simulator  # noqa: E402


class _SetupEnd:
    """The ``gc`` the repeat sees: its one ``collect()`` ends the set-up."""

    at = None

    def collect(self) -> int:
        found = gc.collect()
        self.at = time.time()
        return found


class _KeptProfiler:
    """The ``cProfile`` the repeat sees: it keeps the profiler it makes."""

    def __init__(self, real) -> None:
        self._real = real
        self.made = None

    def Profile(self, *args, **kwargs):  # noqa: N802  (cProfile's name)
        self.made = self._real.Profile(*args, **kwargs)
        return self.made


def _profiled_calls(profiler) -> int:
    """Calls the profiler has counted so far."""
    return sum(map(operator.attrgetter("callcount"), profiler.getstats()))


class _Under:
    """Wraps one function and charges each outermost call of it the
    calls the profiler counted meanwhile (its own included)."""

    def __init__(self, target: str, kept: "_KeptProfiler") -> None:
        module, _, qualname = target.partition(":")
        *path, self.name = qualname.split(".")
        self.owner = importlib.import_module(module)
        for part in path:
            self.owner = getattr(self.owner, part)
        self.real = self.owner.__dict__[self.name]
        self.calls = self.runs = 0
        depth = 0
        callcount = operator.attrgetter("callcount")  # summed inline: C calls count nothing

        def under(*args, **kwargs):
            nonlocal depth
            profiler = kept.made
            if depth or profiler is None:
                return self.real(*args, **kwargs)
            before = sum(map(callcount, profiler.getstats()))
            depth += 1
            try:
                return self.real(*args, **kwargs)
            finally:
                depth -= 1
                spent = sum(map(callcount, profiler.getstats())) - before
                if spent:  # the profiler was on: it counts this wrapper too
                    self.calls += spent
                    self.runs += 1

        setattr(self.owner, self.name, under)


class _Ends:
    """The traced total at the end of each ``Simulator.run`` call in the
    timed region, and at the region's end, with the virtual time of each;
    a snapshot at the end numbered ``target``."""

    def __init__(self, target: int = -1) -> None:
        self.target = target
        self.totals: list = []
        self.times: list = []
        self.now = None
        self.snapshot = None

    def end(self) -> None:
        if len(self.totals) == self.target:
            self.snapshot = tracemalloc.take_snapshot()
        self.totals.append(tracemalloc.get_traced_memory()[0])
        self.times.append(self.now)


def _traced_repeat(workload: str, ends: _Ends) -> None:
    """One repeat under ``tracemalloc``, without the profiler, telling
    ``ends`` of every end in its timed region."""
    module = repeat.load(workload)  # the module the repeat loads again
    real_run, real_sim_run = module.run, Simulator.run

    def sim_run(sim, *args, **kwargs) -> int:
        events = real_sim_run(sim, *args, **kwargs)
        ends.now = sim.now
        ends.end()
        return events

    def run(state) -> None:
        Simulator.run = sim_run
        try:
            real_run(state)
        finally:
            Simulator.run = real_sim_run
        ends.end()

    module.run = run
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            repeat.main(["--workload", workload, "--seed", "7", "--mode", "plain"])
    finally:
        tracemalloc.stop()
        module.run = real_run


def retained_sites(workload: str, count: int, by: str = "line") -> tuple[float, list]:
    """The virtual time of the timed region's traced peak, and (KiB,
    blocks, site) live there for all sites together, then for the
    ``count`` allocation sites (``by="file"``: source files) with the
    most bytes.  One repeat finds the peak, a second snapshots it."""
    found = _Ends()
    _traced_repeat(workload, found)
    peak = _Ends(max(range(len(found.totals)), key=found.totals.__getitem__))
    _traced_repeat(workload, peak)
    stats = peak.snapshot.statistics("lineno" if by == "line" else "filename")
    total = (sum(stat.size for stat in stats) / 1024.0, sum(stat.count for stat in stats), "total")
    return peak.times[peak.target], [total] + [
        (stat.size / 1024.0, stat.count,
         os.path.relpath(stat.traceback[0].filename)
         + (f":{stat.traceback[0].lineno}" if by == "line" else ""))
        for stat in stats[:count]
    ]


def label(code) -> str:
    """``file:line(qualname)`` of a profiled function.

    Code made by ``exec`` (file ``<string>``: every dataclass's generated
    ``__init__``, ``__eq__`` ...) has one qualname for all its classes,
    ``__create_fn__.<locals>.__init__``; it is named instead by the
    function that holds it, module and class included.
    """
    name = code.co_qualname
    if code.co_filename == "<string>":
        for holder in gc.get_referrers(code):
            if isinstance(holder, types.FunctionType) and holder.__code__ is code:
                name = f"{holder.__module__}.{holder.__qualname__}"
                break
    return f"{os.path.relpath(code.co_filename)}:{code.co_firstlineno}({name})"


def top_functions(profiler, calls_per_op: float, count: int) -> list:
    """(calls per op, function) for the ``count`` most-called functions."""
    calls = {}
    for entry in profiler.getstats():
        name = label(entry.code)
        calls[name] = calls.get(name, 0) + entry.callcount
    scale = calls_per_op / sum(calls.values())
    ranked = sorted(calls.items(), key=lambda item: (-item[1], item[0]))
    return [(n * scale, name) for name, n in ranked[:count]]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="tools/calls.py")
    parser.add_argument("workload")
    parser.add_argument("--top", type=int, default=0, metavar="N")
    parser.add_argument("--under", default="", metavar="MODULE:QUALNAME")
    parser.add_argument("--retained", type=int, default=0, metavar="N")
    parser.add_argument("--by", choices=("line", "file"), default="line")
    args = parser.parse_args(argv)
    setup_end = repeat.gc = _SetupEnd()
    kept = repeat.cProfile = _KeptProfiler(repeat.cProfile)
    under = _Under(args.under, kept) if args.under else None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = repeat.main(["--workload", args.workload, "--seed", "7", "--mode", "count"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = json.loads(out.getvalue().splitlines()[-1])
    if status:
        print(f"{args.workload}: {result['violations']}", file=sys.stderr)
        return status
    calls_per_op = result["metrics"]["py_calls_per_op"]
    if under is not None:
        ops = _profiled_calls(kept.made) / calls_per_op
        calls_per_op -= under.runs / ops  # the wrapper's own calls
    print(
        f"{args.workload} {calls_per_op}"
        f" setup_s={setup_end.at - _STARTED:.2f} peak_rss_mb={peak_rss_mb:.1f}"
    )
    if under is not None:
        print(f"under {args.under}: {under.calls / ops:.3f} calls/op over {under.runs} runs")
    if args.top:
        for per_op, name in top_functions(kept.made, calls_per_op, args.top):
            print(f"{per_op:10.3f}  {name}")
    if args.retained:
        at, rows = retained_sites(args.workload, args.retained, args.by)
        print(f"live at the traced peak, virtual t={at} s:" if at is not None else
              "live at the traced peak, the end of the timed region (no simulator):")
        for kib, blocks, site in rows:
            print(f"{kib:10.1f} KiB {blocks:8d} blocks  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
