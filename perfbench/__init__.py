"""perfbench: the repository's benchmark.

One command per run (``python3 perfbench/run.py``, the contract in
``BENCHMARK.json``) or per full set (``python -m perfbench``); five
workloads; end-to-end metrics from untraced runs and a per-layer ledger
from a traced run.  It drives ``repro`` through public constructors and
changes no program code.  See ``perfbench/README.md``.
"""
