"""``make calls``: one count-mode repeat of a perfbench workload, one line.

Runs ``perfbench.repeat`` in this process with ``--mode count`` (cProfile
over the timed region, seed 7) and prints the workload's
``py_calls_per_op``, then the ``setup_s`` and ``peak_rss_mb`` of that
same repeat, which count mode does not report itself.  Set-up is timed
from this script's start to the garbage collection the repeat runs just
before its timed region; the peak is read once the repeat returns.  One
sample, taken under cProfile, so it reports and gates nothing::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python tools/calls.py mail_slowlink
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time

_STARTED = time.time()

from perfbench import repeat  # noqa: E402  (its imports are set-up too)


class _SetupEnd:
    """The ``gc`` the repeat sees: its one ``collect()`` ends the set-up."""

    at = None

    def collect(self) -> int:
        found = gc.collect()
        self.at = time.time()
        return found


def main(argv: list) -> int:
    workload = argv[0]
    setup_end = repeat.gc = _SetupEnd()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = repeat.main(["--workload", workload, "--seed", "7", "--mode", "count"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = json.loads(out.getvalue().splitlines()[-1])
    if status:
        print(f"{workload}: {result['violations']}", file=sys.stderr)
        return status
    print(
        f"{workload} {result['metrics']['py_calls_per_op']}"
        f" setup_s={setup_end.at - _STARTED:.2f} peak_rss_mb={peak_rss_mb:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
