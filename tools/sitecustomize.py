"""Imported by every Python started with ``tools/`` on ``PYTHONPATH``:
arms the call recorder of ``make reach`` when ``REACH_DIR`` is set."""

import os

if os.environ.get("REACH_DIR"):
    import reach

    reach.arm()
