"""``python -m repro.obs catalogue``: print every metric family."""

import sys

from repro.obs.catalogue import render

if sys.argv[1:] != ["catalogue"]:
    sys.exit("usage: python -m repro.obs catalogue")
sys.stdout.write(render())
