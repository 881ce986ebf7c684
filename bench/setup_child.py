"""Set-up time of one fresh process: import skewlab, parse and build configs.

Usage: python3 bench/setup_child.py <config>...  (with src/ on PYTHONPATH)
Prints the elapsed seconds, measured from before the first skewlab import,
raw and normalized to the machine's speed (see calibrate.py).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import calibrate, normalized  # noqa: E402

loop_before = calibrate()
t0 = time.perf_counter()

import skewlab.cli  # noqa: E402  (the CLI imports every layer)
from skewlab import config  # noqa: E402

for path in sys.argv[1:]:
    with open(path) as fh:
        config.build_system(config.parse_config(fh.read()))
elapsed = time.perf_counter() - t0
print(elapsed, normalized(elapsed, loop_before, calibrate()))
