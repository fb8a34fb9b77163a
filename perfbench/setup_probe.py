"""Set-up probe, run in a fresh interpreter: import the package and build one
workload's config, scenario and grid, then print the seconds that took.

Usage: python3 setup_probe.py SRC_DIR CONFIG_YAML [X,Y]
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import bisense.cli  # noqa: E402,F401  (the CLI is what every operation enters)
from bisense.config import build_grid, build_options, build_scenario, load_config  # noqa: E402

config = load_config(sys.argv[2])
target = tuple(float(v) for v in sys.argv[3].split(",")) if len(sys.argv) > 3 else None
build_scenario(config, target=target)
build_grid(config)
build_options(config)
print(repr(time.perf_counter() - start))
