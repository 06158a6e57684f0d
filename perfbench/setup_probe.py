"""One set-up as a user pays it: start Python, import efs, run `efs dataset`.

Usage: python3 perfbench/setup_probe.py <src directory> <efs dataset arguments...>

Prints, as its last line, the CLOCK_MONOTONIC time at which the dataset
command finished; the parent subtracts the time it started this process.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import efs.cli  # noqa: E402

rc = efs.cli.main(sys.argv[2:])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
sys.exit(rc)
