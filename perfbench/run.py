#!/usr/bin/env python3
"""Offline benchmark of efs: `efs dataset`, then `efs forward`, then `efs sample`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mix-ref --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Without it the benchmark exits with code 2 and prints no result.  The last
line of standard output is one JSON object; see NOTES.md for the workloads
and metrics.
"""

import os
import sys
from pathlib import Path

# One BLAS thread and no efs worker threads.  Set before numpy is imported;
# the set-up child processes inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EFS_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "efs" / "__init__.py").is_file():
        print(f"error: no efs sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
