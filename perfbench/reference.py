"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, in CPU time as much as in wall time.  A median over
the commands of one run does not remove that drift, so two runs of the same
code can differ by more than any useful bound.  The benchmark therefore
times this kernel between consecutive efs commands and scales each command's
wall time by ``REFERENCE_SECONDS / t``, where ``t`` is the mean of the
kernel's times just before and just after the command.  A scaled time reads
as "seconds on a machine where the kernel takes REFERENCE_SECONDS".

The kernel does the two kinds of work the program does: row blocks of a
pairwise Riesz-type interaction (as in the forward step and the energy
trace), and a Python loop of short numpy calls on a few hundred points (as
in the backward inner solver).  It never calls efs, so a change to the
program cannot move it.  It must not change either: scaled times are only
comparable between commits measured with the same kernel.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of seconds(): a round figure within the 0.07-0.15 s it took
# on a 2-vCPU Intel Xeon VM as the host drifted.
REFERENCE_SECONDS = 0.1

_rng = np.random.default_rng(20250711)
_BLOCK_POINTS = _rng.standard_normal((600, 2))
_CALL_POINTS = _rng.standard_normal((400, 2))


def _pair_blocks():
    x = _BLOCK_POINTS
    for _ in range(2):
        for i in range(0, len(x), 128):
            diff = x[i:i + 128, None, :] - x[None, :, :]
            sq = np.einsum("ijk,ijk->ij", diff, diff) + 1e-3
            ((sq ** -1.5)[:, :, None] * diff).sum(axis=1)


def _short_calls():
    x = _CALL_POINTS
    y = x[0].copy()
    for _ in range(1000):
        diff = y - x
        sq = (diff * diff).sum(axis=1) + 1e-3
        y = y - 1e-6 * ((sq ** -1.5)[:, None] * diff).mean(axis=0)


def seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _pair_blocks()
    _short_calls()
    return time.perf_counter() - t0
