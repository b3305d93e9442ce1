"""A fixed reference computation, run in short pieces all through every pass.

The benchmark shares a few cores with other tenants. Their load makes all
code run up to about twice as slow, in phases that last from seconds to
minutes, often longer than one run, so no choice among a run's own passes
can remove it. ``worker.Marks`` therefore runs one :func:`piece` of this
computation every ``INTERVAL_S`` while the program runs, with its clock
stopped, and the end-to-end times are reported in reference seconds:

    reported = measured * REFERENCE_PIECE_S / (the run's typical piece time)

A piece is a short loop of interpreted float arithmetic and ``math`` calls,
the work that dominates cplattice's integrands. Among the candidates tried
(this loop; an adaptive QUADPACK integration of a scalar or of a small
NumPy/complex integrand; NumPy reductions over rows of 501 terms; a NumPy
pass over 1.6 MB) it tracked both workloads best: over 4-minute records,
log(program time per pass) against log(piece time) had slope 1.02 on a
sweep and 0.98 on a custom call group, where the QUADPACK pieces had
0.64-0.83 and the large NumPy pass 1.5-1.9. A piece uses no cplattice code,
so it is the same on both sides of any comparison, and a change to the
package moves the reported times exactly as it moves the measured ones.
"""
from __future__ import annotations

import math
import time

# About the median piece time on the 2 vCPU Xeon host where the benchmark was
# defined (CPython 3.11, NumPy 2.4, SciPy 1.17). It only sets the scale of the
# reported times; both sides of a comparison use it.
REFERENCE_PIECE_S = 0.0009

# Pieces sample the host's speed this often, at the program's next inner call
# or part boundary: about 33 pieces per second, 3% of the run.
INTERVAL_S = 0.03

_STEPS = 4000


def piece() -> float:
    """Run one piece of the reference computation; return its seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(_STEPS):
        x = i * 1e-3
        s += math.exp(-x) * (x * x + 1.0) / (1.0 + x)
    return time.perf_counter() - t0
