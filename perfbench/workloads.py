"""Seeded workload plans.

A plan is plain JSON: a list of groups, each holding only the inputs the
program receives (CLI arguments for the sweeps, validated-bundle fields for
the library calls). The same (workload, seed, seconds) always gives the same
plan.

A plan also sets how many passes ``run.py`` makes over it; every chunk of a
timed part takes its median over the passes, so that a burst of load from
other tenants spoils only the chunks it overlaps in one pass. Plan sizes scale linearly with
``seconds`` and were calibrated so that all passes of a 45-second plan take
25-40 s, depending on host load, on the NumPy backend of the commit that
defined the benchmark (2 vCPU Xeon). Both sides of a comparison therefore do
identical work; a faster program finishes sooner.

Inputs are stratified (each at the centre of a fixed stratum, jittered by at
most a tenth of its width) rather than drawn freely, so that the amount of
work, and with it every end-to-end metric, changes little from seed to seed.
For the same reason the detuning stays within +-0.1 of 0.6 or within
[1.5, 2.5], where the off-resonant quadrature work of a sweep changes by
about 1%; at mu = 0.3 it is 8% higher.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep_dense", "custom_orientation")

RHO = 1e-6

# sweep_dense: the README sweep window and settings at 10 points per decade
# instead of 64, 31 rows (3 decades) per 45 s, so that 12 passes fit.
DENSE_ROWS_PER_S = 31 / 45
DENSE_PPD = 10
DENSE_MAX_DECADES = 3

# custom_orientation: two call groups per 45 s (about 3 s each, most of it
# in the off-resonant edge term, which does not depend on M), so that five
# passes fit. With freely drawn unit dipoles a group's quadrature work changed
# by up to 20%, and a run's total spread by 0.08 over ten seeds, most of the
# run-to-run spread of its times. So the dipoles, too, are stratified: each
# stratum has a fixed pair of non-principal directions, jittered by the seed.
CUSTOM_OPS_PER_S = 2 / 45
CUSTOM_M = 8
CUSTOM_DIPOLES = (((1.0, 1.0, 2.0), (2.0, -1.0, 1.0)),    # (test, array) per stratum
                  ((-1.0, 2.0, 1.0), (1.0, 1.0, -2.0)))
CUSTOM_JITTER = 0.1  # std of the seeded offset added to each direction, ~6 degrees

PASSES = {"sweep_dense": 12, "custom_orientation": 5}


def _mu(rng, below: bool) -> float:
    """Detuning on a chosen side of resonance (mu = 1 is excluded by validate)."""
    return float(rng.uniform(0.5, 0.7) if below else rng.uniform(1.5, 2.5))


def _stratum(rng, k: int, n: int) -> float:
    """A point in stratum k of n on [0, 1]: the stratum's centre, jittered by
    at most a tenth of its width."""
    return (k + 0.5 + rng.uniform(-0.1, 0.1)) / n


def sweep_rows(z_min: float, z_max: float, ppd: int) -> int:
    """Row count of a sweep: the grid rule `cplattice sweep` documents."""
    return max(2, int(round(math.log10(z_max / z_min) * ppd)) + 1)


def _sweep_group(label, orientation, mu, a_tilde, half_extent, z_min, decades, ppd):
    z_max = z_min * 10.0 ** decades
    return {"type": "sweep", "label": label, "orientation": orientation, "mu": mu,
            "rho": RHO, "a_tilde": a_tilde, "half_extent": half_extent, "z_min": z_min,
            "z_max": z_max, "ppd": ppd, "rows": sweep_rows(z_min, z_max, ppd),
            "argv": ["sweep", "--orientation", orientation, "--mu", repr(mu),
                     "--rho", repr(RHO), "--a-tilde", repr(a_tilde),
                     "--half-extent", str(half_extent), "--z-min", repr(z_min),
                     "--z-max", repr(z_max), "--points-per-decade", str(ppd),
                     "--threads", "1"]}


def _sweep_dense(rng, seconds):
    rows = max(2, round(seconds * DENSE_ROWS_PER_S))
    groups = []
    below = bool(rng.integers(2))
    while rows > 0:
        n = min(rows, DENSE_MAX_DECADES * DENSE_PPD + 1)
        z_min = 0.01 * 10.0 ** rng.uniform(-0.02, 0.02)
        groups.append(_sweep_group(f"s{len(groups)}", "zz", _mu(rng, below), 0.01, 500,
                                   z_min, (n - 1) / DENSE_PPD, DENSE_PPD))
        rows -= n
        below = not below
    return groups


def _unit(v) -> list[float]:
    v = np.asarray(v, dtype=float)
    return [float(c) for c in v / np.linalg.norm(v)]


def _custom_orientation(rng, seconds):
    n = max(1, round(seconds * CUSTOM_OPS_PER_S))
    lo, hi = math.log(0.3), math.log(5.0)
    groups = []
    for k in rng.permutation(n):
        # one height per stratum of log z in [0.3, 5]. Strata alternate below
        # and above resonance, starting below: with two groups, the opposite
        # pairing made one group about 10% dearer than the other, so a coin
        # flip of the seed would have moved op_tail_s by about 4%.
        z = math.exp(lo + (hi - lo) * _stratum(rng, k, n))
        e0, en = (_unit(np.array(d) / np.linalg.norm(d) + rng.normal(scale=CUSTOM_JITTER, size=3))
                  for d in CUSTOM_DIPOLES[k % len(CUSTOM_DIPOLES)])
        groups.append({
            "type": "custom", "mu": _mu(rng, k % 2 == 0), "rho": RHO,
            "test_dipole": e0, "array_dipole": en,
            "a_tilde": float(rng.uniform(0.5, 0.7)), "half_extent": CUSTOM_M, "z_tilde": z})
    for i, g in enumerate(groups):
        g["label"] = f"c{i}"
    return groups


_PLANS = {"sweep_dense": _sweep_dense, "custom_orientation": _custom_orientation}


def make_plan(workload: str, seed: int, seconds: float) -> dict:
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not seconds > 0:
        raise ValueError("seconds must be positive")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "passes": PASSES[workload], "groups": _PLANS[workload](rng, seconds)}

