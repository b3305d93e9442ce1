"""Closed-form asymptotic shifts and tabulated scaling exponents.

All values are Delta omega / gamma0 in the fixed dimensionless convention.
Every regime law is one row of ``_LAWS``, the single source of its
coefficient, prefactor P, oscillation and z power n:

    shift = coefficient * P * trig(2z) / (area * z^n),

with P one of K = rho mu/((1-mu)(1+mu)), L = rho/(1+mu), Q = rho/mu,
trig cos, sin or absent, and area = a^2 for a dense array (1 for a sparse
one). The tabulated exponent is -n. For orientation zx (probe z, array x)
every sparse form vanishes identically; its rows hold None.

The dense resonant prefactors are the small-z / large-z limits of the exact
resonant bulk (:func:`full_closed_form`); tests/test_asymptotics.py derives
them in sympy from the plane-wave k-integral and checks them against the
bulk in their windows. No automatic
regime selection happens here: each call evaluates exactly the requested
formula, and sweeps emit every applicable asymptote side by side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .euler_maclaurin import bulk_term
from .lattice_sum import finite, heights_array, per_height
from .model import ORIENTATIONS, ValidatedBundle, validate

Kind = Literal["resonant", "off_resonant"]
Orientation = Literal["zz", "zx"]
Retardation = Literal["non_retarded", "retarded"]
Density = Literal["sparse", "dense"]

_PREFACTORS = {
    "K": lambda mu, rho: rho * mu / ((1.0 - mu) * (1.0 + mu)),
    "L": lambda mu, rho: rho / (1.0 + mu),
    "Q": lambda mu, rho: rho / mu,
}

# (kind, orientation, retardation, density) -> (coefficient, P, trig, n),
# in the order sweeps list them
_LAWS = {
    ("resonant", "zz", "non_retarded", "sparse"): (4.5, "K", None, 6),
    ("resonant", "zz", "non_retarded", "dense"): (27.0 * math.pi / 32.0, "K", None, 4),
    ("resonant", "zz", "retarded", "sparse"): (-4.5, "K", math.cos, 4),
    ("resonant", "zz", "retarded", "dense"): (9.0 * math.pi / 4.0, "K", math.sin, 3),
    ("off_resonant", "zz", "non_retarded", "sparse"): (2.25, "L", None, 6),
    ("off_resonant", "zz", "non_retarded", "dense"): (27.0 * math.pi / 64.0, "L", None, 4),
    ("off_resonant", "zz", "retarded", "sparse"): (45.0 / (8.0 * math.pi), "Q", None, 7),
    ("off_resonant", "zz", "retarded", "dense"): (0.9, "Q", None, 5),
    ("resonant", "zx", "non_retarded", "sparse"): None,
    ("resonant", "zx", "non_retarded", "dense"): (27.0 * math.pi / 64.0, "K", None, 4),
    ("resonant", "zx", "retarded", "sparse"): None,
    ("resonant", "zx", "retarded", "dense"): (-(9.0 * math.pi / 16.0), "K", math.cos, 2),
    ("off_resonant", "zx", "non_retarded", "sparse"): None,
    ("off_resonant", "zx", "non_retarded", "dense"): (27.0 * math.pi / 128.0, "L", None, 4),
    ("off_resonant", "zx", "retarded", "sparse"): None,
    ("off_resonant", "zx", "retarded", "dense"): (9.0 / 16.0, "Q", None, 5),
}


@dataclass(frozen=True)
class Regime:
    kind: Kind
    orientation: Orientation
    retardation: Retardation
    density: Density

    def __post_init__(self):
        if _key(self) not in _LAWS:
            raise ValueError(f"no asymptotic law for {_key(self)!r}")


def _key(regime: Regime):
    return (regime.kind, regime.orientation, regime.retardation, regime.density)


def asymptotic_shift(regime: Regime, bundle: ValidatedBundle, heights=None):
    """Evaluate the requested closed-form asymptote (no regime detection).

    With ``heights``, the asymptote at each of those heights (the bundle's
    other parameters kept) as a float64 array, bitwise equal to one call per
    height; without, the float at the bundle's height. Raises ValueError
    unless the regime's orientation is the bundle's label, and
    QuadratureFailure, naming the regime, the first such height and mu, where
    a value is not finite: where z^n overflows or underflows.
    """
    bundle = validate(bundle)
    if regime.orientation != bundle.orientation_label():
        raise ValueError(f"regime orientation {regime.orientation!r} does not match the "
                         f"bundle's {bundle.orientation_label()!r}")
    z = heights_array(bundle, heights)
    law = _LAWS[_key(regime)]
    if law is None:
        return per_height(heights, np.zeros(z.size))
    coef, pref, trig, n = law
    area = bundle.a_tilde ** 2 if regime.density == "dense" else 1.0
    scale = coef * _PREFACTORS[pref](bundle.mu, bundle.rho)

    def value(h):
        # math.cos/sin and ** on each float, as a one-height call computes
        # them; NaN where h ** n overflows or area * h ** n underflows to 0
        try:
            return scale * (trig(2.0 * h) if trig else 1.0) / (area * h ** n)
        except (OverflowError, ZeroDivisionError):
            return math.nan

    stage = f"asymptote {regime.kind} {regime.retardation} {regime.density}"
    return per_height(heights, finite(np.array([value(h) for h in z.tolist()]), z, bundle, stage))


def full_closed_form(orientation: Orientation, bundle: ValidatedBundle) -> float:
    """Exact resonant bulk of a zz or zx bundle, valid across both
    retardation regimes: ``bulk_term(bundle, "resonant")``."""
    bundle = validate(bundle)
    if orientation not in ORIENTATIONS or orientation != bundle.orientation_label():
        raise ValueError(f"orientation {orientation!r} does not match the bundle's "
                         f"{bundle.orientation_label()!r}")
    return bulk_term(bundle, "resonant")


def expected_exponent(regime: Regime) -> Optional[int]:
    """Tabulated z-exponent of the regime; None when the shift vanishes."""
    law = _LAWS[_key(regime)]
    return None if law is None else -law[3]


def all_regimes(orientation: str):
    """Every Regime of an orientation, in stable order (none for custom)."""
    return [Regime(*key) for key in _LAWS if key[1] == orientation]
