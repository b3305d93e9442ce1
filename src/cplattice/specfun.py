"""Cosine integral and the hyperbolic-integral combination Chi - Shi.

The package calls none of them: ``bulk_term`` takes the Ci(2z) of the
closed-form resonant bulk (``euler_maclaurin.plane_wave_bracket``) for a
block of heights from one ``kernels.sici`` call. They are read only by perfbench's tracer and the
tests. All reject x <= 0. Ci comes from ``kernels.sici``, the bits of ``scipy.special.sici``
(compiled, or SciPy itself on the NumPy backend), and E1 from
``scipy.special.exp1``, imported on the first call. Against 40-digit mpmath
on (1e-6, 1e3] they are within ~2e-15 absolute for Ci and ~2e-15 relative
for E1, inside the 1e-13 target.
"""
from __future__ import annotations

from . import kernels


class DomainError(ValueError):
    """Argument outside the supported domain (x must be > 0)."""


def cosine_integral(x: float) -> float:
    """Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt, for x > 0."""
    if not x > 0.0:
        raise DomainError(f"cosine_integral requires x > 0, got {x!r}")
    return float(kernels.sici(x)[1])


def exp_integral_e1(x: float) -> float:
    """E1(x) = int_x^inf e^{-t}/t dt, for x > 0."""
    if not x > 0.0:
        raise DomainError(f"exp_integral_e1 requires x > 0, got {x!r}")
    from scipy.special import exp1
    return float(exp1(x))


def chi_minus_shi(x: float) -> float:
    """Chi(x) - Shi(x) = -E1(x) for x > 0 (hyperbolic-integral identity)."""
    if not x > 0.0:
        raise DomainError(f"chi_minus_shi requires x > 0, got {x!r}")
    return -exp_integral_e1(x)
