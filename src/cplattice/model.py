"""Dimensionless model parameters for a probe atom above a square atomic array.

Conventions, fixed once here and used everywhere downstream:

* lengths carry a factor k0 = omega0/c, so ``z_tilde = k0*z`` and
  ``a_tilde = k0*a``;
* frequencies are in units of omega0, so ``mu = omega_M/omega0`` and the
  imaginary-frequency variable is ``xi_tilde = xi/omega0``;
* every energy shift is reported in units of the probe atom's free-space
  linewidth gamma0, with ``rho = gamma0/omega0``.

With this normalization no vacuum constants (mu0, eps0, hbar, c) and no
dipole magnitudes appear in any formula, and the only remaining knobs are
(mu, rho, dipole orientations, a_tilde, half_extent, z_tilde).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

Z_HAT = (0.0, 0.0, 1.0)
X_HAT = (1.0, 0.0, 0.0)
# The two principal (test_dipole, array_dipole) pairs, by orientation label
ORIENTATIONS = {"zz": (Z_HAT, Z_HAT), "zx": (Z_HAT, X_HAT)}

_UNIT_NORM_TOL = 1e-12
_DETUNING_TOL = 1e-3
_RHO_MAX = 0.1
# Every length, and mu, is below this, so that its square, a Python
# float ** 2 as the package takes it, does not overflow: at mu >= 2**512
# (1 - mu)(1 + mu) and the moments' 1 - mu^2 did, and every shift read 0
MAX_LENGTH = 2.0 ** 512


class ValidationError(ValueError):
    """Base class for model-parameter validation failures."""


class DetuningTooSmall(ValidationError):
    """|1 - mu| is below the guard: the perturbative scheme needs detuning;
    or mu is not positive, or not below ``MAX_LENGTH``."""


class NonPositiveLength(ValidationError):
    """A dimensionless length (z_tilde or a_tilde) is not strictly positive
    and finite, below ``MAX_LENGTH`` = 2**512."""


class NonUnitDipole(ValidationError):
    """A dipole orientation vector is not normalized to 1 within 1e-12."""


class LinewidthTooLarge(ValidationError):
    """rho = gamma0/omega0 exceeds the weak-coupling guard (0.1)."""


def _as_unit_tuple(v) -> tuple[float, float, float]:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise NonUnitDipole(f"dipole orientation must be a 3-vector, got shape {arr.shape}")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs: frequency ratio, linewidth ratio, dipole orientations.

    mu:   omega_M / omega0 (array transition over probe transition)
    rho:  gamma0 / omega0 (probe free-space linewidth over its transition)
    test_dipole:  unit orientation of the probe dipole (z-hat in all the
                  closed-form fast paths; any unit vector is accepted)
    array_dipole: common unit orientation of every array dipole
    """

    mu: float
    rho: float
    test_dipole: tuple[float, float, float] = Z_HAT
    array_dipole: tuple[float, float, float] = Z_HAT

    def __post_init__(self):
        object.__setattr__(self, "test_dipole", _as_unit_tuple(self.test_dipole))
        object.__setattr__(self, "array_dipole", _as_unit_tuple(self.array_dipole))

    def orientation_label(self) -> str:
        """The label of the ``ORIENTATIONS`` pair that the dipoles match
        exactly, else 'custom'."""
        pair = (self.test_dipole, self.array_dipole)
        return next((label for label, fixed in ORIENTATIONS.items() if pair == fixed), "custom")


@dataclass(frozen=True)
class LatticeSpec:
    """Square lattice: dimensionless spacing a_tilde = k0*a and half-extent M.

    Sites are (n_x, n_y) with n_x, n_y in {-M, ..., M}; the atom count is
    (2M+1)^2 and M = 0 is the single-atom limit.
    """

    a_tilde: float
    half_extent: int

    @property
    def atom_count(self) -> int:
        return (2 * self.half_extent + 1) ** 2


@dataclass(frozen=True)
class Geometry:
    """Probe-atom height above the array plane, z_tilde = k0*z > 0."""

    z_tilde: float


@dataclass(frozen=True)
class ValidatedBundle:
    """Parameter bundle whose invariants hold.

    Immutable value object; safe to share across workers. Every bundle is
    checked once, at construction (by :func:`validate`, directly or through
    ``dataclasses.replace``). Downstream operations accept only this type, so
    every quantity they see is dimensionless by construction.
    """

    params: ModelParams
    lattice: LatticeSpec
    geom: Geometry

    def __post_init__(self):
        _check(self.params, self.lattice, self.geom)

    @property
    def mu(self) -> float:
        return self.params.mu

    @property
    def rho(self) -> float:
        return self.params.rho

    @property
    def a_tilde(self) -> float:
        return self.lattice.a_tilde

    @property
    def half_extent(self) -> int:
        return self.lattice.half_extent

    @property
    def z_tilde(self) -> float:
        return self.geom.z_tilde

    def orientation_label(self) -> str:
        return self.params.orientation_label()

    @functools.cached_property
    def pair(self) -> np.ndarray:
        """e0, en and e0.en (as ``greens.site_projections`` takes it): the
        dipole pair of every site kernel, one read-only float64 array (7,),
        built on first use and kept. Not a field: ``==`` and ``hash`` skip it."""
        e0, en = self.params.test_dipole, self.params.array_dipole
        pair = np.array([*e0, *en, np.dot(e0, en)])
        pair.flags.writeable = False
        return pair

    def __getstate__(self):
        # a pickled or copied array comes back writeable: a copy builds its own
        return {k: v for k, v in self.__dict__.items() if k != "pair"}


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < math.inf:
        raise DetuningTooSmall(f"mu must be positive and finite, got {mu}")
    if mu >= MAX_LENGTH:
        raise DetuningTooSmall(f"mu must be below 2**512, got {mu}")
    if abs(1.0 - mu) < _DETUNING_TOL:
        raise DetuningTooSmall(
            f"|1 - mu| = {abs(1.0 - mu):.3g} < {_DETUNING_TOL}: "
            "the perturbative shift diverges at zero detuning"
        )


def check_length(name: str, value) -> None:
    """Raise NonPositiveLength, naming the length and its value, unless
    0 < value < ``MAX_LENGTH`` (so NaN fails too): the one rule of every length."""
    if not 0.0 < value < MAX_LENGTH:
        raise NonPositiveLength(f"{name} must be > 0 and finite, below 2**512, got {value}")


def _check(params: ModelParams, lattice: LatticeSpec, geom: Geometry) -> None:
    _check_mu(params.mu)
    if not 0.0 < params.rho < _RHO_MAX:
        raise LinewidthTooLarge(
            f"rho = {params.rho!r} outside (0, {_RHO_MAX}): weak coupling required"
        )
    for name, vec in (("test_dipole", params.test_dipole), ("array_dipole", params.array_dipole)):
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= _UNIT_NORM_TOL:  # NaN fails too
            raise NonUnitDipole(f"{name} norm deviates from 1 by {abs(norm - 1.0):.3g}")
    check_length("a_tilde", lattice.a_tilde)
    try:  # an integer type only: the direct sums take it as a range bound
        whole = operator.index(lattice.half_extent) >= 0
    except TypeError:
        whole = False
    if not whole:
        raise NonPositiveLength(f"half_extent must be a non-negative integer, got {lattice.half_extent}")
    check_length("z_tilde", geom.z_tilde)


def validate(params, lattice: LatticeSpec | None = None, geom: Geometry | None = None) -> ValidatedBundle:
    """Check all invariants and return an immutable bundle.

    Idempotent: a bundle was checked when it was built, so passing one
    returns the same object.
    """
    if isinstance(params, ValidatedBundle):
        if lattice is not None or geom is not None:
            raise TypeError("pass either a bundle or (params, lattice, geom)")
        return params
    if lattice is None or geom is None:
        raise TypeError("validate requires (params, lattice, geom)")
    return ValidatedBundle(params=params, lattice=lattice, geom=geom)
