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

import math
from dataclasses import dataclass

import numpy as np

Z_HAT = (0.0, 0.0, 1.0)
X_HAT = (1.0, 0.0, 0.0)

_UNIT_NORM_TOL = 1e-12
_DETUNING_TOL = 1e-3
_RHO_MAX = 0.1


class ValidationError(ValueError):
    """Base class for model-parameter validation failures."""


class DetuningTooSmall(ValidationError):
    """|1 - mu| is below the guard: the perturbative scheme needs detuning."""


class NonPositiveLength(ValidationError):
    """A dimensionless length (z_tilde or a_tilde) is not strictly positive and finite."""


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
        """'zz' or 'zx' when the dipoles match the two studied principal
        configurations exactly, else 'custom'."""
        if self.test_dipole == Z_HAT and self.array_dipole == Z_HAT:
            return "zz"
        if self.test_dipole == Z_HAT and self.array_dipole == X_HAT:
            return "zx"
        return "custom"


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


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < math.inf:
        raise DetuningTooSmall(f"mu must be positive and finite, got {mu}")
    if abs(1.0 - mu) < _DETUNING_TOL:
        raise DetuningTooSmall(
            f"|1 - mu| = {abs(1.0 - mu):.3g} < {_DETUNING_TOL}: "
            "the perturbative shift diverges at zero detuning"
        )


def _check(params: ModelParams, lattice: LatticeSpec, geom: Geometry) -> None:
    _check_mu(params.mu)
    if not 0.0 < params.rho < _RHO_MAX:
        raise LinewidthTooLarge(
            f"rho = {params.rho!r} outside (0, {_RHO_MAX}): weak coupling required"
        )
    for name, vec in (("test_dipole", params.test_dipole), ("array_dipole", params.array_dipole)):
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise NonUnitDipole(f"{name} norm deviates from 1 by {abs(norm - 1.0):.3g}")
    if not 0.0 < lattice.a_tilde < math.inf:
        raise NonPositiveLength(f"a_tilde must be > 0 and finite, got {lattice.a_tilde}")
    if lattice.half_extent < 0 or int(lattice.half_extent) != lattice.half_extent:
        raise NonPositiveLength(f"half_extent must be a non-negative integer, got {lattice.half_extent}")
    if not 0.0 < geom.z_tilde < math.inf:
        raise NonPositiveLength(f"z_tilde must be > 0 and finite, got {geom.z_tilde}")


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
