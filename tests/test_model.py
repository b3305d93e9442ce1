import dataclasses
import math

import pytest

from cplattice.model import (DetuningTooSmall, Geometry, LatticeSpec, LinewidthTooLarge,
                             ModelParams, NonPositiveLength, NonUnitDipole, ValidatedBundle,
                             validate)


def bundle(mu=0.5, rho=1e-6, a=0.01, M=50, z=0.1, test=(0, 0, 1), array=(0, 0, 1)):
    return validate(ModelParams(mu=mu, rho=rho, test_dipole=test, array_dipole=array),
                    LatticeSpec(a_tilde=a, half_extent=M), Geometry(z_tilde=z))


def test_accepts_reference_parameters():
    b = bundle()
    assert b.mu == 0.5 and b.rho == 1e-6
    assert b.lattice.atom_count == 101 ** 2


def test_degenerate_detuning_rejected():
    with pytest.raises(DetuningTooSmall):
        bundle(mu=1.0)
    with pytest.raises(DetuningTooSmall):
        bundle(mu=1.0004)
    with pytest.raises(DetuningTooSmall):
        bundle(mu=-0.5)


def test_non_finite_inputs_rejected():
    for value in (math.inf, math.nan):
        with pytest.raises(DetuningTooSmall):
            bundle(mu=value)
        with pytest.raises(NonPositiveLength):
            bundle(a=value)
        with pytest.raises(NonPositiveLength):
            bundle(z=value)


def test_nonpositive_lengths_rejected():
    with pytest.raises(NonPositiveLength):
        bundle(z=0.0)
    with pytest.raises(NonPositiveLength):
        bundle(z=-1.0)
    with pytest.raises(NonPositiveLength):
        bundle(a=0.0)
    with pytest.raises(NonPositiveLength):
        validate(ModelParams(mu=0.5, rho=1e-6), LatticeSpec(a_tilde=1.0, half_extent=-1),
                 Geometry(z_tilde=1.0))


def test_non_unit_dipole_rejected():
    with pytest.raises(NonUnitDipole):
        bundle(test=(0, 0, 1 + 1e-9))
    # 1e-13 deviation is inside the tolerance
    s = 1.0 + 1e-13
    bundle(test=(0, 0, s))


def test_rho_guard():
    with pytest.raises(LinewidthTooLarge):
        bundle(rho=0.2)
    with pytest.raises(LinewidthTooLarge):
        bundle(rho=0.0)
    with pytest.raises(LinewidthTooLarge):
        bundle(rho=-1e-6)


def test_validate_is_idempotent():
    b = bundle()
    assert validate(b) is b


def test_bundle_checked_at_construction():
    # built directly or by dataclasses.replace, an invalid bundle raises the
    # same error as validate
    lattice, geom = LatticeSpec(a_tilde=1.0, half_extent=0), Geometry(z_tilde=1.0)
    cases = ((ModelParams(mu=1.0, rho=1e-6), lattice, geom, DetuningTooSmall),
             (ModelParams(mu=0.5, rho=0.2), lattice, geom, LinewidthTooLarge),
             (ModelParams(mu=0.5, rho=1e-6, test_dipole=(0, 0, 2)), lattice, geom, NonUnitDipole),
             (ModelParams(mu=0.5, rho=1e-6), LatticeSpec(a_tilde=0.0, half_extent=0), geom,
              NonPositiveLength),
             (ModelParams(mu=0.5, rho=1e-6), lattice, Geometry(z_tilde=-1.0), NonPositiveLength))
    for params, lat, g, error in cases:
        with pytest.raises(error):
            validate(params, lat, g)
        with pytest.raises(error):
            ValidatedBundle(params=params, lattice=lat, geom=g)
    with pytest.raises(NonPositiveLength):
        dataclasses.replace(bundle(), geom=Geometry(z_tilde=0.0))


def test_validate_argument_shapes():
    b = bundle()
    with pytest.raises(TypeError):
        validate(b, LatticeSpec(a_tilde=1.0, half_extent=0))
    with pytest.raises(TypeError):
        validate(ModelParams(mu=0.5, rho=1e-6))


def test_orientation_labels():
    assert bundle().orientation_label() == "zz"
    assert bundle(array=(1, 0, 0)).orientation_label() == "zx"
    s = 1.0 / math.sqrt(2.0)
    assert bundle(array=(s, 0, s)).orientation_label() == "custom"


def test_atom_count_single_atom_limit():
    assert LatticeSpec(a_tilde=1.0, half_extent=0).atom_count == 1
