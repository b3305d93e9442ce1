import copy
import dataclasses
import functools
import math
import pickle
import re

import numpy as np
import pytest

import reference

from cplattice.greens import site_projections
from cplattice.lattice_sum import sum_lattice
from cplattice.model import (DetuningTooSmall, Geometry, LatticeSpec, LinewidthTooLarge,
                             ModelParams, NonPositiveLength, NonUnitDipole, ValidatedBundle,
                             validate)

bundle = functools.partial(reference.bundle, M=50)


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


def test_mu_of_2_to_the_512_or_more_is_rejected():
    # there (1 - mu)(1 + mu) and the moments' 1 - mu^2 overflow, and every
    # shift read 0 or -0 without an error
    for mu in (2.0 ** 512, 1.341e154, 1e200, 1e308):
        with pytest.raises(DetuningTooSmall, match=re.escape(f"mu must be below 2**512, got {mu}")):
            bundle(mu=mu)
    assert bundle(mu=math.nextafter(2.0 ** 512, 0.0)).mu < 2.0 ** 512


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


def test_half_extent_takes_an_integer_type_only():
    # 3.0 passed validation, counted 49.0 atoms and made every direct sum
    # raise a bare TypeError; NumPy's integers keep the bits of Python's
    for M in (3.0, 2.5, "3"):
        with pytest.raises(NonPositiveLength, match=f"^half_extent must be a non-negative "
                                                    f"integer, got {M}$"):
            bundle(M=M)
    for kind in ("resonant", "off_resonant"):
        want = getattr(sum_lattice(bundle(M=3), kind), kind)
        assert getattr(sum_lattice(bundle(M=np.int64(3)), kind), kind).hex() == want.hex()


def test_non_unit_dipole_rejected():
    with pytest.raises(NonUnitDipole):
        bundle(test=(0, 0, 1 + 1e-9))
    # 1e-13 deviation is inside the tolerance
    s = 1.0 + 1e-13
    bundle(test=(0, 0, s))


def test_nan_dipole_rejected():
    # abs(nan - 1.0) > tol is False: a NaN component passed and failed later
    # as a quadrature error estimate of nan
    for dipole in ((math.nan, 0, 0), (0, 0, math.nan)):
        for which in ("test", "array"):
            with pytest.raises(NonUnitDipole, match="norm deviates from 1 by nan"):
                bundle(**{which: dipole})


def test_lengths_whose_square_overflows_rejected():
    # a float ** 2 of 2**512 or more raises OverflowError
    for big in (2.0 ** 512, 1e200, 1e308):
        with pytest.raises(NonPositiveLength, match=r"^z_tilde must be > 0 and finite, "
                                                    r"below 2\*\*512, got "):
            bundle(z=big)
        with pytest.raises(NonPositiveLength, match=r"^a_tilde must be > 0 and finite, "
                                                    r"below 2\*\*512, got "):
            bundle(a=big)
    below = math.nextafter(2.0 ** 512, 0.0)
    b = bundle(a=below, z=below)
    assert b.a_tilde == b.z_tilde == below and math.isfinite(below ** 2)


def test_dipole_that_is_not_a_3_vector_rejected():
    for dipole in ((0, 1), (0, 0, 1, 0), ((0, 0, 1),)):
        with pytest.raises(NonUnitDipole, match="must be a 3-vector"):
            bundle(test=dipole)
        with pytest.raises(NonUnitDipole, match="must be a 3-vector"):
            bundle(array=dipole)


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
    for name, (test, array) in reference.PAIRS.items():
        assert bundle(test=test, array=array).orientation_label() == name.partition("_")[0]


def test_atom_count_single_atom_limit():
    assert LatticeSpec(a_tilde=1.0, half_extent=0).atom_count == 1


_S3 = 1.0 / math.sqrt(3.0)


def test_bundle_pair_is_built_once_read_only():
    # e0, en and e0.en as one contiguous float64 (7,), the one dipole input
    # of the site kernels, with e0.en as greens.site_projections takes it
    b = bundle(test=(_S3, _S3, _S3), array=(0.6, 0.0, 0.8))
    pair = b.pair
    assert pair is b.pair
    assert pair.dtype == np.float64 and pair.shape == (7,) and pair.flags.c_contiguous
    dot = site_projections(b.params.test_dipole, b.params.array_dipole, 1.0, 0.0, 1.0)[1]
    assert pair.tolist() == [_S3, _S3, _S3, 0.6, 0.0, 0.8, dot]
    with pytest.raises(ValueError, match="read-only"):
        pair[6] = 0.0


def test_bundle_pair_leaves_equality_hash_and_copies_alone():
    # the pair is not a field: equal inputs give equal bundles of one hash
    # whether or not either has built its pair, and a pickled or copied
    # bundle's pair is read-only with the same bits
    a, b = (bundle(test=(_S3, _S3, _S3), array=(0.6, 0.0, 0.8)) for _ in range(2))
    unbuilt = hash(b)
    assert a.pair is not None and a == b and hash(a) == unbuilt
    assert b.pair is not None and a == b and hash(b) == unbuilt
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a),
                   pickle.loads(pickle.dumps(bundle(test=(_S3, _S3, _S3), array=(0.6, 0.0, 0.8))))):
        assert copied == a and hash(copied) == unbuilt
        assert not copied.pair.flags.writeable
        assert copied.pair.tobytes() == a.pair.tobytes()
