"""The public outputs, and the bits beneath them that the tests check, are
the bits of the committed ledger.

``tests/ledger.json`` holds every entry of ``tests/ledger.py`` as recorded,
with the toolchain it was recorded on: each public function that computes
numbers, and the term battery, the rotated-path ray integrals, the single
rows, the custom direct sums and the off-resonant sites and moments. It is
the one record of pinned bits and this module its one check. The entries are
computed once per backend, and each route group (a key's first two words,
such as ``bulk_term zz`` or ``cli sweep``) is a test that names its entries
that changed or are missing; one more test per backend fails on an entry the
ledger lacks, or a public numeric function or group of pinned bits without
entries. A change that moves an entry records the ledger again
(``python tests/ledger.py``) and names each changed entry in CHANGES.md.

The bits rest on the C library, NumPy, SciPy, the C compiler and the CPU.
On a toolchain that differs from the recorded one the entries are still
compared: the cross-group test warns, naming each difference, and every
mismatch reports it. A differing toolchain is reported, never skipped.
"""
import json
import re
import warnings

import pytest

import ledger

import cplattice
from cplattice import kernels

# The public functions that compute numbers, each the prefix of its entries
NUMERIC = ("sum_lattice", "bulk_term", "edge_term", "vertex_term", "decompose",
           "resonant_pair_term", "offresonant_pair_term", "green_dyadic", "pair_coupling",
           "asymptotic_shift", "expected_exponent", "full_closed_form")
# The groups of pinned bits beneath them, each by the pattern of its keys
PINNED = {"term battery": r"(bulk|edge|vertex)_term \S+ \S+ mu=0\.5 a=0\.01 z=",
          "ray_rotated": r"ray_rotated ", "res_row": r"res_row ",
          "custom sums": r"sum_lattice custom_[ab] ", "off-resonant sites": r"offres_sites ",
          "moments": r"moments "}

GOLDEN = json.loads(ledger.LEDGER.read_text())
WANT = {k: entry["value"] for k, entry in GOLDEN["entries"].items()}


def _group(key: str) -> str:
    """The route group of an entry: its key's first two words."""
    return " ".join(key.split()[:2])


@pytest.fixture(scope="module")
def got(module_backend):
    """The ledger's entries on the backend in place, computed once."""
    return ledger.entries()


@pytest.fixture(scope="module")
def moved():
    """Each toolchain item that differs from the recorded one, with both values."""
    recorded, here = GOLDEN["toolchain"], ledger.toolchain()
    return {k: (recorded.get(k), v) for k, v in here.items() if recorded.get(k) != v}


@pytest.mark.parametrize("group", sorted({_group(k) for k in WANT}))
def test_group_equals_the_ledger(got, moved, group):
    want = {k: v for k, v in WANT.items() if _group(k) == group}
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    assert not (changed or missing), (f"on {kernels.backend_name()}: changed {changed}, "
                                      f"missing {missing}; toolchain changes: {moved}")


def test_changes_name_each_moved_added_and_dropped_entry():
    # what recording the ledger again prints: each entry whose value moved,
    # as its name and old -> new, then the added and the dropped names
    old = {"b x": {"value": 1.5}, "a x": {"value": [1, 2]}, "c x": {"value": "p"}}
    new = {"b x": {"value": 2.5}, "a x": {"value": [1, 2]}, "d x": {"value": "q"}}
    assert ledger.changes(old, new) == ["b x: 1.5 -> 2.5", "added d x", "dropped c x"]
    assert ledger.changes(old, old) == []


def test_every_entry_is_recorded_and_every_route_pinned(got, moved):
    if moved:
        warnings.warn(f"the ledger was recorded on another toolchain: {moved}")
    new = sorted(got.keys() - WANT.keys())
    assert not new, f"on {kernels.backend_name()}: new {new}; toolchain changes: {moved}"
    assert set(NUMERIC) <= set(cplattice.__all__)
    assert all(any(k.startswith(f + " ") for k in got) for f in NUMERIC)
    assert [g for g, key in PINNED.items() if not any(re.match(key, k) for k in got)] == []
