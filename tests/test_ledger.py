"""The public outputs, and the bits beneath them that the tests check, are
the bits of the committed ledger.

``tests/ledger.json`` holds every entry of ``tests/ledger.py`` as recorded,
with the toolchain it was recorded on: each public function that computes
numbers, and the term battery, the rotated-path ray integrals, the single
rows, the custom direct sums and the off-resonant sites and moments. It is
the one record of pinned bits, and both backends must agree on every entry.
A change that moves an entry records the ledger again
(``python tests/ledger.py``) and names each changed entry and its reason in
CHANGES.md.

The entries are compared on every toolchain. The bits rest on the C library,
NumPy, SciPy, the C compiler and the CPU, so on a toolchain that differs from
the recorded one the test warns, naming each difference, and a mismatch
reports that difference with the entries it names: a differing toolchain is
reported, never skipped.
"""
import json
import re
import warnings

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


def test_public_outputs_equal_the_ledger(backend):
    golden = json.loads(ledger.LEDGER.read_text())
    name = kernels.backend_name()
    want = ledger.expected(golden["entries"])
    got = ledger.entries()
    recorded, here = golden["toolchain"], ledger.toolchain()
    moved = {k: (recorded.get(k), v) for k, v in here.items() if recorded.get(k) != v}
    if moved:
        warnings.warn(f"the ledger was recorded on another toolchain: {moved}")
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (changed or missing or new), (
        f"on {name}: changed {changed}, missing {missing}, new {new}; toolchain changes: {moved}")
    assert set(NUMERIC) <= set(cplattice.__all__)
    assert all(any(k.startswith(f + " ") for k in got) for f in NUMERIC)
    assert [g for g, key in PINNED.items() if not any(re.match(key, k) for k in got)] == []
