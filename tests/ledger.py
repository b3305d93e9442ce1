"""The ledger of public outputs: what every public route returns on a fixed
set of inputs, bit for bit, the same on each row backend.

``entries()`` computes the ledger on the selected backend (``kernels.backend``):
a dict of entry name -> JSON value. Floats are ``float.hex`` strings (a
list of them for calls with ``heights=``); a call that raises is
``{"error": "<type>: <message>"}``; a CLI command is its exit code, the
sha256 of its stdout and of any file it writes, and its stderr.

The inputs:
  * pairs zz, zx, the custom e0 = (1,1,1)/sqrt(3), en = (0.6, 0, 0.8), and
    the custom "even" pair (0.6, 0, 0.8), (0.6, 0, -0.8), whose site term
    is even along both axes;
  * ``sum_lattice`` at M 0, 1, 8 and 40, and for zz, zx and custom at
    M 150, both kinds, at one height and at four with ``heights=``, on one
    and two threads;
  * the three terms and ``decompose`` for a block of 16 heights from 1e-3
    to 1e3, and at z = 1e-307, where they fail (all but the vertex of a
    pair whose coupling vanishes at the origin);
  * for zz, zx and custom at M 2, every call of ``reference.public_calls``
    at ``reference.EXTREME_HEIGHTS``, the battery that
    ``test_every_public_function_is_finite_or_fails_cleanly_at_extreme_heights``
    runs: each value, or the ``QuadratureFailure`` or ``ValidationError`` it
    raises; and at those heights the calls that take the origin of a pair
    whose coupling vanishes there, the zx (0, 0) pair terms and the vertex
    and direct sums of a z probe over y-array dipoles (``reference.ZY``);
  * the pair terms, ``green_dyadic`` and ``pair_coupling``;
  * ``asymptotic_shift`` for every regime, ``expected_exponent`` and
    ``full_closed_form``;
  * the README ``sweep``, ``decompose``, ``asymptotic`` and ``fit``
    commands, as ``reference.readme_commands`` reads them from README.md,
    a fit of the column that the README sweep leaves empty, a short zz
    sweep, the sweeps and
    asymptotes of ``--orientation custom`` with each principal pair and
    their zz/zx twins, and a sweep that fails in its first block;
  * beneath the public outputs, the bits that the tests check on their own:
    the three terms of every pair of ``reference.PAIRS`` at mu 0.5, a 0.01
    and ``BATTERY_HEIGHTS``; ``kernels.ray_rotated``'s sums and panel counts
    (the resonant edge) for each pair of ``reference.RAY_PAIRS``, at
    ``RAY_BLOCKS`` heights from 1e-3 to 1e4; the backend's single streamed rows
    (``reference.stream_rows``) of both orientations at ``ROWS``; the
    resonant direct sums of ``CUSTOM_SUMS``; and ``offres_sites`` at
    ``reference.MOMENT_RADII`` with the NumPy backend's ``moments`` rows
    there.

The ledger is the one record of pinned bits, and ``tests/test_ledger.py``
its one check, one test per route group and backend: no other test module
imports this one or holds a ``float.hex`` literal or a hash prefix
(``tests/test_design.py``). Every entry must be the same on both backends.
Each entry of the golden file is an object, its ``value``, leaving room for
more fields (a reference value).

Run ``python tests/ledger.py`` (with ``src`` on the path) to record the
ledger into ``tests/ledger.json`` from both backends, with the toolchain
it was made on. It prints each entry whose value differs from the golden
file it replaces, as its name and old -> new, and the names of the entries
it adds and drops.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import numpy as np
import reference
from reference import (EVEN, EXTREME_HEIGHTS, LAGUERRE, MOMENT_RADII, ODD, RAY_PAIRS, ZY,
                       public_calls, rays, readme_commands)

import cplattice as cp
from cplattice import cli, kernels
from cplattice.kernels import _numpy_backend

LEDGER = Path(__file__).resolve().parent / "ledger.json"

bundle = functools.partial(reference.bundle, mu=0.6, a=0.05, M=8, z=0.3)
PAIRS = {
    "zz": dict(test=(0.0, 0.0, 1.0), array=(0.0, 0.0, 1.0)),
    "zx": dict(test=(0.0, 0.0, 1.0), array=(1.0, 0.0, 0.0)),
    "custom": dict(test=ODD[0], array=ODD[1]),
    "even": dict(test=EVEN[0], array=EVEN[1]),
}
KINDS = ("resonant", "off_resonant")
SUM_HEIGHTS = [0.05, 0.3, 1.0, 7.0]
TERM_HEIGHTS = np.geomspace(1e-3, 1e3, 16)
# The three terms of reference.PAIRS at mu 0.5 and a 0.01 at these heights;
# at z = 25 the bulk of every pair but zx takes its far-field form
BATTERY_HEIGHTS = (0.01, 0.3, 5.0, 25.0, 1000.0)
# The blocks of heights from 1e-3 to 1e4 of the resonant edge's ray integrals
RAY_BLOCKS = (1, 16, 31)
# (a2, z2, nx) of the single rows: nx = 511..513 straddle the 512-site chunk
# of the row pass, and row 20001 streams without a table. The row pass is
# strict IEEE arithmetic, so a change to a site formula or to the summation
# order shows
ROWS = [(0.0001, 0.04, 1), (0.0001, 0.04, 2), (0.0001, 0.04, 511), (0.0001, 0.04, 512),
        (0.0001, 0.04, 513), (0.25, 1.0, 17), (4.0, 0.0001, 173), (0.01, 9.0, 2048),
        (90000.0, 1.0, 1000), (0.0025, 0.09, 1024), (0.0001, 0.09, 20001)]
# (pair of reference.PAIRS, M, a, z) of the custom direct sums
CUSTOM_SUMS = [("custom_a", 8, 0.6, 1.3), ("custom_a", 200, 0.01, 0.05),
               ("custom_b", 8, 0.6, 1.3), ("custom_b", 200, 0.01, 0.05)]
# A fit of the README sweep's column that its off-resonant budget leaves empty
EMPTY_FIT = ["fit", "sweep.csv", "--column", "offresonant_direct", "--z-min", "0.1",
             "--z-max", "0.5"]
SHORT_SWEEP = ["sweep", "--a-tilde", "0.05", "--half-extent", "8", "--z-min", "0.05",
               "--z-max", "5", "--points-per-decade", "8"]
# --orientation custom with the default (z, z) pair, or with (z, x), beside
# their principal twins; and a pair with no closed-form asymptotes
ORIENTATION_FLAGS = {
    "zz": ["--orientation", "zz"],
    "zx": ["--orientation", "zx"],
    "custom (z, z)": ["--orientation", "custom"],
    "custom (z, x)": ["--orientation", "custom", "--array-dipole", "1,0,0"],
    "custom (z, y)": ["--orientation", "custom", "--array-dipole", "0,1,0"],
}
ORIENTATION_SWEEP = ["sweep", "--half-extent", "3", "--z-min", "0.2", "--z-max", "2",
                     "--points-per-decade", "8"]
FAILED_SWEEP = ["sweep", "--z-min", "1e-320", "--z-max", "1e-300", "--points-per-decade", "1"]


def toolchain() -> dict:
    """What the bits rest on: the C library, NumPy, SciPy, the C compiler
    that builds the kernels and the CPU it tunes them for."""
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=60).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = ""
    return {"glibc": " ".join(platform.libc_ver()), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "cc": cc, "cpu": kernels._cpu_model()}


def _hex(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_hex(v) for v in value]
    if isinstance(value, complex):
        return [float(value.real).hex(), float(value.imag).hex()]
    return float(value).hex()


def _call(fn, *args, **kwargs):
    """fn's value as hex, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return _hex(fn(*args, **kwargs))
    except (cp.QuadratureFailure, ValueError) as exc:  # ValidationError is a ValueError
        return {"error": f"{type(exc).__name__}: {exc}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv, directory: Path) -> dict:
    """``cli.main(argv)`` in ``directory``: its exit code, the sha256 of its
    stdout and of each CSV it names, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        files = {a: _sha(Path(a).read_bytes()) for a in argv
                 if a.endswith(".csv") and Path(a).exists() and argv[0] != "fit"}
    finally:
        os.chdir(cwd)
    return {"rc": rc, "stdout": _sha(out.getvalue().encode()), "stderr": err.getvalue(),
            **files}


def _library() -> dict:
    e = {}
    for pair in PAIRS:
        for M in (0, 1, 8, 40, 150) if pair != "even" else (0, 1, 8, 40):
            for kind in KINDS:
                b = bundle(**PAIRS[pair], M=M)
                name = f"sum_lattice {pair} M={M} {kind}"
                for threads in (1, 2):
                    e[f"{name} z=0.3 threads={threads}"] = _call(lambda: getattr(
                        cp.sum_lattice(b, kind, threads=threads), kind))
                    e[f"{name} heights threads={threads}"] = _call(lambda: getattr(
                        cp.sum_lattice(b, kind, heights=SUM_HEIGHTS, threads=threads), kind))
        b = bundle(**PAIRS[pair])
        for kind in KINDS:
            for term in (cp.bulk_term, cp.edge_term, cp.vertex_term):
                name = f"{term.__name__} {pair} {kind}"
                e[f"{name} z=0.3"] = _call(term, b, kind)
                e[f"{name} heights 1e-3..1e3"] = _call(term, b, kind, TERM_HEIGHTS)
                e[f"{name} z=1e-307"] = _call(term, b, kind, [1e-307])
            name = f"decompose {pair} {kind}"
            e[f"{name} z=0.3"] = _call(lambda: list(vars(cp.decompose(b, kind)).values()))
            e[f"{name} heights 1e-3..1e3"] = _call(lambda: [
                list(vars(d).values()) for d in cp.decompose(b, kind, TERM_HEIGHTS)])
            e[f"{name} z=1e-307"] = _call(cp.decompose, b, kind, [1e-307])
        for site in ((0, 0), (1, 2), (-3, 1)):
            e[f"resonant_pair_term {pair} {site}"] = _call(cp.resonant_pair_term, *site, b)
            e[f"offresonant_pair_term {pair} {site}"] = _call(cp.offresonant_pair_term, *site, b)
        e0, en = PAIRS[pair].values()
        for freq in (1.0, 0.7j):
            e[f"pair_coupling {pair} freq={freq}"] = _call(
                cp.pair_coupling, e0, en, (0.3, -0.2, 0.4), freq)
    for pair in ("zz", "zx", "custom"):
        for z in EXTREME_HEIGHTS:
            e.update(_extreme(pair, z))
    for z in EXTREME_HEIGHTS:
        e.update(_origin(z))
    for freq in (1.0, 0.7j):
        e[f"green_dyadic freq={freq}"] = _call(lambda: np.ravel(cp.green_dyadic(
            (0.6, 0.0, 0.8), 0.9, freq)).tolist())
    for pair in ("zz", "zx"):
        b = bundle(**PAIRS[pair])
        for regime in cp.all_regimes(pair):
            name = " ".join(vars(regime).values())
            e[f"asymptotic_shift {name} heights 1e-3..1e3"] = _call(
                cp.asymptotic_shift, regime, b, TERM_HEIGHTS)
            e[f"expected_exponent {name}"] = cp.expected_exponent(regime)
        for z in (0.01, 0.3, 20.0, 300.0):
            e[f"full_closed_form {pair} z={z}"] = _call(
                cp.full_closed_form, pair, bundle(**PAIRS[pair], z=z))
    return e


def _extreme(pair: str, z: float) -> dict:
    """Every public numeric call of the pair at M 2 and the height z."""
    return {f"{name} z={z!r}": _call(call)
            for name, call in public_calls(bundle(**PAIRS[pair], M=2, z=z))}


def _origin(z: float) -> dict:
    """The calls that take the origin of a pair whose coupling vanishes
    there, at M 2 and the height z: the zx (0, 0) pair terms, and the z/y
    vertex and direct sums."""
    zx, at = bundle(**PAIRS["zx"], M=2, z=z), f"z={z!r}"
    zy = bundle(test=ZY[0], array=ZY[1], M=2, z=z)
    e = {f"resonant_pair_term zx (0, 0) {at}": _call(cp.resonant_pair_term, 0, 0, zx),
         f"offresonant_pair_term zx (0, 0) {at}": _call(cp.offresonant_pair_term, 0, 0, zx)}
    for kind in KINDS:
        e[f"sum_lattice zy M=2 {kind} {at}"] = _call(
            lambda: getattr(cp.sum_lattice(zy, kind), kind))
        e[f"vertex_term zy {kind} {at}"] = _call(cp.vertex_term, zy, kind)
    return e


def _pinned() -> dict:
    """The bits beneath the public outputs that the tests check: the term
    battery, the resonant edge's ray integrals (their sums and panel counts),
    the single rows of both orientations, the custom direct sums, and the
    off-resonant site values with the NumPy backend's moments."""
    e = {}
    for pair, (test, array) in reference.PAIRS.items():
        for kind in KINDS:
            for z in BATTERY_HEIGHTS:
                b = bundle(test=test, array=array, mu=0.5, a=0.01, M=0, z=z)
                for term in (cp.bulk_term, cp.edge_term, cp.vertex_term):
                    e[f"{term.__name__} {pair} {kind} mu=0.5 a=0.01 z={z!r}"] = _call(
                        term, b, kind)
    for pair in RAY_PAIRS:
        for n in RAY_BLOCKS:
            sums, counts = rays(pair, np.geomspace(1e-3, 1e4, n))
            e[f"ray_rotated {pair} edge heights={n}"] = {
                "sums": _hex(sums.ravel()), "counts": counts.tolist()}
    for a2, z2, nx in ROWS:
        for zx in (False, True):
            e[f"res_row {'zx' if zx else 'zz'} a2={a2!r} z2={z2!r} nx={nx}"] = _hex(
                reference.stream_rows(kernels._impl, zx, a2, z2, nx, nx + 1)[0])
    for pair, M, a, z in CUSTOM_SUMS:
        test, array = reference.PAIRS[pair]
        b = bundle(test=test, array=array, M=M, a=a, z=z)
        e[f"sum_lattice {pair} M={M} resonant a={a!r} z={z!r} threads=1"] = _call(
            lambda: cp.sum_lattice(b, "resonant", threads=1).resonant)
    for radii in MOMENT_RADII.values():
        r = np.array(radii, dtype=float)
        e[f"offres_sites mu=0.6 dot=1.0 pp=0.3 r={radii}"] = _hex(
            kernels.offres_sites(r, 1.0, 0.3, 0.6))
        if radii:
            e[f"moments mu=0.6 r={radii}"] = _hex(_numpy_backend.moments(
                np.concatenate([r * 0.6, r]), 0.6, kernels.PHI_SWITCH, kernels.RECAST,
                *LAGUERRE).ravel())
    return e


def _commands() -> dict:
    e = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for argv in readme_commands():
            if argv[0] == "fit":
                mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "direct"
                e[f"cli fit README {mode}"] = _cli(argv, directory)
            elif argv[0] != "verify-diagrams":
                e[f"cli {argv[0]} README"] = _cli(argv, directory)
        e["cli fit README empty column"] = _cli(EMPTY_FIT, directory)
        e["cli sweep short zz"] = _cli(SHORT_SWEEP, directory)
        for name, flags in ORIENTATION_FLAGS.items():
            e[f"cli sweep {name}"] = _cli(ORIENTATION_SWEEP + flags, directory)
            e[f"cli asymptotic {name}"] = _cli(["asymptotic", "--z-tilde", "1", *flags],
                                               directory)
        e["cli sweep failed in its first block"] = _cli(FAILED_SWEEP, directory)
    return e


def entries() -> dict:
    """The ledger's entries on the selected backend."""
    return {**_library(), **_pinned(), **_commands()}


def record() -> dict:
    """The golden file's contents, from both backends."""
    runs = {}
    for name in ("c", "numpy"):
        with kernels.backend(name):
            runs[name] = entries()
    golden = {}
    for name in {**runs["c"], **runs["numpy"]}:
        values = {b: runs[b][name] for b in runs if name in runs[b]}
        if len(values) != 2 or values["c"] != values["numpy"]:
            raise AssertionError(f"{name}: the backends differ, or one lacks it: {values}")
        golden[name] = {"value": values["c"]}
    return golden


def write(golden: dict) -> None:
    """The golden file: the toolchain, then one entry a line."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    LEDGER.write_text('{"toolchain": ' + json.dumps(toolchain()) + ',\n "entries": {\n'
                      + ",\n".join(lines) + "\n}}\n")


def changes(old: dict, new: dict) -> list[str]:
    """The lines that tell the golden entries ``new`` from ``old`` (name ->
    entry): each entry whose value differs, as its name and old -> new, then
    each added and each dropped name."""
    moved = [f"{k}: {json.dumps(old[k]['value'])} -> {json.dumps(new[k]['value'])}"
             for k in sorted(old.keys() & new.keys()) if old[k] != new[k]]
    return (moved + [f"added {k}" for k in sorted(new.keys() - old.keys())]
            + [f"dropped {k}" for k in sorted(old.keys() - new.keys())])


if __name__ == "__main__":
    replaced = json.loads(LEDGER.read_text())["entries"] if LEDGER.exists() else {}
    golden = record()
    write(golden)
    print("\n".join(changes(replaced, golden)))
    print(f"wrote {LEDGER}", file=sys.stderr)
