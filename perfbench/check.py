"""Correctness gate behind ``failed`` / ``fail_frac``.

Every op is checked three ways, outside the timed phase:

1. invariants that hold for any seed: the sweep header and row count, the
   height grid, finite numbers, budget-driven empty cells, and
   ``*_em_total == bulk + edge + vertex`` exactly;
2. the recorded outputs in ``references/<workload>-<seed>.json`` (made at the
   commit that defined the benchmark, for the default and one held-out seed),
   when the plan group is identical;
3. independent values from ``oracle.py``: both vertex terms for every op,
   and the direct sums for a seeded sample (one call group, or two rows per
   sweep).

An op fails if it raised (``QuadratureFailure``, ``SiteBudgetExceeded``, ...),
was never written because its sweep aborted or the deadline passed, or
misses any check.

Tolerance: ``RTOL = 1e-8`` relative. The loosest tolerance any compared value
is computed to is the outer edge quadrature at ``epsrel=1e-9``
(``euler_maclaurin._edge_axis_offres``); the site quadratures use 1e-10 and
the oscillatory tail averaging 1e-11. 1e-8 leaves a factor of 10 above the
loosest of these, so an accurate reformulation (a closed form in place of
``quad``, a compiled kernel summing in another order) passes, while a wrong
value does not. The oracles agree with this commit to ~1e-15.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

RTOL = 1e-8
REFERENCES = Path(__file__).resolve().parent / "references"

SWEEP_HEADER = ["z_tilde", "resonant_direct", "offresonant_direct",
                "res_bulk", "res_edge", "res_vertex", "res_em_total",
                "or_bulk", "or_edge", "or_vertex", "or_em_total",
                "asym_res_nonret_sparse", "asym_res_nonret_dense",
                "asym_res_ret_sparse", "asym_res_ret_dense",
                "asym_or_nonret_sparse", "asym_or_nonret_dense",
                "asym_or_ret_sparse", "asym_or_ret_dense"]
# `cplattice sweep` defaults the benchmark relies on
SITE_BUDGET = 1e10
OFFRES_SITE_BUDGET = 1e4


def close(x, ref) -> bool:
    if x is None or ref is None:
        return x is ref
    return x == ref or abs(x - ref) <= RTOL * abs(ref)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCES / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with path.open() as fh:
        return json.load(fh)


def _cells(line: str):
    out = []
    for cell in line.split(","):
        v = float(cell) if cell else None
        if v is not None and not math.isfinite(v):
            raise ValueError(f"non-finite value {cell!r}")
        out.append(v)
    return out


def _check_row(g, i, row, ref_row):
    """Problems with one parsed sweep row (an empty list means it passed)."""
    col = dict(zip(SWEEP_HEADER, row))
    bad = []
    z = float(np.geomspace(g["z_min"], g["z_max"], g["rows"])[i])
    if not close(col["z_tilde"], z):
        bad.append(f"z_tilde {col['z_tilde']!r} != grid {z!r}")
    sites = (2 * g["half_extent"] + 1) ** 2
    for name, budget in (("resonant_direct", SITE_BUDGET),
                         ("offresonant_direct", OFFRES_SITE_BUDGET)):
        if (col[name] is None) != (sites > budget):
            bad.append(f"{name} presence wrong for {sites} sites")
    for p in ("res", "or"):
        parts = [col[f"{p}_{t}"] for t in ("bulk", "edge", "vertex")]
        if None in parts or col[f"{p}_em_total"] != parts[0] + parts[1] + parts[2]:
            bad.append(f"{p}_em_total != bulk + edge + vertex")
    if ref_row is not None:
        bad += [f"{n} {x!r} vs reference {r!r}"
                for n, x, r in zip(SWEEP_HEADER, row, ref_row) if not close(x, r)]
    return bad


def _oracle(e0, en, g, z, values, direct: bool):
    """Oracle mismatches: vertex terms always (one site, cheap), direct sums
    only for the sampled ops."""
    args = (e0, en, g["mu"], g["rho"])
    want = {}
    if "res_vertex" in values:
        want["res_vertex"] = oracle.resonant_vertex(*args, z)
        want["or_vertex"] = oracle.offresonant_vertex(*args, z)
    if direct:
        geo = (g["a_tilde"], g["half_extent"], z)
        want["resonant_direct"] = oracle.resonant_direct(*args, *geo)
        if values.get("offresonant_direct") is not None:
            want["offresonant_direct"] = oracle.offresonant_direct(*args, *geo)
    return [f"{n} {values[n]!r} vs oracle {v!r}" for n, v in want.items()
            if not close(values[n], v)]


def _orientation(g):
    if g["type"] == "custom":
        return g["test_dipole"], g["array_dipole"]
    return oracle.ORIENTATIONS[g["orientation"]]


def _check_call(g, out, ref, sampled: bool) -> list[str]:
    if "error" in out:
        return [out["error"]]
    values = out["values"]
    bad = [f"{n} not finite" for n, v in values.items() if v is None or not math.isfinite(v)]
    if bad:
        return bad
    if ref is not None:
        bad += [f"{n} {v!r} vs reference {ref['values'][n]!r}"
                for n, v in values.items() if not close(v, ref["values"][n])]
    return bad + _oracle(*_orientation(g), g, g["z_tilde"], values, sampled)


def _check_sweep(g, out, ref, picks) -> list[tuple[int, str]]:
    """(row, problem) for every expected row that fails."""
    lines = out.get("lines") or []
    if not lines or lines[0].split(",") != SWEEP_HEADER:
        why = out.get("error") or "missing or wrong CSV header"
        return [(i, why) for i in range(g["rows"])]
    rows, ref_rows = lines[1:], (ref["lines"][1:] if ref is not None else [])
    bad_rows = []
    for i in range(g["rows"]):
        if i >= len(rows):
            bad_rows.append((i, f"not written (sweep rc={out.get('rc')}: {out.get('error')})"))
            continue
        try:
            row = _cells(rows[i])
            ref_row = _cells(ref_rows[i]) if i < len(ref_rows) else None
        except ValueError as exc:
            bad_rows.append((i, str(exc)))
            continue
        if len(row) != len(SWEEP_HEADER):
            bad_rows.append((i, f"{len(row)} cells"))
            continue
        bad = _check_row(g, i, row, ref_row)
        if not bad:
            col = dict(zip(SWEEP_HEADER, row))
            bad = _oracle(*_orientation(g), g, col["z_tilde"], col, i in picks)
        if bad:
            bad_rows.append((i, "; ".join(bad)))
    if len(rows) > g["rows"]:
        bad_rows.append((g["rows"] - 1, f"{len(rows) - g['rows']} extra rows"))
    return bad_rows


def check(plan, groups, reference=None):
    """Return (attempted, failed, report) for one worker's results.

    Direct-sum oracles run on one seeded call group, or on two seeded rows
    per sweep; everything else is checked on every op.
    """
    rng = np.random.default_rng([plan["seed"], 99])
    refs = {}
    if reference is not None:
        refs = {json.dumps(g, sort_keys=True): out
                for g, out in zip(reference["plan"]["groups"], reference["groups"])}
    calls = [g["label"] for g in plan["groups"] if g["type"] != "sweep"]
    sampled = calls[int(rng.integers(len(calls)))] if calls else None
    attempted, failed_ops, referenced = 0, set(), 0
    problems: list[str] = []
    for g, out in zip(plan["groups"], groups):
        ref = refs.get(json.dumps(g, sort_keys=True))
        if g["type"] == "sweep":
            n_rows = len(out.get("lines") or [1]) - 1
            k = min(2, n_rows)
            picks = set(rng.choice(n_rows, size=k, replace=False).tolist()) if k > 0 else set()
            found = [(f"{g['label']} row {i}", why) for i, why in _check_sweep(g, out, ref, picks)]
            attempted += g["rows"]
        else:
            found = [(g["label"], why) for why in _check_call(g, out, ref, g["label"] == sampled)]
            attempted += 1
        referenced += ref is not None
        for label, why in found:
            failed_ops.add(label)
            if len(problems) < 20:
                problems.append(f"{label}: {why}")
    return attempted, len(failed_ops), {"problems": problems, "referenced_groups": referenced}
