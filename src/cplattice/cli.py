"""Command-line front end: sweeps, decomposition reports, identity checks, fits.

Configuration is a flat key=value file with per-flag overrides; every float
in CSV output is serialized with 17 significant digits so downstream fits
reproduce in-process results bit-exactly.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure
(quadrature or site budget), 3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import asymptotics, diagrams, euler_maclaurin, fitting
from .lattice_sum import QuadratureFailure, SiteBudgetExceeded, sum_lattice
from .model import (X_HAT, Z_HAT, Geometry, LatticeSpec, ModelParams, ValidationError,
                     validate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class Config:
    """Every configuration key and its default. A key's type is its default's:
    float, int, str, or a 3-vector written "x,y,z" or "x y z"."""

    mu: float = 0.5
    rho: float = 1e-6
    a_tilde: float = 0.01
    half_extent: int = 0
    orientation: str = "zz"
    test_dipole: tuple[float, float, float] = Z_HAT
    array_dipole: tuple[float, float, float] = Z_HAT
    z_min: float = 0.01
    z_max: float = 100.0
    points_per_decade: int = 64
    site_budget: float = 1e10
    offres_site_budget: float = 1e4
    threads: int = 1


_KEYS = tuple(f.name for f in fields(Config))


def _parse_vec(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise _UsageError(f"expected three components, got {text!r}")
    return (float(parts[0]), float(parts[1]), float(parts[2]))


def load_config(path: str | None, overrides: dict) -> Config:
    cfg = Config()
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise _UsageError(f"cannot read config {path!r}: {exc}")
        for ln, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            cfg = _apply(cfg, key, value, where=f"{path}:{ln}")
    for key, value in overrides.items():
        if value is not None:
            cfg = _apply(cfg, key, value, where="command line")
    if cfg.threads < 1:
        raise _UsageError(f"threads must be >= 1, got {cfg.threads}")
    # results are identical for any worker count, so clamping is value-safe
    return replace(cfg, threads=min(cfg.threads, os.cpu_count() or 1))


def _apply(cfg: Config, key: str, value, where: str) -> Config:
    if key not in _KEYS:
        raise _UsageError(f"{where}: unknown configuration key {key!r}")
    default = getattr(Config(), key)
    try:
        if not isinstance(default, tuple):
            v = type(default)(value)
        else:
            v = value if isinstance(value, tuple) else _parse_vec(str(value))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"{where}: bad value for {key}: {exc}")
    if key == "orientation" and v not in ("zz", "zx", "custom"):
        raise _UsageError(f"{where}: orientation must be zz|zx|custom, got {v!r}")
    return replace(cfg, **{key: v})


_ORIENTATION_DIPOLES = {"zz": (Z_HAT, Z_HAT), "zx": (Z_HAT, X_HAT)}


def bundle_from_config(cfg: Config, z_tilde: float):
    """The bundle at one height. zz and zx fix the dipole pair, so any other
    pair than the default (z, z) or the orientation's own is rejected."""
    given = (cfg.test_dipole, cfg.array_dipole)
    fixed = _ORIENTATION_DIPOLES.get(cfg.orientation)
    if fixed is not None and given not in ((Z_HAT, Z_HAT), fixed):
        raise _UsageError(f"orientation {cfg.orientation} fixes the dipoles; set "
                          "orientation = custom to use test_dipole and array_dipole")
    test_dipole, array_dipole = fixed or given
    params = ModelParams(mu=cfg.mu, rho=cfg.rho, test_dipole=test_dipole,
                         array_dipole=array_dipole)
    return validate(params, LatticeSpec(a_tilde=cfg.a_tilde, half_extent=cfg.half_extent),
                    Geometry(z_tilde=z_tilde))


def _fmt(x: float | None) -> str:
    return "" if x is None else "%.17g" % x


# ---------------------------------------------------------------------------
# sweep

_SHORT = {"resonant": "res", "off_resonant": "or", "non_retarded": "nonret", "retarded": "ret"}


def _asym_column(regime: asymptotics.Regime) -> str:
    return f"asym_{_SHORT[regime.kind]}_{_SHORT[regime.retardation]}_{regime.density}"


def z_grid(z_min: float, z_max: float, points_per_decade: int) -> np.ndarray:
    if not 0.0 < z_min < z_max < math.inf:
        raise _UsageError("need 0 < z_min < z_max < inf")
    decades = math.log10(z_max / z_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(z_min, z_max, n)


def cmd_sweep(cfg: Config, out, require_direct: bool = False) -> int:
    count = (2 * cfg.half_extent + 1) ** 2
    do_res = count <= cfg.site_budget
    do_or = count <= cfg.offres_site_budget
    if require_direct and not (do_res and do_or):
        raise SiteBudgetExceeded(
            f"{count} sites exceed budget (resonant {cfg.site_budget:g}, "
            f"off-resonant {cfg.offres_site_budget:g})")
    grid = z_grid(cfg.z_min, cfg.z_max, cfg.points_per_decade)
    bundle_from_config(cfg, float(grid[0]))  # fail on bad physics before any output
    if not do_res:
        print(f"note: {count} sites exceed site_budget; resonant_direct left empty",
              file=sys.stderr)
    if not do_or:
        print(f"note: {count} sites exceed offres_site_budget; offresonant_direct left empty",
              file=sys.stderr)
    header = ["z_tilde", "resonant_direct", "offresonant_direct",
              "res_bulk", "res_edge", "res_vertex", "res_em_total",
              "or_bulk", "or_edge", "or_vertex", "or_em_total"]
    regimes = asymptotics.all_regimes(cfg.orientation)  # none for custom
    header += [_asym_column(r) for r in regimes]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for z in grid:
        b = bundle_from_config(cfg, float(z))
        res = sum_lattice(b, "resonant", threads=cfg.threads).resonant if do_res else None
        orv = sum_lattice(b, "off_resonant", threads=cfg.threads).off_resonant if do_or else None
        dr = euler_maclaurin.decompose(b, "resonant")
        do = euler_maclaurin.decompose(b, "off_resonant")
        row = [_fmt(float(z)), _fmt(res), _fmt(orv),
               _fmt(dr.bulk), _fmt(dr.edge), _fmt(dr.vertex), _fmt(dr.total),
               _fmt(do.bulk), _fmt(do.edge), _fmt(do.vertex), _fmt(do.total)]
        row += [_fmt(asymptotics.asymptotic_shift(r, b)) for r in regimes]
        writer.writerow(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose

def cmd_decompose(cfg: Config, z_tilde: float, kinds, out, csv_path: str | None) -> int:
    """Print the report, after writing the CSV when asked: a failure at any
    stage leaves no output."""
    b = bundle_from_config(cfg, z_tilde)
    reports = {kind: euler_maclaurin.decompose(b, kind) for kind in kinds}

    def write_csv(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "z_tilde", "bulk", "edge", "vertex", "total"])
        for kind, d in reports.items():
            writer.writerow([kind, _fmt(z_tilde), _fmt(d.bulk), _fmt(d.edge),
                             _fmt(d.vertex), _fmt(d.total)])

    if csv_path:
        _write_replacing(csv_path, write_csv)
    print(f"half_extent M = {cfg.half_extent}, atoms (2M+1)^2 = {b.lattice.atom_count}, "
          f"z_tilde = {_fmt(z_tilde)}", file=out)
    for kind, d in reports.items():
        print(f"{kind}: bulk={_fmt(d.bulk)} edge={_fmt(d.edge)} "
              f"vertex={_fmt(d.vertex)} total={_fmt(d.total)}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# asymptotic

def cmd_asymptotic(cfg: Config, z_tilde: float, kind, retardation, density, out) -> int:
    regimes = asymptotics.all_regimes(cfg.orientation)
    if not regimes:
        raise _UsageError("closed-form asymptotes exist for orientations zz and zx only")
    b = bundle_from_config(cfg, z_tilde)
    for r in regimes:
        if (kind in (None, r.kind) and retardation in (None, r.retardation)
                and density in (None, r.density)):
            v = asymptotics.asymptotic_shift(r, b)
            print(f"{r.kind} {r.orientation} {r.retardation} {r.density} {_fmt(v)}", file=out)
    if not kind or kind == "resonant":
        v = asymptotics.full_closed_form(cfg.orientation, b)
        print(f"resonant {cfg.orientation} bulk_closed_form - {_fmt(v)}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-diagrams

def cmd_verify_diagrams(samples: int, seed: int, mus, out) -> int:
    if samples < 1:
        raise _UsageError(f"samples must be >= 1, got {samples}")
    report = diagrams.verify_identity(samples, seed, mus=tuple(mus))
    status = "OK" if report.max_rel_error <= 1e-10 else "FAIL"
    print(f"diagram identity: samples={report.samples} per mu, mus={list(report.mus)}, "
          f"max_rel_error={report.max_rel_error:.3e} [{status}]", file=out)
    return EXIT_OK if status == "OK" else EXIT_VERIFY


# ---------------------------------------------------------------------------
# fit

def cmd_fit(csv_path: str, column: str, z_min: float, z_max: float, mode: str, out) -> int:
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise _UsageError(f"cannot read {csv_path!r}: {exc}")
    if not rows or column not in rows[0]:
        raise _UsageError(f"column {column!r} not found in {csv_path!r}")
    if "z_tilde" not in rows[0]:
        raise _UsageError(f"column 'z_tilde' not found in {csv_path!r}")
    points = []
    for row in rows:
        zs, vs = row.get("z_tilde", ""), row.get(column, "")
        if zs and vs:
            points.append((float(zs), float(vs)))
    fit_fn = fitting.fit_power_law if mode == "direct" else fitting.envelope_fit
    report = fit_fn(points, (z_min, z_max))
    print(f"slope={_fmt(report.slope)} intercept={_fmt(report.intercept)} "
          f"r_squared={_fmt(report.r_squared)} window=[{_fmt(z_min)},{_fmt(z_max)}] "
          f"points={report.points_used} mode={mode}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value configuration file")
    for key in _KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key)


def build_parser() -> _Parser:
    parser = _Parser(prog="cplattice",
                     description="Shifts of an excited probe atom above a square atomic array")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="emit a CSV table over a geometric z grid")
    _add_config_flags(p)
    p.add_argument("--output", "-o", help="CSV path (default stdout)")
    p.add_argument("--require-direct", action="store_true",
                   help="fail (exit 2) instead of skipping direct sums over budget")

    p = sub.add_parser("decompose", help="bulk/edge/vertex report at one height")
    _add_config_flags(p)
    p.add_argument("--z-tilde", dest="z_tilde", type=float, required=True)
    p.add_argument("--kind", choices=("resonant", "off_resonant", "both"), default="both")
    p.add_argument("--csv", dest="csv_path", help="also write a CSV report")

    p = sub.add_parser("asymptotic", help="closed-form asymptote values at one height")
    _add_config_flags(p)
    p.add_argument("--z-tilde", dest="z_tilde", type=float, required=True)
    p.add_argument("--kind", choices=("resonant", "off_resonant"))
    p.add_argument("--retardation", choices=("non_retarded", "retarded"))
    p.add_argument("--density", choices=("sparse", "dense"))

    p = sub.add_parser("verify-diagrams", help="fuzz the twelve-process collapse identity")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mu", type=float, action="append", dest="mus")

    p = sub.add_parser("fit", help="power-law fit of a sweep CSV column")
    p.add_argument("csv_path")
    p.add_argument("--column", required=True)
    p.add_argument("--z-min", dest="z_min", type=float, required=True)
    p.add_argument("--z-max", dest="z_max", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "envelope"), default="direct")
    return parser


def _write_replacing(path: str, write) -> int:
    """Run ``write(fh)`` on a temporary file beside ``path`` and move it onto
    ``path`` only when it returns, so a failure leaves ``path`` untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from exc
    try:
        with fh:
            rc = write(fh)
        os.replace(tmp, path)
        return rc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):  # the commands with configuration flags
            cfg = load_config(args.config, {key: getattr(args, key) for key in _KEYS})
        if args.command == "sweep":
            if args.output:
                return _write_replacing(args.output, lambda fh: cmd_sweep(
                    cfg, fh, require_direct=args.require_direct))
            return cmd_sweep(cfg, sys.stdout, require_direct=args.require_direct)
        if args.command == "decompose":
            kinds = ("resonant", "off_resonant") if args.kind == "both" else (args.kind,)
            return cmd_decompose(cfg, args.z_tilde, kinds, sys.stdout, args.csv_path)
        if args.command == "asymptotic":
            return cmd_asymptotic(cfg, args.z_tilde, args.kind, args.retardation,
                                  args.density, sys.stdout)
        if args.command == "verify-diagrams":
            mus = args.mus if args.mus else [0.25, 0.5, 0.9]
            return cmd_verify_diagrams(args.samples, args.seed, mus, sys.stdout)
        if args.command == "fit":
            return cmd_fit(args.csv_path, args.column, args.z_min, args.z_max,
                           args.mode, sys.stdout)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureFailure, SiteBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (fitting.InsufficientPoints, fitting.ZeroValue, fitting.TooFewPeaks) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
