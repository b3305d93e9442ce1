"""Command-line front end: sweeps, decomposition reports, asymptotes, fits,
and ``verify-diagrams``, which takes no options and runs the exact proof of
the twelve-process collapse (:func:`cplattice.diagrams.verify_identity`).

Configuration is a flat key=value file with per-flag overrides; every float
in CSV output is serialized with 17 significant digits so downstream fits
reproduce in-process results bit-exactly. A sweep builds one row format for
the whole sweep and writes each row with one ``%`` of its floats and one
``write``, the bytes csv.writer would write from ``_fmt`` of each field;
``decompose`` and ``fit`` use the csv module. ``main`` registers every
subcommand but adds arguments only to the one its argv names.

A failed command leaves no output, with one exception: a sweep to stdout
writes its header with the first block's rows and each block's rows once
the block is computed, so one that fails leaves the header and the rows of
the blocks before the failing one (none when the first block fails). With
``-o`` the file is replaced only on success.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure
(quadrature, site budget, or out of memory), 3 verification failure, 141
stdout closed before the output was written (as a shell reports a program
that SIGPIPE ends; nothing is printed). Exits 1 and 2 write one ``error:``
line on stderr, after a sweep's ``note:`` lines if any. Usage errors include
a count below 1, a NaN site budget (``inf`` is no limit), a fit window
without z_min < z_max and a config or fit file that cannot be read,
decoded or parsed, each found before any output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import shutil
import stat
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import asymptotics, diagrams, euler_maclaurin, fitting
from .lattice_sum import QuadratureFailure, SiteBudgetExceeded, sum_lattice
from .model import (MAX_LENGTH, ORIENTATIONS, Z_HAT, Geometry, LatticeSpec, ModelParams,
                    ValidationError, validate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3
EXIT_CLOSED_STDOUT = 141


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
        except (OSError, UnicodeDecodeError) as exc:
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
    for key in ("threads", "points_per_decade"):
        if getattr(cfg, key) < 1:
            raise _UsageError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    for key in ("site_budget", "offres_site_budget"):  # inf means no limit
        if math.isnan(getattr(cfg, key)):
            raise _UsageError(f"{key} must be a number or inf, got nan")
    return cfg


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
    if key == "orientation" and v not in (*ORIENTATIONS, "custom"):
        raise _UsageError(f"{where}: orientation must be zz|zx|custom, got {v!r}")
    return replace(cfg, **{key: v})


def bundle_from_config(cfg: Config, z_tilde: float):
    """The bundle at one height. zz and zx fix the dipole pair (``ORIENTATIONS``),
    so any other pair than the default (z, z) or the orientation's own is
    rejected. No other code reads the orientation key: a run's is its bundle's."""
    given = (cfg.test_dipole, cfg.array_dipole)
    fixed = ORIENTATIONS.get(cfg.orientation)
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


# The most heights a sweep takes: 10^6 rows are about 0.2 GB of CSV
MAX_GRID_ROWS = 10 ** 6


def z_grid(z_min: float, z_max: float, points_per_decade: int) -> np.ndarray:
    if not 0.0 < z_min < z_max < MAX_LENGTH:
        raise _UsageError("need 0 < z_min < z_max < inf, and z_max below 2**512")
    decades = math.log10(z_max / z_min)
    try:
        n = max(2, int(round(decades * points_per_decade)) + 1)
    except OverflowError:  # more rows than a float counts
        n = math.inf
    if n > MAX_GRID_ROWS:
        raise _UsageError(f"the height grid would have {n} rows, more than {MAX_GRID_ROWS}: "
                          "lower points_per_decade or narrow z_min..z_max")
    return np.geomspace(z_min, z_max, n)


# A sweep computes this many heights at a time: one decompose call per kind,
# one direct sum per kind and one asymptote call per regime for the block,
# and only then writes the block's rows, so no row of a block is written when
# any of its stages fails. Chosen by perfbench sweep_dense (--seconds 45,
# 2-vCPU Xeon): wall_s 0.0372, 0.0388 and 0.0426 at 16, 32 and 8 over six
# seeds (0.0453 with a direct sum per row and blocks of 8), and 0.0381 at
# 16, 0.0378 at 32 over ten more (0.0480); peak RSS +0.8% at 16 and +3.1%
# at 32, where the decomposition's temporaries cross glibc's mmap threshold.
_HEIGHT_BLOCK = 16


def cmd_sweep(cfg: Config, out, require_direct: bool = False) -> int:
    count = (2 * cfg.half_extent + 1) ** 2
    do_res = count <= cfg.site_budget
    do_or = count <= cfg.offres_site_budget
    if require_direct and not (do_res and do_or):
        raise SiteBudgetExceeded(
            f"{count} sites exceed budget (resonant {cfg.site_budget:g}, "
            f"off-resonant {cfg.offres_site_budget:g})")
    grid = z_grid(cfg.z_min, cfg.z_max, cfg.points_per_decade)
    first = bundle_from_config(cfg, float(grid[0]))  # fail on bad physics before any output
    if not do_res:
        print(f"note: {count} sites exceed site_budget; resonant_direct left empty",
              file=sys.stderr)
    if not do_or:
        print(f"note: {count} sites exceed offres_site_budget; offresonant_direct left empty",
              file=sys.stderr)
    header = ["z_tilde", "resonant_direct", "offresonant_direct",
              "res_bulk", "res_edge", "res_vertex", "res_em_total",
              "or_bulk", "or_edge", "or_vertex", "or_em_total"]
    regimes = asymptotics.all_regimes(first.orientation_label())  # none for custom
    header += [_asym_column(r) for r in regimes]
    # one format for every row: each field as _fmt writes it, and a direct
    # sum its site budget skips empty in every row. No field can hold a
    # character csv would quote, so the bytes are csv.writer's.
    fields = ["%.17g"] * len(header)
    if not do_res:
        fields[1] = ""
    if not do_or:
        fields[2] = ""
    line = ",".join(fields) + "\n"
    for lo in range(0, len(grid), _HEIGHT_BLOCK):
        block = grid[lo:lo + _HEIGHT_BLOCK]
        dr, do = (euler_maclaurin.decompose(first, kind, block)
                  for kind in ("resonant", "off_resonant"))
        direct = []  # the direct sums' columns that have a field
        if do_res:
            direct.append(sum_lattice(first, "resonant", heights=block,
                                      threads=cfg.threads).resonant.tolist())
        if do_or:
            direct.append(sum_lattice(first, "off_resonant", heights=block,
                                      threads=cfg.threads).off_resonant.tolist())
        asym = [asymptotics.asymptotic_shift(g, first, heights=block).tolist()
                for g in regimes]
        if not lo:  # the header goes with the first block's rows
            out.write(",".join(header) + "\n")
        # each row formatted and written in its own turn
        for i, (z, r, o) in enumerate(zip(block.tolist(), dr, do)):
            out.write(line % (z, *[d[i] for d in direct], r.bulk, r.edge, r.vertex, r.total,
                              o.bulk, o.edge, o.vertex, o.total, *[a[i] for a in asym]))
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
    """Print the lines once every value is computed: a failure leaves no output."""
    b = bundle_from_config(cfg, z_tilde)
    label = b.orientation_label()
    regimes = asymptotics.all_regimes(label)
    if not regimes:
        raise _UsageError("closed-form asymptotes exist for orientations zz and zx only")
    lines = []
    for r in regimes:
        if (kind in (None, r.kind) and retardation in (None, r.retardation)
                and density in (None, r.density)):
            v = asymptotics.asymptotic_shift(r, b)
            lines.append(f"{r.kind} {r.orientation} {r.retardation} {r.density} {_fmt(v)}")
    if not kind or kind == "resonant":
        v = asymptotics.full_closed_form(label, b)
        lines.append(f"resonant {label} bulk_closed_form - {_fmt(v)}")
    print(*lines, sep="\n", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-diagrams

def cmd_verify_diagrams(out) -> int:
    point = diagrams.verify_identity()
    if point is None:
        print("diagram identity: exact on the 6 x 6 x 5 rational grid, a proof [OK]", file=out)
        return EXIT_OK
    print("diagram identity: the sides differ at (w, w', mu) = (%s, %s, %s) [FAIL]" % point,
          file=out)
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# fit

def cmd_fit(csv_path: str, column: str, z_min: float, z_max: float, mode: str, out) -> int:
    if not z_min < z_max:  # NaN included
        raise _UsageError(f"need z_min < z_max, got {z_min!r} and {z_max!r}")
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()  # None without a header
            rows = [(reader.line_num, row) for row in reader]  # each with its last line
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _UsageError(f"cannot read {csv_path!r}: {exc}")
    for name in (column, "z_tilde"):
        if name not in header:
            raise _UsageError(f"column {name!r} not found in {csv_path!r}")

    def number(line, row, name):
        try:
            value = float(row[name])
            if name == "z_tilde" and math.isnan(value):  # no window holds it: it would drop out
                raise ValueError(f"{row[name]!r} is not a height")
        except ValueError as exc:
            raise _UsageError(f"{csv_path}:{line}: bad value for {name}: {exc}") from None
        return value

    points = [(number(line, row, "z_tilde"), number(line, row, column))
              for line, row in rows if row.get("z_tilde") and row.get(column)]
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


def _sweep_args(p):
    _add_config_flags(p)
    p.add_argument("--output", "-o", help="CSV path (default stdout)")
    p.add_argument("--require-direct", action="store_true",
                   help="fail (exit 2) instead of skipping direct sums over budget")


def _decompose_args(p):
    _add_config_flags(p)
    p.add_argument("--z-tilde", dest="z_tilde", type=float, required=True)
    p.add_argument("--kind", choices=("resonant", "off_resonant", "both"), default="both")
    p.add_argument("--csv", dest="csv_path", help="also write a CSV report")


def _asymptotic_args(p):
    _add_config_flags(p)
    p.add_argument("--z-tilde", dest="z_tilde", type=float, required=True)
    p.add_argument("--kind", choices=("resonant", "off_resonant"))
    p.add_argument("--retardation", choices=("non_retarded", "retarded"))
    p.add_argument("--density", choices=("sparse", "dense"))


def _fit_args(p):
    p.add_argument("csv_path")
    p.add_argument("--column", required=True)
    p.add_argument("--z-min", dest="z_min", type=float, required=True)
    p.add_argument("--z-max", dest="z_max", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "envelope"), default="direct")


# every subcommand: its help line and the function adding its arguments, if any
_COMMANDS = {
    "sweep": ("emit a CSV table over a geometric z grid", _sweep_args),
    "decompose": ("bulk/edge/vertex report at one height", _decompose_args),
    "asymptotic": ("closed-form asymptote values at one height", _asymptotic_args),
    "verify-diagrams": ("prove the twelve-process collapse identity exactly", None),
    "fit": ("power-law fit of a sweep CSV column", _fit_args),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand. With ``command``, only that one gets
    its arguments: the others are registered, so the top-level help and
    usage errors are the same, but stay empty."""
    # argparse builds a formatter in every add_argument check, and the stock
    # one asks for the terminal size each time: read it once, as it would
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _Parser(prog="cplattice", formatter_class=formatter,
                     description="Shifts of an excited probe atom above a square atomic array")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        if add_args and command in (None, name):
            add_args(p)
    return parser


def _command_of(argv) -> str | None:
    """The subcommand argparse will pick: the first argument that is not an
    option, or None when that is no known command (or there is none)."""
    first = next((a for a in argv if not a.startswith("-")), None)
    return first if first in _COMMANDS else None


def _write_replacing(path: str, write) -> int:
    """Run ``write(fh)`` on a temporary file beside ``path`` and move it onto
    ``path`` only when it returns, so a failure leaves ``path`` untouched. A
    path that cannot be opened, or a write, close or move that fails (a
    full disk, /dev/full), is a usage error that names it.

    A symbolic link is followed: the temporary file goes beside its target,
    which it replaces, and the link stays. An existing file keeps its
    permission bits; a new one gets the mode that open gives it.

    A path that exists and is not a regular file (a FIFO, a character device
    such as /dev/null) is written directly and gets no atomic replace: a
    failure can leave part of the output in it."""
    try:
        mode = os.stat(path).st_mode
    except OSError:  # no such file yet, or none that can be examined
        mode = None
    special = mode is not None and not stat.S_ISREG(mode)
    target = os.path.realpath(path)
    tmp = None if special else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp or path, "x" if tmp else "w", newline="") as fh:
            if tmp and mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            rc = write(fh)
        if tmp:
            os.replace(tmp, target)
        return rc
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _run(args) -> int:
    """Run the parsed command."""
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
        return cmd_verify_diagrams(sys.stdout)
    return cmd_fit(args.csv_path, args.column, args.z_min, args.z_max, args.mode, sys.stdout)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_command_of(argv))
    try:
        rc = _run(parser.parse_args(argv))
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return rc
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureFailure, SiteBudgetExceeded, fitting.InsufficientPoints, fitting.ZeroValue,
            fitting.TooFewPeaks) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # NumPy's names the size it asked for
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader went away (| head): stdout goes to /dev/null, so that
        # the flush at exit does not fail again (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
