import argparse
import csv
import dataclasses
import io
import math
import os
import resource
import shlex
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from reference import readme_commands

from cplattice import asymptotics, cli, diagrams, euler_maclaurin, fitting, kernels, lattice_sum
from cplattice.lattice_sum import sum_lattice


def run_cli(args):
    """``cli.main(args)`` in this process, with its output captured; returns
    what a subprocess run would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(args))
    return subprocess.CompletedProcess(args, rc, out.getvalue(), err.getvalue())


def test_module_entry_point_in_subprocess():
    # `python -m cplattice.cli` prints what cli.main prints and exits with
    # its code
    args = ["asymptotic", "--z-tilde", "0.3"]
    ok = subprocess.run([sys.executable, "-m", "cplattice.cli", *args],
                        capture_output=True, text=True)
    assert ok.returncode == cli.EXIT_OK
    assert ok.stdout == run_cli(args).stdout
    bad = subprocess.run([sys.executable, "-m", "cplattice.cli", "sweep", "--mu", "1.0"],
                         capture_output=True, text=True)
    assert bad.returncode == cli.EXIT_USAGE
    assert bad.stdout == "" and "invalid parameters" in bad.stderr


SWEEP_ARGS = ["sweep", "--mu", "0.5", "--rho", "1e-6", "--a-tilde", "0.05",
              "--half-extent", "4", "--z-min", "0.2", "--z-max", "0.6",
              "--points-per-decade", "16"]


def test_sweep_csv_structure(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli(SWEEP_ARGS + ["-o", str(out)])
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) >= 2
    zs = [float(r["z_tilde"]) for r in rows]
    assert zs == sorted(zs) and len(set(zs)) == len(zs)
    r0 = rows[0]
    total = float(r0["res_bulk"]) + float(r0["res_edge"]) + float(r0["res_vertex"])
    assert float(r0["res_em_total"]) == total  # bit-exact via 17-digit round trip
    assert "asym_or_ret_dense" in r0


def test_sweep_deterministic_across_threads(tmp_path):
    outputs = []
    for t in ("1", "4", "16"):
        out = tmp_path / f"t{t}.csv"
        proc = run_cli(SWEEP_ARGS + ["--threads", t, "-o", str(out)])
        assert proc.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_budget_skips_direct_columns(tmp_path):
    out = tmp_path / "b.csv"
    proc = run_cli(SWEEP_ARGS + ["--site-budget", "10", "--offres-site-budget", "10",
                                 "-o", str(out)])
    assert proc.returncode == 0
    assert "exceed" in proc.stderr
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(r["resonant_direct"] == "" for r in rows)
    assert all(r["offresonant_direct"] == "" for r in rows)


def test_fit_round_trip_bit_exact(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(SWEEP_ARGS + ["-o", str(out)]).returncode == 0
    proc = run_cli(["fit", str(out), "--column", "res_bulk",
                    "--z-min", "0.2", "--z-max", "0.6"])
    assert proc.returncode == 0
    printed = dict(kv.split("=", 1) for kv in proc.stdout.split() if "=" in kv)
    # recompute in process from the same CSV
    rows = list(csv.DictReader(out.read_text().splitlines()))
    pts = [(float(r["z_tilde"]), float(r["res_bulk"])) for r in rows]
    rep = fitting.fit_power_law(pts, (0.2, 0.6))
    assert float(printed["slope"]) == rep.slope
    assert float(printed["intercept"]) == rep.intercept
    assert float(printed["r_squared"]) == rep.r_squared


def test_decompose_report_additivity(tmp_path):
    csv_out = tmp_path / "d.csv"
    proc = run_cli(["decompose", "--mu", "0.5", "--rho", "1e-6", "--a-tilde", "0.05",
                    "--half-extent", "3", "--z-tilde", "0.4", "--csv", str(csv_out)])
    assert proc.returncode == 0
    assert "resonant:" in proc.stdout and "off_resonant:" in proc.stdout
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert {r["kind"] for r in rows} == {"resonant", "off_resonant"}
    for r in rows:
        assert float(r["total"]) == float(r["bulk"]) + float(r["edge"]) + float(r["vertex"])


def test_verify_diagrams_ok():
    proc = run_cli(["verify-diagrams"])
    assert proc.returncode == cli.EXIT_OK and proc.stderr == ""
    assert proc.stdout == "diagram identity: exact on the 6 x 6 x 5 rational grid, a proof [OK]\n"


def test_verify_diagrams_fails_on_a_corrupted_denominator(monkeypatch):
    # test_diagrams.py corrupts each of the twelve in turn
    exact = diagrams.denominator

    def corrupted(p, w, wp, params):  # D_II off by the rational factor 1 + 1e-12
        d = exact(p, w, wp, params)
        return d * (1 + Fraction(1, 10 ** 12)) if p == "II" else d

    monkeypatch.setattr(diagrams, "denominator", corrupted)
    bad = run_cli(["verify-diagrams"])
    assert bad.returncode == cli.EXIT_VERIFY and bad.stderr == ""
    assert bad.stdout == ("diagram identity: the sides differ at (w, w', mu) = "
                          "(-3/7, -4/11, 1/5) [FAIL]\n")


def test_principal_orientations_accept_the_default_and_their_own_pair():
    for pair in ([], ["--test-dipole", "0,0,1", "--array-dipole", "1,0,0"]):
        proc = run_cli(["decompose", "--orientation", "zx", *pair, "--z-tilde", "0.3",
                        "--kind", "resonant"])
        assert proc.returncode == cli.EXIT_OK, pair


def test_load_config_takes_the_least_counts_and_infinite_budgets():
    # the values below them are rows of _REJECTED; an inf budget is no limit
    cfg = cli.load_config(None, {"points_per_decade": "1", "offres_site_budget": "inf"})
    assert cli.load_config(None, {}).threads == 1 and cfg.points_per_decade == 1
    assert cfg.offres_site_budget == math.inf


def test_custom_orientation_accepts_dipoles(tmp_path):
    conf = tmp_path / "custom.cfg"
    conf.write_text("orientation = custom\narray_dipole = 1,0,0\n")
    args = ["decompose", "--z-tilde", "0.3", "--kind", "resonant"]
    from_file = run_cli(args + ["--config", str(conf)])
    from_flag = run_cli(args + ["--orientation", "custom", "--array-dipole", "1 0 0"])
    principal = run_cli(args + ["--orientation", "zx"])
    assert from_file.returncode == from_flag.returncode == cli.EXIT_OK
    # a custom pair equal to (z, x) takes the zx paths
    assert from_file.stdout == from_flag.stdout == principal.stdout


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.5\nrho = 1e-6\na_tilde = 0.05\nhalf_extent = 3\n"
                   "# comment line\nz_min = 0.2\nz_max = 0.6\npoints_per_decade = 16\n")
    out1 = tmp_path / "c1.csv"
    assert run_cli(["sweep", "--config", str(cfg), "-o", str(out1)]).returncode == 0
    out2 = tmp_path / "c2.csv"
    assert run_cli(SWEEP_ARGS[:1] + ["--config", str(cfg), "--half-extent", "4",
                                     "-o", str(out2)]).returncode == 0
    r1 = list(csv.DictReader(out1.read_text().splitlines()))
    r2 = list(csv.DictReader(out2.read_text().splitlines()))
    assert r1[0]["resonant_direct"] != r2[0]["resonant_direct"]


# one value per key, each different from its default
_CONFIG_VALUES = {
    "mu": ("0.7", 0.7), "rho": ("2e-6", 2e-6), "a_tilde": ("0.03", 0.03),
    "half_extent": ("3", 3), "orientation": ("custom", "custom"),
    "test_dipole": ("0,0.6,0.8", (0.0, 0.6, 0.8)),
    "array_dipole": ("0.6 0 0.8", (0.6, 0.0, 0.8)),
    "z_min": ("0.2", 0.2), "z_max": ("0.9", 0.9), "points_per_decade": ("5", 5),
    "site_budget": ("1e6", 1e6), "offres_site_budget": ("50", 50.0),
    "threads": ("2", 2),
}


def test_every_config_key_same_from_file_and_flag(tmp_path, monkeypatch):
    assert list(_CONFIG_VALUES) == [f.name for f in dataclasses.fields(cli.Config)]
    seen = []

    def record(cfg, out, require_direct):
        seen.append(cfg)
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_sweep", record)
    for key, (text, value) in _CONFIG_VALUES.items():
        conf = tmp_path / f"{key}.cfg"
        conf.write_text(f"{key} = {text}\n")
        assert run_cli(["sweep", "--config", str(conf)]).returncode == cli.EXIT_OK
        flag = "--" + key.replace("_", "-")
        assert run_cli(["sweep", flag, text]).returncode == cli.EXIT_OK
        want = dataclasses.replace(cli.Config(), **{key: value})
        assert seen[-2:] == [want, want], key


def test_sweep_header_lists_every_column():
    direct_and_parts = ["z_tilde", "resonant_direct", "offresonant_direct",
                        "res_bulk", "res_edge", "res_vertex", "res_em_total",
                        "or_bulk", "or_edge", "or_vertex", "or_em_total"]
    asymptotes = ["asym_res_nonret_sparse", "asym_res_nonret_dense",
                  "asym_res_ret_sparse", "asym_res_ret_dense",
                  "asym_or_nonret_sparse", "asym_or_nonret_dense",
                  "asym_or_ret_sparse", "asym_or_ret_dense"]
    base = ["sweep", "--z-min", "0.2", "--z-max", "0.3", "--points-per-decade", "1"]
    for extra, want in (([], direct_and_parts + asymptotes),
                        (["--orientation", "zx"], direct_and_parts + asymptotes),
                        (["--orientation", "custom", "--array-dipole", "0,1,0"],
                         direct_and_parts)):
        proc = run_cli(base + extra)
        assert proc.returncode == cli.EXIT_OK
        assert proc.stdout.splitlines()[0].split(",") == want


def test_asymptotic_command():
    proc = run_cli(["asymptotic", "--mu", "0.5", "--a-tilde", "0.01",
                    "--z-tilde", "20", "--kind", "off_resonant",
                    "--retardation", "retarded", "--density", "dense"])
    assert proc.returncode == 0
    val = float(proc.stdout.split()[-1])
    assert val == pytest.approx(5.625e-9, rel=1e-3)


def test_asymptotic_zx_lists_all_regimes_and_closed_form():
    proc = run_cli(["asymptotic", "--orientation", "zx", "--z-tilde", "0.3"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 9  # 8 regimes + resonant bulk closed form
    sparse = [ln for ln in lines if " sparse " in ln]
    assert sparse and all(float(ln.split()[-1]) == 0.0 for ln in sparse)
    assert any("bulk_closed_form" in ln for ln in lines)


@pytest.mark.parametrize("twin,pair", [("zz", []), ("zx", ["--array-dipole", "1,0,0"])])
def test_custom_orientation_of_a_principal_pair_prints_its_twin(backend, tmp_path, twin, pair):
    # the pair, not the orientation key, decides the paths and the asymptotes:
    # a custom run of the (z, z) or (z, x) pair prints its principal twin's
    # bytes, asymptote columns and lines included
    sweep = ["sweep", "--half-extent", "3", "--z-min", "0.2", "--z-max", "2",
             "--points-per-decade", "8"]
    for argv in (sweep, ["decompose", "--z-tilde", "1"], ["asymptotic", "--z-tilde", "1"]):
        want = run_cli(argv + ["--orientation", twin])
        got = run_cli(argv + ["--orientation", "custom", *pair])
        assert want.returncode == got.returncode == cli.EXIT_OK, argv
        assert got.stdout == want.stdout and got.stderr == want.stderr == "", argv
    assert len(want.stdout.splitlines()) == 9  # 8 regimes and the closed-form bulk
    outputs = []
    for flags in (["--orientation", twin], ["--orientation", "custom", *pair]):
        out = tmp_path / f"{len(outputs)}.csv"
        assert run_cli(sweep + flags + ["-o", str(out)]).returncode == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == run_cli(sweep + ["--orientation", twin]).stdout
    assert len(outputs[0].splitlines()[0].split(b",")) == 19


def test_zx_sweep_m0_direct_columns_zero(tmp_path):
    out = tmp_path / "zx.csv"
    proc = run_cli(["sweep", "--orientation", "zx", "--half-extent", "0",
                    "--a-tilde", "0.05", "--z-min", "0.2", "--z-max", "0.5",
                    "--points-per-decade", "8", "-o", str(out)])
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(float(r["resonant_direct"]) == 0.0 for r in rows)
    assert all(float(r["res_vertex"]) == 0.0 for r in rows)


def test_m0_sweep_resonant_equals_vertex(tmp_path):
    out = tmp_path / "m0.csv"
    proc = run_cli(["sweep", "--half-extent", "0", "--a-tilde", "0.05",
                    "--z-min", "0.2", "--z-max", "0.5", "--points-per-decade", "8",
                    "-o", str(out)])
    assert proc.returncode == 0
    for r in csv.DictReader(out.read_text().splitlines()):
        assert r["resonant_direct"] == r["res_vertex"]


def test_in_process_sweep_writer():
    cfg = cli.Config(half_extent=2, a_tilde=0.1, z_min=0.3, z_max=0.5,
                     points_per_decade=8)
    buf = io.StringIO()
    assert cli.cmd_sweep(cfg, buf) == 0
    assert buf.getvalue().startswith("z_tilde,")


def test_sweep_all_defaults_exits_zero(tmp_path):
    # in process, one worker: z from 0.01 to 100 at 64 points per decade
    out = tmp_path / "defaults.csv"
    assert cli.main(["sweep", "--output", str(out)]) == cli.EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 257
    assert float(rows[-1]["z_tilde"]) == pytest.approx(100.0, rel=1e-12)
    assert all(float(r["or_edge"]) > 0.0 for r in rows)


def test_sweep_edge_failure_names_stage_and_height(tmp_path, monkeypatch, capsys):
    # the zz resonant bulk is a closed form, so the resonant edge fails first
    monkeypatch.setattr(euler_maclaurin, "_RTOL", 1e-30)
    rc = cli.main(SWEEP_ARGS + ["--threads", "1", "-o", str(tmp_path / "f.csv")])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "edge resonant at z=0.2" in err and "mu=0.5" in err


def test_decompose_where_the_closed_form_bulk_is_not_finite_exits_numerical(backend, tmp_path, capsys):
    # z^4 underflows at 1e-300: a clean failure naming stage, kind, height
    # and mu, and no report or CSV
    parts = tmp_path / "parts.csv"
    rc = cli.main(["decompose", "--half-extent", "2", "--z-tilde", "1e-300", "--csv", str(parts)])
    assert rc == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: bulk resonant at z=1e-300, mu=0.5 (zz): closed form is not finite" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_sweep_where_the_closed_form_bulk_is_not_finite_exits_numerical(backend, tmp_path, capsys):
    args = ["sweep", "--half-extent", "2", "--z-min", "1e-300", "--z-max", "1e-299",
            "--threads", "1"]
    out = tmp_path / "f.csv"
    assert cli.main(args + ["-o", str(out)]) == cli.EXIT_NUMERICAL
    assert "error: bulk resonant at z=1e-300, mu=0.5 (zz): closed form is not finite" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # on stdout nothing either: the header goes out with the first block's rows
    assert cli.main(args) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the failure is the error line alone
def test_vertex_and_direct_sum_that_are_not_finite_exit_numerical(backend, monkeypatch, capsys):
    # at z = 1e-60 the bulk fails first (above); with the bulk and the edge
    # stubbed, decompose fails at the vertex and, with the vertex stubbed
    # too, the sweep at the direct sum: no report and no row either way
    def zeros(bundle, kind, heights=None):
        return 0.0 if heights is None else np.zeros(len(heights))

    monkeypatch.setattr(euler_maclaurin, "bulk_term", zeros)
    monkeypatch.setattr(euler_maclaurin, "edge_term", zeros)
    assert cli.main(["decompose", "--half-extent", "2", "--z-tilde", "1e-60"]) == \
        cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: vertex resonant at z=1e-60, mu=0.5 (zz): value is not finite" in captured.err
    monkeypatch.setattr(euler_maclaurin, "vertex_term", zeros)
    assert cli.main(["sweep", "--half-extent", "2", "--z-min", "1e-60", "--z-max", "1e-59",
                     "--threads", "1"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""  # the first block failed: not even the header
    assert "error: direct resonant at z=1e-60, mu=0.5 (zz): value is not finite" in captured.err


def _fail_rotated_estimates_at(monkeypatch, z_fail):
    """Make the rotated path's error estimate miss at one height only (it
    becomes the scale), so the resonant edge fails there and nowhere else."""
    rays = kernels.ray_rotated

    def failing(pair, axes, heights):
        sums, counts = rays(pair, axes, heights)
        bad = heights == z_fail
        sums[bad, :, 1] = sums[bad, :, 2]
        return sums, counts

    monkeypatch.setattr(kernels, "ray_rotated", failing)


def _sweep_of(rows):
    """SWEEP_ARGS on a grid of ``rows`` heights from z = 0.2 at 40 per
    decade, and that grid."""
    z_max = 0.2 * 10.0 ** ((rows - 1) / 40)
    args = SWEEP_ARGS[:SWEEP_ARGS.index("--z-max")] + [
        "--z-max", repr(z_max), "--points-per-decade", "40"]
    grid = cli.z_grid(0.2, z_max, 40)
    assert len(grid) == rows
    return args, grid


def test_sweep_failure_leaves_existing_output_untouched(tmp_path, monkeypatch, capsys):
    # the edge rule fails at the first height of the second block of
    # heights, after the header and the first block's rows have been written
    args, grid = _sweep_of(cli._HEIGHT_BLOCK + 1)
    z_fail = float(grid[cli._HEIGHT_BLOCK])
    _fail_rotated_estimates_at(monkeypatch, z_fail)
    out = tmp_path / "f.csv"
    out.write_bytes(b"z_tilde,previous\n0.1,1\n")
    rc = cli.main(args + ["--threads", "1", "-o", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    assert f"edge resonant at z={z_fail!r}, mu=0.5" in capsys.readouterr().err
    assert out.read_bytes() == b"z_tilde,previous\n0.1,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


def test_sweep_failure_inside_a_block_writes_none_of_its_rows(monkeypatch, capsys):
    # two and a half blocks of heights; the middle height of the second
    # block fails: a stdout sweep leaves the header and the first block's rows
    block = cli._HEIGHT_BLOCK
    args, grid = _sweep_of(2 * block + block // 2)
    z_fail = float(grid[block + block // 2])
    _fail_rotated_estimates_at(monkeypatch, z_fail)
    assert cli.main(args + ["--threads", "1"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert f"edge resonant at z={z_fail!r}, mu=0.5" in captured.err
    lines = captured.out.splitlines()
    assert lines[0].startswith("z_tilde,") and lines[0].count(",") == 18
    assert [float(line.split(",")[0]) for line in lines[1:]] == grid[:block].tolist()


def test_sweep_failure_in_the_first_block_writes_nothing(monkeypatch, capsys):
    # the header goes out with the first block's rows, so not even it is left
    args, grid = _sweep_of(cli._HEIGHT_BLOCK + 3)
    z_fail = float(grid[cli._HEIGHT_BLOCK // 2])
    _fail_rotated_estimates_at(monkeypatch, z_fail)
    assert cli.main(args + ["--threads", "1"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == "" and f"edge resonant at z={z_fail!r}, mu=0.5" in captured.err


def test_output_to_a_fifo_is_written_in_place(tmp_path):
    # an existing path that is not a regular file gets the CSV directly: no
    # temporary file beside it, and it is not replaced by a regular file
    want = tmp_path / "regular.csv"
    assert cli.main(SWEEP_ARGS + ["-o", str(want)]) == cli.EXIT_OK
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert cli.main(SWEEP_ARGS + ["-o", str(fifo)]) == cli.EXIT_OK
    finally:
        reader.join(timeout=60)
        if reader.is_alive():  # never opened for writing: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert not reader.is_alive()
    assert got == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo.csv", "regular.csv"]


# The commands that write a file, each with its argv and the file's flag
_WRITERS = {"sweep": (SWEEP_ARGS, "-o"),
            "decompose": (["decompose", "--mu", "0.5", "--a-tilde", "0.05", "--half-extent", "3",
                           "--z-tilde", "0.3"], "--csv")}


@pytest.mark.parametrize("argv,flag", _WRITERS.values(), ids=_WRITERS)
def test_output_through_a_symlink_replaces_its_target(tmp_path, argv, flag):
    # the file goes beside the link's target and replaces it: the link
    # stays a link, to the same relative path, and no temporary is left
    want = tmp_path / "want.csv"
    assert run_cli(argv + [flag, str(want)]).returncode == cli.EXIT_OK
    (tmp_path / "data").mkdir()
    real, link = tmp_path / "data" / "real.csv", tmp_path / "link.csv"
    real.write_bytes(b"z_tilde,previous\n")
    link.symlink_to("data/real.csv")
    assert run_cli(argv + [flag, str(link)]).returncode == cli.EXIT_OK
    assert link.is_symlink() and os.readlink(link) == "data/real.csv"
    assert real.read_bytes() == want.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.csv", "want.csv"]
    assert [p.name for p in real.parent.iterdir()] == ["real.csv"]


@pytest.mark.parametrize("argv,flag", _WRITERS.values(), ids=_WRITERS)
def test_output_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, argv, flag):
    # a private file stays private; a new file gets the mode that creating
    # any file gets under this process's umask
    private, new, created = tmp_path / "p.csv", tmp_path / "new.csv", tmp_path / "created"
    private.write_bytes(b"z_tilde,previous\n")
    private.chmod(0o600)
    created.touch()
    for path in (private, new):
        assert run_cli(argv + [flag, str(path)]).returncode == cli.EXIT_OK
    assert private.read_bytes() == new.read_bytes()
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    assert new.stat().st_mode == created.stat().st_mode


def _assert_rejected(proc, code, message):
    """``code``, no output, and on stderr the notes of a sweep's skipped
    direct sums, if any, then the one line ``error: message``."""
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "" and proc.stderr.endswith("\n")
    *notes, error = proc.stderr[:-1].split("\n")
    assert error == f"error: {message}"
    assert all(note.startswith("note: ") and " exceed " in note for note in notes)


def _column(cells):
    """A sweep CSV whose offresonant_direct column holds ``cells`` at z = 0.1 ... 0.6."""
    return "z_tilde,offresonant_direct\n" + "".join(
        f"{z},{v}\n" for z, v in zip((0.1, 0.2, 0.3, 0.4, 0.5, 0.6), cells))


_USAGE, _NUMERICAL = cli.EXIT_USAGE, cli.EXIT_NUMERICAL
_FIT = "fit {tmp}/in --column offresonant_direct --z-min 0.1 --z-max 0.6"
_CONFIG = "sweep --config {tmp}/in"
_PAIR = "fixes the dipoles; set orientation = custom to use test_dipole and array_dipole"
_GRID = "need 0 < z_min < z_max < inf, and z_max below 2**512"
_DETUNING = ("invalid parameters: |1 - mu| = 0 < 0.001: the perturbative shift diverges at "
             "zero detuning")
_INFINITE = "invalid parameters: {} must be > 0 and finite, below 2**512, got inf"
_NO_FILE = "{}'{{tmp}}/in': [Errno 2] No such file or directory: '{{tmp}}/in'"
_PPD = "points_per_decade must be >= 1, got {}"

# Each rejected input: its argv ({tmp} is the test's directory), the text
# (or bytes) of {tmp}/in where it reads that file, its exit code and its
# error message
_UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
_REJECTED = {
    "fit-no-file": (_FIT, None, _USAGE, _NO_FILE.format("cannot read ")),
    "fit-not-a-csv": (_FIT, "import os\n", _USAGE,
                      "column 'offresonant_direct' not found in '{tmp}/in'"),
    "fit-no-header": (_FIT, "", _USAGE, "column 'offresonant_direct' not found in '{tmp}/in'"),
    "fit-no-z-tilde": (_FIT, "z,offresonant_direct\n0.1,1\n", _USAGE,
                       "column 'z_tilde' not found in '{tmp}/in'"),
    # these three ended in a UnicodeDecodeError or csv.Error traceback
    "fit-not-utf-8": (_FIT, b"z_tilde,offresonant_direct\n0.1,\xff\n", _USAGE,
                      "cannot read '{tmp}/in': " + _UTF8.format(31)),
    "fit-field-too-large": (_FIT, _column(["1" * 200_000]), _USAGE,
                            "cannot read '{tmp}/in': field larger than field limit (131072)"),
    "decompose-config-not-utf-8": ("decompose --config {tmp}/in --z-tilde 0.3",
                                   b"mu = 0.5\n\xff\n", _USAGE,
                                   "cannot read config '{tmp}/in': " + _UTF8.format(9)),
    # the column that a sweep leaves empty above its site budget
    "fit-empty-column": (_FIT, _column([""] * 6), _NUMERICAL, "0 points in window, need >= 5"),
    "fit-no-rows": (_FIT, _column([]), _NUMERICAL, "0 points in window, need >= 5"),
    "fit-not-a-number": (_FIT, _column(["1", "2", "abc", "4", "5", "6"]), _USAGE,
                         "{tmp}/in:4: bad value for offresonant_direct: "
                         "could not convert string to float: 'abc'"),
    # a NaN height fell outside every window and its row dropped out unseen
    "fit-nan-height": (_FIT, _column(["1"] * 6).replace("0.3,", "nan,"), _USAGE,
                       "{tmp}/in:4: bad value for z_tilde: 'nan' is not a height"),
    "fit-inf": (_FIT, _column(["1", "2", "3", "inf", "5", "6"]), _NUMERICAL,
                "log z or log |value| not finite at z=0.4 inside fit window"),
    "fit-nan": (_FIT, _column(["1", "nan", "3", "4", "5", "6"]), _NUMERICAL,
                "log z or log |value| not finite at z=0.2 inside fit window"),
    "fit-narrow-window": (_FIT.replace("0.1", "0.2").replace("0.6", "0.205"),
                          _column(["1"] * 6), _NUMERICAL, "1 points in window, need >= 5"),
    "fit-nan-window": (_FIT.replace("0.1", "nan"), _column(["1"] * 6), _USAGE,
                       "need z_min < z_max, got nan and 0.6"),
    "fit-inverted-window": (_FIT.replace("0.1", "1"), _column(["1"] * 6), _USAGE,
                            "need z_min < z_max, got 1.0 and 0.6"),
    "fit-no-arguments": ("fit", None, _USAGE, "the following arguments are required: "
                         "csv_path, --column, --z-min, --z-max"),
    "decompose-no-height": ("decompose", None, _USAGE,
                            "the following arguments are required: --z-tilde"),
    "decompose-inf-height": ("decompose --z-tilde inf --kind resonant", None, _USAGE,
                             _INFINITE.format("z_tilde")),
    "decompose-inf-a": ("decompose --z-tilde 0.3 --a-tilde inf", None, _USAGE,
                        _INFINITE.format("a_tilde")),
    "decompose-inf-mu": ("decompose --z-tilde 0.3 --mu inf", None, _USAGE,
                         "invalid parameters: mu must be positive and finite, got inf"),
    "decompose-mu-1": ("decompose --mu 1.0 --z-tilde 0.4", None, _USAGE, _DETUNING),
    # (1 - mu)(1 + mu) overflowed, and every shift column read 0 with exit 0
    "sweep-mu-2-to-the-512": ("sweep --mu 1.341e154 --half-extent 2 --z-min 0.1 --z-max 20 "
                              "--points-per-decade 1", None, _USAGE,
                              "invalid parameters: mu must be below 2**512, got 1.341e+154"),
    # zz and zx fix the dipole pair: any other pair used to be ignored silently
    "decompose-zz-array-dipole": ("decompose --array-dipole 1,0,0 --z-tilde 0.3", None,
                                  _USAGE, "orientation zz " + _PAIR),
    "decompose-zx-test-dipole": ("decompose --orientation zx --test-dipole 1,0,0 "
                                 "--z-tilde 0.3", None, _USAGE, "orientation zx " + _PAIR),
    "decompose-zx-array-dipole": ("decompose --orientation zx --array-dipole 0,1,0 "
                                  "--z-tilde 0.3", None, _USAGE, "orientation zx " + _PAIR),
    "decompose-unwritable-csv": ("decompose --half-extent 2 --z-tilde 0.4 --csv {tmp}/no/d.csv",
                                 None, _USAGE,
                                 "cannot write '{tmp}/no/d.csv': No such file or directory"),
    # a write that fails once the file is open ended in an OSError traceback
    "decompose-csv-full": ("decompose --z-tilde 0.3 --csv /dev/full", None, _USAGE,
                           "cannot write '/dev/full': No space left on device"),
    "asymptotic-zz-test-dipole": ("asymptotic --test-dipole 0,0.6,0.8 --z-tilde 0.3", None,
                                  _USAGE, "orientation zz " + _PAIR),
    "asymptotic-custom": ("asymptotic --orientation custom --test-dipole 0,0,1 "
                          "--array-dipole 0,1,0 --z-tilde 0.3", None, _USAGE,
                          "closed-form asymptotes exist for orientations zz and zx only"),
    "sweep-config-zz-pair": (_CONFIG, "orientation = zz\ntest_dipole = 0,1,0\n",
                             _USAGE, "orientation zz " + _PAIR),
    "sweep-inf-z-max": ("sweep --z-max inf", None, _USAGE, _GRID),
    "sweep-nan-z-min": ("sweep --z-min nan", None, _USAGE, _GRID),
    "sweep-negative-z-min": ("sweep --z-min -1", None, _USAGE, _GRID),
    "sweep-mu-1": ("sweep --mu 1.0", None, _USAGE, _DETUNING),
    "sweep-two-components": ("sweep --test-dipole '0 1'", None, _USAGE,
                             "expected three components, got '0 1'"),
    "sweep-orientation-xy": ("sweep --orientation xy", None, _USAGE,
                             "command line: orientation must be zz|zx|custom, got 'xy'"),
    "sweep-seed": ("sweep --seed 1", None, _USAGE, "unrecognized arguments: --seed 1"),
    "sweep-config-seed": (_CONFIG, "seed = 1\n", _USAGE,
                          "{tmp}/in:1: unknown configuration key 'seed'"),
    "sweep-config-colon": (_CONFIG, "mu: 0.5\n", _USAGE,
                           "{tmp}/in:1: expected key=value, got 'mu: 0.5'"),
    "sweep-config-unknown-key": (_CONFIG, "not_a_key = 3\n", _USAGE,
                                 "{tmp}/in:1: unknown configuration key 'not_a_key'"),
    "sweep-config-bad-value": (_CONFIG, "mu = zebra\n", _USAGE,
                               "{tmp}/in:1: bad value for mu: could not convert string to "
                               "float: 'zebra'"),
    "sweep-config-missing": (_CONFIG, None, _USAGE, _NO_FILE.format("cannot read config ")),
    "sweep-threads-0": ("sweep --threads 0", None, _USAGE, "threads must be >= 1, got 0"),
    "sweep-threads--3": ("sweep --threads -3", None, _USAGE, "threads must be >= 1, got -3"),
    "sweep-config-threads-0": (_CONFIG, "threads = 0\n", _USAGE, "threads must be >= 1, got 0"),
    "sweep-config-threads--1": (_CONFIG, "threads = -1\n", _USAGE, "threads must be >= 1, got -1"),
    # a count below 1 once gave a silent two-row grid
    "sweep-ppd-0": ("sweep --points-per-decade 0", None, _USAGE, _PPD.format(0)),
    "sweep-ppd--5": ("sweep --points-per-decade -5", None, _USAGE, _PPD.format(-5)),
    "sweep-config-ppd-0": (_CONFIG, "points_per_decade = 0\n", _USAGE, _PPD.format(0)),
    "sweep-config-ppd--5": (_CONFIG, "points_per_decade = -5\n", _USAGE, _PPD.format(-5)),
    # NaN is no budget: no site count is within it, so a sweep would skip its direct sums
    "sweep-nan-budgets": ("sweep --site-budget nan --offres-site-budget nan --half-extent 1",
                          None, _USAGE, "site_budget must be a number or inf, got nan"),
    "sweep-config-nan-budget": (_CONFIG + " --half-extent 1",
                                "offres_site_budget = nan\n", _USAGE,
                                "offres_site_budget must be a number or inf, got nan"),
    "sweep-require-direct": ("sweep --half-extent 4 --site-budget 10 --require-direct", None,
                             _NUMERICAL,
                             "81 sites exceed budget (resonant 10, off-resonant 10000)"),
    "sweep-unwritable-output": ("sweep -o {tmp}/no/f.csv", None, _USAGE,
                                "cannot write '{tmp}/no/f.csv': No such file or directory"),
    "sweep-output-full": ("sweep -o /dev/full --z-min 0.2 --z-max 0.3 --points-per-decade 1",
                          None, _USAGE, "cannot write '/dev/full': No space left on device"),
    # a path that is not a regular file is opened in place: a directory cannot be
    "sweep-output-to-a-directory": ("sweep -o {tmp}", None, _USAGE,
                                    "cannot write '{tmp}': Is a directory"),
}


@pytest.mark.parametrize("argv,text,code,message", _REJECTED.values(), ids=_REJECTED)
def test_rejected_input_exits_with_one_error_line_and_no_output(tmp_path, argv, text, code,
                                                               message):
    # a sweep or decompose runs again with an output file, unless its
    # failure is about the output path: that file must never appear
    if isinstance(text, bytes):
        (tmp_path / "in").write_bytes(text)
    elif text is not None:
        (tmp_path / "in").write_text(text)
    argv = [arg.format(tmp=tmp_path) for arg in shlex.split(argv)]
    output = {"sweep": "-o", "decompose": "--csv"}.get(argv[0])
    runs = [argv]
    if output and output not in argv:
        runs.append(argv + [output, str(tmp_path / "out.csv")])
    for args in runs:
        _assert_rejected(run_cli(args), code, message.format(tmp=tmp_path))
        assert os.listdir(tmp_path) == ([] if text is None else ["in"]), args


# Inputs that ended in a traceback, asked for more memory than a host has,
# or printed part of their output before failing, and each one's exit code
# and error now
_GRID_CAP = "more than 1000000: lower points_per_decade or narrow z_min..z_max"
_BAD_INPUTS = [
    (["sweep", "--orientation", "custom", "--test-dipole", "nan,0,0"], cli.EXIT_USAGE,
     "invalid parameters: test_dipole norm deviates from 1 by nan"),
    (["sweep", "--a-tilde", "1e308", "--half-extent", "3"], cli.EXIT_USAGE,
     "invalid parameters: a_tilde must be > 0 and finite, below 2**512, got 1e+308"),
    (["sweep", "--z-max", "1e300"], cli.EXIT_USAGE,
     "need 0 < z_min < z_max < inf, and z_max below 2**512"),
    (["sweep", "--points-per-decade", "1000000000"], cli.EXIT_USAGE,
     f"the height grid would have 4000000001 rows, {_GRID_CAP}"),
    (["decompose", "--z-tilde", "1e200"], cli.EXIT_USAGE,
     "invalid parameters: z_tilde must be > 0 and finite, below 2**512, got 1e+200"),
    (["decompose", "--a-tilde", "1e200", "--z-tilde", "0.3"], cli.EXIT_USAGE,
     "invalid parameters: a_tilde must be > 0 and finite, below 2**512, got 1e+200"),
    (["asymptotic", "--z-tilde", "1e100"], cli.EXIT_NUMERICAL,
     "asymptote resonant non_retarded sparse at z=1e+100, mu=0.5 (zz): value is not finite"),
    (["asymptotic", "--z-tilde", "1e-320"], cli.EXIT_NUMERICAL,
     "asymptote resonant non_retarded sparse at z=1e-320, mu=0.5 (zz): value is not finite"),
    (["asymptotic", "--z-tilde", "1e50"], cli.EXIT_NUMERICAL,  # six lines printed before
     "asymptote off_resonant retarded sparse at z=1e+50, mu=0.5 (zz): value is not finite"),
    (["verify-diagrams", "--samples", "100000000000"], cli.EXIT_USAGE,
     "unrecognized arguments: --samples 100000000000"),
    (["verify-diagrams", "--seed", "7"], cli.EXIT_USAGE, "unrecognized arguments: --seed 7"),
    (["verify-diagrams", "--mu", "0.5"], cli.EXIT_USAGE, "unrecognized arguments: --mu 0.5"),
    # the header is written with the first block's rows: none of them here
    (["sweep", "--z-min", "1e-320", "--z-max", "1e-300", "--points-per-decade", "1"],
     cli.EXIT_NUMERICAL, "bulk resonant at z=1e-320, mu=0.5 (zz): closed form is not finite"),
]


@pytest.mark.parametrize("argv,code,message", _BAD_INPUTS,
                         ids=[" ".join(argv) for argv, *_ in _BAD_INPUTS])
def test_bad_input_exits_with_one_error_line_under_a_memory_limit(argv, code, message):
    # a fresh interpreter whose address space is capped at 2 GiB, so that a
    # regression fails here instead of exhausting the host
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    _assert_rejected(subprocess.run([sys.executable, "-m", "cplattice.cli", *argv],
                                    capture_output=True, text=True, preexec_fn=limit,
                                    timeout=120), code, message)


# Ray integrals whose NumPy site terms overflowed or divided by zero, and
# the RuntimeWarnings they printed before the error line or the report
_RAY_EXTREMES = [
    # the off-resonant real path, five on the NumPy backend
    (["decompose", "--orientation", "custom", "--array-dipole", "0,1,0", "--z-tilde", "1e-307",
      "--kind", "off_resonant"], cli.EXIT_NUMERICAL),
    # the resonant rotated path, three on the NumPy backend
    (["decompose", "--z-tilde", "1e100", "--kind", "resonant"], cli.EXIT_NUMERICAL),
    # the off-resonant real path, whose r^6 overflows: one on either backend
    (["decompose", "--z-tilde", "1e100", "--kind", "off_resonant"], cli.EXIT_OK),
]


@pytest.mark.parametrize("argv,code", _RAY_EXTREMES,
                         ids=[" ".join(argv) for argv, _ in _RAY_EXTREMES])
def test_ray_integrals_at_extreme_heights_write_no_warning_on_either_backend(argv, code):
    runs = []
    for force_numpy in ("", "1"):
        env = dict(os.environ, CPLATTICE_FORCE_NUMPY_KERNELS=force_numpy)
        proc = subprocess.run([sys.executable, "-m", "cplattice.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    rc, out, err = runs[0]
    assert rc == code
    if code == cli.EXIT_OK:
        assert err == "" and "total=0" in out
    else:  # exactly one error line
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n")


@pytest.mark.parametrize("argv,lines", [
    # more rows than a pipe holds: the sweep is still writing when the
    # reader leaves after the header
    (["sweep", "--half-extent", "1", "--z-min", "0.01", "--z-max", "100",
      "--points-per-decade", "1000"], 1),
    # the reader leaves before anything is written: the final flush fails
    (["asymptotic", "--z-tilde", "0.3"], 0)], ids=["sweep", "asymptotic"])
def test_a_closed_stdout_exits_quietly(argv, lines):
    proc = subprocess.Popen([sys.executable, "-m", "cplattice.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        proc.wait(timeout=120)
    assert all(line.startswith("z_tilde,") for line in head)
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT and err == ""  # no traceback


def test_sweep_rejects_a_grid_over_the_row_cap(monkeypatch, capsys):
    # 10^9 per decade over the default four decades asked np.geomspace for
    # 4e9 heights (30 GiB); the cap is checked before any output or grid
    monkeypatch.setattr(np, "geomspace", None)
    for ppd in ("1000000000", "10" * 400):
        assert cli.main(["sweep", "--points-per-decade", ppd]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and _GRID_CAP in captured.err
    assert cli.MAX_GRID_ROWS == 10 ** 6


def test_threads_clamped_to_the_cpus_this_process_may_use(tmp_path, monkeypatch):
    # the configuration keeps the count; the direct sum cuts it to the usable
    # CPUs: results do not depend on the count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    ranges, map_ranges = [], lattice_sum._map_ranges
    monkeypatch.setattr(lattice_sum, "_map_ranges", lambda fn, rs: (
        ranges.append(len(rs)) or map_ranges(fn, rs)))
    conf = tmp_path / "c.conf"
    conf.write_text("threads = 50001\n")
    assert cli.load_config(str(conf), {}).threads == 50001
    for flags, want in ((["--threads", "16"], lattice_sum.usable_cpus()),
                        (["--config", str(conf)], lattice_sum.usable_cpus()),
                        (["--threads", "2"], 2)):
        ranges.clear()
        assert run_cli(SWEEP_ARGS + flags).returncode == cli.EXIT_OK
        assert ranges == [want], flags  # one block: M 4's 5 octant rows in `want` ranges


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    # in process, in the README's order: the fit lines read the sweep's CSV
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [args[0] for args in commands] == ["sweep", "decompose", "asymptotic",
                                              "verify-diagrams", "fit", "fit"]
    for args in commands:
        assert cli.main(args) == cli.EXIT_OK, args


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_equals_the_stock_formatters(monkeypatch, columns):
    # build_parser reads the terminal width once; the stock HelpFormatter
    # reads it whenever it formats: both give the same --help bytes
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    assert set(subparsers) == {"sweep", "decompose", "asymptotic", "verify-diagrams", "fit"}
    for p in [parser, *subparsers.values()]:
        ours = p.format_help()
        p.formatter_class = argparse.HelpFormatter
        assert ours == p.format_help(), p.prog
    assert max(map(len, subparsers["sweep"].format_help().splitlines())) <= int(columns) - 2


def test_sweep_makes_one_call_per_block_and_stage(monkeypatch, capsys):
    # each block of heights: one decompose per kind, one direct sum per kind
    # and one asymptote call per regime, whatever the block's size
    calls = []
    for owner, name in ((euler_maclaurin, "decompose"), (cli, "sum_lattice"),
                        (cli.asymptotics, "asymptotic_shift")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _fn=fn, _name=name, **k: (
            calls.append((_name, len(k["heights"] if "heights" in k else a[2]))) or _fn(*a, **k)))
    block = cli._HEIGHT_BLOCK
    args, grid = _sweep_of(2 * block + 3)
    assert cli.main(args + ["--threads", "1"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == grid.tolist()
    sizes = [block, block, 3]
    regimes = len(cli.asymptotics.all_regimes("zz"))
    assert calls == [call for size in sizes for call in
                     [("decompose", size)] * 2 + [("sum_lattice", size)] * 2
                     + [("asymptotic_shift", size)] * regimes]


def _sweep_by_csv_writer(argv):
    """The CSV of the sweep ``argv`` as csv.writer(lineterminator="\\n")
    writes it from ``_fmt`` of each value, every value from one library call
    per height (bitwise equal to the sweep's calls per block)."""
    args = cli.build_parser("sweep").parse_args(["sweep", *argv])
    cfg = cli.load_config(None, {key: getattr(args, key) for key in cli._KEYS})
    count = (2 * cfg.half_extent + 1) ** 2
    # the asymptotes follow the dipole pair's label, whatever the orientation key
    regimes = asymptotics.all_regimes(cli.bundle_from_config(cfg, cfg.z_min).orientation_label())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["z_tilde", "resonant_direct", "offresonant_direct",
                     "res_bulk", "res_edge", "res_vertex", "res_em_total",
                     "or_bulk", "or_edge", "or_vertex", "or_em_total"]
                    + [cli._asym_column(g) for g in regimes])
    for z in cli.z_grid(cfg.z_min, cfg.z_max, cfg.points_per_decade).tolist():
        b = cli.bundle_from_config(cfg, z)
        res = (sum_lattice(b, "resonant", threads=1).resonant
               if count <= cfg.site_budget else None)
        orv = (sum_lattice(b, "off_resonant", threads=1).off_resonant
               if count <= cfg.offres_site_budget else None)
        dr, do = (euler_maclaurin.decompose(b, kind) for kind in ("resonant", "off_resonant"))
        row = [z, res, orv, dr.bulk, dr.edge, dr.vertex, dr.total,
               do.bulk, do.edge, do.vertex, do.total]
        writer.writerow([cli._fmt(v) for v in row + [asymptotics.asymptotic_shift(g, b)
                                                     for g in regimes]])
    return buf.getvalue()


_CUSTOM = ["--orientation", "custom", "--test-dipole", "0.6,0,0.8",
           "--array-dipole", "0,0.8,0.6", "--a-tilde", "0.2"]


@pytest.mark.parametrize("argv,empty", [
    (["--a-tilde", "0.05", "--half-extent", "50", "--z-min", "0.05", "--z-max", "0.4",
      "--points-per-decade", "8"], ["offresonant_direct"]),
    (["--orientation", "zx", "--a-tilde", "0.1", "--half-extent", "6", "--z-min", "0.1",
      "--z-max", "3", "--points-per-decade", "12", "--threads", "2"], []),
    (_CUSTOM + ["--half-extent", "5", "--z-min", "0.05", "--z-max", "2",
                "--points-per-decade", "12"], []),
    (_CUSTOM + ["--half-extent", "5", "--z-min", "0.05", "--z-max", "2",
                "--points-per-decade", "6", "--site-budget", "10"], ["resonant_direct"]),
], ids=["zz-offres-empty", "zx", "custom", "custom-res-empty"])
def test_sweep_bytes_equal_csv_writer_of_fmt(tmp_path, argv, empty):
    want = _sweep_by_csv_writer(argv)
    proc = run_cli(["sweep", *argv])
    assert proc.returncode == cli.EXIT_OK
    assert proc.stdout == want
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", *argv, "-o", str(out)]).returncode == cli.EXIT_OK
    assert out.read_bytes() == want.encode()
    rows = list(csv.DictReader(io.StringIO(want)))
    assert [name for name in ("resonant_direct", "offresonant_direct")
            if all(row[name] == "" for row in rows)] == empty


class _RecordingStream(io.TextIOBase):
    """An output stream that keeps each ``write`` on its own, in ``events``."""

    def __init__(self, events):
        self.events = events

    def write(self, s):
        self.events.append(("write", s))
        return len(s)


def test_sweep_writes_each_line_in_its_own_call_after_its_block(monkeypatch):
    # the header, then each row in one write of one whole line; the header
    # and every row of a block after that block's stages and before the
    # next block's
    events = []
    decompose = euler_maclaurin.decompose
    monkeypatch.setattr(euler_maclaurin, "decompose", lambda b, kind, heights=None: (
        events.append(("decompose", len(heights))) or decompose(b, kind, heights)))
    block = cli._HEIGHT_BLOCK
    args, grid = _sweep_of(block + 5)
    with redirect_stdout(_RecordingStream(events)):
        assert cli.main(args + ["--threads", "1"]) == cli.EXIT_OK
    writes = [s for what, s in events if what == "write"]
    assert all(s.endswith("\n") and s.count("\n") == 1 for s in writes)
    assert writes[0].startswith("z_tilde,")
    assert [float(s.split(",")[0]) for s in writes[1:]] == grid.tolist()
    kinds = [what if what == "decompose" else "line" for what, _ in events]
    assert kinds == (["decompose"] * 2 + ["line"] * (1 + block) + ["decompose"] * 2
                     + ["line"] * 5)


@pytest.mark.parametrize("argv", [
    ["sweep", "--half-extent", "2"], ["decompose", "--z-tilde", "0.3"],
    ["asymptotic", "--z-tilde", "0.3"], ["verify-diagrams"],
    ["fit", "s.csv", "--column", "res_bulk", "--z-min", "0.1", "--z-max", "0.5"]])
def test_a_command_builds_only_its_own_arguments(argv):
    # the named command gets all its arguments (verify-diagrams has none),
    # every other command none
    full = cli.build_parser()._subparsers._group_actions[0].choices
    parser = cli.build_parser(cli._command_of(argv))
    subparsers = parser._subparsers._group_actions[0].choices
    for name, p in subparsers.items():
        own = [a.dest for a in p._actions if a.dest != "help"]
        assert own == ([a.dest for a in full[name]._actions if a.dest != "help"]
                       if name == argv[0] else []), name
        assert bool(own) == (name == argv[0] != "verify-diagrams"), name
    assert parser.parse_args(argv).command == argv[0]


def test_sweep_invocation_adds_no_arguments_to_other_commands(monkeypatch, capsys):
    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda self, *a, **k: (
        added.append((self.prog, a)) or add_argument(self, *a, **k)))
    assert cli.main(["sweep", "--half-extent", "1", "--z-min", "0.3", "--z-max", "0.4",
                     "--points-per-decade", "4"]) == cli.EXIT_OK
    assert {prog for prog, a in added if a != ("-h", "--help")} == {"cplattice sweep"}
    capsys.readouterr()
    # no recognisable command: every subcommand gets its arguments, and the
    # errors are those of the full parser
    for argv in ([], ["-h"], ["nonsense", "--z-tilde", "1"]):
        assert cli._command_of(argv) is None
    assert cli._command_of(["--", "sweep"]) == "sweep"
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    top = capsys.readouterr().out
    assert top == cli.build_parser().format_help()
    assert run_cli(["nonsense"]).stderr == (
        "error: argument command: invalid choice: 'nonsense' (choose from 'sweep', "
        "'decompose', 'asymptotic', 'verify-diagrams', 'fit')\n")
