import csv
import dataclasses
import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cplattice import cli, diagrams, euler_maclaurin, fitting


def run_cli(args):
    """``cli.main(args)`` in this process, with its output captured; returns
    what a subprocess run would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(args))
    return subprocess.CompletedProcess(args, rc, out.getvalue(), err.getvalue())


def test_module_entry_point_in_subprocess():
    # the only test that starts an interpreter: `python -m cplattice.cli`
    # prints what cli.main prints and exits with its code
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
    rows = list(csv.DictReader(out.open()))
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
    rows = list(csv.DictReader(out.open()))
    assert all(r["resonant_direct"] == "" for r in rows)
    assert all(r["offresonant_direct"] == "" for r in rows)


def test_sweep_require_direct_over_budget_is_numerical_error(tmp_path):
    proc = run_cli(SWEEP_ARGS + ["--site-budget", "10", "--require-direct",
                                 "-o", str(tmp_path / "x.csv")])
    assert proc.returncode == cli.EXIT_NUMERICAL


def test_fit_round_trip_bit_exact(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(SWEEP_ARGS + ["-o", str(out)]).returncode == 0
    proc = run_cli(["fit", str(out), "--column", "res_bulk",
                    "--z-min", "0.2", "--z-max", "0.6"])
    assert proc.returncode == 0
    printed = dict(kv.split("=", 1) for kv in proc.stdout.split() if "=" in kv)
    # recompute in process from the same CSV
    rows = list(csv.DictReader(out.open()))
    pts = [(float(r["z_tilde"]), float(r["res_bulk"])) for r in rows]
    rep = fitting.fit_power_law(pts, (0.2, 0.6))
    assert float(printed["slope"]) == rep.slope
    assert float(printed["intercept"]) == rep.intercept
    assert float(printed["r_squared"]) == rep.r_squared


def test_fit_missing_column_and_file():
    assert run_cli(["fit", "/nonexistent.csv", "--column", "x",
                    "--z-min", "0.1", "--z-max", "1"]).returncode == cli.EXIT_USAGE
    proc = run_cli(["fit", __file__, "--column", "nope",
                    "--z-min", "0.1", "--z-max", "1"])
    assert proc.returncode == cli.EXIT_USAGE


def test_fit_too_narrow_window_is_numerical_error(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(SWEEP_ARGS + ["-o", str(out)]).returncode == 0
    proc = run_cli(["fit", str(out), "--column", "res_bulk",
                    "--z-min", "0.2", "--z-max", "0.205"])
    assert proc.returncode == cli.EXIT_NUMERICAL


def test_decompose_report_additivity(tmp_path):
    csv_out = tmp_path / "d.csv"
    proc = run_cli(["decompose", "--mu", "0.5", "--rho", "1e-6", "--a-tilde", "0.05",
                    "--half-extent", "3", "--z-tilde", "0.4", "--csv", str(csv_out)])
    assert proc.returncode == 0
    assert "resonant:" in proc.stdout and "off_resonant:" in proc.stdout
    rows = list(csv.DictReader(csv_out.open()))
    assert {r["kind"] for r in rows} == {"resonant", "off_resonant"}
    for r in rows:
        assert float(r["total"]) == float(r["bulk"]) + float(r["edge"]) + float(r["vertex"])


def test_verify_diagrams_ok_and_corrupted(monkeypatch):
    proc = run_cli(["verify-diagrams", "--samples", "3000", "--seed", "42"])
    assert proc.returncode == 0
    assert "max_rel_error" in proc.stdout
    exact = diagrams.denominator

    def corrupted(process, w, wp, params):  # D_II off by 1e-6
        d = exact(process, w, wp, params)
        return d * (1.0 + 1e-6) if process == "II" else d

    monkeypatch.setattr(diagrams, "denominator", corrupted)
    bad = run_cli(["verify-diagrams", "--samples", "500", "--seed", "42"])
    assert bad.returncode == cli.EXIT_VERIFY


def test_verify_diagrams_single_sample():
    proc = run_cli(["verify-diagrams", "--samples", "1", "--seed", "5"])
    assert proc.returncode == 0


def test_verify_diagrams_inputs_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(diagrams, "symmetrized_inverse_sum", no_work)
    for args, message in ((["--samples", "0"], "samples must be >= 1"),
                          (["--samples", "-5"], "samples must be >= 1"),
                          (["--mu", "1.0"], "|1 - mu| = 0 < 0.001"),
                          (["--mu", "-0.5"], "mu must be positive"),
                          (["--mu", "0.5", "--mu", "0.9995"], "|1 - mu| = 0.0005")):
        proc = run_cli(["verify-diagrams", *args])
        assert proc.returncode == cli.EXIT_USAGE, args
        assert proc.stdout == "" and message in proc.stderr, args


@pytest.mark.parametrize("flags,message", [
    (["--z-tilde", "inf", "--kind", "resonant"], "z_tilde must be > 0 and finite"),
    (["--z-tilde", "0.3", "--a-tilde", "inf"], "a_tilde must be > 0 and finite"),
    (["--z-tilde", "0.3", "--mu", "inf"], "mu must be positive and finite")])
def test_decompose_rejects_non_finite_inputs(flags, message):
    # these ended in an OverflowError traceback, or printed nan and exited 0
    proc = run_cli(["decompose", *flags])
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == "" and message in proc.stderr


@pytest.mark.parametrize("flags", [["--z-max", "inf"], ["--z-min", "nan"]])
def test_sweep_rejects_non_finite_heights(tmp_path, flags):
    proc = run_cli(["sweep", *flags])
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == "" and "need 0 < z_min < z_max < inf" in proc.stderr
    proc = run_cli(["sweep", *flags, "-o", str(tmp_path / "never.csv")])
    assert proc.returncode == cli.EXIT_USAGE and list(tmp_path.iterdir()) == []


def test_principal_orientations_reject_other_dipoles(tmp_path):
    # zz and zx fix the dipole pair: any other pair used to be ignored silently
    for args in (["decompose", "--array-dipole", "1,0,0"],
                 ["decompose", "--orientation", "zx", "--test-dipole", "1,0,0"],
                 ["decompose", "--orientation", "zx", "--array-dipole", "0,1,0"],
                 ["asymptotic", "--test-dipole", "0,0.6,0.8"]):
        proc = run_cli(args + ["--z-tilde", "0.3"])
        assert proc.returncode == cli.EXIT_USAGE, args
        assert proc.stdout == "" and "orientation = custom" in proc.stderr, args
    conf = tmp_path / "zz.cfg"
    conf.write_text("orientation = zz\ntest_dipole = 0,1,0\n")
    out = tmp_path / "never.csv"
    proc = run_cli(["sweep", "--config", str(conf), "-o", str(out)])
    assert proc.returncode == cli.EXIT_USAGE and "orientation = custom" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["zz.cfg"]
    # the default pair and the orientation's own pair are accepted
    for pair in ([], ["--test-dipole", "0,0,1", "--array-dipole", "1,0,0"]):
        proc = run_cli(["decompose", "--orientation", "zx", *pair, "--z-tilde", "0.3",
                        "--kind", "resonant"])
        assert proc.returncode == cli.EXIT_OK, pair


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


def test_decompose_unwritable_csv_exits_usage_without_output(tmp_path):
    out = tmp_path / "missing" / "d.csv"
    proc = run_cli(["decompose", "--half-extent", "2", "--z-tilde", "0.4", "--csv", str(out)])
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == ""
    assert f"cannot write {str(out)!r}" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.5\nrho = 1e-6\na_tilde = 0.05\nhalf_extent = 3\n"
                   "# comment line\nz_min = 0.2\nz_max = 0.6\npoints_per_decade = 16\n")
    out1 = tmp_path / "c1.csv"
    assert run_cli(["sweep", "--config", str(cfg), "-o", str(out1)]).returncode == 0
    out2 = tmp_path / "c2.csv"
    assert run_cli(SWEEP_ARGS[:1] + ["--config", str(cfg), "--half-extent", "4",
                                     "-o", str(out2)]).returncode == 0
    r1 = list(csv.DictReader(out1.open()))
    r2 = list(csv.DictReader(out2.open()))
    assert r1[0]["resonant_direct"] != r2[0]["resonant_direct"]


def test_config_errors_exit_usage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mu: 0.5\n")
    assert run_cli(["sweep", "--config", str(bad)]).returncode == cli.EXIT_USAGE
    bad.write_text("not_a_key = 3\n")
    assert run_cli(["sweep", "--config", str(bad)]).returncode == cli.EXIT_USAGE
    bad.write_text("mu = zebra\n")
    assert run_cli(["sweep", "--config", str(bad)]).returncode == cli.EXIT_USAGE
    assert run_cli(["sweep", "--config", "/does/not/exist"]).returncode == cli.EXIT_USAGE


# one value per key, each different from its default
_CONFIG_VALUES = {
    "mu": ("0.7", 0.7), "rho": ("2e-6", 2e-6), "a_tilde": ("0.03", 0.03),
    "half_extent": ("3", 3), "orientation": ("custom", "custom"),
    "test_dipole": ("0,0.6,0.8", (0.0, 0.6, 0.8)),
    "array_dipole": ("0.6 0 0.8", (0.6, 0.0, 0.8)),
    "z_min": ("0.2", 0.2), "z_max": ("0.9", 0.9), "points_per_decade": ("5", 5),
    "site_budget": ("1e6", 1e6), "offres_site_budget": ("50", 50.0),
    "threads": ("2", min(2, os.cpu_count() or 1)),
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


def test_seed_is_not_a_config_key(tmp_path):
    conf = tmp_path / "seed.cfg"
    conf.write_text("seed = 1\n")
    proc = run_cli(["sweep", "--config", str(conf)])
    assert proc.returncode == cli.EXIT_USAGE
    assert "unknown configuration key 'seed'" in proc.stderr
    assert run_cli(["sweep", "--seed", "1"]).returncode == cli.EXIT_USAGE


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


def test_invalid_physics_exit_usage():
    assert run_cli(["decompose", "--mu", "1.0", "--z-tilde", "0.4"]).returncode == cli.EXIT_USAGE
    assert run_cli(["sweep", "--z-min", "-1"]).returncode == cli.EXIT_USAGE


def test_no_partial_output_on_bad_sweep():
    for args in (["sweep", "--z-min", "-1"], ["sweep", "--mu", "1.0"]):
        proc = run_cli(args)
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stdout == ""


def test_missing_subcommand_args_exit_usage():
    assert run_cli(["fit"]).returncode == cli.EXIT_USAGE
    assert run_cli(["decompose"]).returncode == cli.EXIT_USAGE


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


def test_asymptotic_rejects_custom_orientation():
    proc = run_cli(["asymptotic", "--orientation", "custom",
                    "--test-dipole", "0,0,1", "--array-dipole", "0,1,0",
                    "--z-tilde", "0.3"])
    assert proc.returncode == cli.EXIT_USAGE


def test_zx_sweep_m0_direct_columns_zero(tmp_path):
    out = tmp_path / "zx.csv"
    proc = run_cli(["sweep", "--orientation", "zx", "--half-extent", "0",
                    "--a-tilde", "0.05", "--z-min", "0.2", "--z-max", "0.5",
                    "--points-per-decade", "8", "-o", str(out)])
    assert proc.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert all(float(r["resonant_direct"]) == 0.0 for r in rows)
    assert all(float(r["res_vertex"]) == 0.0 for r in rows)


def test_m0_sweep_resonant_equals_vertex(tmp_path):
    out = tmp_path / "m0.csv"
    proc = run_cli(["sweep", "--half-extent", "0", "--a-tilde", "0.05",
                    "--z-min", "0.2", "--z-max", "0.5", "--points-per-decade", "8",
                    "-o", str(out)])
    assert proc.returncode == 0
    for r in csv.DictReader(out.open()):
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
    rows = list(csv.DictReader(out.open()))
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


def test_sweep_failure_leaves_existing_output_untouched(tmp_path, monkeypatch, capsys):
    # the edge rule starts failing at the second height, after the header
    # and the first row have been written
    decompose = euler_maclaurin.decompose
    calls = []

    def failing_from_second_row(b, kind):
        calls.append(kind)
        if len(calls) == 3:
            monkeypatch.setattr(euler_maclaurin, "_RTOL", 1e-30)
        return decompose(b, kind)

    monkeypatch.setattr(euler_maclaurin, "decompose", failing_from_second_row)
    out = tmp_path / "f.csv"
    out.write_bytes(b"z_tilde,previous\n0.1,1\n")
    rc = cli.main(SWEEP_ARGS + ["--threads", "1", "-o", str(out)])
    assert rc == cli.EXIT_NUMERICAL
    assert len(calls) == 3
    assert "edge resonant at z=" in capsys.readouterr().err
    assert out.read_bytes() == b"z_tilde,previous\n0.1,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


def test_unwritable_output_exits_usage(tmp_path, capsys):
    out = tmp_path / "missing" / "f.csv"
    assert cli.main(SWEEP_ARGS + ["-o", str(out)]) == cli.EXIT_USAGE
    assert f"cannot write {str(out)!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_threads_validated_before_any_work(tmp_path, capsys):
    # validation path only: no sweep runs and no thread is started
    for bad in ("0", "-3"):
        with pytest.raises(cli._UsageError, match="threads must be >= 1"):
            cli.load_config(None, {"threads": bad})
    conf = tmp_path / "c.conf"
    conf.write_text("threads = 0\n")
    with pytest.raises(cli._UsageError, match="threads must be >= 1"):
        cli.load_config(str(conf), {})
    out = tmp_path / "never.csv"
    assert cli.main(["sweep", "--threads", "0", "-o", str(out)]) == cli.EXIT_USAGE
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    conf.write_text("threads = -1\n")
    with pytest.raises(cli._UsageError, match="threads must be >= 1"):
        cli.load_config(str(conf), {})
    # more workers than cores are clamped: results do not depend on the count
    conf.write_text("threads = 50001\n")
    assert cli.load_config(str(conf), {}).threads == os.cpu_count()
    assert cli.load_config(None, {"threads": 16}).threads == min(16, os.cpu_count())
    assert cli.load_config(None, {}).threads == 1


def _readme_commands():
    """Arguments of every ``cplattice`` line in the README, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cplattice ")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    # in process, in the README's order: the fit lines read the sweep's CSV
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [args[0] for args in commands] == ["sweep", "decompose", "asymptotic",
                                              "verify-diagrams", "fit", "fit"]
    for args in commands:
        assert cli.main(args) == cli.EXIT_OK, args
