"""cplattice benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_dense --seed 0 --seconds 45 --trace 0

Workloads (see README.md for why each was chosen): sweep_dense and
custom_orientation. The package is imported from the checkout's own ``src/``;
the run fails if it resolves anywhere else.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, wall_s, op_p50_s, op_tail_s, peak_rss_mb). The plan runs several
passes (``plan["passes"]``); the outputs of every pass must agree. Every part
is timed in chunks cut at the program's inner calls, and each chunk takes its
median over the passes. The times are then scaled to reference seconds by
pieces of a reference computation run all through the same passes
(``calibration.py``), which takes out the host's slow phases.

With ``--trace 1`` the last line carries the per-layer metrics of one traced
pass plus ``trace.overhead_frac``, measured against one untraced pass of the
same plan. The line before it is a
report with provenance, fail_frac, the tail percentile and the checks made.
Exit code 0 when a result is printed, 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # fresh interpreters before the worker, and again after it
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "peak_rss_mb": "MB"}
_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cplattice, cplattice.kernels\n"
    "cplattice.kernels.backend_name()\n"
    "print(time.perf_counter() - t0, cplattice.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("CPLATTICE_THREADS", None)  # the CLI lets it override --threads 1
    return env


def check_import_path(path: str) -> None:
    expected = SRC / "cplattice"
    if Path(path).resolve().parent != expected:
        raise BenchError(f"cplattice imported from {path}, not from {expected}")


def measure_setup(env, warm_up: bool) -> list[float]:
    """Fresh-interpreter import times; a discarded warm-up fills .pyc caches."""
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        seconds, path = proc.stdout.split(maxsplit=1)
        check_import_path(path.strip())
        if i or not warm_up:
            times.append(float(seconds))
    return times


def run_worker(plan, env, trace: bool, passes: int) -> dict:
    # The worker stops starting ops after twice the nominal run plus slack,
    # at most 100 s, so that a run ends within 180 s; a traced run starts two
    # workers and gives each half of that.
    deadline = min(100.0, 2.0 * plan["seconds"] + 10.0) / (2 if trace else 1)
    job = json.dumps({"plan": plan, "trace": trace, "passes": passes, "deadline_s": deadline})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job, env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=deadline + 15)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check_import_path(result["cplattice_file"])
    return result


def outputs(group):
    return {k: group.get(k) for k in ("lines", "values")}


def best_of_passes(passes: list[dict], fine: list | None = None) -> list[dict]:
    """Merge the passes' results group by group.

    A group whose outputs differ between passes fails as a whole. Otherwise
    ``op_s`` sums an op's parts, each part taken from ``fine`` (the worker's
    chunk-by-chunk minimum over the passes) where the worker has one, else
    from the part's fastest pass.
    """
    merged = []
    for n, results in enumerate(zip(*(p["groups"] for p in passes))):
        first = results[0]
        bad = next((i for i, r in enumerate(results) if outputs(r) != outputs(first)), None)
        if bad is not None:
            why = results[bad].get("error") or "outputs differ from pass 1"
            merged.append({"error": f"pass {bad + 1}: {why}"})
            continue
        group = {k: v for k, v in first.items() if k != "parts_s"}
        if fine and fine[n] is not None:
            group["op_s"] = [sum(parts) for parts in fine[n]]
        elif "parts_s" in first:
            group["op_s"] = [sum(map(min, zip(*op_passes)))
                             for op_passes in zip(*(r["parts_s"] for r in results))]
        merged.append(group)
    return merged


def op_stats(op_s: list[float]) -> dict:
    """Median op time and the highest percentile with >= 10 ops beyond it.

    With 10 or fewer ops no percentile has 10 beyond it; the maximum is
    reported and the percentile recorded as 100.
    """
    s = sorted(op_s)
    n = len(s)
    k = n - 11 if n > 10 else n - 1
    return {"ops": n, "p50_s": statistics.median(s), "tail_s": s[k],
            "tail_percentile": 100.0 * (k + 1) / n, "ops_beyond_tail": n - 1 - k}


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "cplattice").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".pyx", ".c"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, worker) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "git_commit": _git_commit(), "src_sha256_16": _src_digest(),
        "cplattice_file": worker["cplattice_file"], "backend": worker["backend"],
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": worker["python"], "numpy": worker["numpy"], "scipy": worker["scipy"],
        "CPLATTICE_FORCE_NUMPY_KERNELS_set": "CPLATTICE_FORCE_NUMPY_KERNELS" in os.environ,
        "CPLATTICE_THREADS_set": "CPLATTICE_THREADS" in os.environ,
        "threads": 1,
    }


def run(args) -> tuple[dict, dict]:
    if not (SRC / "cplattice" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'cplattice'}")
    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    env = worker_env()
    setup = None if args.trace else measure_setup(env, warm_up=True)
    worker = run_worker(plan, env, trace=False, passes=1 if args.trace else plan["passes"])
    passes = worker["passes"]
    groups = best_of_passes(passes, worker["fine_parts_s"])
    attempted, failed, checks = check.check(
        plan, groups, check.load_reference(args.workload, args.seed))
    op_s = [t for g in groups for t in g.get("op_s", [])]
    ops = op_stats(op_s or [passes[0]["wall_s"]])
    report = {"provenance": provenance(args, worker), "checks": checks, "op_stats": ops,
              "pass_wall_s": [p["wall_s"] for p in passes],
              "chunks_per_pass": worker["chunks_per_pass"]}
    if args.trace:
        traced = run_worker(plan, env, trace=True, passes=1)
        traced_pass = traced["passes"][0]
        if list(map(outputs, traced_pass["groups"])) != list(map(outputs, passes[0]["groups"])):
            failed = attempted
            checks["problems"].append("traced outputs differ from untraced outputs")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced_pass["wall_s"] / passes[0]["wall_s"] - 1.0
        report["spans"] = traced["spans"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        # wall_s: one pass over the plan, every chunk at its median over the
        # passes; the times are in reference seconds (see calibration.py)
        speed = worker["calibration_reference_piece_s"] / worker["calibration_piece_s"]
        measured = {"wall_s": sum(op_s) or passes[0]["wall_s"],
                    "op_p50_s": ops["p50_s"], "op_tail_s": ops["tail_s"]}
        # set-up is timed on both sides of the measured phase, so that one
        # moment of the host's load does not decide it
        setup += measure_setup(env, warm_up=False)
        metrics = {"setup_s": statistics.median(setup),
                   **{k: v * speed for k, v in measured.items()},
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
        report.update(setup_runs_s=setup, measured_s=measured, host_speed=speed,
                      calibration_piece_s=worker["calibration_piece_s"],
                      calibration_pieces_per_pass=worker["calibration_pieces_per_pass"])
        units = END_TO_END
    report["fail_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        report, result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
