"""Throughput benchmark: compiled row kernels vs the NumPy fallback.

Run:  PYTHONPATH=src python benchmarks/kernel_bench.py [--half-extent M]

The resonant direct sums dominate large-sweep runtime; the package targets
>= 1e8 site terms/second/core on the compiled path. Full-sum timings go
through sum_lattice, so they include the octant weights, the compensated
row reduction, and the Python dispatch overhead.
"""
import argparse
import os
import subprocess
import sys
import time


def time_rows(mod, a2, z2, nx, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        mod.res_row_zz(a2, z2, nx)
        best = min(best, time.perf_counter() - t0)
    return (nx + 1) / best


def time_full_sum(backend_env, M, a, z):
    env = os.environ.copy()
    code = (
        "import time\n"
        "from cplattice.model import ModelParams, LatticeSpec, Geometry, validate\n"
        "from cplattice.lattice_sum import sum_lattice\n"
        "from cplattice.kernels import backend_name\n"
        f"b = validate(ModelParams(mu=0.5, rho=1e-6), LatticeSpec(a_tilde={a}, half_extent={M}), Geometry(z_tilde={z}))\n"
        "t0 = time.perf_counter()\n"
        "s = sum_lattice(b, 'resonant')\n"
        "dt = time.perf_counter() - t0\n"
        "print(backend_name(), dt, s.resonant, s.terms_summed)\n"
    )
    if backend_env:
        env["CPLATTICE_FORCE_NUMPY_KERNELS"] = "1"
    else:
        env.pop("CPLATTICE_FORCE_NUMPY_KERNELS", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    name, dt, value, terms = out.stdout.split()
    return name, float(dt), float(value), int(terms)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--half-extent", type=int, default=4000)
    args = parser.parse_args()

    from cplattice.kernels import _numpy_backend, load_library
    rows = [("numpy", _numpy_backend)]
    lib = load_library()
    if lib is not None:
        rows.insert(0, ("c", lib))
    else:
        print("compiled library not built (no cc?); benchmarking the fallback only")

    a2, z2 = 1e-4, 0.04
    nx = 30000
    print(f"single octant row, nx = {nx}:")
    for name, mod in rows:
        rate = time_rows(mod, a2, z2, nx, reps=5)
        print(f"  {name:7s} {rate / 1e6:8.1f} M site terms/s")

    M = args.half_extent
    print(f"\nfull resonant sum, M = {M} ((2M+1)^2 = {(2 * M + 1) ** 2} sites, octant-reduced):")
    reduced = (M + 1) * (M + 2) // 2
    results = {}
    for force_numpy in (False, True):
        try:
            name, dt, value, terms = time_full_sum(force_numpy, M, 0.01, 0.3)
        except subprocess.CalledProcessError as exc:
            print(f"  (skipped: {exc})")
            continue
        results[name] = value
        print(f"  {name:7s} {dt:7.2f} s  ({reduced / dt / 1e6:7.1f} M reduced terms/s)  "
              f"shift = {value:.12e}")
    if len(results) == 2:
        a, b = results["c"], results["numpy"]
        print(f"\nbackend agreement: |rel diff| = {abs(a - b) / abs(b):.2e}")


if __name__ == "__main__":
    main()
