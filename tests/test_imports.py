"""What importing and running the package loads.

``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.sparse.linalg``,
``scipy.fft`` and ``scipy.spatial``: about 0.3 s of every import, for code the
package does not run. ``scipy.linalg`` and its LAPACK and BLAS libraries
would come with ``scipy.special.roots_laguerre``; ``kernels`` holds the 56
nodes and weights it returns as literals instead. A fresh interpreter imports
``cplattice``, runs the direct sums and the decomposition for every
orientation route and the CLI, and must still not have loaded any of the
three modules, nor sympy or mpmath, which only the tests' oracles use (the
plane-wave coefficients of the resonant bulk are sympy's, kept as formulas).

Nor does a run load what only a rare branch needs. The key of the cached
compiled library is CPython's own SHA-256, not ``hashlib``'s OpenSSL;
``subprocess`` comes only with a build of the library, ``concurrent.futures``
(and ``logging``) only with a sum on more than one thread, and the
Gauss-Legendre rule is literals, not ``numpy.polynomial``.

``scipy.special`` clones the NumPy namespace on import (``numpy.f2py`` and
``scipy._lib.array_api_compat`` among some 280 modules). The compiled
backend computes Si and Ci itself, so those routes, the asymptotes and
``specfun.cosine_integral`` load none of it; the NumPy fallback imports
SciPy's sici, its oracle, at its first closed-form off-resonant site.

Nor does a compiled run load the NumPy fallback, ``kernels._numpy_backend``:
only selecting it imports it.
"""
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

SCRIPT = textwrap.dedent("""
    import contextlib, io, sys
    import cplattice
    from cplattice import cli

    def bundle(test, array):
        return cplattice.validate(
            cplattice.ModelParams(mu=0.5, rho=1e-6, test_dipole=test, array_dipole=array),
            cplattice.LatticeSpec(a_tilde=0.2, half_extent=3), cplattice.Geometry(z_tilde=0.4))

    pairs = [((0, 0, 1), (0, 0, 1)), ((0, 0, 1), (1, 0, 0)), ((0.6, 0, 0.8), (0, 0.6, 0.8))]
    for test, array in pairs:
        b = bundle(test, array)
        for kind in ("resonant", "off_resonant"):
            cplattice.sum_lattice(b, kind)
            cplattice.decompose(b, kind)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["decompose", "--mu", "0.5", "--a-tilde", "0.05",
                         "--z-tilde", "0.3"]) == 0
        assert cli.main(["sweep", "--a-tilde", "0.05", "--half-extent", "4",
                         "--z-min", "0.2", "--z-max", "0.4",
                         "--points-per-decade", "4"]) == 0
    print(" ".join(m for m in ("scipy.integrate", "scipy.optimize", "scipy.linalg", "sympy",
                               "mpmath") if m in sys.modules))
""")


def test_running_the_package_loads_no_scipy_integrate_or_optimize():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# SCRIPT's routes, then the asymptotes and Ci, on the compiled backend
SPECIAL = ("scipy.special", "scipy._lib.array_api_compat", "numpy.f2py")
COMPILED_SCRIPT = SCRIPT + textwrap.dedent(f"""
    from cplattice import asymptotics, kernels, specfun
    assert kernels.backend_name() == "c"
    for test, array in pairs[:2]:
        b = bundle(test, array)
        for regime in cplattice.all_regimes(b.orientation_label()):
            cplattice.asymptotic_shift(regime, b)
        asymptotics.full_closed_form(b.orientation_label(), b)
    specfun.cosine_integral(0.8)
    assert "cplattice.kernels._numpy_backend" not in sys.modules
    print(" ".join(m for m in {SPECIAL!r} if m in sys.modules))
""")

NUMPY_SCRIPT = textwrap.dedent("""
    import sys
    import cplattice
    from cplattice import kernels
    assert "cplattice.kernels._numpy_backend" in sys.modules
    print(kernels.backend_name(), "scipy.special" in sys.modules)
    b = cplattice.validate(cplattice.ModelParams(mu=0.5, rho=1e-6),
                           cplattice.LatticeSpec(a_tilde=0.2, half_extent=3),
                           cplattice.Geometry(z_tilde=0.4))
    cplattice.sum_lattice(b, "off_resonant")
    print("scipy.special" in sys.modules)
""")


def _run(script: str, force_numpy: bool) -> list[str]:
    """The stdout lines of script in a fresh interpreter on the package's
    source, on the NumPy fallback or, unless forced, the compiled backend."""
    env = dict(os.environ)
    env.pop("CPLATTICE_FORCE_NUMPY_KERNELS", None)
    if force_numpy:
        env["CPLATTICE_FORCE_NUMPY_KERNELS"] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


def test_only_the_numpy_fallback_loads_scipy_special():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    assert _run(COMPILED_SCRIPT, force_numpy=False) == ["", "", ""]
    assert _run(NUMPY_SCRIPT, force_numpy=True) == ["numpy False", "True", ""]


# SCRIPT's routes on one thread, on the compiled backend with its library
# built, then a sum on two threads where this process may use two CPUs
ON_DEMAND = ("_hashlib", "hashlib", "subprocess", "concurrent.futures", "logging",
             "numpy.polynomial")
ON_DEMAND_SCRIPT = SCRIPT + textwrap.dedent(f"""
    from cplattice import kernels, lattice_sum
    assert kernels.backend_name() == "c"
    print(" ".join(m for m in {ON_DEMAND!r} if m in sys.modules))
    if lattice_sum.usable_cpus() > 1:
        cplattice.sum_lattice(bundle(*pairs[0]), "resonant", threads=2)
    print(lattice_sum.usable_cpus() == 1 or "concurrent.futures" in sys.modules)
""")


def test_a_run_on_one_thread_loads_no_openssl_subprocess_pool_or_polynomial():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    assert _run(ON_DEMAND_SCRIPT, force_numpy=False) == ["", "", "True", ""]
