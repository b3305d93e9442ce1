"""What importing and running the package loads.

``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.sparse.linalg``,
``scipy.fft`` and ``scipy.spatial``: about 0.3 s of every import, for code the
package does not run. A fresh interpreter imports ``cplattice``, runs the
direct sums and the decomposition for every orientation route and the CLI,
and must still not have loaded either module.
"""
import os
import subprocess
import sys
import textwrap

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
    print(" ".join(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
""")


def test_running_the_package_loads_no_scipy_integrate_or_optimize():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
