"""NumPy's error state is set in one place in ``src/``.

A value that is not finite is reported once, as a ``QuadratureFailure``,
with no NumPy warning first. The error state that silences those warnings
is one decision: ``lattice_sum.quiet_nonfinite`` is the one function that
calls ``np.errstate`` (or names ``seterr``), and the site terms, the direct
sums and the ray integrals enter it.
"""
import ast
from pathlib import Path

import cplattice

SRC = Path(cplattice.__file__).resolve().parent

# The functions that evaluate site kernels under the error state
ENTER = {("lattice_sum", "site_term"), ("lattice_sum", "sum_lattice"),
         ("euler_maclaurin", "_ray_integral")}


def _functions():
    """(module, function, node) of every top-level statement of the package's
    modules, with the function's name where it defines one, else None."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield module, node.name, node
            else:  # a module-level call, or one in a class body
                yield module, None, node


def _names(node):
    """Every name and attribute read under the node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_np_errstate_is_called_in_one_place():
    where = [(module, name) for module, name, node in _functions()
             for word in _names(node) if word in ("errstate", "seterr")]
    assert where == [("lattice_sum", "quiet_nonfinite")]


def test_site_kernels_run_in_the_one_error_state():
    entered = {(module, name) for module, name, node in _functions()
               for w in ast.walk(node) if isinstance(w, ast.With)
               for item in w.items if isinstance(item.context_expr, ast.Call)
               and "quiet_nonfinite" in _names(item.context_expr.func)}
    assert entered == ENTER
