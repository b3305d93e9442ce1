"""Every top-level name in ``src/`` is read by the package or exported.

A function, class or constant defined at the top of a package module must be
read somewhere in the package or be in ``cplattice.__all__``: a name that
only the tests read belongs in the tests. The syntax trees resolve a read by
name: a bare name counts in its own module; ``module.name`` with ``module``
bound by a relative import, and ``from .module import name``, count in that
module; an attribute of any other object (``_impl.name``, whose backend is
chosen at import) counts in every other module.
"""
import ast
from pathlib import Path

import cplattice

SRC = Path(cplattice.__file__).resolve().parent.parent

# The names read only from outside the package, and by what
ALLOWED = {
    ("cplattice.kernels", "backend"): "the tests and the benchmark switch the row backend",
    ("cplattice.kernels", "backend_name"): "the tests and the benchmark name the row backend",
    ("cplattice.kernels._numpy_backend", "res_row"): "the tests' single-row oracle, as in C",
    ("cplattice.kernels", "res_row_zz"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.kernels", "res_row_zx"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.lattice_sum", "quad"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.specfun", "chi_minus_shi"): "perfbench's tracer; ROADMAP item 1a deletes",
}


def _modules():
    """Each package module's dotted name and its file."""
    for path in sorted((SRC / "cplattice").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), path


def _defined(tree):
    """The names that the module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(module, path, tree, modules):
    """The (module, name) pairs that the module reads."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    bound = {}  # a local name bound to a package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            source = ".".join(filter(None, (package.rsplit(".", node.level - 1)[0], node.module)))
            for alias in node.names:
                if f"{source}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
                else:
                    yield source, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in bound:
                yield bound[node.value.id], node.attr
            else:
                yield from ((other, node.attr) for other in modules if other != module)


def test_every_top_level_name_is_read_in_the_package_or_exported():
    modules = dict(_modules())
    trees = {module: ast.parse(path.read_text()) for module, path in modules.items()}
    read = {pair for module, tree in trees.items()
            for pair in _read(module, modules[module], tree, modules)}
    unread = {(module, name) for module, tree in trees.items() for name in _defined(tree)
              if (module, name) not in read and name not in cplattice.__all__
              and not name.startswith("__")}
    assert unread == set(ALLOWED)
