"""The design rules of ``src/`` and of the tests, checked on their source.

Each package module is parsed once, into ``MODULES``, and each module under
``tests/`` once, into ``TESTS``. The rules: each name that only perfbench's
tracer looks up (it wraps every name with a plain ``getattr``) is one bare
``name = None``; SciPy is imported in two functions and ``scipy.integrate``
nowhere; ``lattice_sum.quiet_nonfinite`` alone sets NumPy's error state,
and the site kernels run in it, so a value that is not finite is reported
once, with no NumPy warning first; every top-level name is read in the
package or exported; only ``kernels.backend`` and ``backend_name`` know
which backend is in place; every export of ``_rows.c`` is called through
``kernels._impl`` or is one of the tests' named probes; only
``kernels.table_ranks`` turns a distance table's rank steps into ranks
outside kernels, and only kernels reads the table's bounds
(``TABLE_SITE_CAP``, ``TABLE_ROWS``); only the kernels and the model
subscript a dipole pair,
so the rule of the vanishing origin stays in the kernels; no test module
imports another; and none pins bits by hand, which is the ledger's one
record, or reads the ledger but ``test_ledger.py``, its one check; and
every public route that takes ``heights=`` is in ``reference.HEIGHT_ROUTES``,
the table of the battery of that contract.
"""
import ast
import inspect
import re
from pathlib import Path

from reference import HEIGHT_ROUTES

import cplattice
from cplattice import kernels
from cplattice.kernels import _numpy_backend

SRC = Path(cplattice.__file__).resolve().parent.parent
TESTS_DIR = Path(__file__).resolve().parent


def _package():
    """Each package module's dotted name, and its file, source and syntax tree."""
    for path in sorted((SRC / "cplattice").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        source = path.read_text()
        yield (".".join(parts[:-1] if parts[-1] == "__init__" else parts),
               (path, source, ast.parse(source)))


MODULES = dict(_package())
TESTS = {path: ast.parse(path.read_text()) for path in sorted(TESTS_DIR.rglob("*.py"))}
C_SOURCE = kernels._SOURCE.read_text()

# The names read only from outside the package, and by what
ALLOWED = {
    ("cplattice.kernels", "backend"): "the tests and the benchmark switch the row backend",
    ("cplattice.kernels", "backend_name"): "the tests and the benchmark name the row backend",
    ("cplattice.kernels", "res_row_zz"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.kernels", "res_row_zx"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.lattice_sum", "quad"): "perfbench's tracer; ROADMAP item 1a deletes",
    ("cplattice.specfun", "chi_minus_shi"): "perfbench's tracer and test_acceptance's criterion 10",
    ("cplattice.specfun", "cosine_integral"): "perfbench's tracer and the tests",
}

# The names that no run calls, kept only for the tracer's getattr
STAND_INS = {("cplattice.kernels", "res_row_zz"), ("cplattice.kernels", "res_row_zx"),
             ("cplattice.lattice_sum", "quad")}

# The exports of _rows.c that only the tests call, each to probe a piece of
# the compiled arithmetic: the reduced sin/cos, libm's, and the
# Gauss-Laguerre branch of the off-resonant site kernel
PROBES = {"sincos_probe", "libm_sincos", "phi_laguerre"}

# The functions that import SciPy
SCIPY_IMPORTS = {("cplattice.kernels._numpy_backend", "sici"),
                 ("cplattice.specfun", "exp_integral_e1")}

# The functions that evaluate site kernels under the error state
ENTER = {("cplattice.lattice_sum", "site_term"), ("cplattice.lattice_sum", "sum_lattice"),
         ("cplattice.euler_maclaurin", "_ray_integral")}

# The modules under tests/ that a test module may import
HELPERS = {"reference", "ledger"}

# kernels' backend state, which only kernels.backend swaps: the names of its
# global statement
_SWAPPED = {name for node in MODULES["cplattice.kernels"][2].body
            if isinstance(node, ast.FunctionDef) and node.name == "backend"
            for g in ast.walk(node) if isinstance(g, ast.Global) for name in g.names}

# The table layout's bounds, which only kernels reads
TABLE_BOUNDS = {"TABLE_SITE_CAP", "TABLE_ROWS"}

# A normal number's float.hex (zeros such as 0x0.0p+0 stay, for special
# values), or a quoted 16-hex-digit hash prefix
PINNED_BITS = re.compile(r"0x1\.[0-9a-f]{13}p[-+]\d+|[\"'][0-9a-f]{16}[\"']")


def _top_level():
    """(module, function, node) of every top-level statement of the package's
    modules, with the function's name where it defines one, else None."""
    for module, (_, _, tree) in MODULES.items():
        for node in tree.body:
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield module, node.name if function else None, node


def _names(node):
    """Every name and attribute read under the node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _imported(node):
    """The dotted names an import statement takes its names from."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _bound(node):
    """The names that a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).partition(".")[0] for a in node.names]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read(module, path, tree):
    """The (module, name) pairs that the module reads: a bare name in its own
    module; ``module.name`` with ``module`` bound by a relative import, and
    ``from .module import name``, in that module; an attribute of any other
    object (``_impl.name``, whose backend is chosen at import) in every
    other module."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    bound = {}  # a local name bound to a package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            source = ".".join(filter(None, (package.rsplit(".", node.level - 1)[0], node.module)))
            for alias in node.names:
                if f"{source}.{alias.name}" in MODULES:
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
                yield from ((other, node.attr) for other in MODULES if other != module)


def _swaps(node) -> bool:
    """Whether the node assigns or deletes one of kernels' _SWAPPED names, by
    a statement or by a setattr/delattr call (monkeypatch's included)."""
    def named(owner, attr):
        return attr in _SWAPPED and ast.unparse(owner).split(".")[-1] == "kernels"

    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(isinstance(t, ast.Attribute) and named(t.value, t.attr) for t in targets)
    if isinstance(node, ast.Call) and node.args and getattr(
            node.func, "attr", getattr(node.func, "id", None)) in ("setattr", "delattr"):
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            owner, _, attr = first.value.rpartition(".")  # monkeypatch's "pkg.mod.name" form
            return attr in _SWAPPED and owner.split(".")[-1] == "kernels"
        second = node.args[1] if len(node.args) > 1 else None
        return isinstance(second, ast.Constant) and named(first, second.value)
    return False


# ---------------------------------------------------------------------------
# perfbench's stand-ins and SciPy

def test_every_tracer_stand_in_is_a_bare_none():
    assert STAND_INS <= ALLOWED.keys()
    for module, name in STAND_INS:
        bindings = [node for node in MODULES[module][2].body if name in _bound(node)]
        assert len(bindings) == 1, (module, name)
        node = bindings[0]
        assert isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets)
        assert isinstance(node.value, ast.Constant) and node.value.value is None, (module, name)


def test_no_module_imports_or_mentions_scipy_integrate():
    files = [path for path, _, _ in MODULES.values()] + sorted((SRC / "cplattice").rglob("*.c"))
    sources = {path.relative_to(SRC).as_posix(): path.read_text() for path in files}
    assert len(sources) == len(files) and "cplattice/kernels/_rows.c" in sources
    assert [name for name, source in sources.items() if "scipy.integrate" in source] == []


def test_scipy_is_imported_in_two_functions_only():
    where = {(module, name) for module, name, top in _top_level() for node in ast.walk(top)
             if any(n.partition(".")[0] == "scipy" for n in _imported(node))}
    assert where == SCIPY_IMPORTS


# ---------------------------------------------------------------------------
# NumPy's error state

def test_np_errstate_is_called_in_one_place():
    where = [(module, name) for module, name, node in _top_level()
             for word in _names(node) if word in ("errstate", "seterr")]
    assert where == [("cplattice.lattice_sum", "quiet_nonfinite")]


def test_site_kernels_run_in_the_one_error_state():
    entered = {(module, name) for module, name, node in _top_level()
               for w in ast.walk(node) if isinstance(w, ast.With)
               for item in w.items if isinstance(item.context_expr, ast.Call)
               and "quiet_nonfinite" in _names(item.context_expr.func)}
    assert entered == ENTER


# ---------------------------------------------------------------------------
# unused names

def test_every_top_level_name_is_read_in_the_package_or_exported():
    # a name that only the tests read belongs in the tests
    read = {pair for module, (path, _, tree) in MODULES.items()
            for pair in _read(module, path, tree)}
    defined = {(module, name) for module, (_, _, tree) in MODULES.items() for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom)) for name in _bound(node)}
    unread = {(module, name) for module, name in defined
              if (module, name) not in read and name not in cplattice.__all__
              and not name.startswith("__")}
    assert unread == set(ALLOWED)


# ---------------------------------------------------------------------------
# the row backends

def test_no_test_swaps_the_backend_but_the_switch():
    # kernels.backend stays the one place that swaps the backend state
    found = [f"{path.name}:{node.lineno}" for path, tree in TESTS.items()
             for node in ast.walk(tree) if _swaps(node)]
    assert _SWAPPED == {"_impl", "_tables"} and found == []


def test_every_static_function_of_the_library_is_called():
    # -Wall -Wextra does not flag a static inline function that nothing
    # calls, so a helper left behind would stay in _rows.c unnoticed
    source = re.sub(r"/\*.*?\*/", "", C_SOURCE, flags=re.S)
    defined = re.findall(r"^static [\w ]*?\**(\w+)\(", source, re.M)
    assert "sin_branchless" in defined and "ray_panel" in defined
    assert [name for name in defined if len(re.findall(rf"\b{name}\(", source)) < 2] == []


def test_numpy_backend_takes_the_compiled_signatures():
    # a wrapper makes one call through _impl that runs on either backend, so
    # each export it calls so has a NumPy twin of the same name and parameter
    # count
    called = set(re.findall(r"\b_impl\.(\w+)", MODULES["cplattice.kernels"][1]))
    assert called == {"res_rows", "distance_table", "offres_sites", "offres_points",
                      "res_points", "ray_rotated", "panel_sums", "sici"}
    exported = {name: params.split(",") for _, name, params in
                re.findall(r"^(\w+) (\w+)\(([^)]*)\)$", C_SOURCE, re.M)}
    for name in called:
        twin = inspect.signature(getattr(_numpy_backend, name)).parameters
        assert len(twin) == len(exported[name]), name


def test_every_export_is_called_through_the_backend_or_is_a_probe():
    # an export that no wrapper reaches through _impl is a test-only entry
    # point: unless it is a named probe, it is a second path beside the
    # wrappers' one, which the tests would check in its place. The rows
    # take one call, with a distance table or the empty one
    source = MODULES["cplattice.kernels"][1]
    exported = set(re.findall(r"^\w+ (\w+)\([^)]*\)$", C_SOURCE, re.M))
    called = set(re.findall(r"\b_impl\.(\w+)", source))
    assert called <= exported and exported - called == PROBES
    assert len(re.findall(r"\b_impl\.res_rows\(", source)) == 1


def test_only_the_switch_and_the_name_test_the_backend():
    # each wrapper makes one backend call: the backends run one algorithm,
    # so no other function of kernels tests which backend _impl is, by its
    # type or by comparing it, and neither compares it with the NumPy module
    def tests_impl(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "type"):
            return any(isinstance(a, ast.Name) and a.id == "_impl" for a in node.args)
        return isinstance(node, ast.Compare) and any(
            isinstance(o, ast.Name) and o.id == "_impl" for o in (node.left, *node.comparators))

    found = [(getattr(node, "name", None), c)
             for node in MODULES["cplattice.kernels"][2].body
             for c in ast.walk(node) if tests_impl(c)]
    assert {name for name, _ in found} == {"backend", "backend_name"}
    assert all(ast.unparse(c) == "isinstance(_impl, ctypes.CDLL)" for _, c in found)


def test_only_kernels_turn_the_table_steps_into_ranks():
    # a distance table's rank steps are kernels' format, which its two
    # backends share: outside kernels each distance_table call is unpacked
    # into (d2, step), and a step array is only counted (.size) or passed
    # to kernels.table_ranks, the one function that decodes it
    found, decoded = [], []
    for module, (_, _, tree) in MODULES.items():
        if module.startswith("cplattice.kernels"):
            continue
        unpacked = {id(node.value): node.targets[0].elts[1].id for node in ast.walk(tree)
                    if isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Tuple) and len(node.targets[0].elts) == 2
                    and all(isinstance(t, ast.Name) for t in node.targets[0].elts)}
        steps, passed = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "distance_table" in _names(node.func):
                if id(node) not in unpacked:
                    found.append(f"{module}:{node.lineno}")
                steps.add(unpacked.get(id(node)))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "kernels.table_ranks":
                passed |= {id(a) for a in node.args}
                decoded.append(module)
            elif isinstance(node, ast.Attribute) and node.attr == "size":
                passed.add(id(node.value))
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in steps and id(node) not in passed
                  and isinstance(node.ctx, ast.Load)]
    assert found == [] and decoded == ["cplattice.lattice_sum"]


def test_only_kernels_read_the_table_bounds():
    # kernels states which ranges have a distance table (the empty one past
    # TABLE_SITE_CAP sites) and the rows it holds: no other module restates
    # its layout from them
    found = [f"{module}:{node.lineno}" for module, (_, _, tree) in MODULES.items()
             if not module.startswith("cplattice.kernels") for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
             and {getattr(node, key, None) for key in ("id", "attr", "name")} & TABLE_BOUNDS]
    assert found == []


def test_only_the_fallback_selection_imports_the_numpy_backend():
    # the NumPy module is the fallback and no more: no other module of the
    # package imports it, and kernels only in the function that selects it
    importing = [(module, name) for module, name, top in _top_level()
                 for node in ast.walk(top) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and any("_numpy_backend" in imported.split(".") for imported in
                         [*_imported(node), *(a.name for a in node.names)])]
    assert importing == [("cplattice.kernels", "_fallback")]


# ---------------------------------------------------------------------------
# the vanishing origin

def test_only_the_kernels_and_the_model_read_the_dipole_pair():
    # the kernels state the one rule of the origin of a pair whose term
    # vanishes there (e0.en = e0_z en_z = 0): no other module subscripts the
    # pair (bundle.pair, which the model builds) to state it again
    found = [f"{module}:{node.lineno}" for module, (_, _, tree) in MODULES.items()
             if not module.startswith("cplattice.kernels") and module != "cplattice.model"
             for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             and ast.unparse(node.value).split(".")[-1] == "pair"]
    assert found == []
    sources = [source for _, source, _ in MODULES.values()] + [C_SOURCE]
    assert [s for s in sources if "vanishes_at_origin" in s] == []


# ---------------------------------------------------------------------------
# the tests' own modules

def test_no_test_module_imports_another():
    # a test module takes helpers from reference and ledger and fixtures
    # from conftest by name: importing another test module (or conftest)
    # runs its module-level code and ties the two together
    local = {path.stem for path in TESTS}
    found = [f"{path.name}:{node.lineno}" for path, tree in TESTS.items()
             for node in ast.walk(tree)
             if any(name.partition(".")[0] in local - HELPERS for name in _imported(node))]
    assert found == []


def test_only_the_ledger_test_imports_the_ledger():
    # test_ledger.py checks each pinned bit once, in its route group: a test
    # module that read the ledger could check its values case by case again
    found = [f"{path.name}:{node.lineno}" for path, tree in TESTS.items()
             if path.name != "test_ledger.py" for node in ast.walk(tree)
             if "ledger" in (name.partition(".")[0] for name in _imported(node))]
    assert found == []


def test_no_test_module_pins_bits_by_hand():
    # tests/ledger.json is the one record of pinned bits: a value pinned in
    # a test module would be a second one, to find and retype when it moves
    found = [f"{path.name}:{n}" for path in TESTS
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if PINNED_BITS.search(line)]
    assert found == []


def test_every_public_route_with_heights_is_in_the_heights_battery():
    # test_euler_maclaurin's battery checks the heights= contract of each
    # route of HEIGHT_ROUTES: a new route that takes heights must join it
    takes = {name for name in cplattice.__all__ if inspect.isfunction(getattr(cplattice, name))
             and "heights" in inspect.signature(getattr(cplattice, name)).parameters}
    assert takes == set(HEIGHT_ROUTES)
