import contextlib

import pytest

from cplattice import kernels

# the compiled run keeps the test's plain id, the NumPy run adds "numpy"
BACKENDS = [pytest.param("c", id=pytest.HIDDEN_PARAM), "numpy"]


def _switched(name):
    """Puts the row backend ``name`` in place through ``kernels.backend``,
    skipping one that cannot load; yields that backend."""
    with contextlib.ExitStack() as stack:
        try:
            impl = stack.enter_context(kernels.backend(name))
        except RuntimeError as exc:
            pytest.skip(str(exc))
        yield impl


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Runs the test on each row backend."""
    yield from _switched(request.param)


@pytest.fixture(scope="module", params=BACKENDS)
def module_backend(request):
    """Runs the module's tests on each row backend, switching it once."""
    yield from _switched(request.param)
