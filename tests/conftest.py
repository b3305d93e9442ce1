import contextlib

import pytest

from cplattice import kernels


# the compiled run keeps the test's plain id, the NumPy run adds "numpy"
@pytest.fixture(params=[pytest.param("c", id=pytest.HIDDEN_PARAM), "numpy"])
def backend(request):
    """Runs the test on each row backend through ``kernels.backend``,
    skipping one that cannot load; yields that backend."""
    with contextlib.ExitStack() as stack:
        try:
            impl = stack.enter_context(kernels.backend(request.param))
        except RuntimeError as exc:
            pytest.skip(str(exc))
        yield impl
