import pytest

from polybell.pbell import _recurrence_table, pbell_column, pbell_explicit, pbell_gen_bernoulli
from polybell.special_numbers import CACHE, reset_cache


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with empty memo triangles, so cache pokes
    in fault-injection tests can never leak.  A test that stubs a cache method
    patches ``TriangleCache``: patching the ``CACHE`` instance leaves a bound
    method in its ``__dict__`` after undo, which hides later class patches."""
    reset_cache()
    yield
    reset_cache()
    leaked = {"get", "put", "fill_rows", "rows", "force"} & set(vars(CACHE))
    assert not leaked, f"a test left {sorted(leaked)} patched on the CACHE instance"


@pytest.fixture
def route_column():
    """``route_column(name, n_max, p)`` is [B_{0,p}, ..., B_{n_max,p}] by the
    route ``ROUTES[name]``: one sweep where the route builds whole columns,
    one call per n where it does not."""
    columns = {
        "explicit": lambda n_max, p: [pbell_explicit(n, p) for n in range(n_max + 1)],
        "recurrence": _recurrence_table,
        "ztriangle": pbell_column,
        "genbernoulli": lambda n_max, p: [pbell_gen_bernoulli(n, p) for n in range(n_max + 1)],
    }
    return lambda name, n_max, p: columns[name](n_max, p)
