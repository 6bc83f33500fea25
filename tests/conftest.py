import pytest

from pgv.cohomology import fresh_solve_cache


@pytest.fixture(autouse=True)
def empty_solve_cache():
    """Every test starts from an empty cache of cohomology solves, so no
    result or solve count depends on the tests that ran before it."""
    with fresh_solve_cache():
        yield
