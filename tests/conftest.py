import pytest

from dirichletlab.arithmetic import build_sieve


@pytest.fixture(scope="session")
def table_small():
    # enough for every module-level test; prime list reaches 99991
    return build_sieve(10**5)
