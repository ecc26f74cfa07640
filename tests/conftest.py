import pytest
from hypothesis import Phase, settings

from besicov import IrrationalSpec, make_cocycle, select_levels

# Reports a failing example as found, without shrinking it: a mutant that fails
# many examples is then killed in seconds (``tests/mutants.py`` runs with it).
settings.register_profile(
    "no-shrink", phases=tuple(p for p in settings.default.phases if p is not Phase.shrink)
)


@pytest.fixture(scope="session")
def golden():
    return IrrationalSpec.from_preset("golden")


@pytest.fixture(scope="session")
def sqrt2m1():
    return IrrationalSpec.from_preset("sqrt2m1")


@pytest.fixture(scope="session")
def greedy_profile(golden):
    return select_levels(golden, "greedy", "main", 6)


@pytest.fixture(scope="session")
def tent_profile(golden):
    return select_levels(golden, "greedy", "tent", 6)


@pytest.fixture(scope="session")
def greedy_cocycle(golden):
    # truncation pinned to the sampling depth used across the audit tests
    return make_cocycle(golden, "greedy", "main", 5, n_levels=5)


@pytest.fixture(scope="session")
def tent_cocycle(golden):
    return make_cocycle(golden, "greedy", "tent", 6, n_levels=6)
