"""Shared fixtures: a few small radix systems that every module exercises."""

import numpy as np
import pytest
from hypothesis import strategies as st

from vilenkin import build_radix_system

# radices 2..5, depth 1..4: M_N stays at most 625
small_systems = st.lists(st.integers(2, 5), min_size=1, max_size=4).map(
    lambda ms: build_radix_system(ms)
)


@pytest.fixture(scope="session")
def dyadic4():
    return build_radix_system([2], 4)


@pytest.fixture(scope="session")
def dyadic6():
    return build_radix_system([2], 6)


@pytest.fixture(scope="session")
def dyadic10():
    return build_radix_system([2], 10)


@pytest.fixture(scope="session")
def triadic():
    return build_radix_system([3], 4)


@pytest.fixture(scope="session")
def mixed():
    # one period of the 2,3,4 pattern: M_N = 24
    return build_radix_system([2, 3, 4])


@pytest.fixture(scope="session")
def mixed2():
    # two periods: M_N = 576
    return build_radix_system([2, 3, 4], 6)


def random_values(sys, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(sys.cells) + 1j * rng.standard_normal(sys.cells)
