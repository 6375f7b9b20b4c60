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


def table_rows(table):
    """The rows of a report table as tuples of Python ints and floats."""
    return list(zip(*(col.tolist() for col in table.data)))


def random_values(sys, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(sys.cells) + 1j * rng.standard_normal(sys.cells)


# ---------------------------------------------------------------------------
# oracle: the transform in its previous (strided) layout


def strided_level_pass(view, inverse):
    """One level of the transform in place order, the oracle for the
    self-sorting spectral._level_pass: the length-m DFTs along the middle
    axis of view (-1, m, M_j), where digit j sits, as an array of the same
    shape.  The same butterflies as the self-sorting pass, in the strided
    layout the library used before it."""
    if view.shape[1] == 2:
        out = np.empty(view.shape, dtype=np.complex128)
        np.add(view[:, 0], view[:, 1], out=out[:, 0])
        np.subtract(view[:, 0], view[:, 1], out=out[:, 1])
        if not inverse:
            out *= 0.5
        return out
    dft = np.fft.ifft if inverse else np.fft.fft
    return dft(view, axis=1, norm="forward")


def strided_transform(sys, arr, inverse):
    """spectral._transform through strided_level_pass (oracle)."""
    out = arr
    r = sys.products.index(arr.shape[-1])
    for M_j, m in zip(sys.products[:r], sys.radices[:r]):
        out = strided_level_pass(out.reshape(-1, m, M_j), inverse)
    return out.reshape(arr.shape)


def strided_block_heads(sys, coeffs):
    """spectral._block_heads through strided_level_pass (oracle): after
    levels 0 .. n-1 the first M_n entries of a row are S_{M_n} f on G_n."""
    count = coeffs.shape[0]
    out = coeffs
    heads = [out[:, :1].copy()]
    for M_j, m in zip(sys.products[:-1], sys.radices):
        out = strided_level_pass(out.reshape(-1, m, M_j), True).reshape(count, -1)
        heads.append(out[:, : m * M_j].copy())
    return heads
