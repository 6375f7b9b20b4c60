"""Indexing layer: place values, digit expansions, radix-spec parsing."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    RadixSystem,
    build_radix_system,
    decompose,
    parse_radix_spec,
)


# A modest pool of systems for property tests: depth <= 5, radices <= 5,
# so exhaustive loops stay cheap.
small_systems = st.lists(st.integers(2, 5), min_size=1, max_size=5).map(
    lambda ms: build_radix_system(ms)
)


def test_products_and_cells(mixed):
    assert mixed.radices == (2, 3, 4)
    assert mixed.products == (1, 2, 6, 24)
    assert mixed.cells == 24
    assert mixed.depth == 3
    assert mixed.max_radix == 4


def test_decompose_known_values(dyadic4, mixed):
    assert decompose(dyadic4, 13) == (1, 0, 1, 1)
    # 7 = 1*1 + 0*2 + 1*6 in the (2,3,4) system
    assert decompose(mixed, 7) == (1, 0, 1)


def test_decompose_zero(mixed):
    assert decompose(mixed, 0) == (0, 0, 0)


def test_decompose_range_check(mixed):
    with pytest.raises(ValueError):
        decompose(mixed, 24)
    with pytest.raises(ValueError):
        decompose(mixed, -1)


@given(small_systems, st.data())
def test_compose_decompose_roundtrip(sys, data):
    n = data.draw(st.integers(0, sys.cells - 1))
    digits = decompose(sys, n)
    assert sum(d * M for d, M in zip(digits, sys.products)) == n
    assert len(digits) == sys.depth
    assert all(0 <= d < m for d, m in zip(digits, sys.radices))


def test_roundtrip_exhaustive(mixed2):
    for n in range(mixed2.cells):
        assert sum(d * M for d, M in zip(decompose(mixed2, n), mixed2.products)) == n


def test_build_cycles_pattern():
    sys = build_radix_system([2, 3, 4], 9)
    assert sys.radices == (2, 3, 4, 2, 3, 4, 2, 3, 4)
    assert build_radix_system([2], 3).radices == (2, 2, 2)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_radix_system([])
    with pytest.raises(ValueError):
        build_radix_system([1, 2])
    with pytest.raises(ValueError):
        build_radix_system([2, 3], 0)


def test_overflow_guard():
    with pytest.raises(ValueError, match="overflow"):
        build_radix_system([2], 64)


@pytest.mark.parametrize("build", [
    lambda: build_radix_system([2], 10**7),
    lambda: build_radix_system([2, 3, 4], 10**7),
    lambda: parse_radix_spec("2^10000000"),
], ids=["walsh", "mixed", "spec"])
def test_oversized_depth_fails_fast(build):
    # the cell count overflows within 63 levels, so no longer tuple is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="depth too large.*at level"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_parse_radix_spec():
    assert parse_radix_spec("2^10").radices == tuple([2] * 10)
    assert parse_radix_spec("2,3,4").radices == (2, 3, 4)
    assert parse_radix_spec(" 3 ^ 7 ").cells == 2187
    assert parse_radix_spec("2,3,4", depth=9).cells == 13824
    # explicit depth overrides the exponent
    assert parse_radix_spec("2^10", depth=3).cells == 8


def test_parse_radix_spec_errors():
    for bad in ("", "2,,3", "x", "2^0", "1^4"):
        with pytest.raises(ValueError):
            parse_radix_spec(bad)


def test_truncate(mixed2):
    sub = mixed2.truncate(3)
    assert sub.radices == (2, 3, 4)
    with pytest.raises(ValueError):
        mixed2.truncate(0)
    with pytest.raises(ValueError):
        mixed2.truncate(7)


def test_spec_string_roundtrip(dyadic10, mixed):
    assert dyadic10.spec_string() == "2^10"
    assert mixed.spec_string() == "2,3,4"
    for sys in (dyadic10, mixed):
        assert parse_radix_spec(sys.spec_string()) == sys


@settings(max_examples=30)
@given(small_systems)
def test_spec_string_parses_back(sys):
    assert parse_radix_spec(sys.spec_string()).radices == sys.radices
