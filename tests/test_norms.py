"""Lebesgue constants, variation statistics, and the two-sided bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from vilenkin import (
    StepFunction,
    build_radix_system,
    cumulative_l1_norms,
    dirichlet_kernel,
    lebesgue_constant,
    l1_norm,
    lebesgue_scan,
    max_lebesgue_log_ratio,
    variation_bound_arrays,
    variation_profile,
    variation_sum,
    variation_values,
)
from vilenkin import experiments, norms
from vilenkin.experiments import run_lebesgue_scan
from conftest import small_systems


def test_l1_norm_basics(mixed):
    f = StepFunction(mixed, np.full(mixed.cells, 3.0))
    assert l1_norm(f) == pytest.approx(3.0)


def test_block_kernel_l1_is_one(dyadic6, triadic, mixed):
    # D_{M_n} has value M_n on a set of measure 1/M_n
    for sys in (dyadic6, triadic, mixed):
        for n in range(sys.depth + 1):
            f = dirichlet_kernel(sys, sys.products[n])
            assert l1_norm(f) == pytest.approx(1.0, abs=1e-12)


def test_lebesgue_frozen_dyadic(dyadic6):
    assert lebesgue_constant(dyadic6, 1) == pytest.approx(1.0)
    assert lebesgue_constant(dyadic6, 2) == pytest.approx(1.0)
    assert lebesgue_constant(dyadic6, 3) == pytest.approx(1.5)
    assert lebesgue_constant(dyadic6, 5) == pytest.approx(1.75)


def test_lebesgue_depth_invariance(dyadic6, dyadic10, mixed, mixed2):
    # D_n is measurable at rank order(n)+1, so deeper systems agree
    for n in (1, 3, 5, 7, 33, 63):
        assert lebesgue_constant(dyadic6, n) == pytest.approx(
            lebesgue_constant(dyadic10, n), abs=1e-9
        )
    for n in (1, 5, 23):
        assert lebesgue_constant(mixed, n) == pytest.approx(
            lebesgue_constant(mixed2, n), abs=1e-9
        )


def test_lebesgue_rejects_zero(mixed):
    with pytest.raises(ValueError):
        lebesgue_constant(mixed, 0)
    for lo, hi in ((0, 3), (5, 4), (1, mixed.cells + 1)):
        with pytest.raises(ValueError, match=rf"scan range \[{lo}, {hi}\] outside \[1, 24\]"):
            lebesgue_scan(mixed, lo, hi)


def test_lebesgue_scan_matches_single(mixed):
    # the closed form against the Dirichlet-kernel route at every n
    for sys in (mixed, build_radix_system([5, 2, 7], 6)):
        scan = lebesgue_scan(sys, 1, sys.cells - 1)
        assert scan.shape == (sys.cells - 1,)
        for n in range(1, sys.cells):
            assert scan[n - 1] == pytest.approx(lebesgue_constant(sys, n), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_systems)
def test_lebesgue_scan_matches_cumulative_scan(sys):
    # the closed form against the unit-weight running character sum, n = 1 .. M_N
    ones = np.ones(sys.cells, dtype=np.complex128)
    want = cumulative_l1_norms(sys, ones, 1, sys.cells)[0]
    got = lebesgue_scan(sys, 1, sys.cells)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert got[-1] == 1.0


@pytest.mark.parametrize("radices,depth", [([2], 12), ([3], 8), ([2, 3, 4], 9), ([5, 2, 7], 6)])
def test_piece_routes_agree(radices, depth):
    # heads of 1e-300 move no norm beyond rounding, but send every piece
    # through the mean over roots of unity; zero heads take |rest + tail|
    sys = build_radix_system(radices, depth)
    zero = np.zeros(depth + 1)
    for a in range(depth):
        js = np.arange(1, sys.products[a + 1] + 1)
        want = norms._piece_norms(sys, a, 1.0, zero, js)
        got = norms._piece_norms(sys, a, 1.0, zero + 1e-300, js)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        if a == depth - 1:
            np.testing.assert_array_equal(want, lebesgue_scan(sys, 1, sys.cells))


def test_lebesgue_scan_tables_only_the_digits_that_occur():
    # on 65536^1 a full table would hold 2^32 entries; L_1 .. L_10 need
    # eleven columns, within the guard's estimate of them
    sys = build_radix_system([65536], 1)
    lebesgue_scan(sys, 1, 2)
    tracemalloc.start()
    try:
        got = lebesgue_scan(sys, 1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= experiments._table_bytes(sys, 1, 10)
    want = [lebesgue_constant(sys, n) for n in range(1, 11)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# variation statistics


def test_variation_enumeration_dyadic(dyadic6):
    """First seven values on the dyadic system: 2,2,2,2,4,2,2."""
    want = [2, 2, 2, 2, 4, 2, 2]
    got = [variation_profile(dyadic6, n).v for n in range(1, 8)]
    assert got == want


def test_variation_profile_mixed_radix():
    sys = build_radix_system([4, 4])
    p = variation_profile(sys, 2)  # digits (2, 0)
    assert p.delta == (1, 0)
    assert p.delta_star == (1, 0)  # |(4-2) mod 4 - 1| = 1
    assert p.v == 2
    assert p.v_star == 1


def test_delta_star_literal_formula(mixed2):
    from vilenkin import decompose

    for n in (0, 1, 7, 100, 311, 575):
        p = variation_profile(mixed2, n)
        digits = decompose(mixed2, n)
        for j, (d, m) in enumerate(zip(digits, mixed2.radices)):
            want = abs(((m - d) % m) - 1) * (1 if d else 0)
            assert p.delta_star[j] == want


def test_dyadic_v_star_vanishes(dyadic10):
    _, v_star = variation_values(dyadic10, np.arange(dyadic10.cells))
    assert not v_star.any()


def test_variation_values_match_profile(mixed2):
    ns = np.arange(mixed2.cells)
    v, v_star = variation_values(mixed2, ns)
    for n in range(0, mixed2.cells, 37):
        p = variation_profile(mixed2, n)
        assert v[n] == p.v and v_star[n] == p.v_star
    # v(n) >= 1 whenever n >= 1
    assert v[1:].min() >= 1
    assert v[0] == 0


def test_variation_values_range_check(mixed):
    with pytest.raises(ValueError):
        variation_values(mixed, np.array([mixed.cells]))


# ---------------------------------------------------------------------------
# the two-sided bound


def _column(report, name):
    return report.table.data[report.table.columns.index(name)]


def test_bound_check_frozen_dyadic(dyadic6):
    # n=1..3: v=2, v*=0, lambda=2 -> bounds [0.5, 2] around L = 1, 1, 1.5
    rep = run_lebesgue_scan(dyadic6, 1, 3, 1e-9)
    assert _column(rep, "n").tolist() == [1, 2, 3]
    assert _column(rep, "v").tolist() == [2, 2, 2]
    assert _column(rep, "v_star").tolist() == [0, 0, 0]
    assert _column(rep, "lower_bound") == pytest.approx([0.5] * 3)
    assert _column(rep, "upper_bound") == pytest.approx([2.0] * 3)
    assert _column(rep, "L_n") == pytest.approx([1.0, 1.0, 1.5])
    assert _column(rep, "lower_slack") == pytest.approx([0.5, 0.5, 1.0])
    assert _column(rep, "upper_slack") == pytest.approx([1.0, 1.0, 0.5])
    assert rep.violations == 0


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_bound_check_counts_slacks_below_minus_tol(dyadic6, monkeypatch, side):
    # a bound moved 0.25 past L_n = 1, 1, 1.5 (exact in binary) leaves that
    # slack at -0.25 in every row: within a tolerance of 0.25, beyond 0.125
    lebesgue = np.array([1.0, 1.0, 1.5])
    if side == "lower":
        bounds = (lebesgue + 0.25, np.full(3, 2.0))
    else:
        bounds = (np.full(3, 0.5), lebesgue - 0.25)
    monkeypatch.setattr(experiments, "variation_bound_arrays", lambda v, v_star, lam: bounds)
    assert run_lebesgue_scan(dyadic6, 1, 3, 0.25).violations == 0
    assert run_lebesgue_scan(dyadic6, 1, 3, 0.125).violations == 3


def test_bounds_hold_exhaustively(dyadic6, triadic, mixed2):
    # 2^20 and (2,3,4)x4 take every n below about 10^6 and 3.3 * 10^5
    dyadic20 = build_radix_system([2], 20)
    for sys in (dyadic6, triadic, mixed2, dyadic20, build_radix_system([2, 3, 4], 12)):
        lebesgue = lebesgue_scan(sys, 1, sys.cells - 1)
        v, v_star = variation_values(sys, np.arange(1, sys.cells))
        lower, upper = variation_bound_arrays(v, v_star, sys.max_radix)
        assert lebesgue.size == sys.cells - 1
        assert (lebesgue - lower).min() >= 0, f"lower bound fails on {sys.spec_string()}"
        assert (upper - lebesgue).min() >= 0, f"upper bound fails on {sys.spec_string()}"
        if sys is dyadic20:
            # the largest L_n (699051) and the tightest upper slack (M_N - 1)
            for n in (1, 3, 699051, sys.cells - 1):
                assert lebesgue[n - 1] == pytest.approx(
                    lebesgue_constant(sys, n), abs=1e-12
                )


def test_scan_accepts_precomputed_norms(mixed):
    # the bound scan reads L_n from the closed form, exactly
    rep = run_lebesgue_scan(mixed, 1, 10, 1e-9)
    np.testing.assert_array_equal(_column(rep, "L_n"), lebesgue_scan(mixed, 1, 10))
    for lo, hi in ((0, 5), (3, 2), (1, mixed.cells)):
        with pytest.raises(ValueError, match="bound scan range"):
            run_lebesgue_scan(mixed, lo, hi, 1e-9)


def test_bound_arrays_shapes():
    lower, upper = variation_bound_arrays(np.array([2, 4]), np.array([0, 1]), 4)
    assert lower == pytest.approx([2 / 16 + 1 / 8, 4 / 16 + 1 / 4 + 1 / 8])
    assert upper == pytest.approx([2.0, 9.0])


# ---------------------------------------------------------------------------
# the averaged lower bound


def test_variation_average_frozen(dyadic6):
    # sum v(1..7) = 16 over M_3 = 8, and v(1) = 2 over M_1 = 2
    assert variation_sum(dyadic6, 3) == 16
    assert variation_sum(dyadic6, 1) == 2


def test_variation_average_positive_floor(dyadic10, triadic, mixed2):
    for sys in (dyadic10, triadic, mixed2):
        for n in range(1, sys.depth + 1):
            assert variation_sum(sys, n) / (n * sys.products[n]) > 0.05


@settings(max_examples=40, deadline=None)
@given(small_systems)
def test_variation_sum_is_the_literal_sum(sys):
    for n in range(1, sys.depth + 1):
        want = sum(variation_profile(sys, k).v for k in range(1, sys.products[n]))
        got = variation_sum(sys, n)
        assert type(got) is int and got == want


def test_variation_average_validation(mixed):
    with pytest.raises(ValueError):
        variation_sum(mixed, 0)
    with pytest.raises(ValueError):
        variation_sum(mixed, mixed.depth + 1)


def test_max_lebesgue_log_ratio():
    ratio, at_n = max_lebesgue_log_ratio(np.array([1.0, 1.0, 1.5]), 1)
    assert at_n == 2
    assert ratio == pytest.approx(1.0 / math.log(2.0))
    # a range with no n >= 2 has nothing to report
    assert max_lebesgue_log_ratio(np.array([1.0]), 1) == (0.0, 0)
