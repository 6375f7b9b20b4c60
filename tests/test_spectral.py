"""Characters, fast/naive transforms, kernels, and the cumulative scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    SpectralVector,
    StepFunction,
    build_radix_system,
    cell_index,
    character_block,
    character_column,
    cumulative_l1_norms,
    dirichlet_kernel,
    fejer_l1_norms,
    fejer_mean,
    forward_fast,
    forward_naive,
    group_add,
    inverse_transform,
    partial_sum,
    rademacher,
    vilenkin_char,
)
from conftest import random_values, small_systems


# ---------------------------------------------------------------------------
# characters


def test_rademacher_dyadic_is_sign(dyadic4):
    for t in range(dyadic4.cells):
        x = cell_index(dyadic4, t)
        for k in range(4):
            want = -1.0 if x.coords[k] else 1.0
            assert rademacher(k, x) == pytest.approx(want)


def test_rademacher_is_root_of_unity(mixed):
    x = cell_index(mixed, 11)
    for k, m in enumerate(mixed.radices):
        r = rademacher(k, x)
        assert abs(r) == pytest.approx(1.0)
        assert r == pytest.approx(np.exp(2j * np.pi * x.coords[k] / m))
    with pytest.raises(ValueError):
        rademacher(3, x)


def test_char_zero_is_one(mixed):
    for t in range(mixed.cells):
        assert vilenkin_char(0, cell_index(mixed, t)) == pytest.approx(1.0)


def test_char_equals_digit_product(mixed):
    # psi_n(x) = prod_k r_k(x)^{n_k}, checked literally on every (n, x) pair
    from vilenkin import decompose

    for n in range(mixed.cells):
        digits = decompose(mixed, n).digits
        for t in range(mixed.cells):
            x = cell_index(mixed, t)
            want = np.prod([rademacher(k, x) ** d for k, d in enumerate(digits)])
            assert vilenkin_char(n, x) == pytest.approx(complex(want), abs=1e-12)


@settings(max_examples=60)
@given(small_systems, st.data())
def test_char_multiplicative_in_x(sys, data):
    n = data.draw(st.integers(0, sys.cells - 1))
    x = cell_index(sys, data.draw(st.integers(0, sys.cells - 1)))
    y = cell_index(sys, data.draw(st.integers(0, sys.cells - 1)))
    lhs = vilenkin_char(n, group_add(x, y))
    rhs = vilenkin_char(n, x) * vilenkin_char(n, y)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_character_column_matches_pointwise(mixed):
    for n in (0, 1, 5, 7, 23):
        col = character_column(mixed, n)
        for t in range(mixed.cells):
            assert col[t] == pytest.approx(vilenkin_char(n, cell_index(mixed, t)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(small_systems)
def test_character_block_matches_columns(sys):
    # every row against the pointwise root-table product, which shares no
    # code with the digit-tensor factors
    rows = character_block(sys, 0, sys.cells)
    assert rows.shape == (sys.cells, sys.cells)
    for n in range(sys.cells):
        want = [vilenkin_char(n, cell_index(sys, t)) for t in range(sys.cells)]
        assert np.abs(rows[n] - want).max() <= 1e-12, f"row {n}"


def test_orthonormality_exhaustive(mixed):
    """(1/M_N) sum_t psi_a conj(psi_b) = [a == b], full matrix at 24 cells."""
    rows = character_block(mixed, 0, mixed.cells)
    gram = rows @ rows.conj().T / mixed.cells
    np.testing.assert_allclose(gram, np.eye(mixed.cells), atol=1e-12)


def test_orthonormality_random_pairs(dyadic10):
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.integers(0, dyadic10.cells, size=2)
        ca, cb = character_column(dyadic10, int(a)), character_column(dyadic10, int(b))
        inner = (ca * cb.conj()).mean()
        assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# transforms


def test_forward_on_scaled_indicator(dyadic4):
    # f = D_{M_1}: value M_1 on the first cylinder, zero off it.
    # Its coefficients are 1 exactly for k < M_1 and 0 above.
    vals = np.zeros(dyadic4.cells, dtype=np.complex128)
    vals[:: dyadic4.products[1]] = dyadic4.products[1]
    f = StepFunction(dyadic4, vals)
    want = np.zeros(dyadic4.cells, dtype=np.complex128)
    want[: dyadic4.products[1]] = 1.0
    np.testing.assert_allclose(forward_naive(f).coeffs, want, atol=1e-12)
    np.testing.assert_allclose(forward_fast(f).coeffs, want, atol=1e-12)


def test_fast_matches_naive(dyadic6, triadic, mixed2):
    for sys in (dyadic6, triadic, mixed2, build_radix_system([5, 2, 7], 6)):
        f = StepFunction(sys, random_values(sys, 42))
        fast = forward_fast(f).coeffs
        naive = forward_naive(f).coeffs
        np.testing.assert_allclose(fast, naive, atol=1e-10)


def test_roundtrip(dyadic6, mixed2):
    for sys in (dyadic6, mixed2):
        f = StepFunction(sys, random_values(sys, 43))
        g = inverse_transform(forward_fast(f))
        np.testing.assert_allclose(g.values, f.values, atol=1e-10)


def test_parseval(mixed2):
    f = StepFunction(mixed2, random_values(mixed2, 44))
    c = forward_fast(f)
    mean_sq = float(np.mean(np.abs(f.values) ** 2))
    assert mean_sq == pytest.approx(float(np.sum(np.abs(c.coeffs) ** 2)), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1))
def test_roundtrip_property(sys, seed):
    f = StepFunction(sys, random_values(sys, seed))
    c = forward_fast(f)
    assert np.abs(c.coeffs - forward_naive(f).coeffs).max() <= 1e-12
    g = inverse_transform(c)
    assert np.abs(g.values - f.values).max() < 1e-10


def test_partial_sum_endpoints(mixed):
    f = StepFunction(mixed, random_values(mixed, 45))
    c = forward_fast(f)
    assert np.abs(partial_sum(c, 0).values).max() == 0.0
    np.testing.assert_allclose(partial_sum(c, mixed.cells).values, f.values, atol=1e-10)
    with pytest.raises(ValueError):
        partial_sum(c, mixed.cells + 1)
    with pytest.raises(ValueError):
        partial_sum(c, -1)


# ---------------------------------------------------------------------------
# Dirichlet kernels


def naive_kernel(sys, n):
    vals = np.zeros(sys.cells, dtype=np.complex128)
    for k in range(n):
        vals += character_column(sys, k)
    return vals


def test_dirichlet_kernel_frozen_dyadic():
    sys = build_radix_system([2], 2)
    np.testing.assert_allclose(
        dirichlet_kernel(sys, 3).values, [3.0, 1.0, 1.0, -1.0], atol=1e-12
    )


def test_dirichlet_kernel_vs_charsum_exhaustive(mixed):
    for n in range(mixed.cells + 1):
        np.testing.assert_allclose(
            dirichlet_kernel(mixed, n).values, naive_kernel(mixed, n), atol=1e-12,
            err_msg=f"kernel mismatch at n={n}",
        )


def test_dirichlet_kernel_vs_charsum_spot(mixed2):
    for n in (1, 7, 24, 100, 311, 575, 576):
        np.testing.assert_allclose(
            dirichlet_kernel(mixed2, n).values, naive_kernel(mixed2, n), atol=5e-12
        )


def test_dirichlet_block_kernel(dyadic6, mixed):
    # D_{M_n} is M_n on the rank-n cylinder and 0 elsewhere
    for sys in (dyadic6, mixed):
        for n in range(sys.depth + 1):
            M_n = sys.products[n]
            want = np.zeros(sys.cells, dtype=np.complex128)
            want[::M_n] = M_n
            np.testing.assert_allclose(dirichlet_kernel(sys, M_n).values, want, atol=1e-12)


def test_dirichlet_geometric_factorization(mixed):
    # D_{s M_n} = D_{M_n} * sum_{u < s} psi_{M_n}^u for 1 <= s < m_n
    for n in range(mixed.depth):
        M_n = mixed.products[n]
        base = dirichlet_kernel(mixed, M_n).values
        r_n = character_column(mixed, M_n)
        for s in range(1, mixed.radices[n]):
            geom = sum(r_n**u for u in range(s))
            np.testing.assert_allclose(
                dirichlet_kernel(mixed, s * M_n).values, base * geom, atol=1e-12
            )


def test_dirichlet_shift_identity(mixed):
    # D_j - D_{M_a} = psi_{M_a} D_{j - M_a} across a whole digit block
    a = 2
    M_a = mixed.products[a]
    psi = character_column(mixed, M_a)
    for j in range(M_a, mixed.products[a + 1]):
        lhs = dirichlet_kernel(mixed, j).values - dirichlet_kernel(mixed, M_a).values
        rhs = psi * dirichlet_kernel(mixed, j - M_a).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kernel_range_check(mixed):
    with pytest.raises(ValueError):
        dirichlet_kernel(mixed, mixed.cells + 1)


# ---------------------------------------------------------------------------
# Fejer means


def test_fejer_against_direct_average(mixed):
    f = StepFunction(mixed, random_values(mixed, 46))
    c = forward_fast(f)
    for n in (1, 2, 3, 7, 24):
        direct = sum(partial_sum(c, k).values for k in range(n)) / n
        np.testing.assert_allclose(fejer_mean(c, n).values, direct, atol=1e-12)


def test_fejer_known_values(dyadic4):
    one = StepFunction.constant(dyadic4, 1.0)
    c = forward_fast(one)
    # sigma_1 f = S_0 f = 0 for any f; sigma_2 averages S_0 = 0 and S_1 = 1
    assert np.abs(fejer_mean(c, 1).values).max() == pytest.approx(0.0)
    np.testing.assert_allclose(fejer_mean(c, 2).values, np.full(16, 0.5), atol=1e-12)
    with pytest.raises(ValueError):
        fejer_mean(c, 0)


# ---------------------------------------------------------------------------
# cumulative scans


def test_cumulative_l1_matches_direct(mixed):
    f = StepFunction(mixed, random_values(mixed, 47))
    c = forward_fast(f)
    got = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells)
    assert got.shape == (1, mixed.cells)
    for m in range(1, mixed.cells + 1):
        want = float(np.abs(partial_sum(c, m).values).mean())
        assert got[0, m - 1] == pytest.approx(want, abs=1e-12)


def test_cumulative_l1_with_offset(mixed):
    # offset -f turns the scan into the convergence differences ||S_m f - f||
    f = StepFunction(mixed, random_values(mixed, 48))
    c = forward_fast(f)
    got = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells, offsets=-f.values)
    for m in (1, 5, 24):
        want = float(np.abs(partial_sum(c, m).values - f.values).mean())
        assert got[0, m - 1] == pytest.approx(want, abs=1e-12)
    # the last entry must vanish: S_{M_N} f = f
    assert got[0, -1] == pytest.approx(0.0, abs=1e-12)


def test_cumulative_l1_multirow_and_blocks(mixed):
    rows = np.vstack([random_values(mixed, 49), random_values(mixed, 50)])
    whole = cumulative_l1_norms(mixed, rows, 3, 20)
    chunked = cumulative_l1_norms(mixed, rows, 3, 20, block=4)
    np.testing.assert_allclose(whole, chunked, atol=0)  # same arithmetic order per row
    assert whole.shape == (2, 18)


def test_cumulative_l1_validation(mixed):
    with pytest.raises(ValueError):
        cumulative_l1_norms(mixed, np.ones(5), 1, 4)
    with pytest.raises(ValueError):
        cumulative_l1_norms(mixed, np.ones(mixed.cells), 5, 3)
    with pytest.raises(ValueError):
        cumulative_l1_norms(
            mixed, np.ones(mixed.cells), 1, 4, offsets=np.ones((3, mixed.cells))
        )


def test_fejer_l1_norms_match_per_n(mixed):
    f = StepFunction(mixed, random_values(mixed, 51))
    c = forward_fast(f)
    got = fejer_l1_norms(mixed, c.coeffs, mixed.cells)
    assert got.shape == (1, mixed.cells)
    for n in range(1, mixed.cells + 1):
        want = float(np.abs(fejer_mean(c, n).values).mean())
        assert got[0, n - 1] == pytest.approx(want, abs=1e-12), f"n={n}"


# ---------------------------------------------------------------------------
# containers


def test_step_function_validation(mixed):
    with pytest.raises(ValueError):
        StepFunction(mixed, np.ones(7))
    f = StepFunction.constant(mixed, 2.0)
    assert f.integral() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # stored array is frozen


def test_json_roundtrip(mixed):
    f = StepFunction(mixed, random_values(mixed, 52))
    g = StepFunction.from_json_dict(f.to_json_dict())
    assert g.sys == mixed
    np.testing.assert_allclose(g.values, f.values, atol=0)
    c = SpectralVector(mixed, random_values(mixed, 53))
    d = SpectralVector.from_json_dict(c.to_json_dict())
    np.testing.assert_allclose(d.coeffs, c.coeffs, atol=0)


def test_json_parse_errors(mixed):
    good = StepFunction.constant(mixed, 1.0).to_json_dict()
    with pytest.raises(ValueError, match="parse error"):
        StepFunction.from_json_dict({k: v for k, v in good.items() if k != "depth"})
    bad = dict(good)
    bad["depth"] = 5
    with pytest.raises(ValueError, match="parse error"):
        StepFunction.from_json_dict(bad)
    bad = dict(good)
    bad["values"] = [["x", 0]] * mixed.cells
    with pytest.raises(ValueError, match="parse error"):
        StepFunction.from_json_dict(bad)
    for pair in ([float("nan"), 0.0], [0.0, float("inf")]):
        bad["values"] = [pair] + good["values"][1:]
        with pytest.raises(ValueError, match="parse error"):
            StepFunction.from_json_dict(bad)
