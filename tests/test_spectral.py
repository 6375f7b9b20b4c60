"""Characters, fast/naive transforms, kernels, and the cumulative scans."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    SpectralVector,
    StepFunction,
    build_radix_system,
    character_block,
    check_norm_equivalence,
    cumulative_l1_norms,
    dirichlet_kernel,
    fejer_l1_norms,
    fejer_mean,
    forward_fast,
    decompose,
    forward_naive,
    h1_pass,
    inverse_transform,
    partial_sum,
    rademacher,
    vilenkin_char,
)
from vilenkin import spectral
from vilenkin.experiments import parse_interchange, random_step_corpus, render_interchange
from vilenkin.spectral import _block_heads, _transform
from conftest import random_values, small_systems, strided_block_heads, strided_transform


# ---------------------------------------------------------------------------
# characters


def test_rademacher_dyadic_is_sign(dyadic4):
    for t in range(dyadic4.cells):
        for k, x_k in enumerate(decompose(dyadic4, t)):
            want = -1.0 if x_k else 1.0
            assert rademacher(dyadic4, k, t) == pytest.approx(want)


def test_rademacher_is_root_of_unity(mixed):
    for k, (x_k, m) in enumerate(zip(decompose(mixed, 11), mixed.radices)):
        r = rademacher(mixed, k, 11)
        assert abs(r) == pytest.approx(1.0)
        assert r == pytest.approx(np.exp(2j * np.pi * x_k / m))
    with pytest.raises(ValueError):
        rademacher(mixed, 3, 11)


def test_char_zero_is_one(mixed):
    for t in range(mixed.cells):
        assert vilenkin_char(mixed, 0, t) == pytest.approx(1.0)


def test_char_equals_digit_product(mixed):
    # psi_n(x) = prod_k r_k(x)^{n_k}, checked literally on every (n, x) pair
    for n in range(mixed.cells):
        digits = decompose(mixed, n)
        for t in range(mixed.cells):
            want = np.prod([rademacher(mixed, k, t) ** d for k, d in enumerate(digits)])
            assert vilenkin_char(mixed, n, t) == pytest.approx(complex(want), abs=1e-12)


@settings(max_examples=60)
@given(small_systems, st.data())
def test_char_multiplicative_in_x(sys, data):
    n, x, y = (data.draw(st.integers(0, sys.cells - 1)) for _ in range(3))
    # x + y in the group: digitwise addition modulo m_j
    digits = zip(decompose(sys, x), decompose(sys, y), sys.radices, sys.products)
    x_plus_y = sum((a + b) % m * M for a, b, m, M in digits)
    lhs = vilenkin_char(sys, n, x_plus_y)
    rhs = vilenkin_char(sys, n, x) * vilenkin_char(sys, n, y)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_character_column_matches_pointwise(mixed):
    for n in (0, 1, 5, 7, 23):
        col = character_block(mixed, n, n + 1)[0]
        for t in range(mixed.cells):
            assert col[t] == pytest.approx(vilenkin_char(mixed, n, t), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(small_systems)
def test_character_block_matches_columns(sys):
    # every row against the pointwise root-table product, which shares no
    # code with the digit-tensor factors
    rows = character_block(sys, 0, sys.cells)
    assert rows.shape == (sys.cells, sys.cells)
    for n in range(sys.cells):
        want = [vilenkin_char(sys, n, t) for t in range(sys.cells)]
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
        ca, cb = character_block(dyadic10, a, a + 1)[0], character_block(dyadic10, b, b + 1)[0]
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


def _fftn_route(sys, arr, inverse):
    """The digit-tensor DFT by numpy.fft.fftn / ifftn, a third route beside
    the per-level passes and forward_naive."""
    tensor = arr.reshape(*arr.shape[:-1], *sys.radices[::-1])
    axes = tuple(range(-sys.depth, 0))
    fn = np.fft.ifftn if inverse else np.fft.fftn
    return fn(tensor, axes=axes, norm="forward").reshape(arr.shape)


def _assert_transform_is_fftn(sys, arr):
    for inverse in (False, True):
        assert np.array_equal(_transform(sys, arr, inverse=inverse),
                              _fftn_route(sys, arr, inverse))


@settings(max_examples=60, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1))
def test_transform_equals_fftn_property(sys, seed):
    _assert_transform_is_fftn(sys, random_values(sys, seed))


@pytest.mark.parametrize(
    "radices,depth",
    [([2], 10), ([3], 6), ([5], 4), ([7], 3), ([64], 2), ([5, 2, 7], 6), ([2, 3, 4], 6)],
)
def test_transform_equals_fftn_fixed(radices, depth):
    sys = build_radix_system(radices, depth)
    _assert_transform_is_fftn(sys, random_values(sys, 47))


@settings(max_examples=40, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1))
def test_transform_reads_its_levels_from_the_length(sys, seed):
    # an input of length M_r is transformed on G_r whatever system carries it
    for r in range(1, sys.depth + 1):
        x = random_values(sys, seed)[: sys.products[r]]
        sub = sys.truncate(r)
        for inverse in (False, True):
            assert np.array_equal(_transform(sys, x, inverse=inverse),
                                  _transform(sub, x, inverse=inverse))


# small systems, and radix 64, whose passes run numpy.fft on long inner rows
pass_systems = small_systems | st.integers(1, 2).map(lambda depth: build_radix_system([64], depth))


@settings(max_examples=60, deadline=None)
@given(pass_systems, st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_self_sorting_passes_match_the_strided_oracle(sys, seed, count):
    # the same butterflies in the same level order, on every G_r of sys
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, sys.cells)) + 1j * rng.standard_normal((count, sys.cells))
    for r in range(1, sys.depth + 1):
        head = rows[:, : sys.products[r]]
        for inverse in (False, True):
            assert np.array_equal(_transform(sys, head, inverse=inverse),
                                  strided_transform(sys, head, inverse))
    got, want = _block_heads(sys, rows), strided_block_heads(sys, rows)
    assert len(got) == len(want) == sys.depth + 1
    for n, (a, b) in enumerate(zip(got, want)):
        assert a.shape == (count, sys.products[n])
        assert np.array_equal(a, b), n


def test_transform_batched_rows(mixed2):
    rows = np.stack([random_values(mixed2, seed) for seed in range(4)])
    for inverse in (False, True):
        stacked = _transform(mixed2, rows, inverse=inverse)
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, _transform(mixed2, row, inverse=inverse))
        assert np.array_equal(stacked, _fftn_route(mixed2, rows, inverse))


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
    return character_block(sys, 0, n).sum(axis=0)


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


def test_quarter_turn_roots_are_exact():
    for m in (1, 2, 3, 4, 8, 12):
        table = spectral._root_table(m)
        for j in range(m):
            if 4 * j % m == 0:
                assert table[j] == [1, 1j, -1, -1j][4 * j // m]


def test_dirichlet_kernel_exact_on_radices_2_and_4():
    # with exact quarter turns, D_n on radices 2 and 4 is a sum of products of
    # Gaussian integers, so every cell is exactly one
    for radices, depth in (([2], 10), ([4], 5), ([2, 4, 2, 4, 4], 5)):
        sys = build_radix_system(radices, depth)
        cells = sys.cells
        for n in sorted({*range(min(299, cells) + 1), cells - 1, cells // 3}):
            values = dirichlet_kernel(sys, n).values
            assert (values == np.round(values)).all(), f"D_{n} on {radices}x{depth}"


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
        r_n = character_block(mixed, M_n, M_n + 1)[0]
        for s in range(1, mixed.radices[n]):
            geom = sum(r_n**u for u in range(s))
            np.testing.assert_allclose(
                dirichlet_kernel(mixed, s * M_n).values, base * geom, atol=1e-12
            )


def test_dirichlet_shift_identity(mixed):
    # D_j - D_{M_a} = psi_{M_a} D_{j - M_a} across a whole digit block
    a = 2
    M_a = mixed.products[a]
    psi = character_block(mixed, M_a, M_a + 1)[0]
    for j in range(M_a, mixed.products[a + 1]):
        lhs = dirichlet_kernel(mixed, j).values - dirichlet_kernel(mixed, M_a).values
        rhs = psi * dirichlet_kernel(mixed, j - M_a).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kernel_range_check(mixed):
    with pytest.raises(ValueError):
        dirichlet_kernel(mixed, mixed.cells + 1)


@pytest.mark.parametrize("call,message", [
    (lambda sys: character_block(sys, -1, 2), r"character range \[-1, 2\) outside \[0, 24\]"),
    (lambda sys: character_block(sys, 3, 2), r"character range \[3, 2\) outside \[0, 24\]"),
    (lambda sys: character_block(sys, 0, 25), r"character range \[0, 25\) outside \[0, 24\]"),
    (lambda sys: fejer_l1_norms(sys, np.ones(24), 0), r"scan bound 0 out of range \[1, 24\]"),
    (lambda sys: fejer_l1_norms(sys, np.ones(24), 25), r"scan bound 25 out of range \[1, 24\]"),
])
def test_ranges_are_refused_by_name(mixed, call, message):
    with pytest.raises(ValueError, match=message):
        call(mixed)


# ---------------------------------------------------------------------------
# Fejer means


def test_fejer_against_direct_average(mixed):
    f = StepFunction(mixed, random_values(mixed, 46))
    c = forward_fast(f)
    for n in (1, 2, 3, 7, 24):
        direct = sum(partial_sum(c, k).values for k in range(n)) / n
        np.testing.assert_allclose(fejer_mean(c, n).values, direct, atol=1e-12)


def test_fejer_known_values(dyadic4):
    one = StepFunction(dyadic4, np.ones(dyadic4.cells))
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


def test_cumulative_l1_multirow_and_blocks(mixed, monkeypatch):
    rows = np.vstack([random_values(mixed, 49), random_values(mixed, 50)])
    whole = cumulative_l1_norms(mixed, rows, 3, 20)
    # the smallest block size: 16 rows, so m = 3 .. 20 takes two blocks
    monkeypatch.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", 1)
    chunked = cumulative_l1_norms(mixed, rows, 3, 20)
    np.testing.assert_allclose(whole, chunked, atol=0)  # same arithmetic order per row
    assert whole.shape == (2, 18)


def _dense_cumulative_l1_norms(sys, weights, lo, hi, offsets=None):
    """The scan one row at a time, every block through one cumsum: the
    bitwise oracle for cumulative_l1_norms, which takes its rows through
    each block in batches."""
    rows = np.atleast_2d(weights)
    count, width = rows.shape
    sub = sys.truncate(sys.products.index(width))
    step = spectral._scan_block(sub)
    masked = np.zeros((count, width), dtype=np.complex128)
    masked[:, :lo] = rows[:, :lo]
    state = _transform(sub, masked, inverse=True)
    if offsets is not None:
        state += offsets
    out = np.empty((count, hi - lo + 1), dtype=np.float64)
    out[:, 0] = np.abs(state).mean(axis=1)
    for b0 in range(lo, hi, step):
        b1 = min(b0 + step, hi)
        chars = character_block(sub, b0, b1)
        for i in range(count):
            inc = np.cumsum(rows[i, b0:b1, None] * chars, axis=0)
            inc += state[i]
            out[i, b0 + 1 - lo : b1 + 1 - lo] = np.abs(inc).mean(axis=1)
            state[i] = inc[-1]
    return out


@settings(max_examples=60, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1), st.data())
def test_scan_is_bitwise_dense(sys, seed, data):
    # rows of M_q columns for any level q, weights with exact-zero stretches,
    # some across every row and some in one row only, scanned in blocks of 16
    # or more rows
    rng = np.random.default_rng(seed)
    count = data.draw(st.integers(1, 8))
    width = sys.products[data.draw(st.integers(1, sys.depth))]
    weights = rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
    for _ in range(data.draw(st.integers(0, 6))):
        a = int(rng.integers(width))
        b = a + int(rng.integers(1, max(2, width // 3)))
        rows = slice(None) if rng.random() < 0.7 else int(rng.integers(count))
        weights[rows, a:b] = 0.0
    offsets = None
    if data.draw(st.booleans()):
        offsets = rng.standard_normal((count, width)) + 0j
    lo = data.draw(st.integers(0, width))
    hi = data.draw(st.integers(lo, width))
    block = data.draw(st.sampled_from([1, 24 * sys.cells, 1 << 21]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", block)
        got = cumulative_l1_norms(sys, weights, lo, hi, offsets=offsets)
        want = _dense_cumulative_l1_norms(sys, weights, lo, hi, offsets)
    assert np.array_equal(got, want)


def test_cumulative_l1_validation(mixed):
    with pytest.raises(ValueError):
        cumulative_l1_norms(mixed, np.ones(5), 1, 4)
    with pytest.raises(ValueError):
        cumulative_l1_norms(mixed, np.ones(mixed.cells), 5, 3)
    # rows of M_q columns scan up to M_q only: past it the sums are frozen
    assert cumulative_l1_norms(mixed, np.ones(6), 0, 6).shape == (1, 7)
    for lo, hi in ((0, 7), (7, 7), (1, mixed.cells)):
        with pytest.raises(ValueError, match=rf"scan range \[{lo}, {hi}\] outside \[0, 6\]"):
            cumulative_l1_norms(mixed, np.ones(6), lo, hi)
    with pytest.raises(ValueError):
        cumulative_l1_norms(
            mixed, np.ones(mixed.cells), 1, 4, offsets=np.ones((3, mixed.cells))
        )


def _level_rows(rng, sys, levels):
    """One random complex row of M_q values per level q."""
    return [rng.standard_normal(sys.products[q]) + 1j * rng.standard_normal(sys.products[q])
            for q in levels]


@settings(max_examples=40, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1), st.data())
def test_narrow_row_scans_match_the_tiled_stack(sys, seed, data):
    # rows of M_q values are functions on G_q; scanned there, they give the
    # norms of the stack that zero-fills their coefficients and tiles their
    # offsets to M_{max q}, bit for bit where q is the level of that stack;
    # the partial-sum scan of every row stops at or below M_{min q}
    levels = data.draw(st.lists(st.integers(1, sys.depth), min_size=1, max_size=5))
    lo = data.draw(st.integers(0, sys.products[min(levels)]))
    hi = data.draw(st.integers(lo, sys.products[min(levels)]))
    n_max = data.draw(st.integers(1, sys.cells))
    rng = np.random.default_rng(seed)
    coeffs, offsets = _level_rows(rng, sys, levels), _level_rows(rng, sys, levels)
    width = sys.products[max(levels)]
    wide_c = np.zeros((len(levels), width), dtype=np.complex128)
    for row, c in zip(wide_c, coeffs):
        row[: c.size] = c
    wide_v = np.stack([np.tile(v, width // v.size) for v in offsets])
    wide_norms = cumulative_l1_norms(sys, wide_c, lo, hi, offsets=wide_v)
    wide_fejer = fejer_l1_norms(sys, wide_c, n_max)
    for i, q in enumerate(levels):
        norms = cumulative_l1_norms(sys, coeffs[i], lo, hi, offsets=offsets[i])[0]
        fejer = fejer_l1_norms(sys, coeffs[i], n_max)
        assert norms.shape == (hi - lo + 1,) and fejer.shape == (1,)
        if q == max(levels):
            assert np.array_equal(norms, wide_norms[i])
            assert np.array_equal(fejer, wide_fejer[i : i + 1])
        else:
            np.testing.assert_allclose(norms, wide_norms[i], rtol=1e-14, atol=0)
            np.testing.assert_allclose(fejer, wide_fejer[i : i + 1], rtol=1e-14, atol=0)


def test_scans_refuse_rows_of_no_level(mixed):
    # 1 and 5 columns are no M_q with q >= 1 of (2, 3, 4); offsets follow the weights
    for width in (1, 5):
        with pytest.raises(ValueError, match="M_q columns"):
            cumulative_l1_norms(mixed, np.ones(width), 0, 4)
        with pytest.raises(ValueError, match="M_q columns"):
            fejer_l1_norms(mixed, np.ones(width), 4)
        with pytest.raises(ValueError, match="M_q columns"):
            list(h1_pass(mixed, np.ones(width)))
        with pytest.raises(ValueError, match="M_q columns"):
            check_norm_equivalence(mixed, np.ones(width))
    with pytest.raises(ValueError, match="6 columns"):
        cumulative_l1_norms(mixed, np.ones(6), 0, 4, offsets=np.ones(24))


def _dense_fejer_l1_norms(sys, weights, n_max):
    """||sigma_n f_i||_1 for every n = 1 .. n_max, shape (rows, n_max): the
    scan row by row, then every frozen n past M_q; and the frozen sums S and
    U at M_q.  _dense_fejer_max reads the oracle of fejer_l1_norms off it."""
    rows = np.atleast_2d(weights)
    count, width = rows.shape
    sub = sys.truncate(sys.products.index(width))
    q_max = min(n_max, width)
    step = spectral._scan_block(sub)
    s_state = np.zeros((count, width), dtype=np.complex128)
    u_state = np.zeros((count, width), dtype=np.complex128)
    out = np.empty((count, n_max), dtype=np.float64)
    for b0 in range(0, q_max, step):
        b1 = min(b0 + step, q_max)
        chars = character_block(sub, b0, b1)
        ranks = np.arange(b0 + 1, b1 + 1, dtype=np.float64)[:, None]
        for i in range(count):
            inc = rows[i, b0:b1, None] * chars
            u_inc = np.cumsum(ranks * inc, axis=0) + u_state[i]
            inc = np.cumsum(inc, axis=0) + s_state[i]
            s_state[i], u_state[i] = inc[-1], u_inc[-1]
            out[i, b0:b1] = np.abs(inc - u_inc / ranks).mean(axis=1)
    tail = np.arange(q_max + 1, n_max + 1, dtype=np.float64)
    out[:, q_max:] = _dense_tail(s_state, u_state, tail)
    return out, s_state, u_state


def _dense_fejer_max(sys, weights, n_max):
    """The bitwise oracle for fejer_l1_norms: the largest dense norm over the
    scanned n <= M_q and the two frozen ends n = M_q + 1 and n = n_max.  Every
    inner frozen n is checked to stay within the rounding allowance
    1e-12 (mean|S| + mean|U| / (M_q + 1)) of it."""
    dense, s, u = _dense_fejer_l1_norms(sys, weights, n_max)
    q_max = min(n_max, s.shape[1])
    want = dense[:, np.r_[: min(q_max + 1, n_max), n_max - 1]].max(axis=1)
    allowance = 1e-12 * (np.abs(s).mean(axis=1) + np.abs(u).mean(axis=1) / (q_max + 1))
    assert (dense.max(axis=1) <= want + allowance).all()
    return want


def _dense_tail(s, u, ranks):
    """mean |s_i - u_i / n| for every row i and every n in ranks."""
    return np.abs(s[:, None, :] - u[:, None, :] / ranks[:, None]).mean(axis=2)


def test_fejer_l1_norms_match_per_n(mixed):
    f = StepFunction(mixed, random_values(mixed, 51))
    c = forward_fast(f)
    dense = _dense_fejer_l1_norms(mixed, c.coeffs, mixed.cells)[0]
    for n in range(1, mixed.cells + 1):
        want = float(np.abs(fejer_mean(c, n).values).mean())
        assert dense[0, n - 1] == pytest.approx(want, abs=1e-12), f"n={n}"
    got = fejer_l1_norms(mixed, c.coeffs, mixed.cells)
    assert got.shape == (1,)
    assert np.array_equal(got, dense.max(axis=1))


def _degenerate_rows(sys, rng, rank):
    """Coefficient rows of M_rank columns, with the degenerate kinds mixed in:
    all zero, constant, rank 1 and full rank on G_rank."""
    width = sys.products[rank]
    rows = np.zeros((6, width), dtype=np.complex128)
    rows[1, 0] = rng.standard_normal()  # a constant function
    rows[2, : sys.products[1]] = rng.standard_normal(sys.products[1])  # rank 1
    rows[3:, :width] = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
    rows[4, :width] = rows[4, :width].real  # real weights
    return rows[rng.permutation(6)]


@settings(max_examples=60, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1), st.data())
def test_fejer_maximum_is_bitwise_dense(sys, seed, data):
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, sys.depth))
    weights = _degenerate_rows(sys, rng, rank)
    n_max = data.draw(st.integers(1, sys.cells))
    block = data.draw(st.sampled_from([1, 24 * sys.cells, 1 << 21]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", block)
        got = fejer_l1_norms(sys, weights, n_max)
        want = _dense_fejer_max(sys, weights, n_max)
    assert np.array_equal(got, want)


def _flat_tails(lo, hi, rows, seed):
    """Frozen sums (s, u) on two cells whose Fejer norm mean |s - u / n| is
    the same at every n in [lo, hi] in exact arithmetic: with a <= b / hi
    and c >= b / lo, |a - b t| rises and |c - b t| falls at the same rate
    for t = 1 / n in that range."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(1, 10, rows)
    a = b / hi * rng.uniform(0, 1, rows)
    c = b / lo * rng.uniform(1, 2, rows)
    return np.stack([a, c], axis=1).astype(np.complex128), np.stack([b, b], axis=1) + 0j


@pytest.mark.parametrize("lo,hi", [(4, 8), (17, 1024), (3, 5), (5, 6), (9, 2**14)])
@pytest.mark.parametrize("scale", [1, 1 << 21])
def test_frozen_tail_ties_are_bitwise_dense(lo, hi, scale):
    # flat tails, as they are and scaled by a power of two (exact): the
    # result is the larger dense end bit for bit; rounding ties some ends
    # exactly and lifts some inner n above both, never by more than the
    # allowance that _frozen_tail_max states
    s, u = (scale * x for x in _flat_tails(lo, hi, 40, lo))
    dense = _dense_tail(s, u, np.arange(lo, hi + 1, dtype=np.float64))
    ends = np.maximum(dense[:, 0], dense[:, -1])
    assert np.array_equal(spectral._frozen_tail_max(s, u, lo, hi), ends)
    allowance = 1e-12 * (np.abs(s).mean(axis=1) + np.abs(u).mean(axis=1) / lo)
    assert (dense.max(axis=1) <= ends + allowance).all()
    assert (dense[:, 0] == dense[:, -1]).any()
    if (lo, hi) in ((4, 8), (17, 1024)):
        assert (dense.max(axis=1) > ends).any()


@pytest.mark.parametrize("offsets", [None, "periodic", "aperiodic"])
def test_row_batches_are_bitwise_per_row(dyadic6, offsets, monkeypatch):
    # 16-row blocks on G_2 (4 cells): rows go in batches of 4, so 10 rows take
    # three batches per block; offsets that are not 4-periodic need all of
    # G_6, where rows go one at a time
    monkeypatch.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", 1)
    corpus = random_step_corpus(dyadic6, 10, 2, 5)
    width = dyadic6.cells if offsets == "aperiodic" else dyadic6.products[2]
    weights = np.vstack([forward_fast(f).coeffs[:width] for f in corpus])
    offs = None
    if offsets is not None:
        offs = -np.vstack([f.values[:width] for f in corpus])
        if offsets == "aperiodic":
            offs[3, -1] += 1.0
    got = cumulative_l1_norms(dyadic6, weights, 1, width, offsets=offs)
    assert np.array_equal(got, _dense_cumulative_l1_norms(dyadic6, weights, 1, width, offs))
    for n_max in (3, 4, 5, 40, dyadic6.cells):
        want = _dense_fejer_max(dyadic6, weights, n_max)
        assert np.array_equal(fejer_l1_norms(dyadic6, weights, n_max), want)


@pytest.mark.parametrize("seed", [1, 7, 4111])
def test_strong_means_fejer_tail_evaluates_its_ends(seed, monkeypatch):
    # the gat corpus on 2^10 (ranks 1 .. 4), its coefficients on G_4: past
    # M_4 = 16 the tail is taken at n = 17 and n = 1024, for every row at
    # once, and on these corpora that is the maximum over every n, bit for bit
    sys = build_radix_system([2], 10)
    corpus = random_step_corpus(sys, 50, 4, seed)
    weights = np.vstack([forward_fast(f).coeffs[: sys.products[4]] for f in corpus])
    asked = []
    real = spectral._frozen_tail_max
    monkeypatch.setattr(spectral, "_frozen_tail_max",
                        lambda s, u, lo, hi: asked.append((len(s), lo, hi)) or real(s, u, lo, hi))
    got = fejer_l1_norms(sys, weights, sys.cells)
    assert asked == [(len(weights), 17, 1024)]
    assert np.array_equal(got, _dense_fejer_l1_norms(sys, weights, sys.cells)[0].max(axis=1))


def test_scans_reuse_their_scratch(dyadic10, monkeypatch):
    # full resolution, four 4 MiB character blocks: beside the block itself
    # the scans hold one reused product block (two with the Fejer sums) and
    # one magnitude block, never a second character block or a quotient temp
    weights = np.stack([forward_fast(StepFunction(dyadic10, random_values(dyadic10, s))).coeffs
                        for s in range(4)])
    # 256-row blocks on 2^10
    monkeypatch.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", 256 * 2**10)
    block_bytes = 256 * dyadic10.cells * 16
    for scan, limit in (
        (lambda: cumulative_l1_norms(dyadic10, weights, 0, dyadic10.cells), 2.8),
        (lambda: fejer_l1_norms(dyadic10, weights, dyadic10.cells), 3.8),
    ):
        scan()  # first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * block_bytes


def test_step_function_copies_a_broadcast_view_once():
    # a tiled head is a broadcast view, copied once in C order: the value
    # array itself is the peak, 16 bytes per cell of G_N
    sys = build_radix_system([2], 16)
    c = SpectralVector(sys, random_values(sys, 81))
    corpus = random_step_corpus(sys, 4, 4, 1)
    for make in (lambda: partial_sum(c, 16), lambda: corpus[0], lambda: corpus[3],
                 lambda: SpectralVector(sys, np.broadcast_to(c.coeffs[:16], (sys.cells // 16, 16)))):
        make()  # first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            made = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = made.coeffs if isinstance(made, SpectralVector) else made.values
        assert data.flags.c_contiguous and not data.flags.writeable
        assert peak <= 17 * sys.cells


@pytest.mark.parametrize("radices,depth", [([2], 16), ([3], 9)])
def test_full_width_synthesis_holds_two_level_buffers(radices, depth):
    # the zero-padded head is freed by the first level pass, so a synthesis
    # on all of G_N holds two level buffers, 32 bytes per cell, and never the
    # head beside them (48)
    sys = build_radix_system(radices, depth)
    cells = sys.cells
    c = SpectralVector(sys, random_values(sys, 82))
    dirichlet_kernel(sys, 5)  # the first numpy.fft call imports modules
    for make in (lambda: partial_sum(c, cells), lambda: dirichlet_kernel(sys, cells - 1),
                 lambda: dirichlet_kernel(sys, cells // 2 + 1)):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * cells


# ---------------------------------------------------------------------------
# the quotient rule: low-rank inputs are scanned on G_r, results extended to M_N


def test_forward_fast_exact_zeros_above_rank():
    # the full-size FFT leaves rounding-level non-zeros at k >= M_r for
    # radices 5 and 7; the quotient transform leaves none
    for sys in (build_radix_system([5, 2, 7], 6), build_radix_system([5], 3)):
        for rank in range(1, sys.depth):
            f = random_step_corpus(sys, rank, rank, 7)[-1]
            fast = forward_fast(f).coeffs
            assert np.count_nonzero(fast[sys.products[rank]:]) == 0, f"rank {rank}"
            assert np.abs(fast - forward_naive(f).coeffs).max() <= 1e-12


def _scan_points(sys, widths):
    """Scan ends below, at and above each M_r, plus both ends of [0, M_N]."""
    return sorted({p for w in widths for p in (0, 1, w - 1, w, w + 1, sys.cells)
                   if 0 <= p <= sys.cells})


@settings(max_examples=25, deadline=None)
@given(small_systems.filter(lambda s: s.depth >= 2), st.integers(0, 2**31 - 1), st.data())
def test_quotient_scans_match_direct(sys, seed, data):
    weight_rank = data.draw(st.integers(1, sys.depth - 1))
    offset_rank = data.draw(st.integers(1, sys.depth - 1))
    corpus = random_step_corpus(sys, 3, weight_rank, seed)
    coeffs = [forward_fast(f) for f in corpus]
    weights = np.vstack([c.coeffs for c in coeffs])
    periodic = np.vstack([f.values for f in random_step_corpus(sys, 3, offset_rank, seed + 1)])
    # one offset that is not periodic at any level below N
    aperiodic = periodic.copy()
    aperiodic[1, -1] += 1.0
    points = _scan_points(sys, [sys.products[weight_rank], sys.products[offset_rank]])
    # the partial-sum scan stops at the width of its rows, M_{weight_rank} at least
    scan_points = [p for p in points if p <= sys.products[weight_rank]]
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(scan_points), min_size=2, max_size=2)))

    def holding(top):
        """The smallest level r >= 1 with M_r >= min(top, M_{weight_rank})."""
        need = min(top, sys.products[weight_rank])
        return next(r for r in range(1, sys.depth + 1) if sys.products[r] >= need)

    # the level each scan runs on, passed as the width of its rows: the
    # weights below hi need the smallest G_r holding min(hi, M_{weight_rank})
    # indices, a periodic offset may need more, and the aperiodic one needs
    # all N levels
    weight_level = holding(hi)
    cases = ((None, weight_level), (periodic, max(weight_level, offset_rank)),
             (aperiodic, sys.depth))

    for offsets, level in cases:
        width = sys.products[level]
        cells_seen = []
        real_block = spectral.character_block

        def spy(sub, b0, b1):
            cells_seen.append(sub.cells)
            return real_block(sub, b0, b1)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("vilenkin.spectral.character_block", spy)
            got = cumulative_l1_norms(sys, weights[:, :width], lo, hi,
                                      offsets=None if offsets is None else offsets[:, :width])
        assert got.shape == (3, hi - lo + 1)
        # character rows on G_r whenever the scan has a step there
        assert set(cells_seen) == ({width} if lo < hi else set())
        for i, c in enumerate(coeffs):
            off = 0.0 if offsets is None else offsets[i]
            for m in range(lo, hi + 1):
                want = float(np.abs(partial_sum(c, m).values + off).mean())
                assert abs(got[i, m - lo] - want) <= 1e-12, (i, m)

    n_max = data.draw(st.sampled_from([p for p in points if p >= 1]))
    got = fejer_l1_norms(sys, weights[:, : sys.products[holding(n_max)]], n_max)
    for i, c in enumerate(coeffs):
        want = max(float(np.abs(fejer_mean(c, n).values).mean()) for n in range(1, n_max + 1))
        assert abs(got[i] - want) <= 1e-12, i


@settings(max_examples=25, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1))
def test_quotient_partial_sums_match_full_synthesis(sys, seed):
    # full-rank coefficients, so every n up to M_N exercises a different G_r
    c = forward_fast(StepFunction(sys, random_values(sys, seed)))
    for n in range(sys.cells + 1):
        masked = np.zeros(sys.cells, dtype=np.complex128)
        masked[:n] = c.coeffs[:n]
        want = _transform(sys, masked, inverse=True)
        assert np.abs(partial_sum(c, n).values - want).max() <= 1e-12
        if n:
            masked[:n] *= 1.0 - np.arange(1, n + 1) / n
            got = fejer_mean(c, n).values
            assert np.abs(got - _transform(sys, masked, inverse=True)).max() <= 1e-12


def _assert_heads_are_partial_sums(sys, c):
    heads = _block_heads(sys, c.coeffs[None, :])
    assert len(heads) == sys.depth + 1
    for M_n, head in zip(sys.products, heads):
        assert np.array_equal(head[0], partial_sum(c, M_n).values[:M_n])


@settings(max_examples=40, deadline=None)
@given(small_systems, st.integers(0, 2**31 - 1))
def test_block_heads_equal_partial_sums_property(sys, seed):
    _assert_heads_are_partial_sums(sys, SpectralVector(sys, random_values(sys, seed)))


@pytest.mark.parametrize("radices,depth", [([2], 10), ([3], 6), ([5], 4), ([7], 3), ([64], 2)])
def test_block_heads_equal_partial_sums_fixed(radices, depth):
    sys = build_radix_system(radices, depth)
    _assert_heads_are_partial_sums(sys, SpectralVector(sys, random_values(sys, 48)))


# ---------------------------------------------------------------------------
# containers


def test_step_function_validation(mixed):
    with pytest.raises(ValueError):
        StepFunction(mixed, np.ones(7))
    f = StepFunction(mixed, np.full(mixed.cells, 2.0))
    assert f.values.dtype == np.complex128 and (f.values == 2.0).all()
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # stored array is frozen


def _interchange(sys, values):
    """The interchange object of values on sys, decoded from its text."""
    return json.loads("".join(render_interchange(sys, values)))


def test_json_roundtrip(mixed):
    f = StepFunction(mixed, random_values(mixed, 52))
    g_sys, g_values = parse_interchange(_interchange(mixed, f.values))
    assert g_sys == mixed
    np.testing.assert_allclose(g_values, f.values, atol=0)
    c = SpectralVector(mixed, random_values(mixed, 53))
    d = SpectralVector(*parse_interchange(_interchange(mixed, c.coeffs)))
    np.testing.assert_allclose(d.coeffs, c.coeffs, atol=0)


def test_json_parse_errors(mixed):
    good = _interchange(mixed, np.ones(mixed.cells))
    with pytest.raises(ValueError, match="parse error"):
        parse_interchange({k: v for k, v in good.items() if k != "depth"})
    bad = dict(good)
    bad["depth"] = 5
    with pytest.raises(ValueError, match="parse error"):
        parse_interchange(bad)
    bad = dict(good)
    bad["values"] = [["x", 0]] * mixed.cells
    with pytest.raises(ValueError, match="parse error"):
        parse_interchange(bad)
    # complex() would read the JSON booleans true and false as 1 and 0, and
    # overflows on an integer too large for a float
    for pair in ([float("nan"), 0.0], [0.0, float("inf")], [True, False], [0.0, True],
                 [10**400, 0], [0.0, -(10**400)]):
        bad["values"] = [pair] + good["values"][1:]
        with pytest.raises(ValueError, match="parse error"):
            parse_interchange(bad)
    # a radix or depth that is not a JSON integer is refused, not truncated
    for key, value in (("radices", None), ("radices", 234), ("radices", "234"),
                       ("radices", [2, 3.0, 4]), ("radices", [2.7, 3, 4]),
                       ("radices", [True, 3, 4]), ("depth", None), ("depth", 1.5),
                       ("depth", 3.0)):
        with pytest.raises(ValueError, match="parse error"):
            parse_interchange({**good, key: value})
    # integer radices that make no system: RadixSystem's reason, named as such
    for radices in ([1], [], [10**400], [2**40, 2**40]):
        with pytest.raises(ValueError, match="^parse error: bad radices: "):
            parse_interchange({"radices": radices, "depth": len(radices), "values": [[0, 0]]})
