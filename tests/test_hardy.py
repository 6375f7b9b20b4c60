"""Maximal functions, the H1 norm, and the lacunary-block counterexample."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin import (
    CounterexampleSpec,
    StepFunction,
    build_counterexample,
    build_radix_system,
    check_norm_equivalence,
    counterexample_l1_norms,
    cumulative_l1_norms,
    cylinder_averages,
    dirichlet_kernel,
    expected_counterexample_coefficients,
    fejer_l1_norms,
    fejer_mean,
    forward_fast,
    h1_norm,
    h1_pass,
    l1_norm,
    lebesgue_constant,
    log_average,
    maximal_function,
    parse_radix_spec,
    partial_sum,
    partial_sum_decomposition,
    random_step_corpus,
    strong_sum_average,
    verify_decomposition_norm,
    window_strong_average,
)
from vilenkin import hardy, spectral
from vilenkin.experiments import run_equiv_check
from conftest import random_values, small_systems, strided_level_pass


def brute_maximal(f):
    """Per-cell sup of |cylinder averages|, straight from the definition."""
    sys = f.sys
    out = np.zeros(sys.cells)
    for t in range(sys.cells):
        best = 0.0
        for rank in range(sys.depth + 1):
            M = sys.products[rank]
            members = [s for s in range(sys.cells) if s % M == t % M]
            avg = np.mean([f.values[s] for s in members])
            best = max(best, abs(avg))
        out[t] = best
    return out


def test_cylinder_averages_endpoints(mixed):
    # the rank-n means are a function on G_n: M_n values per row
    f = StepFunction(mixed, random_values(mixed, 60))
    rank0 = cylinder_averages(mixed, f.values, 0)
    np.testing.assert_allclose(rank0, [[f.values.mean()]], atol=1e-12)
    np.testing.assert_allclose(cylinder_averages(mixed, f.values, mixed.depth), [f.values], atol=0)
    for rank in range(mixed.depth + 1):
        assert cylinder_averages(mixed, f.values, rank).shape == (1, mixed.products[rank])
    with pytest.raises(ValueError):
        cylinder_averages(mixed, f.values, mixed.depth + 1)


def test_maximal_function_brute_force(mixed):
    f = StepFunction(mixed, random_values(mixed, 61))
    np.testing.assert_allclose(maximal_function(mixed, f.values)[0], brute_maximal(f), atol=1e-12)


def _tiled_maximal(f):
    """f* by the tiled construction: every rank's means tiled out to M_N."""
    sys = f.sys
    best = np.full(sys.cells, np.abs(f.values.mean()))
    for rank in range(1, sys.depth + 1):
        width = sys.products[rank]
        means = f.values.reshape(-1, width).mean(axis=0)
        np.maximum(best, np.abs(np.tile(means, sys.cells // width)), out=best)
    return best


@settings(max_examples=40, deadline=None)
@given(sys=small_systems, seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_maximal_function_equals_tiled_construction(sys, seed, rank):
    # building both sups from coarse to fine changes no bit of the report;
    # the check runs on the quotient group G_q the function lives on
    rank = min(rank, sys.depth)
    width = sys.products[rank]
    base = random_values(sys, seed)[:width]
    f = StepFunction(sys, np.tile(base, sys.cells // width))
    assert np.array_equal(maximal_function(sys, f.values)[0], _tiled_maximal(f))
    rep = check_norm_equivalence(sys, base)
    g = _on_own_quotient(f)
    c = forward_fast(g)
    spectral = np.max([np.abs(partial_sum(c, M).values) for M in g.sys.products], axis=0)
    assert rep.sup_block_norm[0] == float(spectral.mean())
    assert rep.max_pointwise_diff[0] == float(np.max(np.abs(_tiled_maximal(g) - spectral)))


def test_maximal_of_block_kernel(dyadic6):
    # f = D_{M_n}: on I_n the nested averages are M_0, ..., M_n, so f* = M_n
    n = 3
    M_n = dyadic6.products[n]
    star = maximal_function(dyadic6, dirichlet_kernel(dyadic6, M_n).values)[0]
    on_cyl = star[::M_n]
    np.testing.assert_allclose(on_cyl, np.full(on_cyl.size, M_n), atol=1e-12)
    # the H1 norm of D_{M_n} on the dyadic system is 1 + n/2
    assert h1_norm(dirichlet_kernel(dyadic6, M_n)) == pytest.approx(1 + n / 2)


def test_h1_dominates_l1(mixed2):
    f = StepFunction(mixed2, random_values(mixed2, 62))
    assert h1_norm(f) >= l1_norm(f) - 1e-12


def test_block_sums_equal_cylinder_averages(mixed):
    # S_{M_n} f is the rank-n conditional expectation, cell by cell
    f = StepFunction(mixed, random_values(mixed, 63))
    sums = spectral._block_heads(mixed, forward_fast(f).coeffs[None, :])
    assert len(sums) == mixed.depth + 1
    for rank, s in enumerate(sums):
        np.testing.assert_allclose(
            s, cylinder_averages(mixed, f.values, rank), atol=1e-10,
            err_msg=f"rank {rank}",
        )


def test_norm_equivalence_random(dyadic6, mixed2):
    for sys in (dyadic6, mixed2):
        f = StepFunction(sys, random_values(sys, 64))
        rep = check_norm_equivalence(sys, f.values)
        assert rep.max_pointwise_diff[0] <= 1e-9
        assert rep.max_pointwise_diff[0] < 1e-10
        assert rep.h1_norm[0] == pytest.approx(rep.sup_block_norm[0], abs=1e-10)


# One function at a time, on the quotient group G_q it lives on, as the H1
# pass ran before it took row stacks: the bitwise oracles for the stacked,
# chunked pass.  q is found here by its own loop.


def _own_level(f):
    """The smallest q >= 1 such that f is M_q-periodic."""
    sys = f.sys
    q = sys.depth
    while q > 1:
        period, width = sys.products[q - 1], sys.products[q]
        if not (f.values[period:width] == f.values[: width - period]).all():
            break
        q -= 1
    return q


def _on_own_quotient(f):
    """f as a function on its own G_q: its first M_q values."""
    sub = f.sys.truncate(_own_level(f))
    return StepFunction(sub, f.values[: sub.cells])


def _one_maximal(f):
    """f* on the G_q of f."""
    g = _on_own_quotient(f)
    sys = g.sys
    best = np.array([np.abs(g.values.mean())])
    for rank, m, M in zip(range(1, sys.depth + 1), sys.radices, sys.products):
        width = sys.products[rank]
        level = np.abs(g.values.reshape(sys.cells // width, width).mean(axis=0))
        best = np.maximum(level.reshape(m, M), best).reshape(-1)
    return StepFunction(sys, best)


def _one_forward(f):
    sys = f.sys
    q = _own_level(f)
    coeffs = np.zeros(sys.cells, dtype=np.complex128)
    coeffs[: sys.products[q]] = spectral._transform(sys, f.values[: sys.products[q]], inverse=False)
    return coeffs


def _one_check(f):
    """(h1_norm, sup_block_norm, max_pointwise_diff) of one function, on its
    G_q, with the block sums from the strided oracle pass of conftest."""
    direct = _one_maximal(f).values.real
    sys = _on_own_quotient(f).sys
    out = _one_forward(f)[: sys.cells]
    best = np.abs(out[:1])
    for M_j, m in zip(sys.products[:-1], sys.radices):
        out = strided_level_pass(out.reshape(-1, m, M_j), True).reshape(-1)
        best = np.maximum(np.abs(out[: m * M_j]).reshape(m, M_j), best).reshape(-1)
    return float(direct.mean()), float(best.mean()), float(np.max(np.abs(direct - best)))


def _by_level(fs):
    """{q: ids} of the functions fs by their own level q, in increasing q and
    id: each level's rows, its first M_q values, are a stack on G_q."""
    levels = [_own_level(f) for f in fs]
    return {q: [i for i, level in enumerate(levels) if level == q] for q in sorted(set(levels))}


def _mixed_rank_stack(sys, seed, ranks):
    """One function per rank (0 is a constant), each tiled from random base values."""
    rng = np.random.default_rng(seed)
    fs = []
    for rank in ranks:
        width = sys.products[rank]
        base = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        fs.append(StepFunction(sys, np.tile(base, sys.cells // width)))
    return fs


@settings(max_examples=40, deadline=None)
@given(sys=small_systems, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_h1_pass_is_bitwise_one_function_at_a_time(sys, seed, data):
    # a stack of mixed ranks, each level's rows stacked on its G_q and passed
    # in chunks of consecutive rows
    ranks = data.draw(st.lists(st.integers(0, sys.depth), min_size=1, max_size=7))
    fs = _mixed_rank_stack(sys, seed, ranks)
    elements = data.draw(st.integers(1, 3 * sys.cells))
    h1s = np.empty(len(fs))
    for q, ids in _by_level(fs).items():
        values = np.vstack([fs[i].values[: sys.products[q]] for i in ids])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_SCAN_BLOCK_ELEMENTS", elements)
            rep = check_norm_equivalence(sys, values)
            chunks = list(h1_pass(sys, values))
        step = max(1, elements // sys.products[q])
        assert [range(len(ids))[rows] for rows, *_ in chunks] == [
            range(lo, min(lo + step, len(ids))) for lo in range(0, len(ids), step)]
        for rows, sub, c, star in chunks:
            assert sub == sys.truncate(q)
            assert np.array_equal(c, [_one_forward(fs[i])[: sub.cells] for i in ids[rows]])
            assert np.array_equal(star, [_one_maximal(fs[i]).values.real for i in ids[rows]])
            h1s[ids[rows]] = star.mean(axis=1)
        want = np.array([_one_check(fs[i]) for i in ids])
        assert np.array_equal(rep.h1_norm, want[:, 0])
        assert np.array_equal(rep.sup_block_norm, want[:, 1])
        assert np.array_equal(rep.max_pointwise_diff, want[:, 2])
    assert np.array_equal(h1s, [l1_norm(_one_maximal(f)) for f in fs])
    assert [h1_norm(f) for f in fs] == [l1_norm(_one_maximal(f)) for f in fs]
    assert all(np.array_equal(forward_fast(f).coeffs, _one_forward(f)) for f in fs)


def _full_group_check(sys, values):
    """f*, sup_n |S_{M_n} f| and the coefficients of each row, all on G_N:
    the averages and block sums past each row's period level included."""
    coeffs = np.vstack([forward_fast(StepFunction(sys, v)).coeffs for v in values])
    direct = maximal_function(sys, values)
    blocks = spectral._block_heads(sys, coeffs)
    return coeffs, direct, hardy._sup_of_levels(sys, [np.abs(s) for s in blocks])


@settings(max_examples=40, deadline=None)
@given(sys=small_systems, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_quotient_h1_pass_matches_the_full_group_route(sys, seed, data):
    # past rank q every average and block sum is f itself, so the route on
    # G_N gives the tiles of the one on G_q, but for rounding
    ranks = data.draw(st.lists(st.integers(0, sys.depth), min_size=1, max_size=7))
    fs = _mixed_rank_stack(sys, seed, ranks)
    coeffs, direct, spectral_sup = _full_group_check(sys, np.vstack([f.values for f in fs]))
    for q, ids in _by_level(fs).items():
        values = np.vstack([fs[i].values[: sys.products[q]] for i in ids])
        rep = check_norm_equivalence(sys, values)
        np.testing.assert_allclose(rep.h1_norm, direct[ids].mean(axis=1), rtol=1e-14, atol=0)
        np.testing.assert_allclose(rep.sup_block_norm, spectral_sup[ids].mean(axis=1),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(rep.max_pointwise_diff,
                                   np.abs(direct[ids] - spectral_sup[ids]).max(axis=1),
                                   rtol=0, atol=1e-14)
        for rows, sub, c, star in h1_pass(sys, values):
            at = ids[rows]
            tiles = sys.cells // sub.cells
            np.testing.assert_allclose(np.tile(star, tiles), direct[at], rtol=1e-14, atol=0)
            assert np.array_equal(c, coeffs[at, : sub.cells])
            assert not coeffs[at, sub.cells :].any()


def test_h1_pass_outputs_permute_with_the_rows(mixed2):
    # ranks 0 .. 6 twice, shuffled: every output row follows its input row,
    # bit for bit, whatever rows share its chunk
    fs = _mixed_rank_stack(mixed2, 72, [*range(mixed2.depth + 1)] * 2)
    values = np.vstack([f.values for f in fs])
    perm = np.random.default_rng(73).permutation(len(fs))
    rep = check_norm_equivalence(mixed2, values)
    shuffled = check_norm_equivalence(mixed2, values[perm])
    for name in ("h1_norm", "sup_block_norm", "max_pointwise_diff"):
        assert np.array_equal(getattr(shuffled, name), getattr(rep, name)[perm]), name
    stars = {}
    for rows, sub, _, star in h1_pass(mixed2, values[perm]):
        stars.update(zip(perm[rows].tolist(), star))
    for rows, sub, _, star in h1_pass(mixed2, values):
        for i, s in zip(range(len(fs))[rows], star):
            assert np.array_equal(stars[i], s)


def test_h1_norm_is_the_h1_pass_value(dyadic6, mixed2):
    for sys in (dyadic6, mixed2):
        fs = _mixed_rank_stack(sys, 74, range(sys.depth + 1))
        pass_h1 = np.empty(len(fs))
        for q, ids in _by_level(fs).items():
            values = np.vstack([fs[i].values[: sys.products[q]] for i in ids])
            for rows, _, _, star in h1_pass(sys, values):
                pass_h1[ids[rows]] = star.mean(axis=1)
        assert [h1_norm(f) for f in fs] == pass_h1.tolist()


def test_h1_pass_on_low_rank_corpus_stays_on_g4(dyadic10, monkeypatch):
    # the rank <= 4 corpus lives on G_4: no maximal function and no block
    # synthesis inside the pass sees more than M_4 = 16 columns
    seen = []

    def spy(name):
        real = getattr(hardy, name)

        def wrapped(sys, rows):
            seen.append((name, rows.shape[-1]))
            return real(sys, rows)

        monkeypatch.setattr(hardy, name, wrapped)

    spy("maximal_function")
    spy("_block_heads")
    run_equiv_check(dyadic10, 50, 4, 1, 1e-9)
    assert {name for name, _ in seen} == {"maximal_function", "_block_heads"}
    assert max(width for _, width in seen) <= 16


# ---------------------------------------------------------------------------
# counterexample construction


def test_spec_validation(dyadic10):
    with pytest.raises(ValueError):
        CounterexampleSpec(dyadic10, ())
    with pytest.raises(ValueError):
        CounterexampleSpec(dyadic10, (2, 2))
    with pytest.raises(ValueError):
        CounterexampleSpec(dyadic10, (0, 1))
    with pytest.raises(ValueError, match="depth insufficient"):
        CounterexampleSpec(dyadic10, (1, 10))


def test_spec_accessors(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 4, 9))
    assert spec.terms == 3
    assert spec.weights == pytest.approx((1.0, 0.5, 1 / 3))
    assert spec.tail_sum == pytest.approx(11 / 6)
    assert spec.block(0) == (2, 4)
    assert spec.block(1) == (16, 32)
    assert spec.block(2) == (512, 1024)
    assert spec.block_of(17) == 1
    assert spec.block_of(5) is None  # between blocks
    assert spec.truncated(2).alphas == (1, 4)
    # on the group the truncation lives on: the first a + 1 = 5 levels
    assert spec.truncated(2).sys == dyadic10.truncate(5)
    with pytest.raises(ValueError):
        spec.truncated(0)


def test_counterexample_coefficients_frozen(dyadic6):
    # alphas (1, 2): blocks [2, 4) at weight 1 and [4, 8) at weight 1/sqrt(2)
    spec = CounterexampleSpec(dyadic6, (1, 2))
    f = build_counterexample(spec)
    coeffs = forward_fast(f).coeffs
    w = 1 / math.sqrt(2)
    want = np.zeros(dyadic6.cells, dtype=np.complex128)
    want[2:4] = 1.0
    want[4:8] = w
    np.testing.assert_allclose(coeffs, want, atol=1e-12)
    np.testing.assert_allclose(coeffs, expected_counterexample_coefficients(spec), atol=1e-12)


def test_counterexample_blocks_on_mixed_system():
    sys = build_radix_system([2, 3, 4, 2])
    spec = CounterexampleSpec(sys, (1, 3))
    dev = np.abs(
        forward_fast(build_counterexample(spec)).coeffs
        - expected_counterexample_coefficients(spec)
    ).max()
    assert dev < 1e-12


def test_single_term_l1_norm(dyadic10):
    # ||D_{M_{a+1}} - D_{M_a}||_1 = 2 (1 - 1/m_a); weight scales linearly
    for a in (1, 4):
        spec = CounterexampleSpec(dyadic10, (a,))
        f = build_counterexample(spec)
        assert l1_norm(f) == pytest.approx(spec.weights[0] * 1.0)


def test_counterexample_integral_vanishes(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 4, 9))
    f = build_counterexample(spec)
    assert abs(f.values.mean()) < 1e-12  # coefficient 0 is outside every block


def test_truncation_h1_frozen(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 4, 9))
    h1s = [h1_norm(build_counterexample(spec.truncated(k))) for k in (1, 2, 3)]
    assert h1s[0] == pytest.approx(1.0)
    assert h1s[1] == pytest.approx(1.375)
    assert h1s[2] == pytest.approx(1.6888020833333333)


@pytest.mark.parametrize("radices,depth,alphas", [
    ([2], 10, (1, 4, 9)), ([3], 7, (1, 3, 5)), ([2, 3, 4], 6, (1, 2, 4))])
def test_truncation_h1_matches_the_full_system(radices, depth, alphas):
    # the truncation's function is the first M_{a+1} values of the one on
    # the full system, so its H1 norm is the same to the bit
    sys = build_radix_system(radices, depth)
    spec = CounterexampleSpec(sys, alphas)
    for k in range(1, len(alphas) + 1):
        full = build_counterexample(CounterexampleSpec(sys, alphas[:k]))
        assert h1_norm(build_counterexample(spec.truncated(k))) == h1_norm(full)


# ---------------------------------------------------------------------------
# the in-block decomposition


def test_decomposition_spec_example(dyadic6):
    # alphas (1, 2), j = 5: tail = (1/sqrt 2) psi_4 D_1, so ||tail||_1 = 1/sqrt 2
    spec = CounterexampleSpec(dyadic6, (1, 2))
    c = forward_fast(build_counterexample(spec))
    head, tail = partial_sum_decomposition(spec, c, 5)
    np.testing.assert_allclose(
        head.values + tail.values, partial_sum(c, 5).values, atol=1e-12
    )
    assert l1_norm(tail) == pytest.approx(1 / math.sqrt(2))
    got, want = verify_decomposition_norm(spec, 5)
    assert got == pytest.approx(want, abs=1e-12)


def test_decomposition_all_in_block_indices(dyadic6):
    spec = CounterexampleSpec(dyadic6, (1, 2))
    c = forward_fast(build_counterexample(spec))
    for k in range(spec.terms):
        lo, hi = spec.block(k)
        for j in range(lo, hi):
            head, tail = partial_sum_decomposition(spec, c, j)
            np.testing.assert_allclose(
                head.values + tail.values, partial_sum(c, j).values, atol=1e-12,
                err_msg=f"j={j}",
            )
    # at the block start the tail is D_0 = 0
    _, tail = partial_sum_decomposition(spec, c, 2)
    assert np.abs(tail.values).max() == 0.0


def test_decomposition_rejects_gap_index(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 3))
    c = forward_fast(build_counterexample(spec))
    with pytest.raises(ValueError):
        partial_sum_decomposition(spec, c, 5)  # between the two blocks
    with pytest.raises(ValueError):
        verify_decomposition_norm(spec, 2)  # at the block start


def test_decomposition_norm_is_weighted_lebesgue(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 4, 9))
    for j in (3, 17, 25, 513, 700, 1023):
        got, want = verify_decomposition_norm(spec, j)
        k = spec.block_of(j)
        lo, _ = spec.block(k)
        assert want == pytest.approx(
            spec.weights[k] * lebesgue_constant(dyadic10, j - lo)
        )
        assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# the closed-form partial-sum norms


def _check_closed_form(spec):
    sys_obj = spec.sys
    norms = counterexample_l1_norms(spec)
    assert norms.shape == (sys_obj.cells,)
    c = forward_fast(build_counterexample(spec))
    scan = cumulative_l1_norms(sys_obj, c.coeffs, 1, sys_obj.cells)[0]
    np.testing.assert_allclose(norms, scan, rtol=0, atol=1e-12)
    # S_l f = 0 up to the first block, and S_l f stays put between blocks
    first = sys_obj.products[spec.alphas[0]]
    assert not norms[:first].any()
    ends = [sys_obj.products[a] for a in spec.alphas[1:]] + [sys_obj.cells]
    for a, end in zip(spec.alphas, ends):
        stop = sys_obj.products[a + 1]
        assert (norms[stop - 1 : end] == norms[stop - 1]).all()
    return norms, c


@settings(max_examples=60, deadline=None)
@given(sys_obj=small_systems.filter(lambda s: s.depth >= 2), data=st.data())
def test_closed_form_norms_match_scan(sys_obj, data):
    levels = data.draw(st.sets(st.integers(1, sys_obj.depth - 1), min_size=1))
    _check_closed_form(CounterexampleSpec(sys_obj, tuple(sorted(levels))))


@pytest.mark.parametrize("radix,alphas", [("3^7", (1, 3, 5)), ("2^12", (1, 4, 9, 11))])
def test_closed_form_norms_fixed_cases(radix, alphas):
    spec = CounterexampleSpec(parse_radix_spec(radix), alphas)
    norms, c = _check_closed_form(spec)
    # and against the block decomposition S_l f = head + tail at in-block l
    for k in range(spec.terms):
        lo, hi = spec.block(k)
        for l in (lo + 1, (lo + hi) // 2, hi - 1):
            head, tail = partial_sum_decomposition(spec, c, l)
            whole = StepFunction(spec.sys, head.values + tail.values)
            assert norms[l - 1] == pytest.approx(l1_norm(whole), abs=1e-12)
            if k == 0:
                # no completed block: S_l f is the tail, of norm a^{-1/2} L_j
                assert norms[l - 1] == pytest.approx(
                    verify_decomposition_norm(spec, l)[1], abs=1e-12)


# ---------------------------------------------------------------------------
# averages


def test_partial_sum_scan_matches_direct(mixed):
    f = StepFunction(mixed, random_values(mixed, 66))
    c = forward_fast(f)
    norms = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells)[0]
    for m in (1, 7, 24):
        assert norms[m - 1] == pytest.approx(
            l1_norm(partial_sum(c, m)), abs=1e-12
        )
    diffs = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells, offsets=-f.values)[0]
    assert diffs[-1] == pytest.approx(0.0, abs=1e-12)


def test_strong_sum_average_manual(mixed):
    f = StepFunction(mixed, random_values(mixed, 67))
    c = forward_fast(f)
    norms = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells)[0]
    ns = [10, 1, mixed.cells, 10]
    sums = np.cumsum([l1_norm(partial_sum(c, m)) for m in range(1, mixed.cells + 1)])
    got = strong_sum_average(norms, ns)
    assert got.shape == (4,)
    np.testing.assert_allclose(got, [sums[n - 1] / n for n in ns], rtol=0, atol=1e-12)
    # every endpoint is bit for bit its own running sum over norms[:n]
    for n, avg in zip(ns, got):
        assert avg == np.cumsum(norms[:n])[-1] / n
    for bad in ([mixed.cells + 1], [0], [3, mixed.cells + 1]):
        with pytest.raises(ValueError, match="average lengths"):
            strong_sum_average(norms, bad)


def test_window_average_frozen(dyadic10):
    spec = CounterexampleSpec(dyadic10, (1, 4, 9))
    c = forward_fast(build_counterexample(spec))
    norms = cumulative_l1_norms(dyadic10, c.coeffs, 1, dyadic10.cells)[0]
    # B_1 window is l = 2..4 over normalizer M_2 = 4
    assert window_strong_average(spec, norms, 0) == pytest.approx(0.5)
    assert window_strong_average(spec, norms, 1) == pytest.approx(0.685546875)
    assert window_strong_average(spec, norms, 2) == pytest.approx(0.8759403228759763)
    with pytest.raises(ValueError, match="partial-sum norms"):
        window_strong_average(spec, norms[:-1], 0)


def test_log_average_manual(mixed):
    f = StepFunction(mixed, random_values(mixed, 68))
    c = forward_fast(f)
    ends = (2, 12, mixed.cells)
    norms = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells)[0]
    diffs = cumulative_l1_norms(mixed, c.coeffs, 1, mixed.cells, offsets=-f.values)[0]
    conv, bnd = log_average(np.stack((diffs, norms)), ends)
    assert conv.shape == bnd.shape == (len(ends),)
    for j, n in enumerate(ends):
        want_conv = sum(
            l1_norm(StepFunction(mixed, partial_sum(c, k).values - f.values)) / k
            for k in range(1, n + 1)
        ) / math.log(n)
        want_bnd = sum(
            l1_norm(partial_sum(c, k)) / k for k in range(1, n + 1)
        ) / math.log(n)
        assert conv[j] == pytest.approx(want_conv, abs=1e-12)
        assert bnd[j] == pytest.approx(want_bnd, abs=1e-12)
    for bad in ((1,), (12, 0), ()):
        with pytest.raises(ValueError, match="log average endpoints"):
            log_average(norms, bad)


@pytest.mark.parametrize("radix,rank", [("2,3,4", 2), ("2,3,4", 5), ("2^13", 2)])
def test_log_average_frozen_tail_matches_the_full_scan(radix, rank):
    # a rank-r function scanned on G_r stops at M_r; past it log_average
    # takes the frozen norm times a harmonic gap, which the scan of the
    # full-width function up to M_N sums term by term (2^13 > 4096 takes
    # the Euler-Maclaurin branch of _harmonic_gap)
    sys_obj = parse_radix_spec(radix, 6 if "," in radix else None)
    f = random_step_corpus(sys_obj, rank, rank, 29)[-1]
    c = forward_fast(f).coeffs
    width = sys_obj.products[rank]
    ends = sys_obj.products[1:]
    narrow = np.stack((cumulative_l1_norms(sys_obj, c[:width], 1, width,
                                           offsets=-f.values[:width]),
                       cumulative_l1_norms(sys_obj, c[:width], 1, width)))
    full = np.stack((cumulative_l1_norms(sys_obj, c, 1, sys_obj.cells, offsets=-f.values),
                     cumulative_l1_norms(sys_obj, c, 1, sys_obj.cells)))
    assert narrow.shape[-1] == width and full.shape[-1] == sys_obj.cells
    np.testing.assert_allclose(log_average(narrow, ends), log_average(full, ends),
                               rtol=1e-14, atol=1e-14)


def test_harmonic_gap_is_the_exact_sum_to_an_ulp():
    # up to n = 2^12 the gap is math.fsum of the rounded terms 1/k: within
    # one ulp of the exact sum, on the ends of the range and seeded pairs
    exact = [Fraction(0)]
    for k in range(1, 2**12 + 1):
        exact.append(exact[-1] + Fraction(1, k))
    rng = np.random.default_rng(12)
    pairs = [(1, 2), (1, 2**12), (2**12 - 1, 2**12), (2, 16), (16, 17)]
    pairs += [tuple(sorted(p)) for p in rng.choice(np.arange(1, 2**12 + 1), (200, 2))
              if p[0] != p[1]]
    for m, n in pairs:
        want = exact[n] - exact[m]
        got = hardy._harmonic_gap(int(m), int(n))
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want))), (m, n)


def test_harmonic_gap_past_its_terms_matches_fsum():
    # past 2^12 the Euler-Maclaurin form, with log1p for the log term, stays
    # within 2^-52 relative of math.fsum of every term up to 2^20; a plain
    # log difference would lose about 1e-10 at (2^16, 2^16 + 1)
    rng = np.random.default_rng(20)
    pairs = [(2**16, 2**16 + 1), (2**12, 2**12 + 1), (2**12 - 1, 2**12 + 1), (1, 2**20),
             (16, 2**20), (2**19, 2**20), (2**20 - 1, 2**20)]
    pairs += [tuple(sorted(p)) for p in rng.integers(1, 2**20 + 1, (12, 2)) if p[0] != p[1]]
    for m, n in pairs:
        want = math.fsum(1 / k for k in range(int(m) + 1, int(n) + 1))
        got = hardy._harmonic_gap(int(m), int(n))
        assert abs(got - want) <= 2**-52 * want, (m, n)


def test_gat_convergence_decreases_for_finite_rank(dyadic10):
    # f depends on the digits 8 and 9 only: S_k f = f from k = 3 M_8 + 1 on,
    # so the tail only divides by log n
    rng = np.random.default_rng(69)
    vals = np.repeat(rng.standard_normal(4) + 1j * rng.standard_normal(4), 256)
    f = StepFunction(dyadic10, np.ascontiguousarray(vals))
    diffs = cumulative_l1_norms(dyadic10, forward_fast(f).coeffs, 1, dyadic10.cells,
                                offsets=-f.values)[0]
    conv = log_average(diffs, (dyadic10.products[2], dyadic10.cells))
    assert conv[1] < conv[0]


def test_fejer_maximum_manual(mixed):
    fs = [StepFunction(mixed, random_values(mixed, seed)) for seed in (70, 71)]
    h1 = np.array([h1_norm(f) for f in fs])
    sup = fejer_l1_norms(mixed, np.vstack([forward_fast(f).coeffs for f in fs]), mixed.cells)
    for i, f in enumerate(fs):
        c = forward_fast(f)
        norms = [l1_norm(fejer_mean(c, n)) for n in range(1, mixed.cells + 1)]
        assert sup[i] == pytest.approx(max(norms), abs=1e-12)
        assert sup[i] / h1[i] == pytest.approx(max(norms) / h1_norm(f))
