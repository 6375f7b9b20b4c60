"""Acceptance gate: one test per primary criterion, at the stated tolerance.

Each test prints a single line

    criterion <k> PASS|FAIL: <measured numbers>

(visible with `pytest -s`; the -v test names double as the pass/fail list).
Runtime-limited criteria also assert their wall-clock budget.  The slack
columns of the exhaustive bound scan are written as CSV to the test's
temporary directory.
"""

import json
import math
import time

import numpy as np
import pytest

from vilenkin import (
    CounterexampleSpec,
    build_counterexample,
    build_radix_system,
    character_column,
    check_norm_equivalence,
    dirichlet_kernel,
    expected_counterexample_coefficients,
    fejer_maximal_check,
    forward_fast,
    forward_naive,
    h1_norm,
    inverse_transform,
    partial_sum,
    partial_sum_decomposition,
    verify_decomposition_norm,
)
from vilenkin.experiments import (
    random_step_corpus,
    run_divergence,
    run_gat,
    run_lebesgue_scan,
    run_variation_average,
    write_report,
)

BIG_SYSTEMS = (
    build_radix_system([2], 12),
    build_radix_system([3], 7),
    build_radix_system([2, 3, 4], 9),
)


def report(k, ok, detail):
    print(f"criterion {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_kernel_identities():
    """D_{M_n} block form and the D_{sM_n} factorization, exactly, at scale."""
    tol = 1e-9
    t0 = time.monotonic()
    worst = 0.0
    for sys in BIG_SYSTEMS:
        for n in range(sys.depth + 1):
            M_n = sys.products[n]
            want = np.zeros(sys.cells, dtype=np.complex128)
            want[::M_n] = M_n
            dev = float(np.abs(dirichlet_kernel(sys, M_n).values - want).max())
            worst = max(worst, dev)
        for n in range(sys.depth):
            M_n = sys.products[n]
            base = dirichlet_kernel(sys, M_n).values
            r_n = character_column(sys, M_n)
            geom = np.zeros(sys.cells, dtype=np.complex128)
            for s in range(1, sys.radices[n]):
                geom += r_n ** (s - 1)
                dev = float(
                    np.abs(dirichlet_kernel(sys, s * M_n).values - base * geom).max()
                )
                worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= tol and elapsed < 60
    report(1, ok, f"max kernel identity deviation {worst:.3e} <= {tol:.0e}, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_2_transform_oracle():
    """Fast transform equals the direct inner products; synthesis inverts it."""
    tol = 1e-10
    t0 = time.monotonic()
    worst_pair = worst_round = 0.0
    for sys in (
        build_radix_system([2], 10),
        build_radix_system([2, 3, 4], 6),
        build_radix_system([3], 6),
    ):
        for f in random_step_corpus(sys, 100, sys.depth, 7):
            fast = forward_fast(f)
            dev = float(np.abs(fast.coeffs - forward_naive(f).coeffs).max())
            worst_pair = max(worst_pair, dev)
            back = float(np.abs(inverse_transform(fast).values - f.values).max())
            worst_round = max(worst_round, back)
    elapsed = time.monotonic() - t0
    ok = worst_pair <= tol and worst_round <= tol and elapsed < 60
    report(2, ok, f"fast-vs-naive {worst_pair:.3e}, roundtrip {worst_round:.3e} "
                  f"<= {tol:.0e} on 300 random functions, {elapsed:.1f}s < 60s")


def test_criterion_3_bounds_exhaustive(tmp_path):
    """Two-sided variation bound for every admissible index, slack archived."""
    oracle_tol = 1e-12
    t0 = time.monotonic()
    total_violations = 0
    oracle_dev = 0.0
    slacks = []
    for sys in BIG_SYSTEMS:
        rep = run_lebesgue_scan(sys, 1, sys.cells - 1, 1e-9, {"radix": sys.spec_string()})
        total_violations += rep.summary["violations"]
        oracle_dev = max(oracle_dev, rep.summary["oracle_max_deviation"])
        slacks.append(
            (sys.spec_string(), rep.summary["min_lower_slack"],
             rep.summary["min_upper_slack"])
        )
        name = sys.spec_string().replace(",", "_").replace("^", "p")
        write_report(rep, str(tmp_path / f"lebesgue_scan_{name}.csv"), "csv")
    elapsed = time.monotonic() - t0
    ok = total_violations == 0 and oracle_dev <= oracle_tol and elapsed < 30
    detail = "; ".join(f"{n}: slack >= ({lo:.4f}, {up:.6f})" for n, lo, up in slacks)
    report(3, ok, f"0 violations across 20104 indices ({detail}), "
                  f"oracle deviation {oracle_dev:.3e} <= {oracle_tol:.0e}, "
                  f"{elapsed:.1f}s < 30s" if ok else
                  f"{total_violations} violations, oracle deviation {oracle_dev:.3e}, "
                  f"{elapsed:.1f}s")


def test_criterion_4_averaged_lower_bound():
    """Averages of v stay above 0.25 (dyadic) with the exact spot value at n=3."""
    dyadic12 = BIG_SYSTEMS[0]
    rep = run_variation_average(dyadic12, 12, {"radix": "2^12"})
    averages = {row[0]: row[1] for row in rep.table.rows}
    all_above = all(averages[n] >= 0.25 for n in range(1, 13))
    spot = averages[3]
    c_positive = []
    for sys in BIG_SYSTEMS:
        r = run_variation_average(sys, sys.depth, {"radix": sys.spec_string()})
        c_positive.append(r.summary["c_estimate"])
    ok = all_above and spot == pytest.approx(2 / 3, abs=1e-12) and all(
        c > 0 for c in c_positive
    )
    report(4, ok, f"dyadic averages n=1..12 in [{min(averages.values()):.4f}, "
                  f"{max(averages.values()):.4f}] all >= 0.25, n=3 -> {spot:.12f}, "
                  f"c_estimates {[round(c, 4) for c in c_positive]} all > 0")


def test_criterion_5_block_coefficients():
    """The lacunary construction reproduces its block-constant coefficients."""
    tol = 1e-12
    devs = []
    for sys, alphas in (
        (build_radix_system([2], 6), (1, 2)),
        (build_radix_system([2, 3, 4, 2]), (1, 3)),
    ):
        spec = CounterexampleSpec(sys, alphas)
        got = forward_fast(build_counterexample(spec)).coeffs
        devs.append(float(np.abs(got - expected_counterexample_coefficients(spec)).max()))
    ok = max(devs) <= tol
    report(5, ok, f"coefficient deviations {devs[0]:.2e} (dyadic, alphas 1,2) and "
                  f"{devs[1]:.2e} (2,3,4,2, alphas 1,3) <= {tol:.0e}")


def test_criterion_6_decomposition():
    """Head + tail reconstructs S_j f; the tail norm is the scaled Lebesgue constant."""
    rec_tol, norm_tol = 1e-10, 1e-9
    sys = build_radix_system([2], 10)
    spec = CounterexampleSpec(sys, (1, 4, 9))
    c = forward_fast(build_counterexample(spec))
    rng = np.random.default_rng(3)
    worst_rec = worst_norm = 0.0
    for _ in range(200):
        k = int(rng.integers(0, spec.terms))
        lo, hi = spec.block(k)
        j = int(rng.integers(lo, hi))
        head, tail = partial_sum_decomposition(spec, c, j)
        direct = partial_sum(c, j)
        worst_rec = max(
            worst_rec, float(np.abs(head.values + tail.values - direct.values).max())
        )
        if j > lo:
            got, want = verify_decomposition_norm(spec, j)
            worst_norm = max(worst_norm, abs(got - want))
        else:
            worst_norm = max(worst_norm, float(np.abs(tail.values).max()))
    ok = worst_rec <= rec_tol and worst_norm <= norm_tol
    report(6, ok, f"reconstruction {worst_rec:.3e} <= {rec_tol:.0e}, "
                  f"norm identity {worst_norm:.3e} <= {norm_tol:.0e}, 200 random j")


def test_criterion_7_norm_equivalence():
    """Cylinder-average maximal function equals sup of block partial sums."""
    tol = 1e-9
    sys = build_radix_system([2], 10)
    worst = 0.0
    for f in random_step_corpus(sys, 100, sys.depth, 11):
        rep = check_norm_equivalence(f, tol)
        worst = max(worst, rep.max_pointwise_diff)
    ok = worst <= tol
    report(7, ok, f"max pointwise gap {worst:.3e} <= {tol:.0e} on 100 random "
                  f"functions, ranks 1..10")


def test_criterion_8_window_averages_grow():
    """Window averages climb like sqrt(alpha_k) while the H1 norm stays flat."""
    t0 = time.monotonic()
    sys = build_radix_system([2], 10)
    rep = run_divergence(sys, (1, 4, 9), 1e-12, {"radix": "2^10"})
    elapsed = time.monotonic() - t0
    b_values = [row[3] for row in rep.table.rows]
    ratios = [row[5] for row in rep.table.rows]
    increasing = rep.summary["b_strictly_increasing"]
    spread = rep.summary["h1_spread"]
    ok = (
        increasing
        and min(ratios) > 0
        and spread < 2.0
        and rep.violations == 0
        and elapsed < 600
    )
    report(8, ok, f"B_k = {[round(b, 6) for b in b_values]} strictly increasing, "
                  f"B_k/sqrt(a_k) >= {min(ratios):.4f} > 0, h1 spread {spread:.4f} < 2, "
                  f"{elapsed:.1f}s")


def test_criterion_9_log_averages_and_fejer():
    """Bounded log-average ratio is seed-stable; Fejer stays bounded where the
    plain Cesaro average of partial-sum norms grows."""
    sys = build_radix_system([2], 10)
    reps = {seed: run_gat(sys, 50, 4, seed, {"seed": seed}) for seed in (1, 2)}
    r1 = reps[1].summary["max_bounded_ratio"]
    r2 = reps[2].summary["max_bounded_ratio"]
    stable = np.isfinite(r1) and np.isfinite(r2) and abs(r1 - r2) / max(r1, r2) <= 0.10

    # convergence form decreases from M_2 to M_N for every corpus member
    m2, mn = sys.products[2], sys.cells
    early, late = {}, {}
    for row in reps[1].table.rows:
        func_id, _, n, conv = row[0], row[1], row[2], row[3]
        if n == m2:
            early[func_id] = conv
        elif n == mn:
            late[func_id] = conv
    decreasing = all(late[i] < early[i] for i in early)

    fejer_corpus = max(
        reps[seed].summary["max_fejer_ratio"] for seed in (1, 2)
    )

    # the shared counterexample: growing Cesaro curve, bounded Fejer maximal
    div = run_divergence(sys, (1, 4, 9), 1e-12, {"radix": "2^10"})
    curve = [row[1] for row in div.extra_tables["cesaro"].rows if row[0] >= 4]
    curve_grows = all(a < b for a, b in zip(curve, curve[1:])) and curve[-1] > 2 * curve[0]
    f_ce = build_counterexample(CounterexampleSpec(sys, (1, 4, 9)))
    fejer_ce = float(
        fejer_maximal_check(sys, forward_fast(f_ce).coeffs, np.array([h1_norm(f_ce)])).ratio[0]
    )

    ok = (
        stable
        and decreasing
        and fejer_corpus < 4.0
        and fejer_ce < 4.0
        and curve_grows
    )
    report(9, ok, f"max bounded ratio {r1:.4f} vs {r2:.4f} across seeds "
                  f"(drift {abs(r1 - r2) / max(r1, r2):.1%} <= 10%), convergence form "
                  f"decreases on all 50 members, Fejer ratios <= "
                  f"{max(fejer_corpus, fejer_ce):.4f} < 4 while the Cesaro "
                  f"curve grows {curve[0]:.3f} -> {curve[-1]:.3f}")
