"""L1 norms, Lebesgue constants, and the digit-variation statistics bounding them.

For an index n with digits n_j the two variation counts are

    delta_j   = 1 if n_j != 0 else 0
    delta*_j  = |((m_j - n_j) mod m_j) - 1| * delta_j
    v(n)      = delta_0 + sum_j |delta_{j+1} - delta_j|
    v*(n)     = sum_j delta*_j

(delta vanishes above the top digit, so the sum for v is finite).  The
Lebesgue constant L_n = ||D_n||_1 sits between

    v(n)/(4 lambda) + v*(n)/lambda + 1/(2 lambda)   and   1.5 v(n) + 4 v*(n) - 1

with lambda the largest radix.  On dyadic systems delta* vanishes
identically and the bounds collapse to the classical Walsh ones.

L_n has a closed form (Paley's lemma for Vilenkin-Dirichlet kernels;
Schipp-Wade-Simon, *Walsh Series*, 1990; Agaev-Vilenkin-Dzhafarli-
Rubinshtein, 1981).  On the piece x_0 = ... = x_{p-1} = 0, x_p = c != 0,
which has measure 1/M_{p+1},

    |D_n(x)| = | w_p^{c n_p} (n mod M_p) + M_p sum_{u < n_p} w_p^{c u} |,
    w_p = exp(2 pi i / m_p),

and D_n(0) = n on the last piece {0}, of measure 1/M_N.  So

    L_n = n/M_N + sum_p sum_{c=1}^{m_p - 1} |...| / M_{p+1},

O(sum_p m_p) per index.  _piece_norms evaluates the piece sums, for
lebesgue_scan and for hardy's counterexample norms; lebesgue_constant takes
the Dirichlet-kernel route and serves as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radix import RadixSystem, decompose
from .spectral import StepFunction, _root_table, dirichlet_kernel


def l1_norm(f: StepFunction) -> float:
    """Normalized L1 norm (1/M_N) sum |f|.

    numpy's pairwise summation keeps the accumulation error in the same
    class as compensated summation, so large cell counts need no special
    treatment.
    """
    return float(np.abs(f.values).mean())


def lebesgue_constant(sys: RadixSystem, n: int) -> float:
    """L_n = ||D_n||_1.  Defined for 1 <= n <= M_N.

    D_n is measurable at rank order(n)+1, so the value does not depend on
    the depth used to realize it (tested, not assumed).  Built from the
    kernel, it is the oracle for the closed form of lebesgue_scan.
    """
    if not 1 <= n <= sys.cells:
        raise ValueError(f"Lebesgue constant index {n} out of range [1, {sys.cells}]")
    return l1_norm(dirichlet_kernel(sys, n))


def _piece_norms(
    sys: RadixSystem, a: int, weight: float, heads: np.ndarray, js: np.ndarray
) -> np.ndarray:
    """||h + weight r_a D_j||_1 for the offsets js in [1, M_{a+1}], h being
    heads[p] on the Paley piece p, heads[N] at x = 0, and constant on I_{a+1}
    (the pieces p > a and the point 0), where r_a = 1 and D_j = j.

    On the piece p <= a, x_p = c, Paley's lemma gives weight D_j =
    prod_{q>p} r_q^{j_q} w_p^{c j_p} (rest + tail[c - 1, j_p]), with
    rest = weight (j mod M_p) and tail[c - 1, d] = weight M_p sum_{v=1}^{d}
    w_p^{-c v}, tabled up to the largest digit d that occurs.  A piece whose
    head is exactly 0 takes |rest + tail|.  Any other takes z = w_p^{c j_p}
    (rest + tail), times r_a = w_a^c at p = a: the free digits x_q,
    p < q <= a, enter only through the phase prod_q r_q^{e_q} (e_q = j_q,
    e_a = j_a + 1), uniform on the L-th roots of unity, L = lcm_q m_q /
    gcd(m_q, e_q), and the piece value is the mean of |head + omega z| over
    those roots omega.  L is built from the top digit down; the levels are
    summed from p = 0 up.
    """
    total = np.abs(heads[a + 1] + weight * js) / sys.products[a + 1]
    groups, order = {}, np.ones(js.shape, dtype=np.int64)
    for p in range(a, -1, -1) if heads.any() else ():
        m = sys.radices[p]
        # the offsets of each L of piece p, the lcm over p < q <= a
        groups[p] = [(L, order == L) for L in np.flatnonzero(np.bincount(order)).tolist()]
        order = np.lcm(order, m // np.gcd(m, (js // sys.products[p] + (p == a)) % m))
    for p in range(a + 1):
        m, M_p = sys.radices[p], sys.products[p]
        digit, rest = (js // M_p) % m, weight * (js % M_p)
        roots = _root_table(m)
        # a prefix of the cumsum is the cumsum of the prefix: the full table's values
        powers = roots[-np.outer(np.arange(1, m), np.arange(digit.max() + 1)) % m]
        tail = weight * M_p * (np.cumsum(powers, axis=1) - 1.0)
        piece = np.zeros(js.shape)
        for c, row in enumerate(tail, 1):
            value = rest + row[digit]
            if not heads[p]:
                piece += np.abs(value)
                continue
            value *= roots[c * (digit + (p == a)) % m]  # z, in place
            for L, sel in groups[p]:
                zs = value[sel]
                piece[sel] += sum(np.abs(heads[p] + w * zs) for w in _root_table(L)) / L
        total += piece / sys.products[p + 1]
    return total


def lebesgue_scan(sys: RadixSystem, lo: int, hi: int) -> np.ndarray:
    """L_n for every n = lo .. hi inclusive, by the piecewise closed form: the
    zero-head call of _piece_norms at a = N - 1, as |r_{N-1}| = 1.  Each level
    needs one small table and one gather per c; no length-M_N array is built."""
    if not 1 <= lo <= hi <= sys.cells:
        raise ValueError(f"scan range [{lo}, {hi}] outside [1, {sys.cells}]")
    return _piece_norms(sys, sys.depth - 1, 1.0, np.zeros(sys.depth + 1),
                        np.arange(lo, hi + 1, dtype=np.int64))


@dataclass(frozen=True)
class VariationProfile:
    """Digit variation data for one index."""

    delta: tuple[int, ...]
    delta_star: tuple[int, ...]
    v: int
    v_star: int


def variation_profile(sys: RadixSystem, n: int) -> VariationProfile:
    """The digit variations v(n) and v*(n) of one index, read digit by digit.

    The per-index oracle for the vectorized variation_values and variation_sum.
    """
    digits = decompose(sys, n)
    delta = tuple(1 if d else 0 for d in digits)
    delta_star = tuple(
        abs(((m - d) % m) - 1) * (1 if d else 0)
        for d, m in zip(digits, sys.radices)
    )
    v = delta[0] + sum(
        abs((delta[j + 1] if j + 1 < len(delta) else 0) - delta[j])
        for j in range(len(delta))
    )
    return VariationProfile(delta, delta_star, v, sum(delta_star))


def variation_values(sys: RadixSystem, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (v(n), v*(n)) for an arbitrary array of indices."""
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and (ns.min() < 0 or ns.max() >= sys.cells):
        raise ValueError(f"indices outside [0, {sys.cells})")
    v = np.zeros(ns.shape, dtype=np.int64)
    v_star = np.zeros(ns.shape, dtype=np.int64)
    prev = np.zeros(ns.shape, dtype=np.int64)
    for j in range(sys.depth):
        m = sys.radices[j]
        d = (ns // sys.products[j]) % m
        cur = (d != 0).astype(np.int64)
        if j == 0:
            v += cur  # the leading delta_0 term
        else:
            v += np.abs(cur - prev)
        v_star += np.where(d != 0, m - d - 1, 0)
        prev = cur
    v += prev  # final transition back to zero above the top digit
    return v, v_star


def variation_bound_arrays(
    v: np.ndarray, v_star: np.ndarray, max_radix: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Lebesgue-constant bounds from the variation counts."""
    lam = float(max_radix)
    lower = v / (4.0 * lam) + v_star / lam + 1.0 / (2.0 * lam)
    upper = 1.5 * v + 4.0 * v_star - 1.0
    return lower, upper


def variation_sum(sys: RadixSystem, n: int) -> int:
    """sum_{k=1}^{M_n - 1} v(k), the numerator of both lemma1 averages, as an
    exact count.  The digits j < n of k < M = M_n run over Z_{m_j} freely and
    the rest vanish, so delta_0 = 1 for M/m_0 (m_0 - 1) of the k, delta_{n-1}
    = 1 for M/m_{n-1} (m_{n-1} - 1), and exactly one of delta_j, delta_{j+1}
    is 1 for M/(m_j m_{j+1}) (m_j + m_{j+1} - 2).  Summing variation_profile
    is its oracle.
    """
    if not 1 <= n <= sys.depth:
        raise ValueError(f"level {n} out of range [1, {sys.depth}]")
    M, ms = sys.products[n], sys.radices[:n]
    return (M // ms[0] * (ms[0] - 1) + M // ms[-1] * (ms[-1] - 1)
            + sum(M // (a * b) * (a + b - 2) for a, b in zip(ms, ms[1:])))


def max_lebesgue_log_ratio(lebesgue: np.ndarray, lo: int) -> tuple[float, int]:
    """Largest L_n / ln(n) over a scanned range and the n attaining it."""
    ns = np.arange(lo, lo + lebesgue.size)
    mask = ns >= 2
    if not mask.any():
        return 0.0, 0
    ratios = lebesgue[mask] / np.log(ns[mask])
    pos = int(np.argmax(ratios))
    return float(ratios[pos]), int(ns[mask][pos])
