"""Martingale maximal machinery, the H1 norm, and lacunary-block experiments.

The maximal function of a step function is the sup over ranks of the
absolute cylinder averages; its L1 norm is the martingale H1 norm.  Each
rank's averages are the averages of the rank above (the tower property), so
f* takes O(M_N) work per row, not O(N M_N).  For rank-N step functions the
rank-n average coincides pointwise with the partial sum S_{M_n} f, which
makes the norm equivalence checkable as an exact identity rather than a
two-sided estimate.  The H1 routines take a stack of functions, one per row
of an array.  They follow the rule of the scans: rows of M_q columns are
functions on G_q, and past rank q every cylinder average and block sum
S_{M_n} f is f itself, so f* and the spectral sup on G_N are tiles of those
on G_q.  The H1 pass (h1_pass) reads G_q from the width of its rows and
takes them in chunks, one numpy call per chunk.  The corpus drivers pass
each rank-r function as its first M_r values; gat scans them on G_r, and
log_average takes the frozen tail up to M_N in closed form.  Only h1_norm,
which takes one full-width function, searches for its period.

The counterexample family lives here too: for increasing exponents a_k the
function f = sum_k (D_{M_{a_k + 1}} - D_{M_{a_k}}) / sqrt(a_k) has block
constant coefficients, uniformly bounded H1 norm, and window averages of
partial-sum norms growing like sqrt(a_k).  Those norms have a closed form
over the Paley pieces (counterexample_l1_norms), checked against the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .norms import _piece_norms, l1_norm, lebesgue_constant
from .radix import RadixSystem
from .spectral import (
    _SCAN_BLOCK_ELEMENTS,
    SpectralVector,
    StepFunction,
    _as_rows,
    _block_heads,
    _chunk_rows,
    _level_rows,
    _own_quotient,
    _transform,
    character_block,
    dirichlet_kernel,
    forward_fast,
    partial_sum,
)


def _sup_of_levels(sys: RadixSystem, levels: list[np.ndarray]) -> np.ndarray:
    """sup_n levels[n] at every cell of every row, where levels[n] is an
    array (rows, M_n) of functions on G_n.

    Built from coarse to fine: on G_n the previous sup, a function on
    G_{n-1}, is broadcast along the digit-(n-1) axis, so no level is tiled
    out to M_N.  The maximum is exact, so the order changes no value.
    """
    best = levels[0]
    for level, m, M in zip(levels[1:], sys.radices, sys.products):
        best = np.maximum(level.reshape(-1, m, M), best[:, None, :]).reshape(len(level), -1)
    return best


def maximal_function(sys: RadixSystem, values: np.ndarray) -> np.ndarray:
    """f*(x) = sup over ranks of |average of f over the cylinder at x|, for
    each row f of values: an array (rows, M_N).  The rank-n means are the
    rank-(n+1) means averaged over the digit x_n, E_n f = E(E_{n+1} f | F_n):
    one numpy mean per level, on M_{n+1} columns."""
    level = _as_rows(values, sys.cells, "values")
    sizes = [np.abs(level)]
    for m, M in zip(sys.radices[::-1], sys.products[-2::-1]):
        level = level.reshape(len(level), m, M).mean(axis=1)
        sizes.append(np.abs(level))
    return _sup_of_levels(sys, sizes[::-1])


def h1_norm(f: StepFunction) -> float:
    """Martingale Hardy norm ||f||_{H_1} = ||f*||_1, taken on the quotient
    group G_q of f (_own_quotient), and equal bit for bit to the h1_pass
    value of its first M_q values."""
    sub, head = _own_quotient(f)
    return float(maximal_function(sub, head)[0].mean())


def h1_pass(
    sys: RadixSystem, values: np.ndarray
) -> Iterator[tuple[slice, RadixSystem, np.ndarray, np.ndarray]]:
    """The stacked H1 pass over the rows of values (rows, M_q), functions on
    G_q (_level_rows).

    Past rank q the averages and the block sums S_{M_n} f are f itself, so
    f* and the coefficients on G_N are the tiles, and the zero-fill past
    M_q, of those on G_q.  Yields (row slice, G_q, coefficients on G_q,
    f* on G_q) for chunks of at most _chunk_rows(G_q) consecutive rows, so
    the scratch of a pass grows neither with the number of rows nor past
    M_q columns.
    """
    sub, rows = _level_rows(sys, values)
    step = _chunk_rows(sub)
    for lo in range(0, len(rows), step):
        take = slice(lo, min(lo + step, len(rows)))
        head = rows[take]
        yield take, sub, _transform(sub, head, inverse=False), maximal_function(sub, head)


def check_norm_equivalence(
    sys: RadixSystem, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare f* (cylinder averages) against sup_n |S_{M_n} f| (spectral),
    for each row f of values, rows of M_q columns read on G_q as in h1_pass:
    the arrays (||f*||_1, ||sup_n |S_{M_n} f| ||_1, max cellwise gap), one
    entry per row.

    The two families coincide pointwise for rank-N step functions, so the
    check returns the max cellwise difference, not just the norms; the
    caller judges it against its own tolerance.  Each chunk of h1_pass gets
    its block partial sums on its G_q from one synthesis of its coefficients.
    """
    out = [np.empty((3, 0))]
    for _, sub, coeffs, direct in h1_pass(sys, values):
        spectral = _sup_of_levels(sub, [np.abs(s) for s in _block_heads(sub, coeffs)])
        out.append((direct.mean(axis=1), spectral.mean(axis=1),
                    np.abs(direct - spectral).max(axis=1)))
    return tuple(np.concatenate(out, axis=1))


# ---------------------------------------------------------------------------
# the lacunary-block counterexample


@dataclass(frozen=True)
class CounterexampleSpec:
    """Exponent schedule for the lacunary block martingale.

    alphas must be strictly increasing and at least 1, and the system must
    be deep enough to hold the last coefficient block: depth >= a_K + 1.
    """

    sys: RadixSystem
    alphas: tuple[int, ...]

    def __post_init__(self) -> None:
        alphas = tuple(int(a) for a in self.alphas)
        if not alphas:
            raise ValueError("alpha schedule must contain at least one exponent")
        if alphas[0] < 1 or any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError(f"alpha schedule {alphas} must be strictly increasing and >= 1")
        if alphas[-1] + 1 > self.sys.depth:
            raise ValueError(
                f"depth insufficient: schedule needs depth >= {alphas[-1] + 1}, "
                f"system has {self.sys.depth}"
            )
        object.__setattr__(self, "alphas", alphas)

    @property
    def terms(self) -> int:
        return len(self.alphas)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(a ** -0.5 for a in self.alphas)

    @property
    def tail_sum(self) -> float:
        """sum_k alpha_k^{-1/2}; reported so summability stays visible."""
        return float(sum(self.weights))

    def block(self, k: int) -> tuple[int, int]:
        """Coefficient block [M_{a_k}, M_{a_k + 1}) of term k (0-based)."""
        a = self.alphas[k]
        return self.sys.products[a], self.sys.products[a + 1]

    def block_of(self, j: int) -> int | None:
        for k in range(self.terms):
            lo, hi = self.block(k)
            if lo <= j < hi:
                return k
        return None

    def truncated(self, terms: int) -> "CounterexampleSpec":
        """The schedule of the first `terms` exponents, on the group its
        function lives on: the first a + 1 levels, a the last exponent kept.
        Its function is the first M_{a+1} values of the truncated function
        on the full system, which tiles them."""
        if not 1 <= terms <= self.terms:
            raise ValueError(f"terms {terms} out of range [1, {self.terms}]")
        alphas = self.alphas[:terms]
        return CounterexampleSpec(self.sys.truncate(alphas[-1] + 1), alphas)


def build_counterexample(spec: CounterexampleSpec) -> StepFunction:
    """f = sum_k (D_{M_{a_k+1}} - D_{M_{a_k}}) / sqrt(a_k), built exactly.

    D_{M_j} is M_j on the cells of I_j (the multiples of M_j) and zero
    elsewhere, so the construction is pure integer geometry per term.
    """
    vals = np.zeros(spec.sys.cells, dtype=np.complex128)
    for a, w in zip(spec.alphas, spec.weights):
        inner, outer = spec.sys.products[a], spec.sys.products[a + 1]
        vals[::outer] += w * outer
        vals[::inner] -= w * inner
    return StepFunction(spec.sys, vals)


def expected_counterexample_coefficients(spec: CounterexampleSpec) -> np.ndarray:
    """The block-constant coefficient vector the construction must produce."""
    coeffs = np.zeros(spec.sys.cells, dtype=np.complex128)
    for k in range(spec.terms):
        lo, hi = spec.block(k)
        coeffs[lo:hi] = spec.weights[k]
    return coeffs


def partial_sum_decomposition(
    spec: CounterexampleSpec, coeffs: SpectralVector, j: int
) -> tuple[StepFunction, StepFunction]:
    """Split S_j f into the completed blocks plus one kernel term.

    For j inside block k (M_{a_k} <= j < M_{a_k+1}):

        S_j f = S_{M_{a_k}} f + a_k^{-1/2} psi_{M_{a_k}} D_{j - M_{a_k}}

    The first factor collects all finished blocks; the second exists because
    the block coefficients are constant and index addition below M_{a_k+1}
    carries no digit interaction.  ||second term||_1 is exactly
    a_k^{-1/2} L_{j - M_{a_k}} whenever j > M_{a_k}.

    It checks the paper's block decomposition: acceptance criterion 6 reads
    it, and the closed form counterexample_l1_norms is checked against it.
    """
    if coeffs.sys != spec.sys:
        raise ValueError("system mismatch: coefficients use a different radix system")
    k = spec.block_of(j)
    if k is None:
        raise ValueError(f"index {j} lies in no coefficient block of the schedule")
    lo, _ = spec.block(k)
    head = partial_sum(coeffs, lo)
    tail = (
        spec.weights[k]
        * character_block(spec.sys, lo, lo + 1)[0]
        * dirichlet_kernel(spec.sys, j - lo).values
    )
    return head, StepFunction(spec.sys, tail)


def _completed_blocks(spec: CounterexampleSpec, k: int) -> np.ndarray:
    """S_{M_{a_k}} f on the Paley pieces: entry p (0 .. N) is its value where
    the first nonzero digit of x is x_p, entry N its value at x = 0.

    S_{M_{a_k}} f is a sum of the kernels D_{M_q} = M_q 1_{I_q}, and x lies
    in I_q exactly when its first nonzero digit is at q or above.
    """
    sys = spec.sys
    p = np.arange(sys.depth + 1)
    out = np.zeros(sys.depth + 1)
    for a, w in zip(spec.alphas[:k], spec.weights[:k]):
        out += w * (sys.products[a + 1] * (p > a) - sys.products[a] * (p >= a))
    return out


def counterexample_l1_norms(spec: CounterexampleSpec) -> np.ndarray:
    """||S_l f||_1 for l = 1 .. M_N (entry l - 1) of the counterexample f, in
    closed form.

    S_l f = 0 for l <= M_{a_0}, and it stays put between blocks.  Inside
    block k, l = M_a + j with a = a_k, and partial_sum_decomposition gives
    S_l f = S_{M_a} f + a^{-1/2} r_a D_j, whose norm norms._piece_norms sums
    over the Paley pieces (heads _completed_blocks): O(sum_p (m_p - 1) L)
    per index, with no character row and no length-M_N complex array.  The
    offsets j go in chunks of at most _SCAN_BLOCK_ELEMENTS / 16.  The scan
    spectral.cumulative_l1_norms of the coefficients is its oracle.
    """
    sys = spec.sys
    norms = np.zeros(sys.cells)
    step = _SCAN_BLOCK_ELEMENTS // 16
    # S_l f stays put from l = M_{a_k + 1} to the start of the next block
    stops = [sys.products[a] for a in spec.alphas[1:]] + [sys.cells]
    for k, (a, w) in enumerate(zip(spec.alphas, spec.weights)):
        lo, hi = sys.products[a], sys.products[a + 1]
        head = _completed_blocks(spec, k)
        # l = lo itself holds the value carried over from before the block
        for j0 in range(1, hi - lo + 1, step):
            js = np.arange(j0, min(j0 + step, hi - lo + 1))
            norms[lo + j0 - 1 : lo + js[-1]] = _piece_norms(sys, a, w, head, js)
        norms[hi : stops[k]] = norms[hi - 1]
    return norms


# ---------------------------------------------------------------------------
# strong means and logarithmic averages


def strong_sum_average(norms: np.ndarray, ns: Sequence[int]) -> np.ndarray:
    """Cesaro means (1/n) sum_{m=1}^{n} ||S_m f||_1 for each n in ns, from
    norms[m - 1] = ||S_m f||_1."""
    ns = np.asarray(ns, dtype=np.int64)
    if ((ns < 1) | (ns > norms.size)).any():
        raise ValueError(f"average lengths {ns.tolist()} outside [1, {norms.size}]")
    # one running (sequential) sum: each n reads one point of the Cesaro curve
    return np.cumsum(norms[: ns.max()])[ns - 1] / ns


def window_strong_average(spec: CounterexampleSpec, norms: np.ndarray, k: int) -> float:
    """B_k = (1/M_{a_k+1}) sum_{l=M_{a_k}}^{2 M_{a_k}} ||S_l f||_1 (ends included).

    norms[m - 1] holds ||S_m f||_1 for m = 1 .. M_N.
    """
    if norms.shape != (spec.sys.cells,):
        raise ValueError(
            f"expected {spec.sys.cells} partial-sum norms, got shape {norms.shape}"
        )
    a = spec.alphas[k]
    lo = spec.sys.products[a]
    return float(norms[lo - 1 : 2 * lo].sum() / spec.sys.products[a + 1])


def _harmonic_gap(m: int, n: int) -> float:
    """H_n - H_m = sum_{m < k <= n} 1/k, for 1 <= m <= n: math.fsum of the
    terms 1/k up to k = h = min(n, max(m, 4096)), and past h the
    Euler-Maclaurin expansion through 1/k^4, whose error is below
    1/(252 h^6).  Its ln(n/h) is log1p((n - h) / h): a plain log difference
    loses about 1e-10 relative when n is close to h."""
    h = min(n, max(m, 4096))
    terms = (1 / np.arange(m + 1, h + 1)).tolist()
    if n > h:
        terms += [math.log1p((n - h) / h), 1 / (2 * n), -1 / (2 * h), -1 / (12 * n**2),
                  1 / (12 * h**2), 1 / (120 * n**4), -1 / (120 * h**4)]
    return math.fsum(terms)


def log_average(norms: np.ndarray, ns: Sequence[int]) -> np.ndarray:
    """Logarithmic means (1/ln n) sum_{k=1}^{n} norms[..., k - 1] / k along the
    last axis of norms, for each n in ns (natural log): an array of shape
    norms.shape[:-1] + (len(ns),).

    Past the last column, k > top = norms.shape[-1], the norm is taken as
    frozen, as the partial-sum norms of a function on G_top are: a sum up to
    n > top is the sum up to top plus the last norm times H_n - H_top
    (_harmonic_gap).
    """
    if not len(ns) or min(ns) < 2:
        raise ValueError(f"log average endpoints {list(ns)} must be at least 2")
    top = norms.shape[-1]
    sums = np.cumsum(norms / np.arange(1, top + 1, dtype=np.float64), axis=-1)
    means = np.stack([sums[..., n - 1] if n <= top
                      else sums[..., -1] + norms[..., -1] * _harmonic_gap(top, n) for n in ns],
                     axis=-1)
    means /= np.array([math.log(n) for n in ns])
    return means


def verify_decomposition_norm(
    spec: CounterexampleSpec, j: int
) -> tuple[float, float]:
    """(||tail||_1, expected a_k^{-1/2} L_{j - M_{a_k}}) for an in-block j.

    An oracle for the paper's block decomposition: acceptance criterion 6
    reads it, and the closed form counterexample_l1_norms is checked
    against it.
    """
    k = spec.block_of(j)
    if k is None:
        raise ValueError(f"index {j} lies in no coefficient block of the schedule")
    lo, _ = spec.block(k)
    if j <= lo:
        raise ValueError(f"index {j} must exceed the block start {lo}")
    c = forward_fast(build_counterexample(spec))
    _, tail = partial_sum_decomposition(spec, c, j)
    return l1_norm(tail), spec.weights[k] * lebesgue_constant(spec.sys, j - lo)
