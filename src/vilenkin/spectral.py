"""Characters of the product group and spectral machinery on step functions.

The character with index n is psi_n(x) = prod_k r_k(x)^{n_k}, where
r_k(x) = exp(2 pi i x_k / m_k) is the generalized Rademacher function of
level k and the n_k are the mixed-radix digits of n.  Every character value
is read from a per-radix root-of-unity table indexed by (n_k * x_k) mod m_k;
no transcendental function is evaluated inside an inner loop.

A length-M_N vector of cell values reshapes in C order to the digit tensor
of shape (m_{N-1}, ..., m_0), with digit k on axis N-1-k.  Because the group
is the full direct product of the cyclic levels, psi_n is the outer product
of its per-level factors on that tensor, and the Fourier transform is its
N-dimensional DFT.  That DFT is taken one digit level at a time: N passes,
each one numpy call over all M_N cells (a sum and a difference when
m_k = 2, a batched numpy.fft otherwise), at cost O(M_N * sum_k log m_k)
and bit-identical to numpy's N-dimensional FFT of the tensor.  The passes
are self-sorting (Stockham): each one reads the lowest digit left from the
last axis and writes its transform in front, so every inner loop runs over
long contiguous rows and the last pass leaves the natural order.

Quotient rule.  psi_k for k < M_r depends only on the digits x_0 .. x_{r-1},
that is on t mod M_r, so it is a character of the quotient
G_r = Z_{m_0} x ... x Z_{m_{r-1}} (`sys.truncate(r)`) tiled M_N / M_r times.
A sum of such characters, plus an M_r-periodic function, is therefore an
M_r-periodic vector, and its mean absolute value over G equals the one over
G_r, because Haar measure pushes forward to the quotient.  Every transform,
synthesis and scan below, and the H1 pass of hardy.h1_pass, runs on the
smallest such G_r and tiles or extends its result to M_N; the partial-sum
scan stops at M_r, past which its sums are frozen.  One rule names
the group: rows of M_q columns are functions on G_q (_level_rows), so a
caller holding a function's first M_q values never widens it to M_N.  Only
a single full-width StepFunction searches for its own period
(_own_quotient, exact equality of cell values, not a threshold), and a count
of indices names the group that holds them (_level_holding).  Full
resolution is r = N.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .radix import RadixSystem, decompose

# Target element count per scratch block in the cumulative scans (~32 MB).
_SCAN_BLOCK_ELEMENTS = 1 << 21


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StepFunction:
    """A complex function constant on rank-N cells, stored by cell values."""

    sys: RadixSystem
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128, order="C").reshape(-1)
        if vals.shape != (self.sys.cells,):
            raise ValueError(
                f"expected {self.sys.cells} cell values, got {vals.shape[0]}"
            )
        object.__setattr__(self, "values", _frozen(vals))


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Fourier coefficients of a step function, indexed 0 .. M_N - 1."""

    sys: RadixSystem
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=np.complex128, order="C").reshape(-1)
        if coeffs.shape != (self.sys.cells,):
            raise ValueError(
                f"expected {self.sys.cells} coefficients, got {coeffs.shape[0]}"
            )
        object.__setattr__(self, "coeffs", _frozen(coeffs))


# ---------------------------------------------------------------------------
# the digit tensor
#
# Cell number t = sum_j t_j M_j makes digit 0 the fastest-varying index, so
# the C-order reshape of a length-M_N vector to (m_{N-1}, ..., m_0) carries
# digit j on axis depth-1-j.  This is the only cell-to-digit map below.


def _tensor_shape(sys: RadixSystem) -> tuple[int, ...]:
    return sys.radices[::-1]


def _level_holding(sys: RadixSystem, top: int) -> int:
    """The smallest level r >= 1 with M_r >= top: indices k < top live on G_r."""
    return max(1, bisect.bisect_left(sys.products, top))


@lru_cache(maxsize=64)
def _root_table(m: int) -> np.ndarray:
    """The m roots of unity exp(2 pi i j / m) for j = 0 .. m - 1, with the
    quarter turns (4j/m an integer) exactly 1, i, -1 and -i, so that sums and
    products of them stay exact Gaussian integers."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    turns = math.gcd(m, 4)  # the quarter turns that are whole j: every m / turns
    roots[:: m // turns] = (1, 1j, -1, -1j)[:: 4 // turns]
    return _frozen(roots)


# ---------------------------------------------------------------------------
# pointwise and vectorized character evaluation


def rademacher(sys: RadixSystem, k: int, t: int) -> complex:
    """r_k(t) = exp(2 pi i t_k / m_k) at cell t, read from the level-k root table.

    A pointwise oracle: products of its powers check vilenkin_char.
    """
    if not 0 <= k < sys.depth:
        raise ValueError(f"level {k} out of range [0, {sys.depth})")
    return complex(_root_table(sys.radices[k])[decompose(sys, t)[k]])


def vilenkin_char(sys: RadixSystem, n: int, t: int) -> complex:
    """psi_n(t) = prod_k r_k(t)^{n_k} at cell t, evaluated through the root tables.

    A pointwise oracle for the digit-tensor rows of character_block.
    """
    out = complex(1.0)
    for d, x, m in zip(decompose(sys, n), decompose(sys, t), sys.radices):
        if d:
            out *= complex(_root_table(m)[(d * x) % m])
    return out


def character_block(sys: RadixSystem, lo: int, hi: int) -> np.ndarray:
    """Rows psi_k for k = lo .. hi-1 as one (hi-lo, M_N) matrix.

    The first M_{j+1} cells of a row form the digit tensor (m_j, M_j) of
    levels 0 .. j, and on it psi_k is its values on the first M_j cells times
    r_j^{k_j} along the digit-j axis.  Filling the rows level by level, in
    place, costs about 2 (hi-lo) M_N complex products and no scratch array.
    """
    if not 0 <= lo <= hi <= sys.cells:
        raise ValueError(f"character range [{lo}, {hi}) outside [0, {sys.cells}]")
    ks = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((ks.size, sys.cells), dtype=np.complex128)
    out[:, 0] = 1.0
    for M_j, m in zip(sys.products, sys.radices):
        # r_j^{k_j} at x_j = 1 .. m-1; at x_j = 0 the factor is 1
        factors = _root_table(m)[np.multiply.outer((ks // M_j) % m, np.arange(1, m)) % m]
        low = out[:, : m * M_j].reshape(ks.size, m, M_j)
        np.multiply(low[:, :1], factors[:, :, None], out=low[:, 1:])
    return out


# ---------------------------------------------------------------------------
# transforms
#
# The characters factor over the digit levels, so the transform is the
# N-dimensional DFT of the digit tensor: f_hat = DFT(f) / M_N, and the
# synthesis sum_k c_k psi_k is the unnormalized inverse.  It runs one pass
# per level, from level 0 up, in the self-sorting (Stockham) order.  Each
# pass reads its rows as (rows, rest, m) with the lowest digit not yet
# transformed on the last axis, takes the length-m DFTs along that axis (a
# sum and a difference for m = 2, one numpy.fft.fft / ifft call otherwise,
# scaled by 1/m in the forward direction) and writes them as (rows, m, rest):
# the new digit goes in front.  After the passes over levels 0 .. j-1 a row
# holds, in C order, the transformed digits j-1 .. 0 and then the digits
# N-1 .. j still to do, so after all N passes the order is natural again.
# The inner loops run over `rest` contiguous entries instead of M_j, which
# matters when M_j is small.  A pass reads and writes every cell once,
# O(M_N log m_j) work in one numpy call.  numpy's N-dimensional FFT does the
# same butterflies on the same levels in the same order, so the results are
# bit-identical (the tests compare the two), but it makes one strided
# transform call per tensor axis, which costs several times more when the
# axes are short.


def _level_pass(view: np.ndarray, *, inverse: bool) -> np.ndarray:
    """One self-sorting level of the transform: the length-m DFTs along the
    last axis of view (rows, rest, m), as a new array (rows, m, rest)."""
    count, rest, m = view.shape
    out = np.empty((count, m, rest), dtype=np.complex128)
    if m == 2:
        np.add(view[:, :, 0], view[:, :, 1], out=out[:, 0])
        np.subtract(view[:, :, 0], view[:, :, 1], out=out[:, 1])
        if not inverse:
            out *= 0.5
        return out
    dft = np.fft.ifft if inverse else np.fft.fft
    dft(view, axis=2, norm="forward", out=out.transpose(0, 2, 1))
    return out


def _transform(sys: RadixSystem, arr: np.ndarray, *, inverse: bool) -> np.ndarray:
    """Analysis (DFT / M_r) or, with inverse, synthesis of the digit tensor
    of G_r along the last axis of arr, one pass per level; its length M_r
    sets r."""
    width = arr.shape[-1]
    r = sys.products.index(width)
    out = arr.reshape(-1, width)
    for m in sys.radices[:r]:
        out = _level_pass(out.reshape(len(out), width // m, m), inverse=inverse)
    return out.reshape(arr.shape)


def forward_naive(f: StepFunction) -> SpectralVector:
    """Coefficients straight from the definition: f_hat(k) = int f conj(psi_k).

    Quadratic cost; kept as the oracle the fast path is checked against.
    """
    sys = f.sys
    cells = sys.cells
    out = np.empty(cells, dtype=np.complex128)
    step = max(1, _SCAN_BLOCK_ELEMENTS // cells)
    for b0 in range(0, cells, step):
        b1 = min(b0 + step, cells)
        rows = character_block(sys, b0, b1)
        out[b0:b1] = rows.conj() @ f.values / cells
    return SpectralVector(sys, out)


def _own_quotient(f: StepFunction) -> tuple[RadixSystem, np.ndarray]:
    """The smallest quotient group G_q, q >= 1, that f lives on, and the
    first M_q values of f, which are f on G_q.

    An M_q-periodic f is also M_{q+1}-periodic, so the search walks down
    from q = N: an f known to be M_q-periodic is M_{q-1}-periodic when its
    first M_q values equal themselves shifted by M_{q-1}.  Exact equality
    only.
    """
    sys, vals = f.sys, f.values
    q = sys.depth
    while q > 1:
        period, width = sys.products[q - 1], sys.products[q]
        if not np.array_equal(vals[period:width], vals[: width - period]):
            break
        q -= 1
    return sys.truncate(q), vals[: sys.products[q]]


def forward_fast(f: StepFunction) -> SpectralVector:
    """Fast transform: the DFT of the digit tensor, O(M_N * sum_k log m_k).

    An M_r-periodic f lives on G_r (_own_quotient): its first M_r values are
    transformed there, and its coefficients at k >= M_r are exactly zero on
    every radix.
    """
    sub, head = _own_quotient(f)
    coeffs = np.zeros(f.sys.cells, dtype=np.complex128)
    coeffs[: sub.cells] = _transform(sub, head, inverse=False)
    return SpectralVector(f.sys, coeffs)


def inverse_transform(c: SpectralVector) -> StepFunction:
    """Synthesis f(x) = sum_k c_k psi_k(x) as the inverse DFT of the digit tensor."""
    return StepFunction(c.sys, _transform(c.sys, c.coeffs, inverse=True))


def _head_synthesis(sys: RadixSystem, head: np.ndarray) -> StepFunction:
    """sum_{k < len(head)} head[k] psi_k, synthesized on the smallest G_r that
    holds those indices and tiled out to M_N."""
    width = sys.products[_level_holding(sys, head.size)]
    masked = np.zeros(width, dtype=np.complex128)
    masked[: head.size] = head
    vals = _transform(sys, masked, inverse=True)
    return StepFunction(sys, np.broadcast_to(vals, (sys.cells // width, width)))


def _block_heads(sys: RadixSystem, coeffs: np.ndarray) -> list[np.ndarray]:
    """S_{M_n} f_i on G_n for n = 0 .. N, as (rows, M_n) arrays, from one
    synthesis of the coefficient rows coeffs (rows, M_N).

    After the passes over levels 0 .. n-1 the entry of a row at
    (x_{n-1} .. x_0, k_{N-1} .. k_n) is the synthesis over the digits
    k_0 .. k_{n-1} with k_n .. k_{N-1} fixed.  Where those are all zero, at
    every (M_N / M_n)-th entry, it is the synthesis of c_0 .. c_{M_n - 1} on
    G_n: the same numbers, by the same arithmetic, as partial_sum(c, M_n) on
    its first M_n cells.
    """
    count, width = coeffs.shape
    out = coeffs
    heads = [out[:, :1].copy()]
    for m, M_n in zip(sys.radices, sys.products[1:]):
        out = _level_pass(out.reshape(count, width // m, m), inverse=True).reshape(count, width)
        # a copy, so that no head keeps a whole level buffer alive
        heads.append(out[:, :: width // M_n].copy())
    return heads


def partial_sum(c: SpectralVector, n: int) -> StepFunction:
    """S_n f = sum_{k < n} f_hat(k) psi_k, with S_0 f identically zero.

    One synthesis per call: the oracle for the cumulative scans
    (cumulative_l1_norms) and for the block heads of one synthesis pass
    (hardy.check_norm_equivalence).
    """
    sys = c.sys
    if not 0 <= n <= sys.cells:
        raise ValueError(f"partial sum index {n} out of range [0, {sys.cells}]")
    return _head_synthesis(sys, c.coeffs[:n])


def dirichlet_kernel(sys: RadixSystem, n: int) -> StepFunction:
    """D_n = sum_{k < n} psi_k via the digit decomposition of n.

    Uses D_{M_j} = M_j on the cylinder I_j (zero elsewhere), the geometric
    identity D_{s M_j} = D_{M_j} * sum_{u < s} r_j^u, and the splitting
    D_n = D_{s M_h} + r_h^s D_{n - s M_h} at the top digit position h.
    Cost O(N * M_N); the literal character sum serves as its test oracle.
    """
    if not 0 <= n <= sys.cells:
        raise ValueError(f"kernel index {n} out of range [0, {sys.cells}]")
    cells = sys.cells
    vals = np.zeros(cells, dtype=np.complex128)
    if n == cells:
        vals[0] = cells
        return StepFunction(sys, vals)
    tensor = vals.reshape(_tensor_shape(sys))
    digits = decompose(sys, n)
    mult = np.ones((1,) * sys.depth, dtype=np.complex128)
    for j in range(sys.depth - 1, -1, -1):
        d = digits[j]
        if d == 0:
            continue
        m = sys.radices[j]
        table = _root_table(m)
        x_j = np.arange(m)
        # geometric factor sum_{u < d} r_j^u on the m values of x_j
        geom = np.zeros(m, dtype=np.complex128)
        for u in range(d):
            geom += table[(u * x_j) % m]
        # I_j: the cells whose digits below j vanish
        cylinder = (Ellipsis,) + (0,) * j
        tensor[cylinder] += sys.products[j] * mult[cylinder] * geom
        # times r_j^d, which varies along digit axis depth-1-j only
        mult = mult * table[(d * x_j) % m].reshape(-1, *(1,) * j)
    return StepFunction(sys, vals)


def fejer_mean(c: SpectralVector, n: int) -> StepFunction:
    """Fejer mean sigma_n f = (1/n) sum_{k=0}^{n-1} S_k f.

    Evaluated through the equivalent weighted form
    sum_{k < n} (1 - (k+1)/n) f_hat(k) psi_k, one synthesis per call: the
    per-n oracle for the scan fejer_l1_norms.
    """
    sys = c.sys
    if not 1 <= n <= sys.cells:
        raise ValueError(f"Fejer index {n} out of range [1, {sys.cells}]")
    weights = 1.0 - np.arange(1, n + 1, dtype=np.float64) / n
    return _head_synthesis(sys, c.coeffs[:n] * weights)


# ---------------------------------------------------------------------------
# blocked cumulative scans
#
# Everything below shares one pattern: walk the character rows psi_k in
# blocks, keep a running linear combination per input row, and emit one L1
# norm per step.  This keeps full partial-sum-norm scans at O(N * M_N) work
# per block row with no per-step python cost.  With unit weights the same
# scan is the oracle for the closed-form norms.lebesgue_scan.
#
# Each scan runs on the group G_q that the width of its rows names
# (_level_rows): every running sum is a function on G_q (M_q cells instead
# of M_N), and from m = M_q on it no longer changes.  The block loops are the
# same at every q; full resolution is q = N.  Both scans walk their blocks
# through _blocks.


def _scan_block(sys: RadixSystem) -> int:
    """Character rows per scan block: about _SCAN_BLOCK_ELEMENTS cells, 16 to 1024 rows."""
    return max(16, min(1024, _SCAN_BLOCK_ELEMENTS // sys.cells))


def _blocks(sub: RadixSystem, rows: np.ndarray, lo: int, hi: int, sums: int):
    """Walk the steps k = lo .. hi-1 of a scan on G_q = sub: the character
    rows in blocks of _scan_block(sub), one character_block each, and the
    weight rows through each block in batches.

    Yields (b0, b1, i0, i1, *views) for block [b0, b1) and row batch
    [i0, i1): sums complex views and one real view, each of shape
    (i1 - i0, b1 - b0, M_q), on flat buffers that every block and batch
    reuses.  The first complex view holds rows[i0:i1, b0:b1] times the
    character rows; the others are free scratch.
    """
    count, width = rows.shape[0], sub.cells
    step = _scan_block(sub)
    # batches of at most step // steps rows, so each buffer holds at most
    # one block's elements
    steps = min(step, hi - lo)
    batch = min(count, max(1, step // max(1, steps)))
    size = batch * steps * width
    bufs = [np.empty(size, dtype=np.complex128) for _ in range(sums)]
    bufs.append(np.empty(size, dtype=np.float64))
    for b0 in range(lo, hi, step):
        b1 = min(b0 + step, hi)
        chars = character_block(sub, b0, b1)
        for i0 in range(0, count, batch):
            i1 = min(i0 + batch, count)
            shape = (i1 - i0, b1 - b0, width)
            views = [buf[: math.prod(shape)].reshape(shape) for buf in bufs]
            np.multiply(rows[i0:i1, b0:b1, None], chars, out=views[0])
            yield (b0, b1, i0, i1, *views)
        del chars  # freed before the next block is built


def _chunk_rows(sys: RadixSystem) -> int:
    """Rows per chunk of a stacked pass: at most _SCAN_BLOCK_ELEMENTS cells, one row at least."""
    return max(1, _SCAN_BLOCK_ELEMENTS // sys.cells)


def _as_rows(arr: np.ndarray, cells: int, what: str) -> np.ndarray:
    rows = np.asarray(arr, dtype=np.complex128)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != cells:
        raise ValueError(f"{what} must have {cells} columns, got shape {rows.shape}")
    return rows


def _level_rows(sys: RadixSystem, arr: np.ndarray) -> tuple[RadixSystem, np.ndarray]:
    """The group G_q that rows of M_q columns, 1 <= q <= N, live on, and
    the rows: the weights of a scan or the values of an H1 pass."""
    width = np.shape(arr)[-1] if np.ndim(arr) else 0
    if width not in sys.products[1:]:
        raise ValueError(f"rows must have M_q columns for a level q in [1, {sys.depth}], "
                         f"got shape {np.shape(arr)}")
    return sys.truncate(sys.products.index(width)), _as_rows(arr, width, "rows")


def cumulative_l1_norms(
    sys: RadixSystem,
    weights: np.ndarray,
    lo: int,
    hi: int,
    *,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """L1 norms of running character sums, one row per weight vector.

    Entry [i, m - lo] is the normalized L1 norm of
    offsets[i] + sum_{k < m} weights[i, k] psi_k for m = lo .. hi inclusive.
    With unit weights this scans Dirichlet kernels; with Fourier coefficients
    as weights it scans partial sums S_m f (plus an optional fixed offset,
    e.g. -f for convergence differences).  Rows of M_q columns, weights and
    offsets alike, are read on G_q (_level_rows), and hi is at most M_q: past
    M_q the sums stay put, and hardy.log_average takes that frozen tail in
    closed form.
    """
    sub, rows = _level_rows(sys, weights)
    count, width = rows.shape
    if not 0 <= lo <= hi <= width:
        raise ValueError(f"scan range [{lo}, {hi}] outside [0, {width}]")
    if offsets is not None:
        offsets = _as_rows(offsets, width, "offsets")
        if offsets.shape[0] != count:
            raise ValueError("offsets must have one row per weight vector")

    # checkpoint: state rows hold offsets + S_lo
    masked = np.zeros((count, width), dtype=np.complex128)
    masked[:, :lo] = rows[:, :lo]
    state = _transform(sub, masked, inverse=True)
    if offsets is not None:
        state += offsets

    out = np.empty((count, hi - lo + 1), dtype=np.float64)
    out[:, 0] = np.abs(state).mean(axis=1)
    for b0, b1, i0, i1, inc, mag in _blocks(sub, rows, lo, hi, 1):
        np.cumsum(inc, axis=1, out=inc)
        inc += state[i0:i1, None]
        out[i0:i1, b0 + 1 - lo : b1 + 1 - lo] = np.abs(inc, out=mag).mean(axis=2)
        state[i0:i1] = inc[:, -1]
    return out


def fejer_l1_norms(sys: RadixSystem, weights: np.ndarray, n_max: int) -> np.ndarray:
    """max_{1 <= n <= n_max} ||sigma_n f_i||_1 for each weight row i, shape (rows,).

    Uses sigma_n = S_n - U_n / n with U_n = sum_{k<n} (k+1) w_k psi_k, so the
    scan needs only two running sums per weight row.  Rows of M_q columns
    are read on G_q (_level_rows).  It scans n up to M_q; past M_q both sums
    are frozen, and the maximum over the n up to n_max (at most M_N) is
    taken at the two ends n = M_q + 1 and n = n_max (_frozen_tail_max): an
    inner n can beat them only by rounding, within
    1e-12 (mean|S_{M_q}| + mean|U_{M_q}| / (M_q + 1)).
    """
    cells = sys.cells
    if not 1 <= n_max <= cells:
        raise ValueError(f"scan bound {n_max} out of range [1, {cells}]")
    sub, rows = _level_rows(sys, weights)
    count, width = rows.shape
    q_max = min(n_max, width)

    s_state = np.zeros((count, width), dtype=np.complex128)
    u_state = np.zeros((count, width), dtype=np.complex128)
    best = np.full(count, -np.inf)
    for b0, b1, i0, i1, inc, u_inc, mag in _blocks(sub, rows, 0, q_max, 2):
        ranks = np.arange(b0 + 1, b1 + 1, dtype=np.float64)[:, None]
        np.multiply(ranks, inc, out=u_inc)
        np.cumsum(inc, axis=1, out=inc)
        np.cumsum(u_inc, axis=1, out=u_inc)
        inc += s_state[i0:i1, None]
        u_inc += u_state[i0:i1, None]
        s_state[i0:i1] = inc[:, -1]
        u_state[i0:i1] = u_inc[:, -1]
        u_inc /= ranks
        inc -= u_inc
        norms = np.abs(inc, out=mag).mean(axis=2)
        np.maximum(best[i0:i1], norms.max(axis=1), out=best[i0:i1])
    if n_max > q_max:
        np.maximum(best, _frozen_tail_max(s_state, u_state, q_max + 1, n_max), out=best)
    return best


def _frozen_tail_max(s: np.ndarray, u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """max_{lo <= n <= hi} mean |s_i - u_i / n| for each row i of the frozen
    sums s and u, taken at the two ends n = lo and n = hi only.

    Each cell term |s - u t| is convex in t = 1/n, so their mean is, and its
    exact maximum over the n in [lo, hi] lies at one of the ends.  A computed
    value differs from the exact one by a few ulps of mean|s| + mean|u| / lo
    per pairwise-summation level, so an inner n can beat the ends only by
    rounding, within 1e-12 (mean|s| + mean|u| / lo).
    """
    return np.maximum(*(np.abs(s - u / n).mean(axis=1) for n in (lo, hi)))
