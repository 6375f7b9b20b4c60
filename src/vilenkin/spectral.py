"""Characters of the product group and spectral machinery on step functions.

The character with index n is psi_n(x) = prod_k r_k(x)^{n_k}, where
r_k(x) = exp(2 pi i x_k / m_k) is the generalized Rademacher function of
level k and the n_k are the mixed-radix digits of n.  Every character value
is read from a per-level root-of-unity table indexed by (n_k * x_k) mod m_k;
no transcendental function is evaluated inside an inner loop.

Because the group is the full direct product of the cyclic levels, the
character system factorizes completely across digit positions.  The fast
transform therefore applies one dense length-m_k Fourier matrix along each
digit axis of the value tensor, at total cost O(M_N * sum_k m_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .radix import CellIndex, RadixSystem, VilenkinIndex, decompose

# Full character matrices are cached only for systems at most this large.
_MATRIX_CACHE_CELLS = 2048

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
        vals = np.array(self.values, dtype=np.complex128, copy=True).reshape(-1)
        if vals.shape != (self.sys.cells,):
            raise ValueError(
                f"expected {self.sys.cells} cell values, got {vals.shape[0]}"
            )
        object.__setattr__(self, "values", _frozen(vals))

    @classmethod
    def constant(cls, sys: RadixSystem, value: complex = 1.0) -> "StepFunction":
        return cls(sys, np.full(sys.cells, value, dtype=np.complex128))

    @classmethod
    def zero(cls, sys: RadixSystem) -> "StepFunction":
        return cls.constant(sys, 0.0)

    def integral(self) -> complex:
        """Integral against normalized Haar measure: the mean cell value."""
        return complex(self.values.mean())

    def to_json_dict(self) -> dict:
        return _to_json_dict(self.sys, self.values)

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepFunction":
        sys, vals = _from_json_dict(data)
        return cls(sys, vals)


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Fourier coefficients of a step function, indexed 0 .. M_N - 1."""

    sys: RadixSystem
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if coeffs.shape != (self.sys.cells,):
            raise ValueError(
                f"expected {self.sys.cells} coefficients, got {coeffs.shape[0]}"
            )
        object.__setattr__(self, "coeffs", _frozen(coeffs))

    def to_json_dict(self) -> dict:
        return _to_json_dict(self.sys, self.coeffs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectralVector":
        sys, vals = _from_json_dict(data)
        return cls(sys, vals)


def _to_json_dict(sys: RadixSystem, arr: np.ndarray) -> dict:
    return {
        "radices": list(sys.radices),
        "depth": sys.depth,
        "values": [[float(z.real), float(z.imag)] for z in arr],
    }


def _from_json_dict(data: dict) -> tuple[RadixSystem, np.ndarray]:
    try:
        radices = data["radices"]
        depth = data["depth"]
        pairs = data["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"parse error: missing interchange field {exc}") from None
    sys = RadixSystem(tuple(int(m) for m in radices))
    if int(depth) != sys.depth:
        raise ValueError(
            f"parse error: depth field {depth} disagrees with {sys.depth} radices"
        )
    try:
        vals = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError("parse error: values must be [re, im] pairs") from None
    if not np.isfinite(vals).all():
        raise ValueError("parse error: values must be finite, got NaN or infinity")
    return sys, vals


# ---------------------------------------------------------------------------
# cached per-system tables


@lru_cache(maxsize=None)
def _root_table(sys: RadixSystem, level: int) -> np.ndarray:
    """The m_k roots of unity exp(2 pi i j / m_k) for j = 0 .. m_k - 1."""
    m = sys.radices[level]
    return _frozen(np.exp(2j * np.pi * np.arange(m) / m))


@lru_cache(maxsize=None)
def _digit_plane(sys: RadixSystem, level: int) -> np.ndarray:
    """Digit x_level of every cell number, as one int64 array of length M_N."""
    idx = np.arange(sys.cells, dtype=np.int64)
    return _frozen((idx // sys.products[level]) % sys.radices[level])


@lru_cache(maxsize=None)
def _dft_matrix(sys: RadixSystem, level: int) -> np.ndarray:
    """Dense forward matrix W[t, k] = exp(-2 pi i t k / m) built from the root table."""
    m = sys.radices[level]
    idx = np.outer(np.arange(m), np.arange(m)) % m
    return _frozen(_root_table(sys, level)[idx].conj())


@lru_cache(maxsize=None)
def _idft_matrix(sys: RadixSystem, level: int) -> np.ndarray:
    """Dense synthesis matrix V[k, t] = exp(+2 pi i k t / m)."""
    m = sys.radices[level]
    idx = np.outer(np.arange(m), np.arange(m)) % m
    return _frozen(_root_table(sys, level)[idx])


@lru_cache(maxsize=None)
def _character_matrix(sys: RadixSystem) -> np.ndarray:
    """Full M_N x M_N character matrix; only built for small systems."""
    return _frozen(character_block(sys, 0, sys.cells))


# ---------------------------------------------------------------------------
# pointwise and vectorized character evaluation


def rademacher(k: int, x: CellIndex) -> complex:
    """r_k(x) = exp(2 pi i x_k / m_k), read from the level-k root table."""
    if not 0 <= k < x.sys.depth:
        raise ValueError(f"level {k} out of range [0, {x.sys.depth})")
    return complex(_root_table(x.sys, k)[x.coords[k]])


def vilenkin_char(n: int | VilenkinIndex, x: CellIndex) -> complex:
    """psi_n(x) = prod_k r_k(x)^{n_k}, evaluated through the root tables."""
    sys = x.sys
    if isinstance(n, VilenkinIndex):
        if n.sys != sys:
            raise ValueError("system mismatch: index and cell use different systems")
        idx = n
    else:
        idx = decompose(sys, n)
    out = complex(1.0)
    for k, d in enumerate(idx.digits):
        if d:
            out *= complex(_root_table(sys, k)[(d * x.coords[k]) % sys.radices[k]])
    return out


def character_column(sys: RadixSystem, n: int) -> np.ndarray:
    """psi_n evaluated on every cell, as one complex array of length M_N."""
    idx = decompose(sys, n)
    acc = np.ones(sys.cells, dtype=np.complex128)
    for j, d in enumerate(idx.digits):
        if d:
            plane = _digit_plane(sys, j)
            acc *= _root_table(sys, j)[(d * plane) % sys.radices[j]]
    return acc


def character_block(sys: RadixSystem, lo: int, hi: int) -> np.ndarray:
    """Rows psi_k for k = lo .. hi-1 as one (hi-lo, M_N) matrix."""
    if not 0 <= lo <= hi <= sys.cells:
        raise ValueError(f"character range [{lo}, {hi}) outside [0, {sys.cells}]")
    ks = np.arange(lo, hi, dtype=np.int64)
    acc = np.ones((hi - lo, sys.cells), dtype=np.complex128)
    for j in range(sys.depth):
        m = sys.radices[j]
        d = (ks // sys.products[j]) % m
        if not d.any():
            continue
        plane = _digit_plane(sys, j)
        table = _root_table(sys, j)
        if d.min() == d.max():
            # digit constant across the whole block: one shared row factor
            acc *= table[(int(d[0]) * plane) % m][None, :]
        else:
            acc *= table[(d[:, None] * plane[None, :]) % m]
    return acc


# ---------------------------------------------------------------------------
# transforms


def _apply_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, -1)
    return np.moveaxis(moved @ mat, -1, axis)


def _tensor_shape(sys: RadixSystem) -> tuple[int, ...]:
    # cell number t = sum_j t_j M_j makes digit 0 the fastest-varying axis,
    # so the C-order tensor carries digit j on axis depth-1-j.
    return sys.radices[::-1]


def _analysis(sys: RadixSystem, values: np.ndarray) -> np.ndarray:
    arr = values.reshape(_tensor_shape(sys))
    for axis in range(sys.depth):
        level = sys.depth - 1 - axis
        m = sys.radices[level]
        arr = _apply_axis(arr, _dft_matrix(sys, level) / m, axis)
    return arr.reshape(-1)


def _synthesis(sys: RadixSystem, coeffs: np.ndarray) -> np.ndarray:
    arr = coeffs.reshape(_tensor_shape(sys))
    for axis in range(sys.depth):
        level = sys.depth - 1 - axis
        arr = _apply_axis(arr, _idft_matrix(sys, level), axis)
    return arr.reshape(-1)


def forward_naive(f: StepFunction) -> SpectralVector:
    """Coefficients straight from the definition: f_hat(k) = int f conj(psi_k).

    Quadratic cost; kept as the oracle the fast path is checked against.
    """
    sys = f.sys
    cells = sys.cells
    out = np.empty(cells, dtype=np.complex128)
    if cells <= _MATRIX_CACHE_CELLS:
        out[:] = _character_matrix(sys).conj() @ f.values / cells
        return SpectralVector(sys, out)
    step = max(1, _SCAN_BLOCK_ELEMENTS // cells)
    for b0 in range(0, cells, step):
        b1 = min(b0 + step, cells)
        rows = character_block(sys, b0, b1)
        out[b0:b1] = rows.conj() @ f.values / cells
    return SpectralVector(sys, out)


def forward_fast(f: StepFunction) -> SpectralVector:
    """Fast transform: one dense length-m_k Fourier pass per digit level."""
    return SpectralVector(f.sys, _analysis(f.sys, f.values))


def inverse_transform(c: SpectralVector) -> StepFunction:
    """Synthesis f(x) = sum_k c_k psi_k(x) by one pass per digit level."""
    return StepFunction(c.sys, _synthesis(c.sys, c.coeffs))


def partial_sum(c: SpectralVector, n: int) -> StepFunction:
    """S_n f = sum_{k < n} f_hat(k) psi_k, with S_0 f identically zero."""
    sys = c.sys
    if not 0 <= n <= sys.cells:
        raise ValueError(f"partial sum index {n} out of range [0, {sys.cells}]")
    masked = np.zeros(sys.cells, dtype=np.complex128)
    masked[:n] = c.coeffs[:n]
    return StepFunction(sys, _synthesis(sys, masked))


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
    if n == 0:
        return StepFunction(sys, vals)
    if n == cells:
        vals[0] = cells
        return StepFunction(sys, vals)
    digits = decompose(sys, n).digits
    mult = np.ones(cells, dtype=np.complex128)
    for j in range(sys.depth - 1, -1, -1):
        d = digits[j]
        if d == 0:
            continue
        M_j = sys.products[j]
        m = sys.radices[j]
        table = _root_table(sys, j)
        sub_plane = _digit_plane(sys, j)[::M_j]
        # geometric factor sum_{u < d} r_j^u on the cells of I_j
        geom = np.zeros(cells // M_j, dtype=np.complex128)
        for u in range(d):
            geom += table[(u * sub_plane) % m]
        vals[::M_j] += M_j * mult[::M_j] * geom
        if j > 0:
            mult *= table[(d * _digit_plane(sys, j)) % m]
    return StepFunction(sys, vals)


def fejer_mean(c: SpectralVector, n: int) -> StepFunction:
    """Fejer mean sigma_n f = (1/n) sum_{k=0}^{n-1} S_k f.

    Evaluated through the equivalent weighted form
    sum_{k < n} (1 - (k+1)/n) f_hat(k) psi_k; the direct average of partial
    sums is the oracle the tests compare against.
    """
    sys = c.sys
    if not 1 <= n <= sys.cells:
        raise ValueError(f"Fejer index {n} out of range [1, {sys.cells}]")
    masked = np.zeros(sys.cells, dtype=np.complex128)
    weights = 1.0 - np.arange(1, n + 1, dtype=np.float64) / n
    masked[:n] = c.coeffs[:n] * weights
    return StepFunction(sys, _synthesis(sys, masked))


# ---------------------------------------------------------------------------
# blocked cumulative scans
#
# Everything below shares one pattern: walk the character rows psi_k in
# blocks, keep a running linear combination per input row, and emit one L1
# norm per step.  This keeps full partial-sum-norm scans at O(N * M_N) work
# per block row with no per-step python cost.  With unit weights the same
# scan is the oracle for the closed-form norms.lebesgue_scan.


def _scan_block(sys: RadixSystem, block: int | None) -> int:
    if block is not None:
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        return block
    return max(16, min(1024, _SCAN_BLOCK_ELEMENTS // max(1, sys.cells)))


def _as_rows(arr: np.ndarray, cells: int, what: str) -> np.ndarray:
    rows = np.asarray(arr, dtype=np.complex128)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != cells:
        raise ValueError(f"{what} must have {cells} columns, got shape {rows.shape}")
    return rows


def cumulative_l1_norms(
    sys: RadixSystem,
    weights: np.ndarray,
    lo: int,
    hi: int,
    *,
    offsets: np.ndarray | None = None,
    block: int | None = None,
) -> np.ndarray:
    """L1 norms of running character sums, one row per weight vector.

    Entry [i, m - lo] is the normalized L1 norm of
    offsets[i] + sum_{k < m} weights[i, k] psi_k for m = lo .. hi inclusive.
    With unit weights this scans Dirichlet kernels; with Fourier coefficients
    as weights it scans partial sums S_m f (plus an optional fixed offset,
    e.g. -f for convergence differences).
    """
    cells = sys.cells
    if not 0 <= lo <= hi <= cells:
        raise ValueError(f"scan range [{lo}, {hi}] outside [0, {cells}]")
    rows = _as_rows(weights, cells, "weights")
    count = rows.shape[0]
    if offsets is not None:
        offsets = _as_rows(offsets, cells, "offsets")
        if offsets.shape[0] != count:
            raise ValueError("offsets must have one row per weight vector")
    step = _scan_block(sys, block)

    # checkpoint: state rows hold offsets + S_lo
    state = np.empty((count, cells), dtype=np.complex128)
    masked = np.zeros(cells, dtype=np.complex128)
    for i in range(count):
        masked[:lo] = rows[i, :lo]
        state[i] = _synthesis(sys, masked)
        if offsets is not None:
            state[i] += offsets[i]

    out = np.empty((count, hi - lo + 1), dtype=np.float64)
    out[:, 0] = np.abs(state).mean(axis=1)
    for b0 in range(lo, hi, step):
        b1 = min(b0 + step, hi)
        chars = character_block(sys, b0, b1)
        for i in range(count):
            inc = rows[i, b0:b1, None] * chars
            np.cumsum(inc, axis=0, out=inc)
            inc += state[i]
            out[i, b0 + 1 - lo : b1 + 1 - lo] = np.abs(inc).mean(axis=1)
            state[i] = inc[-1]
    return out


def fejer_l1_norms(
    sys: RadixSystem,
    weights: np.ndarray,
    n_max: int,
    *,
    block: int | None = None,
) -> np.ndarray:
    """L1 norms of the Fejer means sigma_n for n = 1 .. n_max, rowwise.

    Uses sigma_n = S_n - U_n / n with U_n = sum_{k<n} (k+1) w_k psi_k, so the
    scan needs only two running sums per weight row.
    """
    cells = sys.cells
    if not 1 <= n_max <= cells:
        raise ValueError(f"scan bound {n_max} out of range [1, {cells}]")
    rows = _as_rows(weights, cells, "weights")
    count = rows.shape[0]
    step = _scan_block(sys, block)

    s_state = np.zeros((count, cells), dtype=np.complex128)
    u_state = np.zeros((count, cells), dtype=np.complex128)
    out = np.empty((count, n_max), dtype=np.float64)
    for b0 in range(0, n_max, step):
        b1 = min(b0 + step, n_max)
        chars = character_block(sys, b0, b1)
        ranks = np.arange(b0 + 1, b1 + 1, dtype=np.float64)
        for i in range(count):
            inc = rows[i, b0:b1, None] * chars
            u_inc = ranks[:, None] * inc
            np.cumsum(inc, axis=0, out=inc)
            np.cumsum(u_inc, axis=0, out=u_inc)
            inc += s_state[i]
            u_inc += u_state[i]
            s_state[i] = inc[-1]
            u_state[i] = u_inc[-1]
            inc -= u_inc / ranks[:, None]
            out[i, b0:b1] = np.abs(inc).mean(axis=1)
    return out
