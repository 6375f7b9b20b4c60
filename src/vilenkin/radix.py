"""Mixed-radix number systems and the finite product group built on them.

A radix sequence (m_0, ..., m_{N-1}), every entry at least 2, fixes both a
number system and a group: place values M_0 = 1, M_{k+1} = m_k * M_k, so
every integer n < M_N has a unique expansion n = sum_j n_j * M_j, and the
cell numbers [0, M_N) address the points of Z_{m_0} x ... x Z_{m_{N-1}} by
the same expansion.  Digits are stored least significant first throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

# Cell counts must stay addressable by signed 64-bit integers.
_MAX_CELLS = 2**63 - 1


@dataclass(frozen=True)
class RadixSystem:
    """A radix sequence with its precomputed place values.

    products[k] is M_k: there are M_k cylinders of rank k, each of Haar
    measure 1/M_k, and products[-1] == M_N is the total cell count.
    """

    radices: tuple[int, ...]
    products: tuple[int, ...] = field(init=False, compare=False, repr=False)
    max_radix: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        radices = tuple(int(m) for m in self.radices)
        if not radices:
            raise ValueError("radix sequence must contain at least one entry")
        for k, m in enumerate(radices):
            if m < 2:
                raise ValueError(f"invalid radix m_{k} = {m}: every radix must be >= 2")
        products = [1]
        for m in radices:
            nxt = products[-1] * m
            if nxt > _MAX_CELLS:
                raise ValueError(
                    f"depth too large: cell count overflows 64-bit range at level {len(products) - 1}"
                )
            products.append(nxt)
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "products", tuple(products))
        object.__setattr__(self, "max_radix", max(radices))

    @property
    def depth(self) -> int:
        return len(self.radices)

    @property
    def cells(self) -> int:
        """Total number of rank-N cells, i.e. M_N."""
        return self.products[-1]

    def truncate(self, depth: int) -> "RadixSystem":
        """The subsystem made of the first `depth` levels."""
        if not 1 <= depth <= self.depth:
            raise ValueError(f"truncation depth {depth} outside [1, {self.depth}]")
        return RadixSystem(self.radices[:depth])

    def spec_string(self) -> str:
        """Canonical spec string; constant sequences collapse to base^depth."""
        if len(set(self.radices)) == 1:
            return f"{self.radices[0]}^{self.depth}"
        return ",".join(str(m) for m in self.radices)


def build_radix_system(radices: Sequence[int], depth: int | None = None) -> RadixSystem:
    """Build a system from a radix pattern, cycling it out to `depth` levels.

    With depth omitted the pattern is used as-is.  With depth given the
    pattern repeats periodically, so a single radix yields the constant
    system and ``([2, 3, 4], 9)`` yields three copies of (2, 3, 4).
    """
    pattern = [int(m) for m in radices]
    if not pattern:
        raise ValueError("radix pattern must contain at least one entry")
    if depth is None:
        depth = len(pattern)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return RadixSystem(tuple(pattern[i % len(pattern)] for i in range(depth)))


_CONSTANT_SPEC = re.compile(r"^\s*(\d+)\s*\^\s*(\d+)\s*$")


def parse_radix_spec(spec: str, depth: int | None = None) -> RadixSystem:
    """Parse "2,3,4" (explicit sequence) or "2^10" (constant radix 2, depth 10).

    An explicit `depth` argument cycles or truncates the parsed pattern.
    """
    match = _CONSTANT_SPEC.match(spec)
    if match:
        base, count = int(match.group(1)), int(match.group(2))
        if count < 1:
            raise ValueError(f"cannot parse radix spec {spec!r}: depth must be >= 1")
        return build_radix_system([base], count if depth is None else depth)
    try:
        pattern = [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"cannot parse radix spec {spec!r}: expected forms are '2,3,4' or '2^10'"
        ) from None
    return build_radix_system(pattern, depth)


@dataclass(frozen=True)
class VilenkinIndex:
    """A natural number below M_N with its digit expansion and order.

    order is the largest position carrying a nonzero digit, with the
    convention order == -1 for the value 0.
    """

    sys: RadixSystem
    value: int
    digits: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class CellIndex:
    """A point of the product group, addressed by cell number and coordinates."""

    sys: RadixSystem
    t: int
    coords: tuple[int, ...]


def _expand(sys: RadixSystem, value: int) -> tuple[int, ...]:
    digits = []
    rest = value
    for m in sys.radices:
        rest, d = divmod(rest, m)
        digits.append(d)
    return tuple(digits)


def decompose(sys: RadixSystem, n: int) -> VilenkinIndex:
    """Digit expansion n = sum_j n_j * M_j with 0 <= n_j < m_j."""
    n = int(n)
    if not 0 <= n < sys.cells:
        raise ValueError(f"index {n} out of range [0, {sys.cells})")
    digits = _expand(sys, n)
    order = max((j for j, d in enumerate(digits) if d), default=-1)
    return VilenkinIndex(sys, n, digits, order)


def compose(sys: RadixSystem, digits: Sequence[int]) -> int:
    """Inverse of decompose: sum_j digits[j] * M_j, validating digit ranges."""
    if len(digits) != sys.depth:
        raise ValueError(f"expected {sys.depth} digits, got {len(digits)}")
    total = 0
    for j, (d, m) in enumerate(zip(digits, sys.radices)):
        d = int(d)
        if not 0 <= d < m:
            raise ValueError(f"digit {d} at position {j} outside [0, {m})")
        total += d * sys.products[j]
    return total


def cell_index(sys: RadixSystem, t: int) -> CellIndex:
    """The cell numbered t, with coordinates from the shared expansion."""
    t = int(t)
    if not 0 <= t < sys.cells:
        raise ValueError(f"cell {t} out of range [0, {sys.cells})")
    return CellIndex(sys, t, _expand(sys, t))


def cell_from_coords(sys: RadixSystem, coords: Sequence[int]) -> CellIndex:
    """The cell with coordinates coords (x_0, .., x_{N-1}), validating their ranges."""
    return cell_index(sys, compose(sys, coords))


def _require_same_system(a: CellIndex, b: CellIndex) -> None:
    if a.sys != b.sys:
        raise ValueError("system mismatch: cells belong to different radix systems")


def group_add(x: CellIndex, y: CellIndex) -> CellIndex:
    """Coordinatewise addition modulo m_j."""
    _require_same_system(x, y)
    coords = tuple((a + b) % m for a, b, m in zip(x.coords, y.coords, x.sys.radices))
    return cell_from_coords(x.sys, coords)


def group_neg(x: CellIndex) -> CellIndex:
    """Coordinatewise inverse: j-th coordinate becomes (m_j - x_j) mod m_j."""
    coords = tuple((m - a) % m for a, m in zip(x.coords, x.sys.radices))
    return cell_from_coords(x.sys, coords)


def cell_measure(sys: RadixSystem, rank: int) -> float:
    """Haar measure of one rank-n cylinder: 1/M_n.  Rank 0 is the whole group."""
    if not 0 <= rank <= sys.depth:
        raise ValueError(f"rank {rank} out of range [0, {sys.depth}]")
    return 1.0 / sys.products[rank]
