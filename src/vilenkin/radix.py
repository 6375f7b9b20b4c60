"""Mixed-radix number systems: place values, digit expansions, spec parsing.

A radix sequence (m_0, ..., m_{N-1}), every entry at least 2, fixes both a
number system and a group: place values M_0 = 1, M_{k+1} = m_k * M_k, so
every integer n < M_N has a unique expansion n = sum_j n_j * M_j, and the
cell numbers [0, M_N) address the points of Z_{m_0} x ... x Z_{m_{N-1}} by
the same expansion.  Indices and cells are plain integers; decompose gives
their digits, least significant first.
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
    # every radix is at least 2, so M_63 > _MAX_CELLS: a deeper system fails
    # within its first 63 levels, and only those are built
    levels = min(depth, max(len(pattern), 63))
    return RadixSystem(tuple(pattern[i % len(pattern)] for i in range(levels)))


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


def decompose(sys: RadixSystem, n: int) -> tuple[int, ...]:
    """The digits (n_0, ..., n_{N-1}) of n = sum_j n_j * M_j, 0 <= n_j < m_j."""
    n = int(n)
    if not 0 <= n < sys.cells:
        raise ValueError(f"index {n} out of range [0, {sys.cells})")
    digits = []
    for m in sys.radices:
        n, d = divmod(n, m)
        digits.append(d)
    return tuple(digits)
