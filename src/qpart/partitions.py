"""Exact combinatorics of integer partitions.

Hooks, contents, b(lambda), transposition, the boson-fermion coordinates
and enumeration in a fixed order, all in exact integer or rational
arithmetic. `cell_stats` is the exact reference for the hook-length counts
that `qpart.measures` weighs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator

__all__ = [
    "Partition",
    "CellStats",
    "FermionicSet",
    "enumerate_partitions",
    "cell_stats",
    "fermionic_coordinates",
]

MAX_ENUM_SIZE = 60


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {p}")
            if i > 0 and p > self.parts[i - 1]:
                raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """lambda_i with 1-based index, 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= j)
                for j in range(1, self.parts[0] + 1)
            )
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        """1-based cell coordinates (i, j) of the Young diagram."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class CellStats:
    hooks: dict[tuple[int, int], int]
    contents: dict[tuple[int, int], int]
    b_of_lambda: int
    dim_lambda: int  # exact big integer


@dataclass(frozen=True)
class FermionicSet:
    entries: tuple[Fraction, ...]


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """All partitions of size <= max_size, in size-then-lex-descending order."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    if max_size > MAX_ENUM_SIZE:
        raise ValueError(f"max_size {max_size} exceeds guard {MAX_ENUM_SIZE}")
    for n in range(max_size + 1):
        yield from map(Partition, _partitions_of(n, n))


def _partitions_of(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def cell_stats(lam: Partition) -> CellStats:
    lam_t = lam.transpose()
    hooks: dict[tuple[int, int], int] = {}
    contents: dict[tuple[int, int], int] = {}
    for (i, j) in lam.cells():
        hooks[(i, j)] = lam.part(i) + lam_t.part(j) - i - j + 1
        contents[(i, j)] = j - i
    b = sum((i - 1) * p for i, p in enumerate(lam.parts, start=1))
    hook_prod = reduce(lambda a, h: a * h, hooks.values(), 1)
    dim, rem = divmod(math.factorial(lam.size), hook_prod)
    if rem != 0:
        raise AssertionError("hook length formula must divide exactly")
    return CellStats(hooks=hooks, contents=contents, b_of_lambda=b, dim_lambda=dim)


def fermionic_coordinates(lam: Partition, depth: int) -> FermionicSet:
    """First `depth` entries of {lambda_i - i + 1/2}."""
    if depth < 1:
        raise ValueError("depth must be positive")
    return FermionicSet(
        tuple(Fraction(2 * (lam.part(i) - i) + 1, 2) for i in range(1, depth + 1))
    )
