"""Exact partition combinatorics, the reference the tests hold qpart to.

Enumeration in size-then-lex-descending order, transposition, hooks,
contents, b(lambda) and dim lambda, one partition at a time in integer
arithmetic, independent of the numpy hook-count tables in `qpart.measures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from qpart.partitions import Partition


@dataclass(frozen=True)
class CellStats:
    hooks: dict[tuple[int, int], int]
    contents: dict[tuple[int, int], int]
    b_of_lambda: int
    dim_lambda: int  # exact big integer


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """All partitions of size <= max_size, in size-then-lex-descending order."""
    for n in range(max_size + 1):
        yield from map(Partition, _partitions_of(n, n))


def _partitions_of(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def transpose(lam: Partition) -> Partition:
    return Partition(tuple(sum(1 for p in lam if p >= j) for j in range(1, lam.part(1) + 1)))


def cell_stats(lam: Partition) -> CellStats:
    """Hooks and contents by 1-based cell (i, j), b(lambda) and dim lambda."""
    lam_t = transpose(lam)
    cells = [(i, j) for i, p in enumerate(lam, start=1) for j in range(1, p + 1)]
    hooks = {(i, j): lam.part(i) + lam_t.part(j) - i - j + 1 for i, j in cells}
    contents = {(i, j): j - i for i, j in cells}
    b = sum((i - 1) * p for i, p in enumerate(lam, start=1))
    dim, rem = divmod(math.factorial(lam.size), math.prod(hooks.values()))
    if rem != 0:
        raise AssertionError("hook length formula must divide exactly")
    return CellStats(hooks=hooks, contents=contents, b_of_lambda=b, dim_lambda=dim)
