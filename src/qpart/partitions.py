"""The partition type that `qpart.measures.measure` weighs.

The exact combinatorics (enumeration, hooks, contents, b(lambda), dim
lambda, transposition) live in the test suite as the reference the numpy
hook-count tables of `qpart.measures` are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Partition"]


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

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)
