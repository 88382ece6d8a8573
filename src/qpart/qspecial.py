"""The parameter point and the modified MacMahon function.

QParams, the decimal context the engines run in, and log M(xi; q), which
the Toeplitz gap route and the squared measure's normalization read. The
circle weights are read through their moments and coefficient tables
(`oppainleve._moments`, `kernels._j_gen`); their log-sum evaluator, the
plane-partition series and the mp q-series that check them live in
`qpart.checks`, and the product form in the tests' `reference_fft`.

The series here and in `kernels` and `checks` are geometric for q, xi in
[0, 1), so binary64 with a tail tolerance is enough. The truncation is
fixed, not a setting: a series stops once its tail is below _TAIL_TOL, the
unit roundoff of binary64 (a tighter value changes no bit, a looser one
only adds error), and raises NonconvergenceError after _MAX_TERMS terms.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "QParams",
    "NonconvergenceError",
    "log_macmahon",
]

_TAIL_TOL = 1e-16
_MAX_TERMS = 10_000


def _context(dps: int) -> decimal.Context:
    """A decimal context of dps digits that ignores the caller's defaults."""
    return decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                           traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                  decimal.Overflow])


class NonconvergenceError(RuntimeError):
    """A truncated series, product or iteration used up its term, grid, span,
    section or precision budget before its tail fell below the fixed tolerance."""


@dataclass(frozen=True)
class QParams:
    """The parameter pair (q, xi), both in [0, 1)."""

    q: float
    xi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"q must be in [0, 1), got {self.q}")
        if not (0.0 <= self.xi < 1.0):
            raise ValueError(f"xi must be in [0, 1), got {self.xi}")
        # the dataclass hash, taken once: every cached per-point table is
        # looked up by it, 4,800 times in a 40 x 40 kernel block
        object.__setattr__(self, "_hash", hash((self.q, self.xi)))

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=64)
def log_macmahon(params: QParams) -> float:
    """log M(xi;q) = -sum_{n>=1} n log(1 - xi^2 q^n)
    = sum_{n>=1} xi^{2n} / (n (2 sinh(n log q / 2))^2).

    Near q = 1 the product needs O(1/(1-q)) factors, the series a handful of
    terms. These are positive, each at most xi^2 q times the one before, so
    math.fsum adds them once the tail bound t xi^2 q / (1 - xi^2 q) past a
    term t is below _TAIL_TOL times the first. At q = 0 all terms are 0.
    Cached per point, as the Toeplitz gap route asks it once per N."""
    half_log_q = 0.5 * math.log(params.q) if params.q else -math.inf
    ratio = params.xi**2 * params.q
    terms = []
    for n in range(1, _MAX_TERMS + 1):
        terms.append(params.xi ** (2 * n) / (n * (2.0 * math.sinh(n * half_log_q))**2))
        if terms[-1] * ratio <= _TAIL_TOL * (1.0 - ratio) * terms[0]:
            return math.fsum(terms)
    raise NonconvergenceError(f"log_macmahon: {_MAX_TERMS} terms at {params}")
