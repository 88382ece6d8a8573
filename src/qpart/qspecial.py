"""The parameter point and the circle weights.

QParams, the modified MacMahon function with its plane-partition series,
and the circle weights I, I_check and J_gen in product form: the reference
that `checks.rhp_jump` and the tests hold the moment series and tables to.
The kernel's q-Bessel values c_n = q^{n/2} J^(3)_n(2 xi; q) are the J_gen
coefficients, which `kernels._j_gen` builds from their q-difference
recurrence; the mp series that checks them lives in `qpart.checks`.

The products and series here are geometric for q, xi in [0,1), so binary64
with a tail tolerance is enough. The truncation is fixed, not a setting: a
product or series stops once its tail is below _TAIL_TOL, the unit roundoff
of binary64 (a tighter value changes no bit, a looser one only adds error),
and raises NonconvergenceError after _MAX_TERMS terms.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QParams",
    "NonconvergenceError",
    "macmahon",
    "log_macmahon",
    "macmahon_series_coefficient",
    "circle_weight",
]

_TAIL_TOL = 1e-16
_MAX_TERMS = 10_000
_MACMAHON_DEGREE = 64  # degree of the exact plane-partition series


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


def macmahon(params: QParams) -> float:
    """Modified MacMahon function M(xi;q) = prod_{n>=1} (1 - xi^2 q^n)^-n;
    overflows near q = 1, where log_macmahon does not."""
    return math.exp(log_macmahon(params))


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


def macmahon_series_coefficient(k: int) -> int:
    """Exact integer coefficient of q^k in prod_{n>=1} (1 - q^n)^{-n}.

    Counts plane partitions of k. Expanded by repeated polynomial division
    over the integers, truncated at degree k: the factors with n > k do not
    reach it.
    """
    if k < 0 or k > _MACMAHON_DEGREE:
        raise ValueError(f"k must lie in [0, {_MACMAHON_DEGREE}]")
    coeffs = [0] * (k + 1)
    coeffs[0] = 1
    for n in range(1, k + 1):
        for _ in range(n):
            # multiply by 1/(1 - q^n): running prefix sums with stride n
            for i in range(n, k + 1):
                coeffs[i] += coeffs[i - n]
    return coeffs[k]


WEIGHTS = ("I", "I_check", "J_gen")


def circle_weight(weight: str, params: QParams, z: np.ndarray) -> np.ndarray:
    """The circle weight at complex points z, off its poles and zeros.

    With a_k = xi q^{k+1/2}, k >= 0, by the product form:
      I:       1 / prod (1 - a_k z)(1 - a_k / z), the symbol of the moments I_n;
      I_check: prod (1 + a_k z)(1 + a_k / z), the dual symbol;
      J_gen:   prod (1 - a_k / z) / (1 - a_k z), the kernel generating
               function, of modulus 1 on the circle.
    It is the one product-form evaluator; no table or sample reads it.
    NonconvergenceError before any work if a factor past _MAX_TERMS is at or
    above _TAIL_TOL: such a product overflows long before its last factor.
    """
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    a = params.xi * math.sqrt(params.q)
    if a * params.q ** (_MAX_TERMS - 1) >= _TAIL_TOL:
        raise NonconvergenceError(f"{weight} weight product did not converge")
    if weight == "I_check":
        a = -a
    num = np.ones_like(z, dtype=complex)
    den = np.ones_like(z, dtype=complex)
    while abs(a) >= _TAIL_TOL:
        if weight == "J_gen":
            num *= 1.0 - a / z
            den *= 1.0 - a * z
        else:
            den = den * (1.0 - a * z) * (1.0 - a / z)
        a *= params.q
    if weight == "I_check":
        return den
    return num / den
