"""The parameter point and the modified MacMahon function.

QParams, the decimal context the engines run in, and log M(xi; q), which
the Szego engine's Toeplitz gap probabilities read in decimal and the
squared measure's normalization as a float. The circle weights are read
through their moments and coefficient tables (`oppainleve._moments`,
`kernels._j_gen`); their log-sum evaluator, the plane-partition series
and the mp q-series that check them live in `qpart.checks`, and the
product form in the tests' `reference_fft`.

The float series in `kernels` and `checks` are geometric for q, xi in
[0, 1), so binary64 with a tail tolerance is enough (log M is summed in
decimal, as the engine subtracts it from its decimal log Z_N). Their
truncation is fixed, not a setting: a series stops once its tail is below
_TAIL_TOL, the unit roundoff of binary64 (a tighter value changes no bit,
a looser one only adds error), and raises NonconvergenceError after
_MAX_TERMS terms.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

__all__ = [
    "QParams",
    "NonconvergenceError",
    "log_macmahon",
    "refusal",
]

_TAIL_TOL = 1e-16
_MAX_TERMS = 10_000
_LOG_M_DIGITS = 20  # log M's relative and absolute error is below 10^-this


def _context(dps: int) -> decimal.Context:
    """A decimal context of dps digits that ignores the caller's defaults."""
    return decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
                           traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                  decimal.Overflow])


class NonconvergenceError(RuntimeError):
    """A truncated series, product or iteration used up its term, grid, span,
    section or precision budget before its tail fell below the fixed tolerance."""


# the refusals a point can bring about, in the words qpart prints for them:
# `cli.main` exits 2 with one, and a `checks.Check` row fails with it
REFUSALS = {NonconvergenceError: "did not converge",
            ZeroDivisionError: "singular at this point",
            OverflowError: "overflow at this point"}


def refusal(exc: Exception) -> str:
    """The words of REFUSALS for exc, an instance of one of its kinds."""
    return next(why for kind, why in REFUSALS.items() if isinstance(exc, kind))


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
def _log_macmahon(params: QParams) -> Decimal:
    """log M(xi;q) = -sum_{n>=1} n log(1 - xi^2 q^n)
    = sum_{n>=1} r^n / (n (1 - q^n)^2), r = xi^2 q, in decimal, within
    10^-_LOG_M_DIGITS relative and absolute: the one log-M series, which
    the Szego engine subtracts from its decimal log Z_N and whose float is
    `log_macmahon`. Cached per point.

    1 - q^n is formed as (1 - q) s_n, s_n = 1 + q s_{n-1} = sum_{j<n} q^j,
    so nothing cancels near q = 1; every term and partial sum is positive.
    Term n + 1 is at most r times term n, so the tail past a term t is at
    most t r / (1 - r), and so is log M past the first, U. With D =
    _LOG_M_DIGITS + ceil(log10 max(U, 1)), the series runs until that tail
    is below 10^-(D + 6) of the sum. Near q = 1 the product needs
    O(1/(1-q)) factors, the series a few dozen terms (79 at (0.97, 0.7)).
    At q = 0 or xi = 0 all terms are 0.

    The float sum this replaced stopped at the first term t with
    t r <= _TAIL_TOL (1 - r) t_1 and refused past _MAX_TERMS terms. This
    stop is at most D - 10 decades further down, and terms fall at least by
    r, so it comes at most m = ceil((D - 10) ln 10 / -ln r) terms after
    that one: NonconvergenceError where the float stop is not reached in
    _MAX_TERMS terms, and no sooner (17,510 terms may run at (0.995,
    0.9999)). A term n carries at most 5n + 9 roundings and the sum one
    more per term, so B = _MAX_TERMS + m terms carry at most 6B + 9 half
    units of 10^-(w - 1) at w digits, below 10^-D where w = D + 1 + the
    digit count of 3B + 5 (D + 6 up to B = 33,331)."""
    r_float = params.xi**2 * params.q
    bound = r_float / ((1.0 - params.q) ** 2 * (1.0 - r_float))  # U
    digits = _LOG_M_DIGITS + math.ceil(math.log10(max(bound, 1.0)))
    past = math.ceil((digits - 10) * math.log(10) / -math.log(r_float)) if r_float else 0  # m
    terms = _MAX_TERMS + past  # B
    with decimal.localcontext(_context(digits + 1 + len(str(3 * terms + 5)))):
        q, xi = Decimal(params.q), Decimal(params.xi)
        r, scale = xi * xi * q, (1 - q) ** 2
        tol = Decimal(1).scaleb(-digits - 6) * (1 - r)
        r_n, s_n, total = r, Decimal(1), Decimal(0)
        for n in range(1, terms + 1):
            term = r_n / (n * scale * s_n * s_n)
            total += term
            if term * r <= tol * total:
                return total
            if n == 1:
                float_stop = Decimal(_TAIL_TOL) * (1 - r) * term
            elif n == _MAX_TERMS and term * r > float_stop:
                break
            r_n *= r
            s_n = 1 + q * s_n
    raise NonconvergenceError(f"log_macmahon: {_MAX_TERMS} terms at {params}")


def log_macmahon(params: QParams) -> float:
    """log M(xi;q), the float of `_log_macmahon`, correctly rounded but for
    ties: the normalization of the squared-type measure."""
    return float(_log_macmahon(params))
