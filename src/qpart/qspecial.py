"""Scalar q-special functions.

q-Pochhammer symbols, basic hypergeometric series, the modified MacMahon
function, the three q-Bessel families with their modified variants, and
Fourier-coefficient extraction of the circle weights that feed the Toeplitz
and kernel machinery.

All series here are geometric-or-faster for q, xi in [0,1), so binary64
with a tail tolerance is enough at desk scale. The truncation is fixed, not
a setting: a series stops once its tail is below _TAIL_TOL, the unit
roundoff of binary64 (a tighter value changes no bit, a looser one only
adds error), and raises NonconvergenceError after _MAX_TERMS terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "QParams",
    "HypergeometricSpec",
    "NonconvergenceError",
    "q_pochhammer",
    "basic_hypergeometric",
    "macmahon",
    "log_macmahon",
    "q_bessel",
    "modified_q_bessel",
    "circle_weight",
    "circle_fft",
]

_TAIL_TOL = 1e-16
_MAX_TERMS = 10_000
_MACMAHON_DEGREE = 64  # degree of the exact plane-partition series

# coefficients this small are numerically indistinguishable from 0 and can
# underflow in downstream products; flush them
_FLUSH = 1e-300


class NonconvergenceError(RuntimeError):
    """A truncated series, product or iteration used up its term, grid or
    precision budget before its tail fell below the fixed tolerance."""


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


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of an r-phi-s basic hypergeometric series."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    q: float
    x: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        # a lower parameter of the form q^{-m} zeroes a denominator factor
        # at term m+1, making the series undefined
        for b in self.lower:
            if b == 0.0:
                continue
            if self.q == 0.0:
                if b == 1.0:
                    raise ValueError("lower parameter 1 with q = 0; undefined")
                continue
            qk = 1.0
            for m in range(_MAX_TERMS + 1):
                if abs(b - qk) <= 1e-14 * abs(qk):
                    raise ValueError(
                        f"lower parameter {b} equals q^-{m}; series undefined"
                    )
                if abs(qk) > abs(b):
                    # q^{-m} grows past b; no later power can match
                    break
                qk /= self.q


def q_pochhammer(x: float, q: float, n: Union[int, float] = math.inf) -> float:
    """(x;q)_n = prod_{k=0}^{n-1} (1 - x q^k), with n = inf allowed for |q| < 1."""
    if n == math.inf:
        if abs(q) >= 1.0:
            raise ValueError("(x;q)_infinity requires |q| < 1")
        prod = 1.0
        xqk = x
        for _ in range(_MAX_TERMS):
            if abs(xqk) < _TAIL_TOL:
                return prod
            prod *= 1.0 - xqk
            xqk *= q
        raise NonconvergenceError(
            f"(x;q)_inf: {_MAX_TERMS} factors, tail {abs(xqk):.3e} > {_TAIL_TOL:.3e}"
        )
    m = int(n)
    if m < 0:
        raise ValueError("n must be a nonnegative integer or inf")
    prod = 1.0
    xqk = x
    for _ in range(m):
        prod *= 1.0 - xqk
        xqk *= q
    return prod


def basic_hypergeometric(spec: HypergeometricSpec) -> float:
    """Evaluate the r-phi-s series term by term.

    term_n = [(a_1..a_r;q)_n / ((q;q)_n (b_1..b_s;q)_n)]
             * ((-1)^n q^C(n,2))^(1+s-r) * x^n
    """
    r, s = len(spec.upper), len(spec.lower)
    power = 1 + s - r
    q, x = spec.q, spec.x

    total = 0.0
    term = 1.0  # n = 0
    n = 0
    while n < _MAX_TERMS:
        total += term
        if abs(term) < _TAIL_TOL * max(1.0, abs(total)) and n > 0:
            return total
        # update term n -> n+1 multiplicatively
        num = 1.0
        for a in spec.upper:
            num *= 1.0 - a * q**n
        den = 1.0 - q ** (n + 1)
        for b in spec.lower:
            den *= 1.0 - b * q**n
        factor = num / den * x
        if power != 0:
            factor *= (-(q**n)) ** power
        term *= factor
        n += 1
        if term == 0.0:
            return total
    raise NonconvergenceError(
        f"basic_hypergeometric: {_MAX_TERMS} terms, tail {abs(term):.3e}"
    )


def macmahon(params: QParams) -> float:
    """Modified MacMahon function M(xi;q) = prod_{n>=1} (1 - xi^2 q^n)^-n;
    overflows near q = 1, where log_macmahon does not."""
    return math.exp(log_macmahon(params))


def log_macmahon(params: QParams) -> float:
    """log M(xi;q) = -sum_{n>=1} n log(1 - xi^2 q^n)."""
    q, xi = params.q, params.xi
    if xi == 0.0:
        return 0.0
    # log M = sum_n xi^{2n} / (n (q^{n/2} - q^{-n/2})^2); near q = 1 this
    # converges in a handful of terms while the defining product needs
    # O(1/(1-q)) factors, so try it first and fall back to the product
    log_m = 0.0
    prev = math.inf
    for n in range(1, 200):
        term = xi ** (2 * n) / (n * (q ** (n / 2.0) - q ** (-n / 2.0)) ** 2)
        if term > prev:
            break
        log_m += term
        if term < _TAIL_TOL:
            return log_m
        prev = term
    log_m = 0.0
    w = xi * xi * q
    for n in range(1, _MAX_TERMS + 1):
        log_m -= n * math.log1p(-w)
        w *= q
        # remaining |log| tail is below sum_{m>n} m xi^2 q^m in closed form
        tail = w * ((n + 1.0) - n * q) / (1.0 - q) ** 2 if q < 1.0 else math.inf
        if tail < _TAIL_TOL:
            return log_m
    raise NonconvergenceError("macmahon: product did not converge")


def macmahon_series_coefficient(k: int) -> int:
    """Exact integer coefficient of q^k in prod_{n>=1} (1 - q^n)^{-n}.

    Counts plane partitions of k. Expanded by repeated polynomial division
    over the integers, truncated at degree _MACMAHON_DEGREE.
    """
    if k < 0 or k > _MACMAHON_DEGREE:
        raise ValueError(f"k must lie in [0, {_MACMAHON_DEGREE}]")
    coeffs = [0] * (_MACMAHON_DEGREE + 1)
    coeffs[0] = 1
    for n in range(1, _MACMAHON_DEGREE + 1):
        for _ in range(n):
            # multiply by 1/(1 - q^n): running prefix sums with stride n
            for i in range(n, _MACMAHON_DEGREE + 1):
                coeffs[i] += coeffs[i - n]
    return coeffs[k]


def q_bessel(kind: int, nu: float, x: float, q: float) -> float:
    """q-Bessel function J^(kind)_nu(x;q), kind in {1,2,3}.

    nu may be any real > -1 for the direct series (the (q^{nu+1};q)_infinity
    prefactor converges there); negative integer orders are reached by
    downward recurrence from two nonnegative seeds.
    """
    if kind not in (1, 2, 3):
        raise ValueError("kind must be 1, 2 or 3")
    if q == 0.0:
        # only the n=0 term of each series survives
        if nu < 0 and nu == int(nu):
            raise ValueError("q=0 with negative integer order is undefined")
        return (x / 2.0) ** nu

    is_neg_int = nu < 0 and float(nu).is_integer()
    if is_neg_int:
        return _q_bessel_negative(kind, int(nu), x, q)

    pref = q_pochhammer(q ** (nu + 1), q) / q_pochhammer(q, q) * (x / 2.0) ** nu
    b = q ** (nu + 1)
    if kind == 1:
        spec = HypergeometricSpec(upper=(0.0, 0.0), lower=(b,), q=q, x=-x * x / 4.0)
    elif kind == 2:
        spec = HypergeometricSpec(upper=(), lower=(b,), q=q, x=-x * x * b / 4.0)
    else:
        spec = HypergeometricSpec(upper=(0.0,), lower=(b,), q=q, x=q * x * x / 4.0)
    return pref * basic_hypergeometric(spec)


def _q_bessel_negative(kind: int, nu: int, x: float, q: float) -> float:
    """Negative integer orders.

    Kind 3 uses the reflection identity
    J_{-n}(x;q) = (-1)^n q^{n/2} J_n(q^{n/2} x; q), obtained by shifting the
    series index past the n vanishing leading terms; it is stable at every
    order, unlike the downward recurrence (the negative-order values decay,
    so the recurrence amplifies the dominant solution).
    Kinds 1 and 2 use the downward three-term recurrence from orders 1, 0.
    """
    if kind == 3:
        n = -nu
        return (-1.0) ** n * q ** (n / 2.0) * q_bessel(kind, n, q ** (n / 2.0) * x, q)
    j_up = q_bessel(kind, 1, x, q)  # J_{m+1}
    j_mid = q_bessel(kind, 0, x, q)  # J_m
    m = 0
    while m > nu:
        # solve the recurrence for J_{m-1}
        if kind == 3:
            j_dn = ((2.0 / x) * (1.0 - q**m) + x / 2.0) * j_mid - j_up
        else:
            j_dn = (2.0 / x) * (1.0 - q**m) * j_mid - q**m * j_up
        j_up, j_mid = j_mid, j_dn
        m -= 1
    return j_mid


def modified_q_bessel(kind: int, nu: float, x: float, q: float) -> float:
    """Modified q-Bessel function I^(kind)_nu(x;q), kind in {1,2}.

    Evaluated through the 1-phi-1 representation
        I^(1)_nu(2u;q) = u^nu / ((u^2, q;q)_inf) * 1phi1(u^2; 0; q, q^{nu+1}),
        I^(2)_nu(2u;q) = u^nu / ((q;q)_inf)      * 1phi1(u^2; 0; q, q^{nu+1}),
    which is well defined for any integer nu (the lower parameter is 0).
    """
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    u = x / 2.0
    u2 = u * u
    if kind == 1 and u2 >= 1.0:
        raise ValueError("kind 1 requires x^2/4 < 1 ((x^2/4;q)_inf prefactor pole)")
    phi = basic_hypergeometric(
        HypergeometricSpec(upper=(u2,), lower=(0.0,), q=q, x=q ** (nu + 1)))
    if nu < 0 and not float(nu).is_integer():
        raise ValueError("negative non-integer order not supported")
    pref = u**nu if nu >= 0 else u ** int(nu)
    pref /= q_pochhammer(q, q)
    if kind == 1:
        pref /= q_pochhammer(u2, q)
    return pref * phi


WEIGHTS = ("I", "I_check", "J_gen")


def circle_weight(weight: str, params: QParams, z: np.ndarray) -> np.ndarray:
    """The circle weight at complex points z, off its poles and zeros.

    With a_k = xi q^{k+1/2}, k >= 0, by the product form:
      I:       1 / prod (1 - a_k z)(1 - a_k / z), the symbol of the moments I_n;
      I_check: prod (1 + a_k z)(1 + a_k / z), the dual symbol;
      J_gen:   prod (1 - a_k / z) / (1 - a_k z), the kernel generating
               function, of modulus 1 on the circle, so its FFT
               coefficients carry no cancellation error.
    """
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    a = params.xi * math.sqrt(params.q)
    # decided before multiplying: the partial products of a product that
    # cannot converge overflow long before its last factor
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


def circle_fft(weight: str, params: QParams, grid: int) -> np.ndarray:
    """Real parts of the FFT coefficients of the weight on `grid` equispaced
    points of the circle: entry k holds order k for k < grid/2 and order
    k - grid above. Values below 1e-300 are flushed to 0."""
    theta = 2.0 * math.pi * np.arange(grid) / grid
    c = (np.fft.fft(circle_weight(weight, params, np.exp(1j * theta))) / grid).real
    c[np.abs(c) < _FLUSH] = 0.0
    return c
