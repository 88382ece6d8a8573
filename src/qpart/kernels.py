"""Correlation kernels, k-point correlations, limit shape, scaling probes.

The kernels act on the half-integer lattice. Half-integer indices are
carried as doubled integers internally so no floating-point index drift can
occur; the public API accepts floats like 0.5 or fractions.

Numerical route: the q-Bessel kernel and its q -> 1 limit are built from
the Fourier coefficients of a unimodular symbol: c_n = q^{n/2} J^(3)_n(2 xi; q)
of the generating function J_gen, and J_n(2 eta) of exp(eta (z - 1/z)).
Both are the solution of a three-term recurrence that decays at both ends,
and `_miller` finds it by Miller's algorithm in decimal at 34+ digits, so
every entry is relatively accurate, even for q close to 1, where the raw
hypergeometric series cancels catastrophically and an FFT of the product
form keeps only absolute digits; the squared mass left outside the span
fixes each table's order range. One assembler, `_lag_sum`, gives each entry
K(r, s) = sum_{n > r} c_n c_{n+s-r} of a table, free of the
Christoffel-Darboux division that amplified rounding near q = 1: it sums
its own terms from the table's top down, reading an order past the table as
the 0 that ends it on each side, and a block is the array of its entries.
Between calls the coefficient tables are kept, and each (table, lag)'s
partial sums, up to _KEPT_BYTES: a later entry of that lag whose sum ends
at the same or a higher order reads it there, bit for bit, so a 40 x 40
block sums each of its 79 lags once (13 ms at (0.9999, 0.7), span 32,768,
where summing every entry took 87 ms). The Schur series form
`schur_kernel` takes its J and Jtilde tables by FFT of the Miwa-time
symbol (`_table`), not from J_gen, an independent check; every table walks
the same power-of-two spans, _MIN_SPAN to _MAX_SPAN.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from decimal import Decimal
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .measures import MiwaTimes
from .qspecial import _MAX_TERMS, _TAIL_TOL, NonconvergenceError, QParams, _context

__all__ = [
    "LimitShape",
    "twice",
    "schur_kernel",
    "kernel_matrix",
    "q_bessel_kernel",
    "discrete_bessel_kernel",
    "correlation",
    "limit_shape",
    "airy",
    "airy_kernel",
    "sine_kernel",
    "scaling_probe",
]

_MIN_SPAN = 128          # smallest order span of a coefficient table
_MAX_SPAN = 1 << 16      # a coefficient table gives up past this span
_OUTSIDE_MASS = 1e-24    # squared mass a table may drop
_DIGITS = 34             # decimal digits of a recurrence run, before J_gen's extra
_RUN_TOL = 1e-30         # start error a run may leave at the span, relative
_MIN_PAD = 4             # fewest orders a run starts past the span
_LEGENDRE_T, _LEGENDRE_W = np.polynomial.legendre.leggauss(24)  # the Omega rule
_KEPT_BYTES = 1 << 24    # bytes of lag partial sums _lag_sum keeps: 16 MiB


def twice(r) -> int:
    """Validate a half-integer, up to a relative 1e-9 of rounding, and return
    2r as an odd integer."""
    try:
        num, den = r.as_integer_ratio()  # in lowest terms: num is odd if den is 2
    except AttributeError:  # a string, say, which Fraction reads
        den = 0
    if den == 2:
        return num
    t = 2 * Fraction(r)
    n = round(t)
    if n % 2 == 0 or abs(t - n) > 1e-9 * abs(n):
        raise ValueError(f"{r} is not a half-integer")
    return n


def _table(fft: Callable[[int], np.ndarray], what: str) -> tuple[int, np.ndarray]:
    """(L, c) for a symbol on the circle whose FFT on a grid is fft(grid): c
    holds c_n for |n| <= L at index n + L + 1, and 0 at each end. L is the
    smallest power of two from _MIN_SPAN whose squared mass of orders past
    it, on the grid of 4 L points, is below _OUTSIDE_MASS; for a symbol of
    modulus 1, sum_n c_n^2 = 1 (Parseval), so that mass is relative."""
    span = _MIN_SPAN
    while span <= _MAX_SPAN:
        c = fft(4 * span)
        if np.sum(c[span + 1 : 3 * span] ** 2) < _OUTSIDE_MASS:
            return span, np.concatenate([[0.0], c[-span:], c[: span + 1], [0.0]])
        span *= 2
    raise NonconvergenceError(f"{what} coefficients not negligible by order {_MAX_SPAN}")


def _unit() -> tuple[int, np.ndarray]:
    """The table of the symbol 1: c_n = delta_{n,0}."""
    c = np.zeros(2 * _MIN_SPAN + 3)
    c[_MIN_SPAN + 1] = 1.0
    return _MIN_SPAN, c


def _root(b: Decimal) -> Decimal:
    """The root of r^2 - b r + 1 = 0 inside the unit disk, for |b| > 2."""
    return 2 / (b + (b * b - 4).sqrt().copy_sign(b))


def _pad(beta: Callable[[int, int], list], n: int, step: int) -> int | None:
    """Orders past n, away from the band in the direction of step = +-1, at
    which a run starts so that its start error is below _RUN_TOL relative
    at n; None if n lies in the band, |beta_n| <= 2.

    A run starts at the local decaying root r of r^2 - beta r + 1, which is
    off the solution's ratio by about |r (beta_{n+step} - beta_n)| /
    (beta_n^2 - 4), an error in the other solution. That error shrinks by
    r^2 per order the run moves toward the band, and the estimate by its own
    ratio per order the start moves out; both factors only shrink farther
    out, so their values at n bound the pad."""
    b = beta(n, n + 2) if step > 0 else beta(n - 2, n)[::-1]  # beta_n, .._{n+step}, .._{n+2 step}
    if abs(b[0]) <= 2:
        return None

    def error(b0: Decimal, b1: Decimal) -> Decimal:
        return abs(_root(b0) * (b1 - b0)) / (b0 * b0 - 4)

    start = error(b[0], b[1])
    if start <= Decimal(_RUN_TOL):
        return _MIN_PAD
    rate = error(b[1], b[2]) / start * _root(b[0]) ** 2
    if rate >= 1:
        return None
    rough = _context(6)  # the logs need a few digits, and cost less with few
    steps = (Decimal(_RUN_TOL) / start).ln(rough) / rate.ln(rough)
    return max(_MIN_PAD, int(steps.to_integral_value(decimal.ROUND_CEILING)))


def _run(betas: list) -> tuple[Decimal, list]:
    """(r, e): e_0 = 1, e_{k+1} = betas[k] e_k - e_{k-1}, with e_{-1} = r e_0 at
    the local decaying root r of the first order."""
    prev, cur = _root(betas[0]), Decimal(1)
    r, e = prev, [cur]
    for b in betas:
        prev, cur = cur, b * cur - prev
        e.append(cur)
    return r, e


def _miller(beta: Callable[[int, int], list], q: Decimal, band: tuple[float, float],
            digits: int, what: str) -> tuple[int, np.ndarray]:
    """(L, c) for the coefficients c_n = q^{n/2} e_n of a symbol on the circle
    with value 1 at z = 1, e_n the solution of e_{n+1} + e_{n-1} = beta_n e_n
    that decays at both ends; beta(m, n) lists beta_m .. beta_n in the
    current decimal context, which is the run's, whatever the caller's. c
    holds c_n for |n| <= L at index n + L + 1, and 0 at each end.

    Miller's algorithm (W. Gautschi, SIAM Rev. 9 (1967)), in decimal at
    `digits` digits, whose exponent range needs no rescaling. Outside the
    oscillatory band, the orders in `band` where |beta_n| < 2, one solution
    grows away from the band and one decays, so a run downward from L + pad
    keeps the decaying solution to the band's lower edge, and a run upward
    from -L - pad to its upper edge; `_pad` sizes each start. The two runs
    are stitched by least squares over the band's integers, where both hold
    the solution, and scaled so that sum_n c_n = 1 over the whole run and
    its geometric tails. Each entry is then relatively accurate: the float
    of c_n, correctly rounded but for ties. L is the smallest power of two
    from _MIN_SPAN whose squared mass outside, read off the run, is below
    _OUTSIDE_MASS; a span inside the band is skipped."""
    lo, hi = math.ceil(band[0]), math.floor(band[1])
    span = _MIN_SPAN
    with decimal.localcontext(_context(digits)):
        root = q.sqrt()
        while span <= _MAX_SPAN:
            pads = _pad(beta, span, 1), _pad(beta, -span, -1)
            if None in pads:
                span *= 2
                continue
            top, bot = span + pads[0], -span - pads[1]
            r_top, down = _run(beta(lo + 1, top)[::-1])  # e_top .. e_lo
            r_bot, up = _run(beta(bot, hi - 1))         # e_bot .. e_hi
            down.reverse()
            both = up[lo - bot :]                         # e_lo .. e_hi, upward
            scale = sum(map(operator.mul, down, both)) / sum(u * u for u in both)
            c, w = [], root**bot
            for v in [scale * u for u in up[: lo - bot]] + down:
                c.append(w * v)
                w *= root
            # past the ends c_n runs on by the start ratios
            tails = ((c[-1], root * r_top), (c[0], r_bot / root))
            total = sum(c) + sum(v * t / (1 - t) for v, t in tails)
            zero = -bot  # index of c_0 in c
            outside = sum(v * v for v in c[: zero - span]) + sum(v * v for v in c[zero + span + 1 :])
            if outside < Decimal(_OUTSIDE_MASS) * total * total:
                kept = (float(v / total) for v in c[zero - span : zero + span + 1])
                return span, np.array([0.0, *kept, 0.0])
            span *= 2
    raise NonconvergenceError(f"{what} coefficients not negligible by order {_MAX_SPAN}")


@lru_cache(maxsize=64)
def _j_gen(params: QParams) -> tuple[int, np.ndarray]:
    """The `_miller` table of c_n = q^{n/2} J^(3)_n(2 xi;q), the coefficients
    of J_gen. The Hahn-Exton function e_n = J^(3)_n(2 xi;q) solves
    e_{n+1} + e_{n-1} = ((1 + xi^2 - q^n) / xi) e_n, which is the q-difference
    equation J_gen(qz) = (1 - a/(qz))(1 - a z) J_gen(z), a = xi q^{1/2}, in
    c_n: (a/q) c_{n+1} = (1 + a^2/q - q^n) c_n - a c_{n-1}. Its band is the
    limit shape's support (a, b) over -log q. Past the upper edge
    -2 log(1-xi)/(-log q) c_n decays only like a^n, so near q = 1 the span
    runs hundreds of orders past the edge. As xi -> 1 the two rates a and
    q/a there merge and a run loses about log10(1/(1 - xi)) of its digits, so
    it runs at _DIGITS plus that many, rounded up: 50 at xi = 1 - 1.1e-16, the
    largest double below 1. At q = 0 or xi = 0, c_n = delta_{n,0}. The
    table never reads the product form, so the one limit is _MAX_SPAN."""
    if params.q == 0.0 or params.xi == 0.0:
        return _unit()
    q, xi = Decimal(params.q), Decimal(params.xi)

    def beta(m: int, n: int) -> list:
        shift, t, out = xi + 1 / xi, q**m / xi, []  # t = q^k / xi at order k
        for _ in range(m, n + 1):
            out.append(shift - t)
            t *= q
        return out

    shape, eps = limit_shape(params.xi), -math.log(params.q)
    digits = _DIGITS + math.ceil(-math.log10(1.0 - params.xi))
    return _miller(beta, q, (shape.a / eps, shape.b / eps), digits, f"J_gen of {params}")


@lru_cache(maxsize=64)
def _bessel(eta: float) -> tuple[int, np.ndarray]:
    """The `_miller` table of J_n(2 eta), the coefficients of exp(eta (z - 1/z)):
    J_{n+1} + J_{n-1} = (n/eta) J_n, with band |n| < 2 eta. At eta = 0, J_n =
    delta_{n,0}."""
    if eta == 0.0:
        return _unit()
    e = Decimal(eta)
    return _miller(lambda m, n: [Decimal(k) / e for k in range(m, n + 1)], Decimal(1),
                   (-2.0 * eta, 2.0 * eta), _DIGITS, f"J_n(2 eta) at eta = {eta}")


class _KeptSums(dict):
    """(id of a table's array, lag) -> (that array, first index summed, partial
    sums from the top), for `_lag_sum`. The partial sums hold at most
    _KEPT_BYTES, the oldest dropped first; the tables they read are kept
    with them, so no id is reused while kept."""

    nbytes = 0

    def keep(self, key: tuple, kept: tuple) -> None:
        if (old := self.pop(key, None)) is not None:
            self.nbytes -= old[2].nbytes
        self[key], self.nbytes = kept, self.nbytes + kept[2].nbytes
        while self.nbytes > _KEPT_BYTES:
            self.nbytes -= self.pop(next(iter(self)))[2].nbytes

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_KEPT = _KeptSums()


def _lag_sum(table: tuple[int, np.ndarray], r, s) -> float:
    """K(r, s) = sum_{n > r} c_n c_{n+s-r} over a table (span, c) of c_n: the
    terms c_n c_{n+d}, d = s - r, from the table's top order down to r + 1/2,
    summed in that order. An order past the table reads the 0 at its end
    (`take` clips the index there).

    The partial sums from the top, `np.add.accumulate`'s array, are kept per
    (table, d), so a later entry of the same lag that ends at the same or a
    higher order reads its sum there: the same additions in the same order.
    One that ends lower sums again and replaces them."""
    tr, ts = twice(r), twice(s)
    span, c = table
    size = len(c)
    start = min(max((tr + 1) // 2 + span + 1, 0), size - 1)  # index of order r + 1/2
    d = min(max((ts - tr) // 2, -size), size)  # past the table's length every c_n pairs with 0
    kept = _KEPT.get((id(c), d))
    if kept is None or start < kept[1]:
        terms = c.take(np.arange(start + d, size + d), mode="clip")  # c_{n+d}, n >= r + 1/2
        terms *= c[start:]  # in place, sparing a second array
        kept = c, start, np.add.accumulate(terms[::-1])  # np.cumsum, less its overhead
        _KEPT.keep((id(c), d), kept)
    return float(kept[2][size - 1 - start])


def kernel_matrix(params: QParams, rows: Sequence, cols: Sequence) -> np.ndarray:
    """The block K(r, s) = sum_{k in Z'_{>0}} c_{r+k} c_{s+k}, r in rows, s in cols,
    of the squared-type correlation kernel, c_n = q^{n/2} J^(3)_n(2 xi;q): the
    array of its `q_bessel_kernel` entries. Unlike the paper's
    Christoffel-Darboux quotient, it has no division by 1 - q^{|r-s|}, which
    amplifies rounding near q = 1."""
    table = _j_gen(params)
    return np.array([[_lag_sum(table, r, s) for s in cols] for r in rows],
                    dtype=float).reshape(len(rows), len(cols))


def q_bessel_kernel(params: QParams, r, s) -> float:
    """One entry K(r, s) of `kernel_matrix`: the `_lag_sum` of the J_gen table."""
    return _lag_sum(_j_gen(params), r, s)


@lru_cache(maxsize=64)
def _schur_coefficients(t: MiwaTimes, t_tilde: MiwaTimes) -> tuple:
    """The `_table`s of J_n and Jtilde_n, the Fourier coefficients of
    exp(sum_n t_n z^n - ttilde_n z^-n) and of the same with t and ttilde
    swapped, independent of the J_gen table. The times are summed until both
    fall below _TAIL_TOL (both families decrease)."""
    times = []
    for n in range(1, _MAX_TERMS + 1):
        times.append((t.value(n), t_tilde.value(n)))
        if max(map(abs, times[-1])) < _TAIL_TOL:
            break
    else:
        raise NonconvergenceError(f"Miwa times of {t}, {t_tilde} above {_TAIL_TOL} "
                                  f"past n = {_MAX_TERMS}")
    orders = np.arange(1, len(times) + 1)

    def fft(plus: np.ndarray, minus: np.ndarray) -> Callable[[int], np.ndarray]:
        def on_grid(grid: int) -> np.ndarray:
            # the log symbol at z_k = exp(2 pi i k / grid), where z_k^n depends
            # on n mod grid only, is grid times an inverse FFT
            log_symbol = np.zeros(grid)
            np.add.at(log_symbol, orders % grid, plus)
            np.add.at(log_symbol, -orders % grid, -minus)
            return (np.fft.fft(np.exp(np.fft.ifft(log_symbol) * grid)) / grid).real
        return on_grid

    t_n, tt_n = np.array(times).T
    return (_table(fft(t_n, tt_n), f"J of {t}, {t_tilde}"),
            _table(fft(tt_n, t_n), f"Jtilde of {t}, {t_tilde}"))


def schur_kernel(t: MiwaTimes, t_tilde: MiwaTimes, r, s) -> float:
    """Series form K(r,s) = sum_{k in Z'_{>0}} J_{r+k} Jtilde_{s+k}.

    The summation index k runs over positive half-integers so that r + k is
    an integer order; orders past either table read as 0.
    """
    (span, j), (span_t, jt) = _schur_coefficients(t, t_tilde)
    a, b = (twice(r) + 1) // 2, (twice(s) + 1) // 2  # the orders r + 1/2, s + 1/2
    lo = max(0, -span - a, -span_t - b)  # the first step with both orders in range
    n = min(span - a, span_t - b) + 1 - lo
    if n <= 0:
        return 0.0
    ia, ib = a + lo + span + 1, b + lo + span_t + 1
    return float(np.dot(j[ia : ia + n], jt[ib : ib + n]))


def discrete_bessel_kernel(eta: float, r, s) -> float:
    """q -> 1 limit kernel sum_{k in Z'_{>0}} J_{r+k}(2 eta) J_{s+k}(2 eta), the
    `_lag_sum` of the Bessel table; off the diagonal it equals
    eta (J_{r-1/2} J_{s+1/2} - J_{r+1/2} J_{s-1/2}) / (r - s)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return _lag_sum(_bessel(eta), r, s)


def correlation(kernel: Callable[[object, object], float], points: Sequence) -> float:
    """k-point correlation det[K(z_i, z_j)] for distinct half-integer points."""
    pts = [twice(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    if not pts:
        return 1.0
    k = len(pts)
    mat = np.empty((k, k))
    for i, p in enumerate(pts):
        for j, p2 in enumerate(pts):
            mat[i, j] = kernel(Fraction(p, 2), Fraction(p2, 2))
    return float(np.linalg.det(mat))


@dataclass(frozen=True)
class LimitShape:
    xi: float
    a: float
    b: float
    alpha0: float
    beta0: float
    rho: Callable[[float], float]
    omega: Callable[[float], float]


def limit_shape(xi: float) -> LimitShape:
    """Macroscopic density rho and profile Omega of the squared-type measure."""
    if not (0.0 <= xi < 1.0):
        raise ValueError("xi must be in [0, 1)")
    a = -2.0 * math.log1p(xi)
    b = -2.0 * math.log1p(-xi)
    alpha0 = -2.0 * math.log1p(-xi)
    beta0 = xi / (1.0 - xi) ** 2

    def rho(x: float) -> float:
        if xi == 0.0:
            return 1.0 if x < 0.0 else 0.0
        if x < a:
            return 1.0
        if x > b:
            return 0.0
        arg = 0.5 * (xi + (1.0 - math.exp(-x)) / xi)
        arg = min(1.0, max(-1.0, arg))
        return math.acos(arg) / math.pi

    def omega(x: float) -> float:
        if x <= a or x >= b:
            return abs(x)
        # in t, x = a + (b - a) sin^2 t, rho's square-root endpoints are smooth,
        # so the fixed Gauss-Legendre rule on [0, t_x] is exact to rounding
        t_x = math.asin(math.sqrt((x - a) / (b - a)))
        t = 0.5 * t_x * (_LEGENDRE_T + 1.0)
        f = np.array([rho(a + (b - a) * math.sin(u) ** 2) for u in t]) * np.sin(2.0 * t)
        integral = 0.5 * t_x * (b - a) * float(_LEGENDRE_W @ f)
        return x - 2.0 * a - 2.0 * integral

    return LimitShape(xi=xi, a=a, b=b, alpha0=alpha0, beta0=beta0, rho=rho, omega=omega)


# Airy function by the standard Maclaurin pair: f'' = x f with
# f(0)=1, f'(0)=0 and g(0)=0, g'(0)=1; Ai = c1 f - c2 g.
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def airy(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)) from the Maclaurin series pair, for |x| <= 8."""
    if abs(x) > 8.0:
        raise ValueError("airy series pair is restricted to |x| <= 8")
    # f = sum a_k x^{3k}, g = sum b_k x^{3k+1}
    f_val, fp_val = 1.0, 0.0
    g_val, gp_val = x, 1.0
    a_k = 1.0
    b_k = 1.0
    xk3 = 1.0  # x^{3k}
    for k in range(1, 60):
        a_k /= (3 * k) * (3 * k - 1)
        b_k /= (3 * k + 1) * (3 * k)
        xk3 *= x * x * x
        f_term = a_k * xk3
        g_term = b_k * xk3 * x
        f_val += f_term
        g_val += g_term
        fp_val += f_term * (3 * k) / x if x != 0.0 else 0.0
        gp_val += g_term * (3 * k + 1) / x if x != 0.0 else 0.0
        if abs(f_term) < 1e-18 and abs(g_term) < 1e-18:
            break
    ai = _AI0 * f_val + _AIP0 * g_val
    aip = _AI0 * fp_val + _AIP0 * gp_val
    return ai, aip


def airy_kernel(x: float, y: float) -> float:
    """(Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y); diagonal Ai'(x)^2 - x Ai(x)^2."""
    ax, apx = airy(x)
    if x == y:
        return apx * apx - x * ax * ax
    ay, apy = airy(y)
    return (ax * apy - apx * ay) / (x - y)


def sine_kernel(rho: float, d: int) -> float:
    """sin(pi rho d) / (pi d), with value rho on the diagonal d = 0."""
    if d == 0:
        return rho
    return math.sin(math.pi * rho * d) / (math.pi * d)


def _nearest_half_integer(x: float) -> Fraction:
    # floor keeps the map monotone; round-half-to-even would collapse
    # neighboring probe positions onto the same lattice site
    return Fraction(2 * math.floor(x) + 1, 2)


def scaling_probe(
    kind: str,
    xi: float,
    q_schedule: Sequence[float],
    x: float = 0.0,
    y: float = 0.0,
    u: int = 1,
    v: int = 0,
) -> list[dict]:
    """Deviation of the rescaled kernel from its universal limit along a q schedule.

    kind="bulk_sine": K at positions -x/log q + u, -x/log q + v (rounded to the
    lattice) against sin(pi rho (u-v)) / (pi (u-v)); x must lie in (a, b).
    kind="edge_airy": cube-root rescaled kernel at the spectral edge against
    the Airy kernel at (x, y). Reports trends; the limits come with no rate.
    """
    if kind not in ("bulk_sine", "edge_airy"):
        raise ValueError(f"unknown probe kind {kind!r}")
    shape = limit_shape(xi)
    if kind == "bulk_sine" and not (shape.a < x < shape.b):
        raise ValueError(f"bulk probe needs x in ({shape.a}, {shape.b})")
    if kind == "edge_airy" and shape.beta0 <= 0.0:
        raise ValueError(f"edge probe needs xi > 0: the Airy scale is 0 at xi = {xi}")
    rows = []
    for q in q_schedule:
        eps = -math.log(q)
        params = QParams(q=q, xi=xi)
        if kind == "bulk_sine":
            base = x / eps
            r = _nearest_half_integer(base + u)
            s = _nearest_half_integer(base + v)
            got = q_bessel_kernel(params, r, s)
            target = sine_kernel(shape.rho(x), u - v)
        else:
            scale = (shape.beta0 / eps) ** (1.0 / 3.0)
            base = shape.alpha0 / eps
            r = _nearest_half_integer(base + scale * x)
            s = _nearest_half_integer(base + scale * y)
            got = scale * q_bessel_kernel(params, r, s)
            # compare at the effective lattice coordinates: rounding shifts
            # the Airy argument by up to 1/(2 scale), which would otherwise
            # mask the convergence trend
            x_eff = (float(r) - base) / scale
            y_eff = (float(s) - base) / scale
            target = airy_kernel(x_eff, y_eff)
        rows.append(
            {"q": q, "value": got, "target": target, "deviation": abs(got - target)}
        )
    return rows
