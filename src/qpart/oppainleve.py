"""Orthogonal polynomials on the unit circle, Riemann-Hilbert data, the Lax
pair, and the q-Painleve V recurrence.

Two weight variants run through everything here:

  plain  -- the weight whose moments are the I_n symbol (length gap variant);
            Verblunsky-type data x_n = pi_n(0), Painleve variable
            xs_n = xi^{1/2} q^{n/2} x_n.
  check  -- the dual weight with moments the Icheck_n symbol (first-part
            variant); data y_n, Painleve variable ys_n = (-xi)^{1/2}
            q^{-n/2} y_n, which is imaginary for xi > 0.

Both branches are held in one real variable v_n with a sign e: e = +1 and
v_n = xs_n on the x branch, e = -1 and v_n = -i ys_n = xi^{1/2} q^{-n/2} y_n
on the y branch. Then both satisfy one q-P_V system,
  (v_n v_{n+1} - e)(v_{n-1} v_n - e)
      = (v_n^2 - xi)(v_n^2 - 1/xi) / (1 - v_n^2 / (xi q^{e n})),
and the y branch's bilinears ys_n^2 = e v_n^2 and ys_n ys_{n+1} = e v_n v_{n+1}
are real.

All OPUC data come from one Szego recursion with an a-posteriori precision
check, run in the standard library's `decimal` under a limit of _MAX_DPS
working digits and one of _MAX_WORK digit-operations; `op_sequence` is its
one public entry, and the tests check it against mpmath determinants. Its
one record of runs, _longest, keeps each point's longest for shorter requests,
and the state that continues its pair of runs to a longer one. A run keeps
the Verblunsky data x_n, not the polynomials: `rhp_sample` runs the same
recursion to pi_n in decimal, over the moments the run kept.
The q-P_V variables come from it alone, and the relation above is checked
on them, not iterated: forward iteration loses the digits (README).
The comparisons made on these objects are in `qpart.checks`, but for
`tau_relation_check` (a benchmark operation) and `recurrence_residuals`
(the `painleve` table's residual column).
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from .kernels import _j_gen
from .qspecial import NonconvergenceError, QParams, _context

__all__ = [
    "OPSequence",
    "PainleveState",
    "LaxMatrices",
    "op_sequence",
    "painleve_trajectory",
    "tail_comparator",
    "lax_matrices",
    "rhp_sample",
    "tau_relation_check",
    "recurrence_residuals",
]

OP_VARIANTS = ("plain", "check")
_SIGN = {"x": 1, "y": -1}  # the sign e of each Painleve branch
_SHARED_TOP = 16   # every request up to this index shares one run per symbol
_AGREE = 1e-17     # relative agreement that certifies a working precision
_MARGIN = round(-math.log10(_AGREE))  # 17: the digits a pair's second run adds to its first
_MAX_DPS = 10_000  # working digits past which the engine gives up
_MAX_WORK = 5e8   # top^2 x digits: the decimal digit-operations of a pair of runs
_LONGEST_POINTS = 64   # points _longest keeps, the oldest dropped first
_FLOOR = 2.0**-27      # |v_n| below which a recurrence residual checks nothing

# (variant, params) -> the _Pair that settled the point's longest certified
# run; op_sequence writes it
_longest: dict[tuple[str, QParams], _Pair] = {}


@dataclass(frozen=True)
class OPSequence:
    """A certified Szego run, as _longest keeps it: x and kappa_sq for n <= top,
    log_z for n <= top + 1, top at least max(n_max + 1, _SHARED_TOP)."""

    variant: str
    params: QParams
    dps: int                     # decimal digits of the run the values came from
    x: tuple[float, ...]         # x_n = pi_n(0) = (-1)^n Z_n^{(1)} / Z_n
    kappa_sq: tuple[float, ...]  # kappa_n^2 = 1 / E_n = Z_n / Z_{n+1}
    log_z: tuple[float, ...]     # log Z_n, Z_n the n x n Toeplitz determinant


@dataclass(frozen=True)
class _Pair:
    """A point's longest certified run and what continues the pair of runs
    that settled it, O(top) decimals: at (0.97, 0.7), top 90, 0.1 MB."""

    run: OPSequence
    dps: int         # digits of the pair's first run, the digits it settled at
    c: list          # moments c_0 .. c_{2t+1} at run.dps digits, t the top first certified
    lo: tuple        # (pi_top, E_top) of the first run
    hi: tuple        # (pi_top, E_top) of the second run
    ratio: Decimal   # the running product prod_{k <= top} E_k(lo) / E_k(hi)
    log_z: Decimal   # log Z_{top+1} of the second run


@dataclass(frozen=True)
class PainleveState:
    """The real q-P_V variables v_0 .. v_{n_max+1} of one branch; values, sq
    and cross read v_n, e v_n^2 and e v_n v_{n+1} for n <= n_max."""

    variant: str  # "x" or "y"
    params: QParams
    v: tuple[float, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return self.v[:-1]

    @property
    def sq(self) -> tuple[float, ...]:
        e = _SIGN[self.variant]
        return tuple(e * a * a for a in self.v[:-1])

    @property
    def cross(self) -> tuple[float, ...]:
        e = _SIGN[self.variant]
        return tuple(e * a * b for a, b in zip(self.v, self.v[1:]))


@dataclass(frozen=True)
class LaxMatrices:
    variant: str
    n: int
    u1: np.ndarray
    u0: np.ndarray
    t2: np.ndarray
    t1: np.ndarray
    t0: np.ndarray
    z_pole: float

    def u(self, z: complex) -> np.ndarray:
        return self.u1 * z + self.u0

    def t(self, z: complex) -> np.ndarray:
        return (self.t2 * z * z + self.t1 * z + self.t0) / (1.0 - z / self.z_pole)


def _moments(variant: str, top: int, q: Decimal, xi: Decimal) -> list:
    """Symbol moments c_0..c_top (c_{-m} = c_m) in the current decimal
    context's precision.

    plain:  c_m = sum_k u^{2k+m} / ((q;q)_k (q;q)_{k+m}), u = xi sqrt(q);
    check:  c_m = q^{m^2/2} sum_k q^{k(k+m)} u^{2k+m} / ((q;q)_k (q;q)_{k+m}),
            u = xi.
    Only c_top and c_{top+1} are summed, in one pass over k that ends when
    term k falls below the working precision in both. Every lower moment
    then comes from the q-difference equation of the symbol, run downward,
    with a = xi sqrt(q):
      plain:  w(qz) (1 - a/(qz)) = (1 - a z) w(z), so
              c_{m-1} = ((1 - q^m) c_m + a q^m c_{m+1}) / a;
      check:  w(qz) (1 + a z) = (1 + a/(qz)) w(z), so
              c_{m-1} = ((a/q) c_{m+1} + (1 - q^m) c_m) / (a q^{m-1}).
    All series terms and all recurrence coefficients are positive, so
    nothing cancels, even as q approaches 1: c_{m-1} carries the larger
    relative error of c_m and c_{m+1} plus the rounding of its own
    coefficients, and the errors add over the top steps instead of
    multiplying. At a = 0 the symbol is 1, so c_0 = 1 and c_m = 0.
    """
    root = q.sqrt()
    a = xi * root
    if not a:
        return [Decimal(1)] + [Decimal(0)] * top
    check = variant == "check"
    u = xi if check else a
    floor = Decimal(1).scaleb(-decimal.getcontext().prec - 5)
    q_top = q**top
    # with scale = u^top q^{top^2/2 [check]}:
    #   c_top     = scale sum_k r_k,
    #   c_{top+1} = scale sum_k r_k a q^{(k+top) [check]} / (1 - q^{k+top+1}),
    #   r_k = u^{2k} q^{k(k+top) [check]} / ((q;q)_k (q;q)_{k+top}), held in row
    row = 1 / math.prod((1 - q**j for j in range(1, top + 1)), start=Decimal(1))
    uu, q_k, s0, s1 = u * u, Decimal(1), Decimal(0), Decimal(0)  # q_k = q^k
    while True:
        q_kt = q_k * q_top                                      # q^{k+top}
        t1 = row * a * (q_kt if check else 1) / (1 - q_kt * q)
        s0 += row
        s1 += t1
        if row < floor * s0 and t1 < floor * s1:
            break
        q_k *= q
        row *= uu / ((1 - q_k) * (1 - q_k * q_top))
        if check:
            row *= q_k * q_k * q_top / q
    scale = u**top * (root ** (top * top) if check else 1)
    c = [Decimal(0)] * top + [scale * s0, scale * s1]
    q_m = list(accumulate(repeat(q, top), operator.mul, initial=Decimal(1)))  # q^m
    a_q = a / q
    for m in range(top, 0, -1):
        if check:
            c[m - 1] = (a_q * c[m + 1] + (1 - q_m[m]) * c[m]) / (a * q_m[m - 1])
        else:
            c[m - 1] = ((1 - q_m[m]) * c[m] + a * q_m[m] * c[m + 1]) / a
    return c[: top + 1]


@lru_cache(maxsize=64)
def _symbol_digits(variant: str, params: QParams) -> tuple[float, float]:
    """log10 c_0 and log10(c_0 / E_1) = -log10(1 - x_1^2) of the symbol, from
    its moments at 20 digits."""
    with decimal.localcontext(_context(20)):
        c0, c1 = _moments(variant, 1, Decimal(params.q), Decimal(params.xi))
        return float(c0.log10()), float(-(1 - (c1 / c0) ** 2).log10())


def _estimate(variant: str, params: QParams, top: int) -> int:
    """Starting digits at which the first pair of runs settles: 25 plus the
    larger of two losses.

    The shifted determinant of size n shrinks roughly like q^{n^2/2} xi^n
    (plain) or (xi sqrt(q))^n (check) while the matrix entries stay
    comparable. And a run keeps about 1.6 fewer digits per digit of c_0 /
    E_top: E_n falls from E_0 = c_0 to E_inf = 1 (the symbol's geometric
    mean), by -log10(1 - x_n^2) digits at step n, steps that shrink with n
    at every point measured, so L = log10(c_0 / E_top) is at most
    min(log10 c_0, top log10(c_0 / E_1)). Near q = 1 the second dominates:
    at (0.97, 0.7) c_0 = 7.5e23.
    """
    q, xi = params.q, params.xi
    if xi == 0.0 or q == 0.0:
        return 25
    lost_plain = -(top * top / 2.0) * math.log10(q) - top * math.log10(xi)
    lost_check = -top * math.log10(xi * math.sqrt(q))
    log_c0, first = _symbol_digits(variant, params)
    lost = max(lost_plain if variant == "plain" else lost_check, 1.6 * min(log_c0, top * first))
    return 25 + max(0, int(lost))


def _dps_for(variant: str, params: QParams, top: int) -> int:
    """Starting precision of a certification: the `_estimate`, or, at a point
    with a run in _longest, the digits that run settled at times the growth
    of the estimate from its top to this one."""
    start = _estimate(variant, params, top)
    if kept := _longest.get((variant, params)):
        start = math.ceil(kept.dps * start / _estimate(variant, params, len(kept.run.x) - 1))
    return start


def _szego(c: list, dps: int, state: tuple | None) -> tuple | None:
    """One run of the recursion over the moments c_0 .. c_top at dps digits,
    from pi_0 = 1 and E_0 = c_0, or, given a run's state (pi_n, E_n), n <
    top, on from it: lists x and E of the rows it adds (x_0 = 1 and E_0
    first, from the start) and the state (pi_top, E_top), or None if some
    E_n rounded to zero or below.

    pi_{n+1}(z) = z pi_n(z) + x_{n+1} pi_n^*(z), pi_n^* the reversed
    polynomial, with x_{n+1} = -<z pi_n, 1> / E_n fixed by orthogonality to 1
    and E_{n+1} = E_n (1 - x_{n+1}^2), E_0 = c_0. Only the coefficients of
    the current pi_n are held. The E_n are positive, so a run where one is
    not has too few digits and counts as a disagreement.
    """
    with decimal.localcontext(_context(dps)):
        c = [+v for v in c]  # to the run's digits: a product costs by its operands'
        a, en = state or ([Decimal(1)], c[0])  # a: pi_n, low to high
        x, e = ([], []) if state else ([Decimal(1)], [en])
        for n in range(len(a) - 1, len(c) - 1):
            xn = -sum(map(operator.mul, a, c[1 : n + 2])) / en
            a = [s + xn * t for s, t in zip([0, *a], [*a[::-1], 0])]
            en *= 1 - xn * xn
            x.append(xn)
            e.append(en)
            if en <= 0:
                return None
    return x, e, (a, en)


@lru_cache(maxsize=64)
def _ln10(prec: int) -> Decimal:
    """log 10 to prec + 2 digits."""
    return Decimal(10).ln(_context(prec + 2))


def _ln(v: Decimal, ctx: decimal.Context) -> Decimal:
    """log v, v > 0, at the precision p of ctx, within 4 units of 10^(w - p),
    for any w with 10^w >= 2.31 (|exponent of v| + 1) > |log v|.

    With v rounded to p digits, v = m 10^e, 1 <= m < 10, and y the float
    log of float(m), log v = e log 10 + y + log(1 + d), d = m e^-y - 1,
    and log(1 + d) = d - d^2/2 to within |d|^3/3 < 1e-46: the two float
    roundings leave |d| < 6e-16. One exp at p digits costs about half of
    libmpdec's correctly rounded ln (16 against 32 us at 30 digits). The
    error is the rounding of v (half a unit of 10^(1 - p) relative, at most
    of 10^(w - p) absolute, as w >= 1), of m e^-y (one unit of 10^(1 - p)),
    of log 10 (1/40 of a unit in e log 10) and of the three sums and the
    product (a half unit each).
    """
    with decimal.localcontext(ctx):
        v = +v
        e = v.adjusted()
        m = v.scaleb(-e)
        y = Decimal(math.log(float(m)))
        d = m * (-y).exp() - 1
        return e * _ln10(ctx.prec) + y + (d - d * d / 2)


def _log_z(e: list, dps: int, top: int, log_z: Decimal, log_c0: float | None) -> list:
    """log Z_{n+1} .. log Z_{top+1} of a run at dps digits from its E_n ..
    E_top and log Z_n, log Z_{k+1} = log Z_k + log E_k, at the precision
    the floats need. log_c0 is log Z_1 = log c_0, None if n = 0, where the
    first log is it.

    No log E_k is below 0, since E_k falls to E_inf = 1, so log Z_k >= log
    c_0 for k >= 1. Each log E_k is rounded to an absolute error below
    tol / (top + 1), tol = max(_AGREE^2, 1e-21 log c_0), so every log Z_k
    is within 1e-21 relative or _AGREE^2 absolute, far below a float's
    rounding; a run continued from a shorter top adds at most tol more,
    since its earlier logs were rounded for that top. E_k is rounded to the
    log's precision first: libmpdec reads every digit of its operand, so at
    1,300 working digits a log of a full E_k cost up to 0.3 s whatever its
    own precision.
    """
    # |ln v| < 2.31 (|exponent of v| + 1) <= 10^whole, so whole + frac
    # digits bound `_ln`'s error by 4 units of 10^-frac < tol / (top + 1);
    # a guard digit keeps it under 4 tenths
    logs = []
    with decimal.localcontext(_context(dps)):
        for v in e:
            tol = _AGREE**2 if log_c0 is None else max(_AGREE**2, 1e-21 * log_c0)
            whole = math.ceil(math.log10(2.31 * (abs(v.adjusted()) + 1)))
            ctx = _context(min(dps, whole + math.ceil(math.log10((top + 1) / tol))) + 1)
            log_z += _ln(v, ctx)
            logs.append(log_z)
            if log_c0 is None:
                log_c0 = float(log_z)
    return logs


def _agree(lo: tuple, hi: tuple, ratio: Decimal) -> Decimal | None:
    """The running product of E_k(lo) / E_k(hi) over the rows of two runs,
    from ratio, if their x and E agree to _AGREE relative, and log Z to
    _AGREE absolute, in the current context; None if not. The log Z_{n+1}
    of the two runs differ by the log of the product over k <= n, so that
    product stays within exp(+-_AGREE), and no log is taken."""
    agree = Decimal(_AGREE)
    if not all(abs(a - b) <= agree * abs(b) for a, b in [*zip(lo[0], hi[0]), *zip(lo[1], hi[1])]):
        return None
    low, high = (-agree).exp(), agree.exp()
    for a, b in zip(lo[1], hi[1]):
        ratio *= a / b
        if not low <= ratio <= high:
            return None
    return ratio


def _float(v: Decimal) -> float:
    # an exact zero reads +0.0 (x_n = -0 / E_n where the symbol is 1), while
    # a value below the double range keeps its sign, as -0.0 if negative
    return float(v) if v else 0.0


def _refused(top: int, dps: int) -> str:
    """Why no pair of runs ending at dps digits is made: dps, or the pair's
    work of top^2 x dps decimal digit-operations, past its limit."""
    if dps > _MAX_DPS:
        return f"{dps} digits, past the limit of {_MAX_DPS}"
    if (work := top * top * dps) > _MAX_WORK:
        return f"{work:.2g} digit-operations (top^2 x {dps}), past the limit of {_MAX_WORK:.0e}"
    return ""


def _settle(variant: str, params: QParams, c: list, dps: int, top: int,
            kept: _Pair | None) -> _Pair | None:
    """The _Pair of two runs over the moments c_0 .. c_top at dps and dps +
    _MARGIN digits, from the start or on from kept, if both ran and agree;
    None if not. The second run alone takes logs, of its new E_n only."""
    fine = dps + _MARGIN
    lo = _szego(c[: top + 1], dps, kept and kept.lo)
    hi = _szego(c[: top + 1], fine, kept and kept.hi)
    with decimal.localcontext(_context(fine)):
        ratio = lo and hi and _agree(lo, hi, kept.ratio if kept else Decimal(1))
        if not ratio:
            return None
        x, e, state = hi
        run = kept.run if kept else OPSequence(variant, params, 0, (), (), (0.0,))  # log Z_0 = 0
        log_z = _log_z(e, fine, top, kept.log_z if kept else Decimal(0),
                       run.log_z[1] if kept else None)
        run = OPSequence(variant=variant, params=params, dps=fine,
                         x=run.x + tuple(map(_float, x)),
                         kappa_sq=run.kappa_sq + tuple(_float(1 / v) for v in e),
                         log_z=run.log_z + tuple(map(_float, log_z)))
    return _Pair(run=run, dps=dps, c=c, lo=lo[2], hi=state, ratio=ratio, log_z=log_z[-1])


def _certified(variant: str, params: QParams, top: int) -> _Pair:
    """Fresh pairs of runs at d and d + _MARGIN digits, over moments summed
    at d + _MARGIN, d raised by half for each, until x and E of a pair agree
    relatively and then their log Z absolutely, which is relative in Z.
    Returns the _Pair that settled, whose dps is d. Both runs read the same
    moments: their error escapes the comparison, but it sits _MARGIN digits
    below what the first run resolves. The moments run to 2 top + 1, one
    series and 2 top + 1 downward steps, so that the pair can be continued.
    Each limit is checked at 1.5 d before the pair at d, so the refusals
    stand where runs at 1.5 d put them."""
    dps, what = _dps_for(variant, params, top), f"Szego recursion ({variant}, {params}, top {top})"
    if why := _refused(top, dps * 3 // 2):
        raise NonconvergenceError(f"{what} needs {why}")
    q, xi = Decimal(params.q), Decimal(params.xi)
    while not (why := _refused(top, dps * 3 // 2)):
        with decimal.localcontext(_context(dps + _MARGIN)):
            c = _moments(variant, 2 * top + 1, q, xi)
        if pair := _settle(variant, params, c, dps, top, None):
            return pair
        dps = dps * 3 // 2
    raise NonconvergenceError(f"{what} not settled to {_AGREE:g} by {dps} digits; "
                              f"the next pair needs {why}")


def _continued(kept: _Pair, top: int) -> _Pair | None:
    """The kept pair's two runs continued to top at their own digits, if its
    moments reach top, a certification would start at no more digits than
    its first run's and the pair's work is under the limit; None if not, or
    if the new rows or the running product disagree."""
    variant, params = kept.run.variant, kept.run.params
    if (top >= len(kept.c) or _dps_for(variant, params, top) > kept.dps
            or _refused(top, kept.dps * 3 // 2)):
        return None
    return _settle(variant, params, kept.c, kept.dps, top, kept)


@lru_cache(maxsize=0)  # caches nothing: kept only for perfbench's tracer, which reads its cache_info()
def op_sequence(variant: str, params: QParams, n_max: int) -> OPSequence:
    """x_n and kappa_n^2 = 1/E_n for n <= n_max + 1, log Z_n for
    n <= n_max + 2, in one shared certified run that may be longer.

    One O(top^2) Szego (Levinson) recursion over the symbol moments (B.
    Simon, Orthogonal Polynomials on the Unit Circle, AMS 2005, ch. 1.5),
    top at least max(n_max + 1, _SHARED_TOP): requests up to _SHARED_TOP
    share one run per symbol, any request that the point's run in _longest
    covers gets that run, unsliced, and a longer one continues the pair of
    runs that settled it where `_continued` can, or else certifies afresh;
    either run replaces it there. A pair runs in decimal arithmetic at d
    digits and at d + _MARGIN = d + 17, d from _dps_for and raised by half
    for each fresh pair, until its two runs agree to 1e-17 relative in
    every value (log Z_n absolute), so the floats are correct to the last
    bit; a run in which some E_n rounds to zero or below disagrees.
    NonconvergenceError, before any run, if the first pair would pass
    _MAX_DPS digits or cost more than _MAX_WORK digit-operations, each
    checked at 1.5 d, and if no pair under both limits agrees.
    """
    if variant not in OP_VARIANTS:
        raise ValueError(f"variant must be one of {OP_VARIANTS}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    key, top = (variant, params), max(n_max + 1, _SHARED_TOP)
    kept = _longest.get(key)
    if kept and len(kept.run.x) > top:
        return kept.run
    # a certification's start reads the point's kept pair
    kept = (kept and _continued(kept, top)) or _certified(variant, params, top)
    _longest.pop(key, None)
    _longest[key] = kept
    if len(_longest) > _LONGEST_POINTS:
        del _longest[next(iter(_longest))]
    return kept.run


# ---------------------------------------------------------------------------
# Painleve trajectories


def painleve_trajectory(
    variant: str, source: str, params: QParams, n_max: int
) -> PainleveState:
    """The real variables v_n of a branch, n <= n_max + 1, from the
    certified engine: v_n = xi^{1/2} q^{e n/2} x_n, with x_n = pi_n(0) =
    (-1)^n Z_n^{(1)} / Z_n of the plain weight on the x branch (e = +1,
    v_n = xs_n) and of the check weight on the y branch (e = -1, the data
    y_n and v_n = -i ys_n).

    source must be "determinant", the one route. There is no index guard:
    the engine's digit and work limits refuse a request before any run, as
    `op_sequence` says.
    """
    if variant not in _SIGN:
        raise ValueError("variant must be 'x' or 'y'")
    if source != "determinant":
        raise ValueError("source must be 'determinant'")
    e = _SIGN[variant]
    op = op_sequence("plain" if variant == "x" else "check", params, n_max)
    root_xi = math.sqrt(params.xi)
    v = tuple(root_xi * params.q ** (e * n / 2) * x for n, x in enumerate(op.x[: n_max + 2]))
    return PainleveState(variant=variant, params=params, v=v)


def tail_comparator(branch: str, params: QParams, n: int) -> float:
    """What the branch's variable tends to past the edge index: xs_n ~ sqrt(xi)
    J^(3)_{-n}(2 xi; q), ys_n^2 ~ -xi J^(3)_n(2 xi; q)^2, with J^(3)_m = q^{-m/2} c_m
    from the J_gen table; relatively accurate where |c_m| > 1e-300, 0 where it underflows."""
    if branch not in _SIGN:
        raise ValueError("branch must be 'x' or 'y'")
    m = -_SIGN[branch] * n
    span, c = _j_gen(params)
    j = float(c.take(m + span + 1, mode="clip")) * params.q ** (-m / 2)  # 0 past the table
    return math.sqrt(params.xi) * j if branch == "x" else -params.xi * j * j


# ---------------------------------------------------------------------------
# Lax pair


def lax_matrices(n: int, op: OPSequence) -> LaxMatrices:
    """Assemble U_n(z) = U1 z + U0 and the rational T_n(z) of op's point from
    closed forms.

    plain variant (data x_n, pole z = xi q^{-1/2}):
        T2 = diag(q^{n+1}, 0),
        T0 = q^n [[1-x_n^2, x_n], [(1-x_n^2) x_n, x_n^2]],
        T1 = [[alpha, beta], [gamma, delta]] with
        beta  = -q^{n+1} x_{n+1},
        gamma = -q^n (1 - x_n^2) x_{n-1},
        delta = -q^{1/2}/xi,
        alpha = q^n (x_n^2 - 1)(q x_{n+1} + x_{n-1})/x_n - q^{1/2}/xi.

    check variant (data y_n, pole z = -xi q^{-1/2}):
        T2 = diag(0, q),
        T0 = [[y_n^2, -y_n], [-(1-y_n^2) y_n, 1-y_n^2]],
        beta  = y_{n+1},
        gamma = q (1 - y_n^2) y_{n-1},
        alpha = q^{n+1/2}/xi,
        delta = (y_n^2 - 1)(q y_{n-1} + y_{n+1})/y_n + q^{n+1/2}/xi.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (entries reference index n-1)")
    if n + 1 >= len(op.x):
        raise ValueError("op sequence too short for this n")
    q, xi = op.params.q, op.params.xi
    xm, x, xp = op.x[n - 1], op.x[n], op.x[n + 1]
    if x == 0.0:
        raise ZeroDivisionError("x_n = 0 singular configuration")
    u1 = np.diag([1.0, 0.0])
    u0 = np.array([[x * xp, -xp], [-(1.0 - xp * xp) * x, 1.0 - xp * xp]])
    if op.variant == "plain":
        t2 = np.diag([q ** (n + 1), 0.0])
        t0 = q**n * np.array([[1.0 - x * x, x], [(1.0 - x * x) * x, x * x]])
        beta = -(q ** (n + 1)) * xp
        gamma = -(q**n) * (1.0 - x * x) * xm
        delta = -math.sqrt(q) / xi
        alpha = q**n * (x * x - 1.0) * (q * xp + xm) / x - math.sqrt(q) / xi
        pole = xi / math.sqrt(q)
    else:
        t2 = np.diag([0.0, q])
        t0 = np.array([[x * x, -x], [-(1.0 - x * x) * x, 1.0 - x * x]])
        beta = xp
        gamma = q * (1.0 - x * x) * xm
        alpha = q ** (n + 0.5) / xi
        delta = (x * x - 1.0) * (q * xm + xp) / x + q ** (n + 0.5) / xi
        pole = -xi / math.sqrt(q)
    t1 = np.array([[alpha, beta], [gamma, delta]])
    return LaxMatrices(variant=op.variant, n=n, u1=u1, u0=u0,
                       t2=t2, t1=t1, t0=t0, z_pole=pole)


# ---------------------------------------------------------------------------
# Riemann-Hilbert samples


def _horner(coeffs: Sequence, zr: Decimal, zi: Decimal) -> tuple[Decimal, Decimal]:
    """Re and Im of sum_k coeffs[k] z^k, z = zr + i zi, by Horner's rule."""
    sr = si = Decimal(0)
    for a in reversed(coeffs):
        sr, si = sr * zr - si * zi + a, sr * zi + si * zr
    return sr, si


def rhp_sample(n: int, z: complex, params: QParams, variant: str, radius: float) -> np.ndarray:
    """The 2x2 Riemann-Hilbert matrix of the variant's weight w at z, on
    the side of the contour of the given radius that z is on:
      Y_n(z) = [[pi_n(z),              C[u^{-n} pi_n w](z)],
                [-k_{n-1}^2 pi*_{n-1}(z), -k_{n-1}^2 C[u^{-n} pi*_{n-1} w](z)]],
    C[f](z) = sum_{k>=0} f_k z^k inside and -sum_{k<0} f_k z^k outside, f_k
    = sum_j P_j c_{|k+n-j|} the Fourier coefficients of f = u^{-n} P w in the
    moments c: the same for every contour between the poles a = xi sqrt(q)
    and 1/a. Each entry is formed in decimal at the run's digits, pi_n by
    `_szego` over the run's moments or fresh ones where the series reach
    further, and rounded once. Horner's rule sums a series until
    (a |z|^{+-1})^k < _AGREE^2: at _AGREE, rhp_det read 2.5e-9 at (0.97, 0.7).
    ValueError for z within 1e-12 relative of the contour or where
    a |z|^{+-1} >= 1; OverflowError where kappa_n^2 reads 0.0 (Y_n(0)_12 =
    E_n = 1/kappa_n^2) or an entry is past the double range.
    """
    if variant not in OP_VARIANTS:
        raise ValueError(f"variant must be one of {OP_VARIANTS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(abs(z) - radius) <= 1e-12 * radius:
        raise ValueError(f"z = {z} lies on the contour of radius {radius}")
    inside = abs(z) < radius
    ratio = params.xi * math.sqrt(params.q) * (abs(z) if inside else 1 / abs(z))
    if ratio >= 1:
        raise ValueError(f"the Cauchy series diverge at z = {z}: a |z|^(+-1) = {ratio:.3g} >= 1")
    op = op_sequence(variant, params, n + 1)
    if not op.kappa_sq[n]:
        raise OverflowError(f"E_{n} = 1/kappa_{n}^2 is past the double range")
    order = math.ceil(2 * math.log(_AGREE) / math.log(ratio)) if ratio else 0
    c = _longest[(variant, params)].c
    with decimal.localcontext(_context(op.dps)):
        if len(c) <= n + order:
            c = _moments(variant, n + order, Decimal(params.q), Decimal(params.xi))
        prev = _szego(c[:n], op.dps, None)[2]  # (pi_{n-1}, E_{n-1})
        pi_n = _szego(c[: n + 1], op.dps, prev)[2][0]
        zr, zi = Decimal(z.real), Decimal(z.imag)
        ur, ui = (zr, zi) if inside else (zr / (zr * zr + zi * zi), -zi / (zr * zr + zi * zi))
        ks = range(order + 1) if inside else range(-1, -n - order - 1, -1)
        y = []
        for p in (pi_n, [-v / prev[1] for v in prev[0][::-1]]):  # pi_n, -kappa_{n-1}^2 pi*_{n-1}
            f = [sum(pj * c[abs(k + n - j)] for j, pj in enumerate(p)) for k in ks]
            y += [_horner(p, zr, zi), _horner(f if inside else [0, *(-v for v in f)], ur, ui)]
    y = np.array([complex(float(re), float(im)) for re, im in y]).reshape(2, 2)
    if not np.isfinite(y).all():
        raise OverflowError(f"an entry of Y_{n} at z = {z} is past the double range")
    return y


def tau_relation_check(
    params: QParams, n_range: Sequence[int], variant: str = "plain"
) -> list[dict]:
    """Residual of log Z_{n+1} - 2 log Z_n + log Z_{n-1} = log(1 - x_n^2), n >= 1.

    The second difference equals log(kappa_{n-1}^2 / kappa_n^2), which is
    scale invariant and usable even where the raw determinants overflow.
    Where kappa_m^2 = Z_m / Z_{m+1} is not a normal float (0.0 at q = 0.9999,
    xi = 0.5), log kappa_m^2 is log Z_m - log Z_{m+1} instead, which keeps
    fewer digits: |log Z_m| grows like m^2 log(1/q).
    Since kappa_n^2 comes from E_{n+1} = E_n (1 - x_{n+1}^2) in the Szego
    recursion, the relation holds by construction and the residual only
    measures float rounding; the independent check of the recursion is the
    mpmath determinant comparison in the tests.
    """
    if min(n_range) < 1:
        raise ValueError("n must be >= 1 (the second difference reads log Z_{n-1})")
    op = op_sequence(variant, params, max(n_range) + 1)

    def log_kappa_sq(m: int) -> float:
        k = op.kappa_sq[m]
        return math.log(k) if k >= sys.float_info.min else op.log_z[m] - op.log_z[m + 1]

    rows = []
    for n in n_range:
        lhs = log_kappa_sq(n - 1) - log_kappa_sq(n)
        rhs = math.log1p(-op.x[n] ** 2)
        rows.append({"n": n, "residual": abs(lhs - rhs)})
    return rows


def recurrence_residuals(state: PainleveState) -> list[float | None]:
    """Relative residuals of the q-P_V relation of the module docstring at
    n = 1..n_max-1 (entry n - 1), n_max the last index of values. An entry
    is None where v_{n-1}, v_n and v_{n+1} are all below _FLOOR in magnitude:
    every product of two of them is then below 2^-54, so the relation's left
    side is exactly 1 whatever they are. The floor is tested after the
    residual, so a point that makes the relation singular still raises."""
    v, e, out = state.v, _SIGN[state.variant], []
    q, xi = state.params.q, state.params.xi
    for n in range(1, len(v) - 2):
        lhs = (v[n] * v[n + 1] - e) * (v[n - 1] * v[n] - e)
        s = v[n] * v[n]
        rhs = (s - xi) * (s - 1.0 / xi) / (1.0 - s / (xi * q ** (e * n)))
        res = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        out.append(res if max(map(abs, v[n - 1 : n + 2])) >= _FLOOR else None)
    return out
