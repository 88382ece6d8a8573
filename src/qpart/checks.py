"""The identities that `qpart verify` reports, each computed in one place.

Each function takes the parameter point and the index or site range it
sweeps and returns the measured residual (the yes/no monotonicity checks
return 0.0 or 1.0). It builds the paper's objects from the library and makes
the whole comparison itself. `CHECKS` is the verify table in output order.
The acceptance tests call the same functions on their own grids. The norm
rows and `gap.toeplitz_vs_enumeration` sum to the enumeration gap route's one
cutoff, `measures.ENUM_SIZE`, so verify, `gap-table` and the route read one
hook-count table. The references that no route reads live here, beside
their one reader: the plane-partition series of `macmahon_coeffs` and the
circle weights I and I_check in log-sum form, which `rhp_jump` holds the
sample's moment series to. mpmath is the reference of the `special` rows and
`kernels.airy_diagonal` alone, and only `qpart verify` imports this module.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from mpmath import mp

from . import gap, kernels, measures
from . import oppainleve as op
from . import qspecial as qs
from .partitions import Partition
from .qspecial import QParams

PLANE_PARTITIONS = (1, 1, 3, 6)  # of k = 0..3
LAX_PROBES = (0.4 + 0.3j, -0.7 + 0.1j, 1.3 - 0.5j, 0.2 - 0.9j, -1.1 - 0.4j)
_MP_DPS = 30  # digits of the mp q-series
_RADIUS_OFFSET = 1e-2  # contour distance from the circle: the side of each boundary value
_WEIGHT = {"plain": "I", "check": "I_check"}  # circle weight of each variant
_MACMAHON_DEGREE = 64  # degree of the exact plane-partition series
_JUMP_FLOOR = 2.0**-50  # jump term / largest entry at or below which a probe checks nothing


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


def macmahon_coeffs(ks: Sequence[int]) -> float:
    """Largest |coefficient of q^k in prod (1 - q^n)^{-n} - plane partitions of k|."""
    return float(max(abs(macmahon_series_coefficient(k) - PLANE_PARTITIONS[k]) for k in ks))


def unimodular_parseval(p: QParams) -> float:
    """|sum_n c_n^2 - 1| over the J_gen table, c_n = q^{n/2} J_n(2 xi; q)."""
    return abs(math.fsum(kernels._j_gen(p)[1] ** 2) - 1.0)


def _phi(upper: list, lower: list, q, z):
    """The basic hypergeometric series r phi s (Gasper-Rahman) by mp.qhyper at
    the working precision. At z = 0 it is its first term, 1: qhyper finds no
    nonzero term to stop on there. qhyper gives up after 50 terms per bit of
    precision, and that raises NonconvergenceError."""
    if not z:
        return mp.one
    try:
        return mp.qhyper(upper, lower, q, z)
    except mp.NoConvergence as exc:
        raise qs.NonconvergenceError(
            f"{len(upper)}phi{len(lower)} at q = {float(q)}, z = {float(z)}") from exc


def _j3(n: int, x, q):
    """The Hahn-Exton q-Bessel function J^(3)_n(x; q) for integer n >= 0, with
    x and q mp numbers: (x/2)^n / (q;q)_n 1phi1(0; q^{n+1}; q, q x^2/4).
    In mpmath the summation adds digits as the alternating terms cancel;
    binary64 loses them all near q = 1 (by 453 at (0.97, 0.7))."""
    return (x / 2) ** n / mp.qp(q, q, n) * _phi([0], [q ** (n + 1)], q, q * x * x / 4)


def _j3_reflected(n: int, x, q):
    """J^(3)_{-n}(x; q) = (-1)^n q^{n/2} J^(3)_n(q^{n/2} x; q), n >= 0: the
    series index shifted past its n vanishing leading terms."""
    s = q ** (mp.mpf(n) / 2)
    return (-1) ** n * s * _j3(n, s * x, q)


def gen_fn_coefficients(p: QParams, ns: Sequence[int]) -> float:
    """Largest |c_n - q^{n/2} J^(3)_n(2 xi; q)|, c_n read off the J_gen table
    and J^(3) the mp series."""
    span, c = kernels._j_gen(p)
    with mp.workdps(_MP_DPS):
        q, xi = mp.mpf(p.q), mp.mpf(p.xi)
        return max(float(abs(c[n + span + 1] - float(q ** (mp.mpf(n) / 2) * _j3(n, 2 * xi, q))))
                   for n in ns)


def negative_order_reflection(p: QParams, ns: Sequence[int]) -> float:
    """Largest |J_{-n}(x) - (-1)^n q^{n/2} J_n(q^{n/2} x)| at x = 2 xi, the left
    side read off the J_gen table as q^{n/2} c_{-n}, the right side the mp
    series. The comparison is absolute; the table is relatively accurate, so
    the floor is the rounding of the values and of the product with q^{n/2}:
    5.6e-17 at (0.5, 0.3), 6.9e-18 at (0.97, 0.7) and at (0.99, 0.9)."""
    span, c = kernels._j_gen(p)
    with mp.workdps(_MP_DPS):
        q, x = mp.mpf(p.q), 2 * mp.mpf(p.xi)
        return max(float(abs(p.q ** (n / 2) * c[span + 1 - n] - float(_j3_reflected(n, x, q))))
                   for n in ns)


def _log_qp_inf(x, q):
    """log (x; q)_inf for mp 0 <= x < 1 and 0 <= q < 1, in whichever of two
    forms is shorter; each takes about ln(eps) / ln(base) terms, so the one
    with the smaller base. Both sum positive terms t (in the sign of -log)
    until a bound of the tail past t is below the working precision:
    - sum_{k>=0} -log1p(-x q^k), the product, base q: the term past t is
      at most q t, so the tail at most t q / (1 - q); about 30 terms at
      q = 0.3;
    - sum_{k>=1} x^k / (k (1 - q^k)), base x: each term at least a factor x
      below the one before, so the tail at most t x / (1 - x). Near q = 1
      the product needs about 1/(1 - q) factors, the series a few hundred
      terms.
    NonconvergenceError after _MAX_TERMS terms, as where q and x are both
    near 1."""
    product = q < x
    total = mp.zero
    for k in range(1, qs._MAX_TERMS + 1):
        if product:
            term, base = -mp.log1p(-x * q ** (k - 1)), q
        else:
            term, base = x**k / (k * (1 - q**k)), x
        total -= term
        if term * base <= mp.eps * (1 - base) * abs(total):
            return total
    raise qs.NonconvergenceError(f"log (x; q)_inf: {qs._MAX_TERMS} terms at x = {float(x)}, "
                                 f"q = {float(q)}")


def _phi_zeros(b, q, z):
    """2phi1(0, 0; b; q, z) = sum_n a_n z^n, a_n = 1 / ((q;q)_n (b;q)_n), for
    mp 0 <= z < 1. Summed directly (`_phi`) it takes about ln(eps) / ln(z)
    terms. Where q < z, a_n is summed past its limit a_inf = 1 / ((q;q)_inf
    (b;q)_inf) instead, in about ln(eps) / ln(q) terms: the sum is
    a_inf / (1 - z) + sum_n (a_n - a_inf) z^n. a_n rises to a_inf and
    misses the factors 1 - q^k, k > n, and 1 - b q^k, k >= n, of its
    denominator, whose product is at least 1 - (q + b) q^n / (1 - q); so
    a_n - a_inf <= a_inf (q + b) q^n / (1 - q), and the tail past n is at
    most a_inf (q + b) q^{n+1} / (1 - q)^2."""
    if q >= z:
        return _phi([0, 0], [b], q, z)
    a_inf = mp.exp(-_log_qp_inf(q, q) - _log_qp_inf(b, q))
    total, a_n, z_n = a_inf / (1 - z), mp.one, mp.one
    for n in range(qs._MAX_TERMS):
        total += (a_n - a_inf) * z_n
        if a_inf * (q + b) * q ** (n + 1) <= mp.eps * (1 - q) ** 2 * total:
            return total
        a_n /= (1 - q ** (n + 1)) * (1 - b * q**n)
        z_n *= z
    raise qs.NonconvergenceError(f"2phi1(0, 0; b; q, z): {qs._MAX_TERMS} terms at q = {float(q)}")


def modified_bessel_relation(p: QParams, ns: Sequence[int]) -> float:
    """Largest relative |I2_n - (u^2; q)_inf I1_n| at 2u, u = xi, from Jackson's
    series: I1_n(2u) and I2_n(2u) are (q^{n+1};q)_inf / (q;q)_inf u^n times
    2phi1(0, 0; q^{n+1}; q, u^2) (`_phi_zeros`) and 0phi1(-; q^{n+1}; q,
    q^{n+1} u^2), in mp. The common prefactor cancels, and 0phi1 >= 1."""
    with mp.workdps(_MP_DPS):
        q, u2 = mp.mpf(p.q), mp.mpf(p.xi) ** 2
        pref = mp.exp(_log_qp_inf(u2, q))
        dev = mp.zero
        for n in ns:
            b = q ** (n + 1)
            i1, i2 = _phi_zeros(b, q, u2), _phi([], [b], q, b * u2)
            dev = max(dev, abs(i2 - pref * i1) / i2)
        return float(dev)


def mass_deficit(kind: object, size: int) -> float:
    """1 - (sum of the measure over sizes <= size): the mass the partial sum
    misses, negative if the sum exceeds 1."""
    return 1.0 - measures.normalization_partial_sum(kind, size)


def qpp_mass_deficit(p: QParams, family: type, size: int) -> float:
    """mass_deficit of the squared or mixed q-measure at p."""
    return mass_deficit(family(xi=p.xi, q=p.q), size)


def plancherel_exact(ns: Sequence[int]) -> float:
    """Largest |sum over |lambda| = n of (dim lambda)^2 / n! - 1|."""
    return max(abs(mass_deficit(measures.Plancherel(n), n)) for n in ns)


def q_to_1_chain(lam: Partition, eta: float, q_schedule: Sequence[float]) -> float:
    """0.0 if both q-deformed masses of lam approach the Poissonized
    Plancherel mass monotonically along the schedule, else 1.0: the squared
    type at xi = (1 - q) eta and the mixed type at xi = (1 - q)^{1/2} eta."""
    pp = measures.measure(measures.PoissonizedPlancherel(eta), lam)
    for deformed in (lambda q: measures.QPPSquared(xi=(1.0 - q) * eta, q=q),
                     lambda q: measures.QPPMixed(xi=math.sqrt(1.0 - q) * eta, q=q)):
        devs = [abs(measures.measure(deformed(q), lam) - pp) for q in q_schedule]
        if not all(b < a for a, b in zip(devs, devs[1:])):
            return 1.0
    return 0.0


def _sites(ks: Sequence[int]) -> list[Fraction]:
    return [Fraction(2 * k + 1, 2) for k in ks]


def schur_vs_qbessel(p: QParams, ks: Sequence[int]) -> float:
    """Largest |K(r, s) - sum_k J_{r+k} Jtilde_{s+k}| at sites k + 1/2, the
    Schur series at the principal Miwa times."""
    t = measures.MiwaTimes.principal(p.xi, p.q)
    sites = _sites(ks)
    closed = kernels.kernel_matrix(p, sites, sites)
    return max(float(abs(closed[i, j] - kernels.schur_kernel(t, t, r, s)))
               for i, r in enumerate(sites) for j, s in enumerate(sites))


def christoffel_darboux(p: QParams, ks: Sequence[int]) -> float:
    """Largest off-diagonal |K(r, s) - CD(r, s)| at sites k + 1/2, CD the paper's
    Christoffel-Darboux quotient, -sign(r-s) xi (c_{r+1/2} c_{s-1/2} - c_{r-1/2}
    c_{s+1/2}) q^{-min(r,s)} / (1 - q^{|r-s|}) in c_n = q^{n/2} J_n."""
    span, c = kernels._j_gen(p)
    k = np.asarray(ks)
    # orders r + 1/2 = k + 1 and r - 1/2 = k; those past the table read as 0
    up, down = c.take(k + span + 2, mode="clip"), c.take(k + span + 1, mode="clip")
    num = np.outer(up, down) - np.outer(down, up)
    m, lo = k[:, None] - k, np.minimum(k[:, None], k) + 0.5  # r - s, min(r, s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # q^{-min(r,s)} overflows only far past the table, where num is 0
        cd = np.sign(m) * p.xi * num * p.q**-lo / np.expm1(np.abs(m) * np.log(p.q))
    k_block = kernels.kernel_matrix(p, _sites(ks), _sites(ks))
    return float(np.max(np.abs(k_block - np.where(num == 0.0, 0.0, cd))[m != 0]))


def kernel_symmetry(p: QParams, ks: Sequence[int]) -> float:
    """Largest |K(r, s) - K(s, r)| at sites k + 1/2; 0 by construction."""
    k = kernels.kernel_matrix(p, _sites(ks), _sites(ks))
    return float(np.max(np.abs(k - k.T)))


def edge_constants(p: QParams) -> float:
    """Deviation of the limit shape's edge b, beta0 from -2 log(1 - xi), xi/(1 - xi)^2."""
    shape = kernels.limit_shape(p.xi)
    return max(abs(shape.b + 2.0 * math.log(1.0 - p.xi)),
               abs(shape.beta0 - p.xi / (1.0 - p.xi) ** 2))


def airy_diagonal(x: float) -> float:
    """|K_Airy(x, x) - (Ai'(x)^2 - x Ai(x)^2)|, Ai from mpmath."""
    ai, aip = mp.airyai(x), mp.airyai(x, derivative=1)
    return abs(kernels.airy_kernel(x, x) - (float(aip) ** 2 - x * float(ai) ** 2))


def _route_difference(p: QParams, method: str, ns: Sequence[int]) -> float:
    """Largest |a - b| / max(|a|, |b|) of the Toeplitz route a and the method's
    b, over both variants and N in ns: "fredholm", the kernel's determinant in
    Gram form, or "enumeration", the partition sum to measures.ENUM_SIZE.
    Relative, so that two tiny values that differ in every digit do not
    pass: near q = 1 both are below 1e-160."""
    dev = 0.0
    for variant in gap.GAP_VARIANTS:
        for n in ns:
            query = gap.GapQuery(variant=variant, N=n, params=p)
            a, b = (gap.gap_probability(query, m) for m in ("toeplitz", method))
            dev = max(dev, abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0)
    return dev


def z_infinity(p: QParams, n: int) -> float:
    """|Z_n / M - 1|: the length gap probability at N = n against 1."""
    return abs(gap.gap_probability(gap.GapQuery("length", n, p), "toeplitz") - 1.0)


def gap_monotone(p: QParams, variant: str, n_max: int) -> float:
    """0.0 if the Toeplitz route's gap probabilities for N <= n_max are
    nondecreasing up to 1e-13, else 1.0."""
    vals = [gap.gap_probability(gap.GapQuery(variant, n, p), "toeplitz") for n in range(n_max + 1)]
    return 0.0 if all(b >= a - 1e-13 for a, b in zip(vals, vals[1:])) else 1.0


def recurrence_residual(p: QParams, branch: str, n_max: int) -> float | None:
    """Largest relative residual of the branch's q-difference recurrence on
    the determinant trajectory up to n_max, over the n where some of v_{n-1},
    v_n, v_{n+1} is above the floor of `oppainleve.recurrence_residuals`;
    None, which fails the row, where no n is."""
    state = op.painleve_trajectory(branch, "determinant", p, n_max)
    return max((r for r in op.recurrence_residuals(state) if r is not None), default=None)


def tau_relation(p: QParams, ns: Sequence[int]) -> float:
    """Largest residual of log Z_{n+1} - 2 log Z_n + log Z_{n-1} = log(1 - x_n^2)."""
    return max(row["residual"] for row in op.tau_relation_check(p, ns))


def dpii_limit_check(
    eta: float, q_schedule: Sequence[float], n_range: Sequence[int]
) -> list[dict]:
    """Residual of (x_{n-1} + x_{n+1})(1 - x_n^2) + (n/eta) x_n along a q
    schedule with xi = (1 - q) eta, for both branches, on determinant-sourced
    data, n >= 1. The residuals must shrink as q -> 1."""
    if min(n_range) < 1:
        raise ValueError("n must be >= 1 (the residual reads x_{n-1})")
    rows = []
    for q in q_schedule:
        xi = (1.0 - q) * eta
        params = QParams(q=q, xi=xi)
        n_top = max(n_range) + 1
        op_x = op.op_sequence("plain", params, n_top)
        op_y = op.op_sequence("check", params, n_top)
        for n in n_range:
            row = {"q": q, "n": n}
            for key, x in (("residual_x", op_x.x), ("residual_y", op_y.x)):
                res = (x[n - 1] + x[n + 1]) * (1.0 - x[n] ** 2) + (n / eta) * x[n]
                row[key] = abs(res) / max(abs(x[n]), 1e-300)
            rows.append(row)
    return rows


def lax_residual(p: QParams, kind: str, ns: Sequence[int]) -> float:
    """Largest Lax-pair residual over both variants, of U_n, T_n and T_{n+1}
    from `oppainleve.lax_matrices` (which raises at x_n = 0, failing every
    kind) and K_n = [[x_n, -1], [-(1 - x_n^2), -x_n]]. kind "compatibility":
    U_n(qz) T_n(z) - T_{n+1}(z) U_n(z) and "inversion": T_n(z) q^{-n} K_n
    T_n(1/(qz)) K_n - I, the identity T_n(z)^{-1} = q^{-n} K_n T_n(1/(qz)) K_n
    multiplied through, since T_n inverted in binary64 loses the digits its
    condition number takes (5e2 at (0.1, 0.3)); both at LAX_PROBES, off the
    real axis where the origin and the pole of T_n lie; "det_k": det K_n + 1."""
    q, dev = p.q, 0.0
    for variant in op.OP_VARIANTS:
        seq = op.op_sequence(variant, p, max(ns) + 1)
        for n in ns:
            m_n, m_next = op.lax_matrices(n, seq), op.lax_matrices(n + 1, seq)
            x = seq.x[n]
            k = np.array([[x, -1.0], [-(1.0 - x * x), -x]])
            if kind == "det_k":
                worst = abs(float(np.linalg.det(k)) + 1.0)
            elif kind == "compatibility":
                worst = max(float(np.max(np.abs(m_n.u(q * z) @ m_n.t(z) - m_next.t(z) @ m_n.u(z))))
                            for z in LAX_PROBES)
            else:
                worst = max(float(np.max(np.abs(q ** (-n) * m_n.t(z) @ k @ m_n.t(1.0 / (q * z)) @ k
                                                - np.eye(2))))
                            for z in LAX_PROBES)
            dev = max(dev, worst)
    return dev


def rhp_det(p: QParams, ns: Sequence[int]) -> float:
    """Largest |det Y_n(2) - 1|."""
    return max(abs(np.linalg.det(op.rhp_sample(n, 2.0 + 0.0j, p, "plain", 1.0)) - 1.0)
               for n in ns)


def rhp_value_at_zero(p: QParams, ns: Sequence[int]) -> float:
    """Largest entry of |Y_n(0) - [[x_n, 1/kappa_n^2], [-kappa_{n-1}^2, x_n]]|. Y_n(0)
    comes first: where kappa_n^2 underflows to 0.0, at q = 0.9999, xi = 0.5, the
    sample refuses Y_n(0)_12 = E_n as an overflow, and the row fails as such."""
    dev = 0.0
    for n in ns:
        y = op.rhp_sample(n, 0.0 + 0.0j, p, "plain", 1.0)
        seq = op.op_sequence("plain", p, n + 1)
        want = np.array([[seq.x[n], 1.0 / seq.kappa_sq[n]],
                         [-seq.kappa_sq[n - 1], seq.x[n]]])
        dev = max(dev, float(np.max(np.abs(y - want))))
    return dev


def circle_weight(weight: str, p: QParams, angle: float) -> float:
    """The weight I or I_check at z = e^{i angle}, from the log-sum
    log I(z) = sum_{k>=1} u^k (z^k + z^{-k}) / (k (1 - q^k)), u = xi q^{1/2},
    and log I_check(z) = -log I(z) at -u (B. Simon, Orthogonal Polynomials
    on the Unit Circle, AMS 2005, ch. 6): the logs of the products
    1 / prod_{j>=0} (1 - u q^j z)(1 - u q^j / z) and
    prod_{j>=0} (1 + u q^j z)(1 + u q^j / z) expanded in powers of u.
    The term bounds t_k = 2 u^k / (k (1 - q^k)) fall at least by u each, so
    math.fsum adds the terms once t u / (1 - u) past a bound t is below
    _TAIL_TOL: an absolute error in log w, which is relative in w. Near
    q = 1 the product needs about 1 / (1 - q) factors, the series a few
    dozen terms. NonconvergenceError after _MAX_TERMS terms."""
    if weight not in _WEIGHT.values():
        raise ValueError(f"unknown weight {weight!r}")
    sign = 1.0 if weight == "I" else -1.0
    u = p.xi * math.sqrt(p.q)
    log_q = math.log(p.q) if p.q else -math.inf
    terms = []
    for k in range(1, qs._MAX_TERMS + 1):
        bound = 2.0 * u**k / (k * -math.expm1(k * log_q))
        terms.append(sign**(k + 1) * bound * math.cos(k * angle))
        if bound * u <= qs._TAIL_TOL * (1.0 - u):
            return math.exp(math.fsum(terms))
    raise qs.NonconvergenceError(f"{weight} weight: {qs._MAX_TERMS} terms at {p}")


def rhp_jump(p: QParams, probes: Sequence[tuple[int, float, str]]) -> float | None:
    """Largest |Y_+ - Y_- J| over (n, angle, variant) probes, at z = e^{i angle}
    with J = [[1, z^{-n} w(z)], [0, 1]] and w the variant's weight from
    `circle_weight`. Both boundary values are taken exactly at z, from the
    sample's moment series, the same for every contour between the weight's
    poles: the + value with z inside the contour of radius 1 + _RADIUS_OFFSET,
    the - value with z outside that of radius 1 - _RADIUS_OFFSET. So two
    weight evaluators meet.

    A probe whose jump term Y_- (J - I) is at most _JUMP_FLOOR, four units of
    the last bit, of the largest entry checks nothing: Y_+ = Y_- would read
    the same residual. Near q = 1 the entries dwarf the jump (1.4e44 against
    4.3e68 at (0.99, 0.7), n = 3), and the residual read 0.0. None, which
    fails the row, where no probe checks the jump."""
    residuals = []
    for n, angle, variant in probes:
        z = cmath.exp(1j * angle)
        y_plus = op.rhp_sample(n, z, p, variant, 1.0 + _RADIUS_OFFSET)
        y_minus = op.rhp_sample(n, z, p, variant, 1.0 - _RADIUS_OFFSET)
        jump = np.array([[1.0, z ** (-float(n)) * circle_weight(_WEIGHT[variant], p, angle)],
                         [0.0, 1.0]])
        y_jump = y_minus @ jump
        scale = max(np.max(np.abs(y_plus)), np.max(np.abs(y_jump)))
        if np.max(np.abs(y_jump - y_minus)) > _JUMP_FLOOR * scale:
            residuals.append(float(np.max(np.abs(y_plus - y_jump))))
    return max(residuals, default=None)


POINT = object()  # in Check.args: the parameter point verify runs at


@dataclass(frozen=True)
class Check:
    check_id: str  # "<suite>.<name>"
    paper_ref: str
    tolerance: float
    fn: Callable[..., float]
    args: tuple

    @property
    def suite(self) -> str:
        return self.check_id.split(".")[0]

    def report(self, p: QParams) -> dict:
        """The verify row at p; it passes when |measured| <= tolerance. A
        refusal of `qspecial.REFUSALS` at p (a series that does not converge,
        a division that p makes singular, a float that overflows there) fails
        the row, with measured None, and stderr names the row and the refusal
        in its words; so does a function returning None, with nothing to measure."""
        try:
            measured = self.fn(*(p if a is POINT else a for a in self.args))
            if measured is None:
                print(f"qpart: {self.check_id}: nothing to measure at this point", file=sys.stderr)
        except tuple(qs.REFUSALS) as exc:
            print(f"qpart: {self.check_id}: {qs.refusal(exc)}: {exc}", file=sys.stderr)
            measured = None
        return {"check_id": self.check_id, "paper_ref": self.paper_ref,
                "measured": measured, "tolerance": self.tolerance,
                "pass": measured is not None and bool(abs(measured) <= self.tolerance)}


_MASS = "total mass of the measure sums to 1"
_MONOTONE = "gap probabilities nondecreasing in N"
_RECURRENCE = "satisfy the q-difference recurrence"

CHECKS = (
    Check("gap.monotone_first-part", _MONOTONE, 0.0,
          gap_monotone, (POINT, "first-part", 10)),
    Check("gap.monotone_length", _MONOTONE, 0.0, gap_monotone, (POINT, "length", 10)),
    Check("gap.toeplitz_vs_enumeration",
          "determinant route equals the direct partition sum",
          1e-6, _route_difference, (POINT, "enumeration", range(5))),
    Check("gap.toeplitz_vs_fredholm",
          "determinant of the symbol matrix equals the kernel determinant",
          1e-10, _route_difference, (POINT, "fredholm", range(5))),
    Check("gap.z_infinity", "Z_N approaches the squared-type normalization",
          1e-10, z_infinity, (POINT, 30)),
    Check("kernels.airy_diagonal", "K_Airy(0,0) = Ai'(0)^2", 1e-14, airy_diagonal, (0.0,)),
    Check("kernels.christoffel_darboux", "Christoffel-Darboux form off the diagonal",
          1e-12, christoffel_darboux, (POINT, range(-4, 4))),
    Check("kernels.edge_constants", "alpha0 = -2 log(1-xi), beta0 = xi/(1-xi)^2",
          1e-14, edge_constants, (POINT,)),
    Check("kernels.schur_vs_qbessel", "series form of the kernel equals the closed form",
          1e-10, schur_vs_qbessel, (POINT, range(-4, 4))),
    Check("kernels.symmetry", "K(r, s) = K(s, r)",
          1e-12, kernel_symmetry, (POINT, range(-4, 4))),
    Check("measures.norm_mixed", _MASS,
          1e-7, qpp_mass_deficit, (POINT, measures.QPPMixed, measures.ENUM_SIZE)),
    Check("measures.norm_poissonized", _MASS,
          1e-7, mass_deficit, (measures.PoissonizedPlancherel(eta=0.8), measures.ENUM_SIZE)),
    Check("measures.norm_squared", _MASS,
          1e-7, qpp_mass_deficit, (POINT, measures.QPPSquared, measures.ENUM_SIZE)),
    Check("measures.plancherel_exact", "sum over |lambda| = n of (dim lambda)^2 / n! = 1",
          1e-12, plancherel_exact, (range(1, 7),)),
    Check("measures.q_to_1_chain", "both deformations approach the Poissonized value",
          0.0, q_to_1_chain, (Partition((2, 1)), 0.9, (0.9, 0.97, 0.99))),
    Check("painleve.lax_compatibility",
          "index shift and q-shift matrices commute through the solution",
          1e-8, lax_residual, (POINT, "compatibility", range(1, 10))),
    Check("painleve.lax_det_k", "det K_n = -1",
          1e-12, lax_residual, (POINT, "det_k", range(1, 10))),
    Check("painleve.lax_inversion", "T(z)^{-1} = q^{-n} K T(1/(qz)) K",
          1e-8, lax_residual, (POINT, "inversion", range(1, 10))),
    Check("painleve.rhp_det", "the Riemann-Hilbert matrix has unit determinant",
          1e-8, rhp_det, (POINT, range(1, 9))),
    Check("painleve.rhp_jump", "boundary values satisfy the triangular jump relation",
          1e-6, rhp_jump, (POINT, ((3, 0.7, "plain"), (5, 2.1, "check")))),
    Check("painleve.rhp_value_at_zero", "Y_n(0) matches the closed form in x_n and kappa_n",
          1e-8, rhp_value_at_zero, (POINT, range(1, 9))),
    Check("painleve.tau_relation", "second log-difference of Z_n equals log(1 - x_n^2)",
          1e-9, tau_relation, (POINT, range(2, 13))),
    Check("painleve.x_recurrence_residual", f"the x variables {_RECURRENCE}",
          1e-7, recurrence_residual, (POINT, "x", 13)),
    Check("painleve.y_recurrence_residual", f"the y bilinears {_RECURRENCE}",
          1e-7, recurrence_residual, (POINT, "y", 13)),
    Check("special.gen_fn_coefficients",
          "c_n = q^{n/2} J_n(2 xi; q) against the direct series",
          1e-13, gen_fn_coefficients, (POINT, range(6))),
    Check("special.macmahon_coeffs", "generating series of plane partitions, p(0..3)",
          0.0, macmahon_coeffs, (range(4),)),
    Check("special.modified_bessel_relation", "I2_n = (u^2; q)_inf I1_n",
          1e-12, modified_bessel_relation, (POINT, range(5))),
    Check("special.negative_order_reflection", "J_{-n}(x) = (-1)^n q^{n/2} J_n(q^{n/2} x)",
          1e-14, negative_order_reflection, (POINT, range(1, 8))),
    Check("special.unimodular_parseval",
          "sum of squared generating-function coefficients = 1",
          1e-12, unimodular_parseval, (POINT,)),
)
