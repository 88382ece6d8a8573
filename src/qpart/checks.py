"""The identities that `qpart verify` reports, each computed in one place.

Each function takes the parameter point and the index or site range it
sweeps and returns the measured residual (the yes/no monotonicity checks
return 0.0 or 1.0). `CHECKS` is the verify table in output order. The
acceptance tests call the same functions on their own grids; `painleve` and
`scripts/recurrence_table.py` share the tail comparators. `qpart/__init__.py`
does not import this module, so `import qpart` stays light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from mpmath import mp
from scipy.special import airy as scipy_airy

from . import gap, kernels, measures
from . import oppainleve as op
from . import qspecial as qs
from .partitions import Partition
from .qspecial import QParams

PLANE_PARTITIONS = (1, 1, 3, 6)  # of k = 0..3
LAX_PROBES = (0.4 + 0.3j, -0.7 + 0.1j, 1.3 - 0.5j, 0.2 - 0.9j, -1.1 - 0.4j)
ENUM_SIZE = 22  # partition sizes summed by the enumeration gap route


def macmahon_coeffs(ks: Sequence[int]) -> float:
    """Largest |coefficient of q^k in prod (1 - q^n)^{-n} - plane partitions of k|."""
    return float(max(abs(qs.macmahon_series_coefficient(k) - PLANE_PARTITIONS[k])
                     for k in ks))


def unimodular_parseval(p: QParams) -> float:
    """|sum_n c_n^2 - 1| over the J_gen table, c_n = q^{n/2} J_n(2 xi; q)."""
    return float(abs(kernels._j_gen(p)[2][0] - 1.0))


def gen_fn_coefficients(p: QParams, ns: Sequence[int]) -> float:
    """Largest |c_n - q^{n/2} J^(3)_n(2 xi; q)|, c_n read off the J_gen table.

    The direct series q^{n/2} xi^n / (q;q)_n 1phi1(0; q^{n+1}; q, q xi^2)
    runs in mpmath at 30 digits, where mpmath's summation adds digits as the
    alternating terms cancel; binary64 loses them all near q = 1 (by 453 at
    (0.97, 0.7)). At q = 0 or xi = 0 the 1phi1 is its first term, 1."""
    span, c, _ = kernels._j_gen(p)
    with mp.workdps(30):
        q, xi = mp.mpf(p.q), mp.mpf(p.xi)

        def direct(n: int) -> float:
            phi = mp.qhyper([0], [q ** (n + 1)], q, q * xi * xi) if q * xi else 1
            return float(q ** (mp.mpf(n) / 2) * xi**n / mp.qp(q, q, n) * phi)

        return max(float(abs(c[n + span + 1] - direct(n))) for n in ns)


def negative_order_reflection(p: QParams, ns: Sequence[int]) -> float:
    """Largest |J_{-n}(x) - (-1)^n q^{n/2} J_n(q^{n/2} x)| at x = 2 xi."""
    x, q = 2.0 * p.xi, p.q
    return max(abs(qs.q_bessel(3, -n, x, q) - (-1.0) ** n * q ** (n / 2.0)
                   * qs.q_bessel(3, n, q ** (n / 2.0) * x, q))
               for n in ns)


def modified_bessel_relation(p: QParams, ns: Sequence[int]) -> float:
    """Largest relative |I2_n - (u^2; q)_inf I1_n| at 2u, u = xi."""
    u, q = p.xi, p.q
    pref = qs.q_pochhammer(u * u, q, math.inf)
    dev = 0.0
    for n in ns:
        i1 = qs.modified_q_bessel(1, n, 2.0 * u, q)
        i2 = qs.modified_q_bessel(2, n, 2.0 * u, q)
        dev = max(dev, abs(i2 - pref * i1) / max(abs(i2), 1e-300))
    return dev


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
    Plancherel mass monotonically along the schedule, else 1.0."""
    chain = measures.q_limit_check(lam, eta, q_schedule)
    for col in (1, 2):
        devs = [abs(row[col] - row[3]) for row in chain]
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


def kernel_symmetry(p: QParams, ks: Sequence[int]) -> float:
    """Largest |K(r, s) - K(s, r)| at sites k + 1/2."""
    k = kernels.kernel_matrix(p, _sites(ks), _sites(ks))
    return float(np.max(np.abs(k - k.T)))


def edge_constants(p: QParams) -> float:
    """Deviation of the limit shape's alpha0, beta0 from -2 log(1 - xi), xi/(1 - xi)^2."""
    shape = kernels.limit_shape(p.xi)
    return max(abs(shape.alpha0 + 2.0 * math.log(1.0 - p.xi)),
               abs(shape.beta0 - p.xi / (1.0 - p.xi) ** 2))


def airy_diagonal(x: float) -> float:
    """|K_Airy(x, x) - (Ai'(x)^2 - x Ai(x)^2)|, Ai from scipy."""
    ai, aip, _, _ = scipy_airy(x)
    return abs(kernels.airy_kernel(x, x) - (float(aip) ** 2 - x * float(ai) ** 2))


def _route_pairs(p: QParams, method: str, ns: Sequence[int]):
    """(Toeplitz, method) gap probabilities for both variants and N in ns."""
    for variant in gap.GAP_VARIANTS:
        for n in ns:
            query = gap.GapQuery(variant=variant, N=n, params=p)
            yield (gap.gap_probability(query, "toeplitz"),
                   gap.gap_probability(query, method, max_size=ENUM_SIZE))


def toeplitz_vs_fredholm(p: QParams, ns: Sequence[int]) -> float:
    """Largest |a - b| / max(|a|, |b|) of the Toeplitz and Fredholm routes.
    Relative, since Fredholm is accurate only in absolute terms: two tiny
    values that differ in every digit must not pass."""
    return max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
               for a, b in _route_pairs(p, "fredholm", ns))


def toeplitz_vs_enumeration(p: QParams, ns: Sequence[int]) -> float:
    """Largest |a - c| of the Toeplitz route and the partition sum to ENUM_SIZE."""
    return max(abs(a - c) for a, c in _route_pairs(p, "enumeration", ns))


def z_infinity(p: QParams, n: int) -> float:
    """|Z_n / M - 1|: the length gap probability at N = n against 1."""
    return abs(gap.gap_probability(gap.GapQuery("length", n, p)) - 1.0)


def gap_monotone(p: QParams, variant: str, n_max: int) -> float:
    """0.0 if the gap probabilities for N <= n_max are nondecreasing up to
    1e-13, else 1.0."""
    vals = gap.monotonicity_scan(variant, p, n_max)
    return 0.0 if all(b >= a - 1e-13 for a, b in zip(vals, vals[1:])) else 1.0


def recurrence_residual(p: QParams, branch: str, n_max: int) -> float:
    """Largest relative residual of the branch's q-difference recurrence on
    the determinant trajectory up to n_max."""
    state = op.painleve_trajectory(branch, "determinant", p, n_max)
    return max(op.recurrence_residuals(state))


def tau_relation(p: QParams, ns: Sequence[int]) -> float:
    """Largest residual of log Z_{n+1} - 2 log Z_n + log Z_{n-1} = log(1 - x_n^2)."""
    return max(row["residual"] for row in op.tau_relation_check(p, ns))


def lax_residual(p: QParams, kind: str, ns: Sequence[int]) -> float:
    """Largest Lax-pair residual over both variants at LAX_PROBES. kind
    "compatibility": U_n(qz) T_n(z) - T_{n+1}(z) U_n(z); "inversion":
    T_n(z)^{-1} - q^{-n} K T_n(1/(qz)) K; "det_k": det K_n + 1."""
    dev = 0.0
    for variant in op.OP_VARIANTS:
        seq = op.op_sequence(variant, p, max(ns) + 1)
        for n in ns:
            res = op.lax_checks(n, p, seq, LAX_PROBES)
            worst = abs(res["det_k"] + 1.0) if kind == "det_k" else max(res[kind])
            dev = max(dev, worst)
    return dev


def rhp_det(p: QParams, ns: Sequence[int]) -> float:
    """Largest |det Y_n(2) - 1|."""
    return max(abs(op.rhp_sample(n, 2.0 + 0.0j, p).det_y - 1.0) for n in ns)


def rhp_value_at_zero(p: QParams, ns: Sequence[int]) -> float:
    """Largest entry of |Y_n(0) - [[x_n, 1/kappa_n^2], [-kappa_{n-1}^2, x_n]]|."""
    dev = 0.0
    for n in ns:
        seq = op.op_sequence("plain", p, n + 1)
        want = np.array([[seq.x[n], 1.0 / seq.kappa_sq[n]],
                         [-seq.kappa_sq[n - 1], seq.x[n]]])
        dev = max(dev, float(np.max(np.abs(op.rhp_sample(n, 0.0 + 0.0j, p).y - want))))
    return dev


def rhp_jump(p: QParams, probes: Sequence[tuple[int, float, str]]) -> float:
    """Largest |Y_+ - Y_- J| over (n, angle on the unit circle, variant) probes."""
    return max(op.rhp_jump_residual(n, angle, p, variant) for n, angle, variant in probes)


def x_tail_comparator(p: QParams, n: int) -> float:
    """sqrt(xi) J^(3)_{-n}(2 xi; q); xs_n divided by it tends to 1."""
    return math.sqrt(p.xi) * qs.q_bessel(3, -n, 2.0 * p.xi, p.q)


def y_tail_comparator(p: QParams, n: int) -> float:
    """-xi J^(3)_n(-2 xi; q)^2; ys_n^2 divided by it tends to 1."""
    jn = qs.q_bessel(3, n, -2.0 * p.xi, p.q)
    return -p.xi * jn * jn


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
        """The verify row at p; it passes when |measured| <= tolerance."""
        measured = self.fn(*(p if a is POINT else a for a in self.args))
        return {"check_id": self.check_id, "paper_ref": self.paper_ref,
                "measured": measured, "tolerance": self.tolerance,
                "pass": bool(abs(measured) <= self.tolerance)}


_MASS = "total mass of the measure sums to 1"
_MONOTONE = "gap probabilities nondecreasing in N"
_RECURRENCE = "satisfy the q-difference recurrence"

CHECKS = (
    Check("gap.monotone_first-part", _MONOTONE, 0.0,
          gap_monotone, (POINT, "first-part", 10)),
    Check("gap.monotone_length", _MONOTONE, 0.0, gap_monotone, (POINT, "length", 10)),
    Check("gap.toeplitz_vs_enumeration",
          "determinant route equals the direct partition sum",
          1e-6, toeplitz_vs_enumeration, (POINT, range(5))),
    Check("gap.toeplitz_vs_fredholm",
          "determinant of the symbol matrix equals the kernel determinant",
          1e-10, toeplitz_vs_fredholm, (POINT, range(5))),
    Check("gap.z_infinity", "Z_N approaches the squared-type normalization",
          1e-10, z_infinity, (POINT, 30)),
    Check("kernels.airy_diagonal", "K_Airy(0,0) = Ai'(0)^2", 1e-14, airy_diagonal, (0.0,)),
    Check("kernels.edge_constants", "alpha0 = -2 log(1-xi), beta0 = xi/(1-xi)^2",
          1e-14, edge_constants, (POINT,)),
    Check("kernels.schur_vs_qbessel", "series form of the kernel equals the closed form",
          1e-10, schur_vs_qbessel, (POINT, range(-4, 4))),
    Check("kernels.symmetry", "K(r, s) = K(s, r)",
          1e-12, kernel_symmetry, (POINT, range(-4, 4))),
    Check("measures.norm_mixed", _MASS,
          1e-7, qpp_mass_deficit, (POINT, measures.QPPMixed, 20)),
    Check("measures.norm_poissonized", _MASS,
          1e-7, mass_deficit, (measures.PoissonizedPlancherel(eta=0.8), 20)),
    Check("measures.norm_squared", _MASS,
          1e-7, qpp_mass_deficit, (POINT, measures.QPPSquared, 20)),
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
