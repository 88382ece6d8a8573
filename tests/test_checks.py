"""The verify table of `qpart.checks` and the checks away from the desk point."""

import pytest
from mpmath import mp

from qpart import checks, gap, measures
from qpart.oppainleve import tail_comparator
from qpart.qspecial import NonconvergenceError, QParams

NEAR = QParams(q=0.97, xi=0.7)

# check_id | paper_ref | tolerance of every verify row, in output order
VERIFY_TABLE = """\
gap.monotone_first-part | gap probabilities nondecreasing in N | 0.0
gap.monotone_length | gap probabilities nondecreasing in N | 0.0
gap.toeplitz_vs_enumeration | determinant route equals the direct partition sum | 1e-06
gap.toeplitz_vs_fredholm | determinant of the symbol matrix equals the kernel determinant | 1e-10
gap.z_infinity | Z_N approaches the squared-type normalization | 1e-10
kernels.airy_diagonal | K_Airy(0,0) = Ai'(0)^2 | 1e-14
kernels.christoffel_darboux | Christoffel-Darboux form off the diagonal | 1e-12
kernels.edge_constants | alpha0 = -2 log(1-xi), beta0 = xi/(1-xi)^2 | 1e-14
kernels.schur_vs_qbessel | series form of the kernel equals the closed form | 1e-10
kernels.symmetry | K(r, s) = K(s, r) | 1e-12
measures.norm_mixed | total mass of the measure sums to 1 | 1e-07
measures.norm_poissonized | total mass of the measure sums to 1 | 1e-07
measures.norm_squared | total mass of the measure sums to 1 | 1e-07
measures.plancherel_exact | sum over |lambda| = n of (dim lambda)^2 / n! = 1 | 1e-12
measures.q_to_1_chain | both deformations approach the Poissonized value | 0.0
painleve.lax_compatibility | index shift and q-shift matrices commute through the solution | 1e-08
painleve.lax_det_k | det K_n = -1 | 1e-12
painleve.lax_inversion | T(z)^{-1} = q^{-n} K T(1/(qz)) K | 1e-08
painleve.rhp_det | the Riemann-Hilbert matrix has unit determinant | 1e-08
painleve.rhp_jump | boundary values satisfy the triangular jump relation | 1e-06
painleve.rhp_value_at_zero | Y_n(0) matches the closed form in x_n and kappa_n | 1e-08
painleve.tau_relation | second log-difference of Z_n equals log(1 - x_n^2) | 1e-09
painleve.x_recurrence_residual | the x variables satisfy the q-difference recurrence | 1e-07
painleve.y_recurrence_residual | the y bilinears satisfy the q-difference recurrence | 1e-07
special.gen_fn_coefficients | c_n = q^{n/2} J_n(2 xi; q) against the direct series | 1e-13
special.macmahon_coeffs | generating series of plane partitions, p(0..3) | 0.0
special.modified_bessel_relation | I2_n = (u^2; q)_inf I1_n | 1e-12
special.negative_order_reflection | J_{-n}(x) = (-1)^n q^{n/2} J_n(q^{n/2} x) | 1e-14
special.unimodular_parseval | sum of squared generating-function coefficients = 1 | 1e-12
"""


def _check(check_id):
    (check,) = [c for c in checks.CHECKS if c.check_id == check_id]
    return check


def test_verify_table_is_pinned():
    assert "".join(f"{c.check_id} | {c.paper_ref} | {c.tolerance!r}\n"
                   for c in checks.CHECKS) == VERIFY_TABLE


def test_toeplitz_vs_fredholm_fails_near_scaling():
    # Fredholm has absolute accuracy only: at N = 3 it returns ~4e-143 for
    # the true 2.47e-202, which an absolute comparison passed at 6.6e-127
    row = _check("gap.toeplitz_vs_fredholm").report(NEAR)
    assert not row["pass"]
    assert row["measured"] == pytest.approx(1.0)


def test_toeplitz_vs_enumeration_fails_near_scaling():
    # both routes are below 1e-160 at N <= 4 here, and an absolute |a - c|
    # passed at 5.0e-163; relatively they differ in every digit
    assert checks.toeplitz_vs_enumeration(NEAR, range(5)) > 1e-6


def test_toeplitz_vs_enumeration_reads_the_route_cutoff():
    # verify sums the partitions gap-table sums: the row is the largest
    # relative difference of the route's toeplitz and enumeration values
    p = QParams(q=0.9, xi=0.5)
    want = 0.0
    for variant in gap.GAP_VARIANTS:
        for n in range(5):
            query = gap.GapQuery(variant, n, p)
            a, c = (gap.gap_probability(query, m) for m in ("toeplitz", "enumeration"))
            want = max(want, abs(a - c) / max(a, c))
    assert want > 0.04
    assert checks.toeplitz_vs_enumeration(p, range(5)) == want


def test_parseval_holds_near_scaling():
    # the squared mass reaches past order 80 here: 6.2e-3 of it lies outside -80..80
    assert _check("special.unimodular_parseval").report(NEAR)["pass"]


@pytest.mark.parametrize("q, xi", [(0.97, 0.7), (0.99, 0.9)])
def test_christoffel_darboux_holds_near_q_one(q, xi):
    # the quotient's 1/(1 - q^{|r-s|}) amplifies rounding here: 1.2e-15 and 4.3e-15
    assert _check("kernels.christoffel_darboux").report(QParams(q=q, xi=xi))["pass"]


@pytest.mark.parametrize("q, xi", [(0.9, 0.5), (0.97, 0.7)])
def test_gen_fn_coefficients_hold_near_q_one(q, xi):
    # the binary64 direct series cancels here: 1.26e-13 and 453 off the table
    assert _check("special.gen_fn_coefficients").report(QParams(q=q, xi=xi))["pass"]


def test_kernel_and_measure_rows_pass_at_q_zero():
    # the principal Miwa times are 0 at q = 0, where q^{-n/2} used to raise;
    # the special rows' series are their first term where q xi = 0
    rows = [c.report(QParams(q=0.0, xi=0.3)) for c in checks.CHECKS
            if c.suite in ("kernels", "measures")]
    assert len(rows) == 10
    rows += [c.report(QParams(q=q, xi=xi)) for q, xi in ((0.0, 0.3), (0.5, 0.0))
             for c in checks.CHECKS if c.suite == "special"]
    assert len(rows) == 20
    assert all(row["pass"] for row in rows), [r for r in rows if not r["pass"]]


def _j3_60(n, x, q):
    """J^(3)_n(x; q), n >= 0, by mpmath at 60 digits: the reference series."""
    with mp.workdps(60):
        return (x / 2) ** n / mp.qp(q, q, n) * mp.qhyper([0], [q ** (n + 1)], q, q * x * x / 4)


def test_tail_comparators_match_the_series_near_q_one():
    # the J_gen table's comparators against the series: a binary64 series was
    # 9.9e3 (x, n = 0) and 3.4e9 (y, n = 18) off at NEAR; at (1e-12, 0.3) the
    # x comparator underflows to 0 from n = 7 on, as the series does
    for p in (NEAR, QParams(q=0.5, xi=0.3), QParams(q=0.9, xi=0.5),
              QParams(q=1e-12, xi=0.3), QParams(q=0.5, xi=0.999)):
        with mp.workdps(60):
            q, xi = mp.mpf(p.q), mp.mpf(p.xi)
            for n in range(26):
                s = q ** (mp.mpf(n) / 2)
                want_x = float(mp.sqrt(xi) * (-1) ** n * s * _j3_60(n, 2 * s * xi, q))
                want_y = float(-xi * _j3_60(n, 2 * xi, q) ** 2)
                assert tail_comparator("x", p, n) == pytest.approx(want_x, rel=1e-14, abs=0)
                assert tail_comparator("y", p, n) == pytest.approx(want_y, rel=1e-14, abs=0)


def test_tail_comparator_nonconvergence_is_typed():
    # the J_gen table is refused at q = 0.9999, where its product needs more
    # than 10,000 factors; the CLI reports that
    with pytest.raises(NonconvergenceError):
        tail_comparator("x", QParams(q=0.9999, xi=0.5), 3)


def test_schur_vs_qbessel_holds_near_q_one():
    # at (0.99, 0.9) the squared mass past order 256 is 0.0859, and the Miwa
    # times t_n stay above 1e-16 past n = 128
    assert checks.schur_vs_qbessel(QParams(q=0.99, xi=0.9), range(-4, 4)) <= 1e-10


def test_one_stats_table_per_verify():
    # the norm rows, the verify route row and the gap route itself read one
    # hook-count table
    measures._enum_stats.cache_clear()
    measures._squared_table.cache_clear()
    p = QParams(q=0.5, xi=0.3)
    for check_id in ("measures.norm_mixed", "measures.norm_poissonized",
                     "measures.norm_squared", "gap.toeplitz_vs_enumeration"):
        _check(check_id).report(p)
    gap.gap_probability(gap.GapQuery("length", 3, p), "enumeration")
    assert measures._enum_stats.cache_info().misses == 1
