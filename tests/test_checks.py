"""The verify table of `qpart.checks` and the checks away from the desk point."""

import pytest

from qpart import checks
from qpart.qspecial import QParams

NEAR = QParams(q=0.97, xi=0.7)

# check_id | paper_ref | tolerance of every verify row, in output order
VERIFY_TABLE = """\
gap.monotone_first-part | gap probabilities nondecreasing in N | 0.0
gap.monotone_length | gap probabilities nondecreasing in N | 0.0
gap.toeplitz_vs_enumeration | determinant route equals the direct partition sum | 1e-06
gap.toeplitz_vs_fredholm | determinant of the symbol matrix equals the kernel determinant | 1e-10
gap.z_infinity | Z_N approaches the squared-type normalization | 1e-10
kernels.airy_diagonal | K_Airy(0,0) = Ai'(0)^2 | 1e-14
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


def test_parseval_holds_near_scaling():
    # the squared mass reaches past order 80 here: 6.2e-3 of it lies outside -80..80
    assert _check("special.unimodular_parseval").report(NEAR)["pass"]



@pytest.mark.parametrize("q, xi", [(0.9, 0.5), (0.97, 0.7)])
def test_gen_fn_coefficients_hold_near_q_one(q, xi):
    # the binary64 direct series cancels here: 1.26e-13 and 453 off the table
    assert _check("special.gen_fn_coefficients").report(QParams(q=q, xi=xi))["pass"]
