"""The failure atlas: the state of every verify row at a grid of points.

Every row of `checks.CHECKS` not listed at a point must pass there; a listed
row must fail with a value ("fail") or with none ("null"). Only the state is
pinned, not the value: the bits are pinned at two points by
`test_painleve_suite_is_pinned`, and a value near its tolerance would make
this test depend on the BLAS build. A row that starts to pass fails the
test as much as one that stops, so a mend shows in the diff of ATLAS. The
grid is the twelve points of ROADMAP's net-state table and four of its
corners; all sixteen take about 7.5 s in one process, 1.7 s of it at
(0.998, 0.5).
"""

import pytest

from qpart import checks
from qpart.qspecial import QParams

_ROUTES = {"gap.toeplitz_vs_enumeration": "fail", "gap.toeplitz_vs_fredholm": "fail"}
_NORMS = {"measures.norm_mixed": "fail", "measures.norm_squared": "fail"}
# the rows that fail from (0.97, 0.9) to (0.998, 0.5); past (0.97, 0.9)
# rhp_jump reads null, each probe's jump term being below the last bit of
# its entries
_NEAR_ONE = {"gap.z_infinity": "fail", **_NORMS, "painleve.rhp_jump": "null",
             "painleve.rhp_value_at_zero": "fail"}

ATLAS = {
    (0.1, 0.3): {"painleve.lax_inversion": "fail"},
    (0.3, 0.3): {},
    (0.5, 0.3): {},
    (0.7, 0.5): {},
    (0.9, 0.5): {"gap.toeplitz_vs_enumeration": "fail", "measures.norm_squared": "fail"},
    (0.9, 0.9): {**_ROUTES, **_NORMS},
    (0.97, 0.7): {**_ROUTES, **_NORMS, "gap.z_infinity": "fail",
                  "painleve.rhp_value_at_zero": "fail"},
    (0.97, 0.9): {**_ROUTES, **_NEAR_ONE, "painleve.rhp_jump": "fail"},
    # false passes: both route rows read 0.0 at the next three points, and
    # toeplitz_vs_enumeration at (0.9999, 0.5), since every gap route there
    # returns 0.0 (ROADMAP item 10)
    (0.99, 0.7): _NEAR_ONE,
    (0.995, 0.5): _NEAR_ONE,
    (0.998, 0.5): _NEAR_ONE,
    # the Fredholm section is past its entry limit, E_n = 1/kappa_n^2 past
    # the double range and the mp q-series past mpmath's term budget
    (0.9999, 0.5): {"gap.toeplitz_vs_fredholm": "null", "gap.z_infinity": "fail", **_NORMS,
                    "painleve.rhp_det": "null", "painleve.rhp_jump": "null",
                    "painleve.rhp_value_at_zero": "null",
                    "special.gen_fn_coefficients": "null",
                    "special.modified_bessel_relation": "null",
                    "special.negative_order_reflection": "null"},
    # modified_bessel_relation read null at x = xi^2 = 0.998, where the
    # series in x of log (x; q)_inf and the direct 2phi1 ran out of terms
    (0.3, 0.999): {},
    # rhp_det read 3.2e-5 with the series cut as if c_m fell like a^m; the
    # route rows read 0.0 here too, false passes, and rhp_jump null
    (0.999, 0.1): {"gap.z_infinity": "fail", **_NORMS, "painleve.rhp_jump": "null"},
    # the Lax inversion at small q reads 0.89 (ROADMAP item 19)
    (0.01, 0.3): {"painleve.lax_inversion": "fail"},
    # rhp_jump measures its plain probe, 2.2e-16; the check probe's jump
    # term is below the last bit of its entries
    (0.99, 0.3): {**_ROUTES, "gap.z_infinity": "fail", **_NORMS,
                  "painleve.rhp_value_at_zero": "fail"},
}


def _state(row: dict) -> str:
    return "pass" if row["pass"] else "null" if row["measured"] is None else "fail"


@pytest.mark.parametrize("q, xi", list(ATLAS), ids=[f"{q}-{xi}" for q, xi in ATLAS])
def test_rows_fail_where_the_atlas_says(q, xi):
    rows = [c.report(QParams(q=q, xi=xi)) for c in checks.CHECKS]
    assert {r["check_id"]: _state(r) for r in rows if not r["pass"]} == ATLAS[q, xi]
