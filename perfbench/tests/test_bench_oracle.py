"""The mpmath oracle against qpart at the desk point, where qpart is right."""

import pytest
from mpmath import mp

import oracle as orc
from qpart import gap
from qpart.qspecial import QParams

DESK = QParams(q=orc.DESK[0], xi=orc.DESK[1])


def _agreed_desk_values():
    """(variant, N, value) where Toeplitz, Fredholm and enumeration agree to 1e-10."""
    out = []
    for variant in orc.VARIANT_SYMBOL:
        for n in range(orc.GAP_N_MAX + 1):
            q = gap.GapQuery(variant=variant, N=n, params=DESK)
            vals = [gap.gap_probability(q, m) for m in ("toeplitz", "fredholm", "enumeration")]
            if max(vals) - min(vals) <= 1e-10:
                out.append((variant, n, vals[0]))
    return out


def test_stored_oracle_reproduces_agreed_desk_gap_values():
    stored = orc.load()["gap"][orc.point_key(*orc.DESK)]
    agreed = _agreed_desk_values()
    assert len(agreed) >= 15
    for variant, n, value in agreed:
        assert abs(stored[variant][n] - value) <= 1e-10 * abs(value)


def test_fresh_oracle_evaluation_matches_stored_values():
    with mp.workdps(60):
        fresh = orc._gap_and_op(orc.DESK[0], orc.DESK[1], want_op=True)
    stored = orc.load()
    key = orc.point_key(*orc.DESK)
    for variant in orc.VARIANT_SYMBOL:
        for n in range(orc.GAP_N_MAX + 1):
            assert float(fresh["gap"][variant][n]) == pytest.approx(
                stored["gap"][key][variant][n], rel=1e-15)
    for symbol in ("plain", "check"):
        for field in ("x", "kappa_sq"):
            got = [float(v) for v in fresh["op"][symbol][field]]
            assert got == pytest.approx(stored["op"][key][symbol][field], rel=1e-15)


def test_series_kernel_matches_the_closed_form_at_the_desk_point():
    from fractions import Fraction

    from qpart.kernels import q_bessel_kernel

    with mp.workdps(40):
        jc = orc.j_coefficients(mp.mpf(DESK.q), mp.mpf(DESK.xi), 10)
        sites = [Fraction(2 * k + 1, 2) for k in range(0, 6)]
        block = orc.kernel_block(jc, sites)
        for i, r in enumerate(sites):
            for j, s in enumerate(sites):
                assert float(block[i][j]) == pytest.approx(
                    q_bessel_kernel(DESK, r, s), abs=1e-14)
                # the diagonal recursion agrees with the direct tail sums
                assert abs(block[i][j] - orc.series_kernel(jc, r, s)) < mp.mpf(10) ** -35
