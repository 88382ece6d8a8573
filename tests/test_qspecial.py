import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart.qspecial import (
    HypergeometricSpec,
    QParams,
    basic_hypergeometric,
    circle_fft,
    log_macmahon,
    macmahon,
    macmahon_series_coefficient,
    modified_q_bessel,
    q_bessel,
    q_pochhammer,
)

P = QParams(q=0.5, xi=0.3)


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.7, 0.5, 0) == 1.0

    def test_finite_against_mpmath(self):
        for a, q, n in [(0.3, 0.5, 4), (-0.8, 0.9, 7), (1.5, 0.2, 3)]:
            assert q_pochhammer(a, q, n) == pytest.approx(
                float(mpmath.qp(a, q, n)), rel=1e-14
            )

    def test_infinite_against_mpmath(self):
        for a, q in [(0.3, 0.5), (-0.6, 0.7), (0.09, 0.9)]:
            assert q_pochhammer(a, q, math.inf) == pytest.approx(
                float(mpmath.qp(a, q)), rel=1e-13
            )

    @given(
        a=st.floats(-0.9, 0.9),
        q=st.floats(0.05, 0.9),
        n=st.integers(0, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_recursion(self, a, q, n):
        lhs = q_pochhammer(a, q, n + 1)
        rhs = q_pochhammer(a, q, n) * (1.0 - a * q**n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestBasicHypergeometric:
    def test_0phi0_is_q_exponential(self):
        # sum (-1)^k q^{k(k-1)/2} x^k / (q;q)_k = (x;q)_inf
        q, x = 0.5, 0.4
        spec = HypergeometricSpec(upper=(), lower=(), q=q, x=x)
        assert basic_hypergeometric(spec) == pytest.approx(
            float(mpmath.qp(x, q)), rel=1e-14
        )

    def test_1phi0_q_binomial(self):
        # 1phi0(a; -; q, x) = (a x; q)_inf / (x; q)_inf
        q, a, x = 0.6, 0.3, 0.5
        spec = HypergeometricSpec(upper=(a,), lower=(), q=q, x=x)
        want = float(mpmath.qp(a * x, q) / mpmath.qp(x, q))
        assert basic_hypergeometric(spec) == pytest.approx(want, rel=1e-13)

    def test_against_mpmath_qhyper(self):
        q = 0.5
        spec = HypergeometricSpec(upper=(0.2,), lower=(0.7,), q=q, x=0.3)
        want = float(mpmath.qhyper([0.2], [0.7], q, 0.3))
        assert basic_hypergeometric(spec) == pytest.approx(want, rel=1e-13)

    def test_rejects_singular_lower_parameter(self):
        with pytest.raises(ValueError):
            HypergeometricSpec(upper=(), lower=(0.5**-2,), q=0.5, x=0.1)


class TestMacmahon:
    def test_xi_zero(self):
        assert macmahon(QParams(q=0.5, xi=0.0)) == 1.0

    def test_product_equals_exponential_sum(self):
        # log M = sum_n xi^{2n} / (n (q^{n/2} - q^{-n/2})^2)
        for xi in (0.1, 0.3, 0.5):
            for q in (0.3, 0.5, 0.7):
                total = 0.0
                for n in range(1, 400):
                    term = xi ** (2 * n) / (
                        n * (q ** (n / 2.0) - q ** (-n / 2.0)) ** 2
                    )
                    total += term
                    if term < 1e-18:
                        break
                assert macmahon(QParams(q=q, xi=xi)) == pytest.approx(
                    math.exp(total), rel=1e-12
                )

    def test_log_near_q_one_where_the_value_overflows(self):
        # log M = -sum_n n log(1 - xi^2 q^n), summed in mpmath; the series in
        # (q^{n/2} - q^{-n/2})^2 added in order is 4.1e-15 and 6.3e-14 off at
        # the last two points
        for q, xi, rel in ((0.99, 0.9, 1e-12), (0.95, 0.7, 1e-15), (0.999, 0.5, 1e-15)):
            with mpmath.workdps(30):
                want = -mpmath.nsum(
                    lambda n: n * mpmath.log(1 - mpmath.mpf(xi) ** 2 * mpmath.mpf(q) ** n),
                    [1, mpmath.inf],
                )
            got = log_macmahon(QParams(q=q, xi=xi))
            assert got == pytest.approx(float(want), rel=rel, abs=0)
        with pytest.raises(OverflowError):
            macmahon(QParams(q=0.99, xi=0.9))

    def test_series_coefficients(self):
        assert [macmahon_series_coefficient(k) for k in range(4)] == [1, 1, 3, 6]

    def test_series_coefficient_13(self):
        # plane partitions of 13
        assert macmahon_series_coefficient(13) == 2485


class TestQBessel:
    def test_kind2_from_kind1(self):
        # J2_nu(x) = (-x^2/4; q)_inf J1_nu(x) for |x| < 2
        q, x = 0.5, 0.8
        pref = q_pochhammer(-x * x / 4.0, q, math.inf)
        for nu in (0, 1, 2, 0.5, 1.5):
            assert q_bessel(2, nu, x, q) == pytest.approx(
                pref * q_bessel(1, nu, x, q), rel=1e-13
            )

    def test_negative_order_reflection_kind3(self):
        q, x = 0.5, 0.6
        for n in range(1, 10):
            lhs = q_bessel(3, -n, x, q)
            rhs = (-1.0) ** n * q ** (n / 2.0) * q_bessel(3, n, q ** (n / 2.0) * x, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_classical_limit(self):
        # (1-q)-rescaled argument: J3_nu(x(1-q); q) -> J_nu(x)ish is not
        # uniform; instead check against the direct series at another q
        # and the q=0 degenerate value
        assert q_bessel(3, 2, 0.8, 0.0) == pytest.approx(0.16)

    def test_three_term_recurrence_kind3(self):
        # x/2 (q^{nu/2} J_{nu} satisfies) ... verified in the raw form:
        # J_{nu-1} + J_{nu+1} = ((2/x)(1 - q^nu) + x/2) J_nu
        q, x = 0.5, 0.6
        for nu in (1, 2, 3, 1.5):
            lhs = q_bessel(3, nu - 1, x, q) + q_bessel(3, nu + 1, x, q)
            rhs = ((2.0 / x) * (1.0 - q**nu) + x / 2.0) * q_bessel(3, nu, x, q)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_modified_relation(self):
        q, u = 0.5, 0.3
        pref = q_pochhammer(u * u, q, math.inf)
        for nu in (0, 1, 3, -2):
            assert modified_q_bessel(2, nu, 2 * u, q) == pytest.approx(
                pref * modified_q_bessel(1, nu, 2 * u, q), rel=1e-13
            )

    def test_modified_symmetric_in_order(self):
        q, u = 0.5, 0.3
        for n in range(4):
            for kind in (1, 2):
                assert modified_q_bessel(kind, n, 2 * u, q) == pytest.approx(
                    modified_q_bessel(kind, -n, 2 * u, q), rel=1e-12
                )


class TestFourierCoefficients:
    # circle_fft entry n holds order n, negative n indexing from the end
    def test_j_gen_matches_direct_series(self):
        table = circle_fft("J_gen", P, 512)
        for n in range(-6, 7):
            want = P.q ** (n / 2.0) * q_bessel(3, n, 2.0 * P.xi, P.q)
            assert table[n] == pytest.approx(want, abs=1e-14)

    def test_generating_function_pointwise(self):
        # sum c_n z^n reproduces the product form on the unit circle
        table = circle_fft("J_gen", P, 512)
        q, xi = P.q, P.xi
        for k in range(32):
            theta = 2.0 * math.pi * k / 32.0
            z = complex(math.cos(theta), math.sin(theta))
            series = sum(table[n] * z**n for n in range(-40, 41))
            num = complex(mpmath.qp(xi * math.sqrt(q) / z, q))
            den = complex(mpmath.qp(xi * math.sqrt(q) * z, q))
            assert abs(series - num / den) < 1e-10

    def test_parseval_unimodular(self):
        table = circle_fft("J_gen", P, 512)
        assert sum(table[n] ** 2 for n in range(-60, 61)) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_symbol_moments_match_modified_bessel(self):
        t_i = circle_fft("I", P, 512)
        t_c = circle_fft("I_check", P, 512)
        for n in range(-5, 6):
            want_i = modified_q_bessel(1, abs(n), 2.0 * P.xi * math.sqrt(P.q), P.q)
            want_c = P.q ** (n * n / 2.0) * modified_q_bessel(
                2, abs(n), 2.0 * P.xi, P.q
            )
            assert t_i[n] == pytest.approx(want_i, rel=1e-12)
            assert t_c[n] == pytest.approx(want_c, rel=1e-12)

    def test_symbols_even(self):
        for weight in ("I", "I_check"):
            table = circle_fft(weight, P, 512)
            for n in range(1, 10):
                assert table[n] == pytest.approx(table[-n], rel=1e-13)


class TestQParams:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QParams(q=1.2, xi=0.3)

    def test_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            QParams(q=0.5, xi=1.0)

    def test_hashable(self):
        assert hash(QParams(q=0.5, xi=0.3)) == hash(QParams(q=0.5, xi=0.3))
