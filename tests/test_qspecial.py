"""The MacMahon function of `qpart.qspecial`, the plane-partition series and
mp q-series of `qpart.checks` that the special verify rows and the tail
comparators read, and the FFT of the circle weights' product form against
them and mpmath references."""

import dataclasses
import decimal
import math
from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart import checks, kernels, oppainleve
from qpart.qspecial import QParams, _context, log_macmahon
from reference_fft import circle_fft

P = QParams(q=0.5, xi=0.3)


def _jackson_i(kind, n, u, q):
    """Jackson's modified q-Bessel I^(kind)_n(2u; q), n >= 0, in mpmath:
    (q^{n+1};q)_inf / (q;q)_inf u^n times 2phi1(0, 0; q^{n+1}; q, u^2) for
    kind 1 and 0phi1(-; q^{n+1}; q, q^{n+1} u^2) for kind 2."""
    b = q ** (n + 1)
    if kind == 1:
        phi = mpmath.qhyper([0, 0], [b], q, u * u)
    else:
        phi = mpmath.qhyper([], [b], q, b * u * u)
    return mpmath.qp(b, q) / mpmath.qp(q, q) * u**n * phi


class TestQPochhammer:
    # (x; q)_inf from the log series the modified Bessel row reads
    @staticmethod
    def _qp(x, q):
        with mpmath.workdps(30):
            return float(mpmath.exp(checks._log_qp_inf(mpmath.mpf(x), mpmath.mpf(q))))

    def test_empty_product(self):
        assert self._qp(0.0, 0.5) == 1.0

    def test_infinite_against_mpmath(self):
        for a, q, want in [(0.3, 0.5, mpmath.qp(0.3, 0.5)), (0.09, 0.9, mpmath.qp(0.09, 0.9)),
                           (0.0, 0.7, 1.0), (0.81, 0.0, 0.19)]:
            assert self._qp(a, q) == pytest.approx(float(want), rel=1e-13)
        # near q = 1 the product needs thousands of factors, more than
        # mpmath.qp takes at 30 digits: sum their logs instead
        want = math.exp(math.fsum(math.log1p(-0.81 * 0.99**k) for k in range(20_000)))
        assert self._qp(0.81, 0.99) == pytest.approx(want, rel=1e-13)

    @given(
        a=st.floats(0.0, 0.9),
        q=st.floats(0.0, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_recursion(self, a, q):
        # (a; q)_inf = (1 - a) (a q; q)_inf
        lhs = self._qp(a, q)
        rhs = (1.0 - a) * self._qp(a * q, q)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestBasicHypergeometric:
    # the series `checks` reads follow Gasper-Rahman: the factor
    # ((-1)^n q^C(n,2))^(1+s-r) in each term
    def test_0phi0_is_q_exponential(self):
        # sum (-1)^k q^{k(k-1)/2} x^k / (q;q)_k = (x;q)_inf
        q, x = 0.5, 0.4
        assert float(checks._phi([], [], q, x)) == pytest.approx(
            float(mpmath.qp(x, q)), rel=1e-14
        )

    def test_1phi0_q_binomial(self):
        # 1phi0(a; -; q, x) = (a x; q)_inf / (x; q)_inf
        q, a, x = 0.6, 0.3, 0.5
        want = float(mpmath.qp(a * x, q) / mpmath.qp(x, q))
        assert float(checks._phi([a], [], q, x)) == pytest.approx(want, rel=1e-13)

    def test_rejects_singular_lower_parameter(self):
        # a lower parameter q^{-2} zeroes a denominator factor at term 3
        with pytest.raises(ValueError):
            checks._phi([], [0.5**-2], 0.5, 0.1)


class TestMacmahon:
    def test_xi_zero(self):
        assert log_macmahon(QParams(q=0.5, xi=0.0)) == 0.0

    def test_log_sum_equals_log_product(self):
        # log M = -sum_n n log(1 - xi^2 q^n), summed over the factors
        for xi in (0.1, 0.3, 0.5):
            for q in (0.3, 0.5, 0.7):
                want = -math.fsum(n * math.log1p(-xi * xi * q**n) for n in range(1, 400))
                assert log_macmahon(QParams(q=q, xi=xi)) == pytest.approx(want, rel=1e-12)

    def test_log_near_q_one(self):
        # log M = -sum_n n log(1 - xi^2 q^n), summed in mpmath; the series in
        # (q^{n/2} - q^{-n/2})^2 added in order is 4.1e-15 and 6.3e-14 off at
        # the last two points, and M itself is past the double range at the first
        for q, xi, rel in ((0.99, 0.9, 1e-12), (0.95, 0.7, 1e-15), (0.999, 0.5, 1e-15)):
            with mpmath.workdps(30):
                want = -mpmath.nsum(
                    lambda n: n * mpmath.log(1 - mpmath.mpf(xi) ** 2 * mpmath.mpf(q) ** n),
                    [1, mpmath.inf],
                )
            got = log_macmahon(QParams(q=q, xi=xi))
            assert got == pytest.approx(float(want), rel=rel, abs=0)

    def test_log_where_r_is_near_one(self):
        # r = xi^2 q = 0.9948: the float sum stopped 1e-16 below its first
        # term after about 4,450 terms, the decimal one 33 digits down needs
        # about 12,000, past the 10,000 it was first given; both forms
        # summed in mpmath to 1e-35
        q, xi = 0.995, 0.9999
        with mpmath.workdps(40):
            mq, r = mpmath.mpf(q), mpmath.mpf(xi) ** 2 * mpmath.mpf(q)
            want, n, term = mpmath.mpf(0), 0, mpmath.mpf(1)
            while term > mpmath.mpf(10) ** -35 * want:
                n += 1
                term = r**n / (n * (1 - mq**n) ** 2)
                want += term
        assert log_macmahon(QParams(q=q, xi=xi)) == pytest.approx(float(want), rel=2.0**-52)

    def test_series_coefficients(self):
        assert [checks.macmahon_series_coefficient(k) for k in range(4)] == [1, 1, 3, 6]

    def test_series_coefficient_13(self):
        # plane partitions of 13
        assert checks.macmahon_series_coefficient(13) == 2485


class TestQBessel:
    # the Hahn-Exton J^(3) series of `checks` and the J_gen table
    # c_n = q^{n/2} J^(3)_n(2 xi; q)
    def test_negative_order_reflection_kind3(self):
        # the reflected mp series against the table's negative orders
        for q, xi in [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7), (0.99, 0.9)]:
            p = QParams(q=q, xi=xi)
            assert checks.negative_order_reflection(p, range(1, 10)) <= 1e-14

    def test_classical_limit(self):
        # J^(3)_nu((1-q) x; q) -> J_nu(x) as q -> 1, with error O(1-q); at
        # q = 0 only the leading term (x/2)^nu survives
        with mpmath.workdps(30):
            for q in (0.9, 0.99, 0.999):
                qm = mpmath.mpf(q)
                got = checks._j3(2, (1 - qm) * mpmath.mpf(1.5), qm)
                assert float(got / mpmath.besselj(2, 1.5)) == pytest.approx(1.0, abs=0.6 * (1 - q))
            assert float(checks._j3(2, mpmath.mpf(0.8), mpmath.mpf(0))) == pytest.approx(0.16)

    def test_three_term_recurrence_kind3(self):
        # J_{n-1} + J_{n+1} = ((1 - q^n)/xi + xi) J_n at x = 2 xi, in c_n:
        # sqrt(q) c_{n-1} + c_{n+1} / sqrt(q) = ((1 - q^n)/xi + xi) c_n
        for q, xi in [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7)]:
            span, c = kernels._j_gen(QParams(q=q, xi=xi))
            for n in range(-6, 7):
                lhs = math.sqrt(q) * c[n + span] + c[n + span + 2] / math.sqrt(q)
                rhs = ((1.0 - q**n) / xi + xi) * c[n + span + 1]
                assert abs(lhs - rhs) <= 1e-14

    def test_modified_relation(self):
        # I2_n = (u^2; q)_inf I1_n from Jackson's two series, in mp
        for q, xi in [(0.5, 0.3), (0.97, 0.7), (0.99, 0.9), (0.0, 0.3), (0.5, 0.0)]:
            assert checks.modified_bessel_relation(QParams(q=q, xi=xi), range(5)) <= 1e-25


class TestFourierCoefficients:
    # circle_fft entry n holds order n, negative n indexing from the end
    def test_j_gen_matches_direct_series(self):
        table = circle_fft("J_gen", P, 512)
        with mpmath.workdps(30):
            q, x = mpmath.mpf(P.q), 2 * mpmath.mpf(P.xi)
            for n in range(-6, 7):
                jn = checks._j3(n, x, q) if n >= 0 else checks._j3_reflected(-n, x, q)
                want = float(q ** (mpmath.mpf(n) / 2) * jn)
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
        # the engine's decimal moments relatively; the FFT of the product form
        # to its absolute floor, 2.2e-16 here, where the moments near 1e-5
        # have no relative digits left
        t_i = circle_fft("I", P, 512)
        t_c = circle_fft("I_check", P, 512)
        with decimal.localcontext(_context(34)):
            m_i = oppainleve._moments("plain", 5, Decimal(P.q), Decimal(P.xi))
            m_c = oppainleve._moments("check", 5, Decimal(P.q), Decimal(P.xi))
        q, xi = mpmath.mpf(P.q), mpmath.mpf(P.xi)
        for n in range(-5, 6):
            with mpmath.workdps(30):
                want_i = float(_jackson_i(1, abs(n), xi * mpmath.sqrt(q), q))
                want_c = float(q ** (mpmath.mpf(n * n) / 2) * _jackson_i(2, abs(n), xi, q))
            assert float(m_i[abs(n)]) == pytest.approx(want_i, rel=1e-15, abs=0)
            assert float(m_c[abs(n)]) == pytest.approx(want_c, rel=1e-15, abs=0)
            assert t_i[n] == pytest.approx(want_i, rel=1e-12, abs=4e-16)
            assert t_c[n] == pytest.approx(want_c, rel=1e-12, abs=4e-16)

    def test_symbols_even(self):
        # the FFT halves differ by up to 6.9e-18, which is relative 0.57 at
        # I_check order 9 (1.0e-17)
        for weight in ("I", "I_check"):
            table = circle_fft(weight, P, 512)
            for n in range(1, 10):
                assert table[n] == pytest.approx(table[-n], rel=1e-13, abs=1e-17)


class TestQParams:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QParams(q=1.2, xi=0.3)

    def test_rejects_bad_xi(self):
        with pytest.raises(ValueError):
            QParams(q=0.5, xi=1.0)

    def test_hashable(self):
        assert hash(QParams(q=0.5, xi=0.3)) == hash(QParams(q=0.5, xi=0.3))

    def test_hash_taken_once_is_the_dataclass_hash(self):
        # the hash is taken in __post_init__, and it, equality and repr stay
        # those of a frozen dataclass over (q, xi)
        a, b = QParams(q=0.97, xi=0.7), QParams(q=0.97, xi=0.7)
        assert hash(a) == hash((0.97, 0.7))
        assert a == b and a is not b and {a: 1}[b] == 1
        assert a != QParams(q=0.97, xi=0.5) and a != (0.97, 0.7)
        assert repr(a) == "QParams(q=0.97, xi=0.7)"
        assert [f.name for f in dataclasses.fields(a)] == ["q", "xi"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.q = 0.5
