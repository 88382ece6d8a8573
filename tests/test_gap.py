import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from qpart import gap, oppainleve
from qpart.gap import GAP_VARIANTS, METHODS, GapQuery, gap_probability
from qpart.kernels import _j_gen
from qpart.measures import ENUM_SIZE, QPPSquared, _squared_table, measure
from qpart.oppainleve import op_sequence
from qpart.qspecial import NonconvergenceError, QParams, log_macmahon
from reference_fft import circle_fft
from reference_partitions import cell_stats, enumerate_partitions
from test_oppainleve import _series_moment

P = QParams(q=0.5, xi=0.3)


def _z(variant, n):
    """The Toeplitz determinant Z_n of the variant's symbol at P."""
    return math.exp(op_sequence(variant, P, n).log_z[n])


class TestToeplitzDet:
    def test_size_zero_is_one(self):
        assert _z("plain", 0) == 1.0

    def test_size_one_is_moment(self):
        table = circle_fft("I", P, 512)
        assert _z("plain", 1) == pytest.approx(table[0], rel=1e-14)

    def test_positive_for_positive_symbol(self):
        for n in range(1, 12):
            assert _z("plain", n) > 0.0
            assert _z("check", n) > 0.0

    def test_z_infinity_is_macmahon(self):
        log_m = log_macmahon(P)
        for variant in ("plain", "check"):
            assert op_sequence(variant, P, 30).log_z[30] == pytest.approx(log_m, abs=1e-10)


class TestGapProbability:
    def test_n0_length_is_empty_partition_mass(self):
        # only the empty partition has length 0
        query = GapQuery(variant="length", N=0, params=P)
        want = measure(QPPSquared(P.xi, P.q), enumerate_partitions(0).__next__())
        assert gap_probability(query, "toeplitz") == pytest.approx(
            want, rel=1e-12
        )

    def test_n0_both_variants_agree(self):
        a = gap_probability(GapQuery(variant="length", N=0, params=P), "toeplitz")
        b = gap_probability(GapQuery(variant="first-part", N=0, params=P), "toeplitz")
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("variant", ["length", "first-part"])
    def test_three_way_agreement(self, variant):
        for n in range(0, 7):
            query = GapQuery(variant=variant, N=n, params=P)
            a = gap_probability(query, "toeplitz")
            b = gap_probability(query, "fredholm")
            c = gap_probability(query, "enumeration")
            assert abs(a - b) < 1e-10
            assert abs(a - c) < 1e-6

    def test_toeplitz_matches_fredholm_at_stressed_point(self):
        # the float LU route lost 3.6e-9 here (condition number 7.8e7)
        query = GapQuery(variant="length", N=10, params=QParams(q=0.9, xi=0.5))
        a = gap_probability(query, "toeplitz")
        b = gap_probability(query, "fredholm")
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("variant", GAP_VARIANTS)
    def test_fredholm_is_positive_near_scaling(self, variant):
        # det(1 - K) of a float kernel block kept absolute digits only and
        # returned -1.04e-134 (length) and -3.42e-149 (first part) here
        query = GapQuery(variant, 3, QParams(q=0.97, xi=0.7))
        assert gap_probability(query, "fredholm") > 0.0

    def test_fredholm_keeps_relative_digits_at_q_095(self):
        # det(1 - K) of a float kernel block gave 1.8e-61 for 4.35e-63 here
        query = GapQuery("first-part", 3, QParams(q=0.95, xi=0.7))
        want = gap_probability(query, "toeplitz")
        assert gap_probability(query, "fredholm") == pytest.approx(want, rel=1e-3)

    # below q or xi = 1e-3 the Toeplitz route's engine runs take up to seconds
    # each, and at q = 1e-60 the engine refuses the point (its digit limit)
    @given(q=st.just(0.0) | st.floats(1e-3, 0.9), xi=st.just(0.0) | st.floats(1e-3, 0.5),
           N=st.integers(0, 10), variant=st.sampled_from(GAP_VARIANTS))
    @example(q=0.9, xi=0.5, N=0, variant="length")
    @settings(max_examples=100, deadline=None)
    def test_fredholm_matches_toeplitz(self, q, xi, N, variant):
        # at the example det(1 - K) of a float kernel block was 2.67e-10 off
        query = GapQuery(variant, N, QParams(q=q, xi=xi))
        want = gap_probability(query, "toeplitz")
        assert gap_probability(query, "fredholm") == pytest.approx(want, rel=1e-12)

    def test_fredholm_matches_toeplitz_on_a_grid(self):
        # q = 0.3, 0.35, .., 0.9 by xi = 0.05, 0.105, .., 0.6 (a step that
        # misses the points other tests keep cold), N = 0..10, both variants.
        # The largest relative gap on this grid is 2.3e-12, at (0.9, 0.6),
        # first part, N = 0 (P = 1.7e-15), where the Toeplitz route is
        # 7.5e-15 off a 60-digit determinant; below xi = 0.545 it is 5.0e-14
        grid = [GapQuery(variant, n, QParams(q=i / 20, xi=(10 + 11 * j) / 200))
                for i in range(6, 19) for j in range(11) for variant in GAP_VARIANTS
                for n in range(11)]
        want = [gap_probability(query, "toeplitz") for query in grid]
        got = [gap_probability(query, "fredholm") for query in grid]
        assert got == pytest.approx(want, rel=5e-12)

    def test_fredholm_builds_one_table_per_params(self):
        p = QParams(q=0.9, xi=0.45)  # a point no other test uses
        before = _j_gen.cache_info().misses
        for variant in ("length", "first-part"):
            for n in (0, 4):
                gap_probability(GapQuery(variant, n, p), "fredholm")
        assert _j_gen.cache_info().misses - before == 1

    def test_transpose_duality(self):
        # lambda_1 and the length swap under transposition, but the
        # squared-type weight is not transpose invariant; the two variants
        # must differ at some N
        vals_l = [
            gap_probability(GapQuery(variant="length", N=n, params=P), "toeplitz")
            for n in range(1, 4)
        ]
        vals_f = [
            gap_probability(GapQuery(variant="first-part", N=n, params=P), "toeplitz")
            for n in range(1, 4)
        ]
        assert vals_l != pytest.approx(vals_f, rel=1e-6)

    def test_probabilities_in_unit_interval(self):
        for variant in ("length", "first-part"):
            for n in range(0, 9):
                v = gap_probability(GapQuery(variant=variant, N=n, params=P), "toeplitz")
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_monotone_and_saturating(self):
        for variant in ("length", "first-part"):
            vals = [gap_probability(GapQuery(variant, n, P), "toeplitz") for n in range(13)]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            gap_probability(GapQuery(variant="length", N=1, params=P), "bogus")

    def test_every_caller_names_the_route(self):
        # there is no default route: a bare call took the Toeplitz one
        with pytest.raises(TypeError, match="method"):
            gap_probability(GapQuery(variant="length", N=1, params=P))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            GapQuery(variant="width", N=1, params=P)
        with pytest.raises(ValueError):
            GapQuery(variant="length", N=-1, params=P)

    @pytest.mark.parametrize("method", METHODS)
    def test_non_integral_n_is_refused(self, method):
        # N = 3.0 was accepted; toeplitz and fredholm then raised TypeError
        # and enumeration IndexError
        with pytest.raises(ValueError, match="N must be an integer, got 3.0"):
            gap_probability(GapQuery("length", 3.0, P), method)
        assert gap_probability(GapQuery("length", np.int64(3), P), method) == (
            gap_probability(GapQuery("length", 3, P), method))


@pytest.fixture
def fresh_factors():
    gap._factor.cache_clear()
    yield
    gap._factor.cache_clear()


def _mp_gap_reference(variant, q, xi, n_top):
    """P_N = det T_N / M(xi;q), N <= n_top, from moments summed term by term
    and mp.det at 60 digits, as tests/test_oppainleve.py builds its reference.
    At (0.97, 0.7) it agrees with the same at 120 digits to 5e-43."""
    symbol = "plain" if variant == "length" else "check"
    with mp.workdps(60):
        mq, mxi = mp.mpf(q), mp.mpf(xi)
        c = [_series_moment(symbol, mq, mxi, m) for m in range(n_top)]
        # the factors past q^n = 1e-80 are left out
        log_m = -mp.fsum(n * mp.log(1 - mxi * mxi * mq**n)
                         for n in range(1, math.ceil(80 * math.log(10) / -math.log(q))))
        z = [mp.mpf(1)] + [mp.det(mp.matrix([[c[abs(j - i)] for j in range(n)] for i in range(n)]))
                           for n in range(1, n_top + 1)]
        return [float(v / mp.exp(log_m)) for v in z]


class TestToeplitzDigits:
    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7)])
    @pytest.mark.parametrize("variant", GAP_VARIANTS)
    def test_within_two_ulp_of_the_mp_reference(self, variant, q, xi):
        # exp of float log Z_N - float log M was up to 604 ulp off at
        # (0.97, 0.7), where log M = 566, and 16 ulp at (0.9, 0.5)
        want = _mp_gap_reference(variant, q, xi, 10)
        got = [gap_probability(GapQuery(variant, n, QParams(q=q, xi=xi)), "toeplitz")
               for n in range(11)]
        assert max(abs(g - w) / math.ulp(w) for g, w in zip(got, want)) <= 2.0

    def test_one_past_the_edge_near_q_one(self):
        # at (0.99, 0.7) the float subtraction returned 1.0000000000009095 at
        # N = 135, 165 and 200, where log P is -3.3e-23, -2.7e-60 and -2.3e-118,
        # and P - 1 = -4.129e-10 at N = 120 for -4.144e-10
        p = QParams(q=0.99, xi=0.7)
        for n in (135, 165, 200):
            assert gap_probability(GapQuery("length", n, p), "toeplitz") == 1.0
        # log P_N = sum_{k>N} (k - N) log(1 - x_k^2), in mp at 60 digits over
        # the run's x_k, each within half an ulp: a value of P_120 within
        # 1e-25 that never forms log M
        x = op_sequence("plain", p, 200).x
        with mp.workdps(60):
            want = mp.exp(mp.fsum((k - 120) * mp.log1p(-mp.mpf(x[k]) ** 2)
                                  for k in range(121, len(x))))
        got = gap_probability(GapQuery("length", 120, p), "toeplitz")
        assert abs(got - want) <= math.ulp(got)
        assert got - 1.0 == pytest.approx(-4.144e-10, rel=1e-3)

    def test_engine_runs_where_log_m_refuses(self, fresh_engine, monkeypatch):
        # x, kappa_sq and log_z do not read M: a log-M refusal leaves them
        # bit for bit and the gaps nan, and only the route raises
        want = op_sequence("plain", P, 10)
        oppainleve._longest.clear()
        op_sequence.cache_clear()

        def refuse(params):
            raise NonconvergenceError("log_macmahon: 10000 terms")
        monkeypatch.setattr(oppainleve, "_log_macmahon", refuse)
        got = op_sequence("plain", P, 10)
        assert repr((got.x, got.kappa_sq, got.log_z)) == repr((want.x, want.kappa_sq, want.log_z))
        assert all(math.isnan(v) for v in got.gap)
        with pytest.raises(NonconvergenceError, match="log_macmahon"):
            gap_probability(GapQuery("length", 5, P), "toeplitz")


class TestFredholmWindow:
    def test_one_factorization_per_window(self, fresh_factors, monkeypatch):
        # N = 0..10 of both variants read two factors, one per variant; a QR
        # per call made 22
        qr, made = np.linalg.qr, []

        def counting(a, mode="reduced"):
            made.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", counting)
        p = QParams(q=0.75, xi=0.4)  # a point no other test uses
        for variant in GAP_VARIANTS:
            for n in range(11):
                gap_probability(GapQuery(variant, n, p), "fredholm")
        assert made.count("r") == 2
        assert gap._factor.cache_info().maxsize == 2

    @pytest.mark.parametrize("q, xi, rows", [(0.9, 0.5, (68, 90)), (0.97, 0.7, (207, 255))])
    def test_negligible_rows_are_left_out(self, fresh_factors, monkeypatch, q, xi, rows):
        # B^T's rows past the last one reading an order at or above 2^-60 of
        # the largest are left out of the QR (at (0.97, 0.7), first part,
        # 207 of 401), with the log det of every nonzero row, bit for bit
        qr, factored = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: (
            mode == "r" and factored.append(len(a))) or qr(a, mode))
        p = QParams(q=q, xi=xi)

        def log_dets():
            gap._factor.cache_clear()
            return [gap._fredholm(p, n, first) for first in (True, False) for n in range(16)]

        trimmed = log_dets()
        assert tuple(factored) == rows
        monkeypatch.setattr(gap, "_NEGLIGIBLE", 0.0)
        assert log_dets() == trimmed

    def test_values_do_not_depend_on_request_order(self, fresh_factors):
        p = QParams(q=0.8, xi=0.45)  # a point no other test uses
        requests = [(v, n) for v in GAP_VARIANTS for n in range(21)]  # two windows
        shuffled = random.Random(37).sample(requests, len(requests))
        runs = []
        for order in (requests, requests[::-1], shuffled):
            gap._factor.cache_clear()
            runs.append({(v, n): gap_probability(GapQuery(v, n, p), "fredholm") for v, n in order})
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("q, xi", [(0.7, 0.5), (0.9, 0.5)])
    @pytest.mark.parametrize("variant", GAP_VARIANTS)
    def test_matches_mp_reference(self, variant, q, xi):
        # one QR at N = 0 with the far rows first, read for every N, was
        # 1.4e-13 off at (0.9, 0.5), first part
        want = _mp_gap_reference(variant, q, xi, 10)
        got = [gap_probability(GapQuery(variant, n, QParams(q=q, xi=xi)), "fredholm")
               for n in range(11)]
        assert got == pytest.approx(want, rel=5e-14, abs=0)

    def test_window_past_the_entry_limit(self, fresh_factors, monkeypatch):
        # at (0.9, 0.5), first part, the section of N has 42 - N sites by 172
        # orders; with room for 26 sites the window from 0 is refused whole,
        # and N = 16 reads the factor it reads unpatched
        p = QParams(q=0.9, xi=0.5)
        value = {n: gap_probability(GapQuery("first-part", n, p), "fredholm") for n in (5, 16)}
        for sites, first in ((26, 16), (37, 5)):
            gap._factor.cache_clear()
            monkeypatch.setattr(gap, "_MAX_ENTRIES", sites * 172)
            for n in range(first):
                with pytest.raises(NonconvergenceError,
                                   match=f"N = {n} needs {42 - n} sites by 172 orders"):
                    gap_probability(GapQuery("first-part", n, p), "fredholm")
            got = gap_probability(GapQuery("first-part", first, p), "fredholm")
            if first == 16:
                assert got == value[16]
            else:  # a factor of its own where the window from 0 read R_0
                assert got == pytest.approx(value[5], rel=5e-15)


class TestEnumerationRoute:
    @pytest.fixture(scope="class")
    def rows(self):
        """(first part, length, size, b, hook lengths) from cell_stats."""
        return [(lam.part(1), lam.length, lam.size, st.b_of_lambda, tuple(st.hooks.values()))
                for lam in enumerate_partitions(ENUM_SIZE) for st in [cell_stats(lam)]]

    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.7, 0.5), (0.9, 0.5)])
    def test_matches_mpmath_sum(self, rows, q, xi):
        # a 40-digit sum of the same partitions' weights times exp(-log M);
        # the bound fails a sum that adds the partitions one by one onto the
        # leading 1, which is off by 8.0e-15 at (0.7, 0.5)
        p = QParams(q=q, xi=xi)
        ns = [*range(13), ENUM_SIZE + 3]
        with mp.workdps(40):
            mq, mxi = mp.mpf(q), mp.mpf(xi)
            den = [(1 - mq**h) ** 2 for h in range(ENUM_SIZE + 1)]
            weights = [(mxi * mxi * mq) ** size * mq ** (2 * b) / mp.fprod(den[h] for h in hooks)
                       for _, _, size, b, hooks in rows]
            # terms past n = 2000 are below 1e-80 for q <= 0.9
            norm = mp.exp(mp.fsum(n * mp.log(1 - mxi * mxi * mq**n) for n in range(1, 2000)))
            for col, variant in enumerate(("first-part", "length")):
                for n in ns:
                    want = norm * mp.fsum(w for r, w in zip(rows, weights) if r[col] <= n)
                    got = gap_probability(GapQuery(variant, n, p), "enumeration")
                    assert got == pytest.approx(float(want), rel=2e-15, abs=0), (variant, n)

    def test_one_table_per_point(self):
        p = QParams(q=0.6, xi=0.35)  # a point no other test uses
        before = _squared_table.cache_info().misses
        for variant in GAP_VARIANTS:
            for n in range(11):
                gap_probability(GapQuery(variant, n, p), "enumeration")
        assert _squared_table.cache_info().misses - before == 1
