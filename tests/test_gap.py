import math

import pytest

from qpart.gap import (
    GapQuery,
    enumeration_tail_bound,
    gap_probability,
    monotonicity_scan,
)
from qpart.kernels import _j_gen
from qpart.measures import QPPSquared, measure
from qpart.oppainleve import szego_recursion
from qpart.partitions import enumerate_partitions
from qpart.qspecial import QParams, circle_fft, macmahon

P = QParams(q=0.5, xi=0.3)


def _z(variant, n):
    """The Toeplitz determinant Z_n of the variant's symbol at P."""
    return math.exp(szego_recursion(variant, P, n).log_z[n])


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
        m = macmahon(P)
        assert _z("plain", 30) / m == pytest.approx(1.0, abs=1e-10)
        assert _z("check", 30) / m == pytest.approx(1.0, abs=1e-10)


class TestGapProbability:
    def test_n0_length_is_empty_partition_mass(self):
        # only the empty partition has length 0
        query = GapQuery(variant="length", N=0, params=P)
        want = measure(QPPSquared(P.xi, P.q), enumerate_partitions(0).__next__())
        assert gap_probability(query, "toeplitz") == pytest.approx(
            want, rel=1e-12
        )

    def test_n0_both_variants_agree(self):
        a = gap_probability(GapQuery(variant="length", N=0, params=P))
        b = gap_probability(GapQuery(variant="first-part", N=0, params=P))
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
            gap_probability(GapQuery(variant="length", N=n, params=P))
            for n in range(1, 4)
        ]
        vals_f = [
            gap_probability(GapQuery(variant="first-part", N=n, params=P))
            for n in range(1, 4)
        ]
        assert vals_l != pytest.approx(vals_f, rel=1e-6)

    def test_probabilities_in_unit_interval(self):
        for variant in ("length", "first-part"):
            for n in range(0, 9):
                v = gap_probability(GapQuery(variant=variant, N=n, params=P))
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_monotone_and_saturating(self):
        for variant in ("length", "first-part"):
            vals = monotonicity_scan(variant, P, 12)
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
            assert vals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            gap_probability(GapQuery(variant="length", N=1, params=P), "bogus")

    def test_query_validation(self):
        with pytest.raises(ValueError):
            GapQuery(variant="width", N=1, params=P)
        with pytest.raises(ValueError):
            GapQuery(variant="length", N=-1, params=P)


class TestEnumerationTailBound:
    def test_zero_at_xi_zero(self):
        assert enumeration_tail_bound(QParams(q=0.5, xi=0.0), 10) == 0.0

    def test_bounds_actual_tail(self):
        bound = enumeration_tail_bound(P, 20)
        kind = QPPSquared(P.xi, P.q)
        tail = sum(
            measure(kind, lam)
            for lam in enumerate_partitions(26)
            if lam.size > 20
        )
        assert 0.0 < tail < bound

    def test_infinite_when_ratio_diverges(self):
        assert enumeration_tail_bound(QParams(q=0.7, xi=0.9), 10) == math.inf
