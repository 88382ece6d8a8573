import decimal
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from qpart import checks, kernels
from qpart.kernels import (
    _bessel,
    _j_gen,
    airy,
    airy_kernel,
    correlation,
    discrete_bessel_kernel,
    kernel_matrix,
    limit_shape,
    q_bessel_kernel,
    schur_kernel,
    scaling_probe,
    sine_kernel,
    twice,
)
from qpart.measures import MiwaTimes
from qpart.qspecial import NonconvergenceError, QParams
from reference_fft import circle_fft

P = QParams(q=0.5, xi=0.3)
HALF = [Fraction(2 * k + 1, 2) for k in range(-8, 8)]


class TestHalfIntegerValidation:
    def test_accepts_fraction(self):
        assert twice(Fraction(3, 2)) == 3

    def test_accepts_float(self):
        assert twice(-0.5) == -1

    def test_rejects_integer(self):
        with pytest.raises(ValueError):
            twice(2)

    @pytest.mark.parametrize("r, want", [(np.float64(2.5), 5), (0.5000000001, 1)])
    def test_accepts_near_half_integer(self, r, want):
        assert twice(r) == want

    @pytest.mark.parametrize("r", [Fraction(1, 4), 3, 0.55, 0.45, -0.49,
                                   pytest.param("0.55", id="str-0.55")])
    def test_rejects_non_half_integer(self, r):
        with pytest.raises(ValueError):
            twice(r)


class TestQBesselKernel:
    def test_symmetric(self):
        for r in HALF[::3]:
            for s in HALF[::3]:
                assert q_bessel_kernel(P, r, s) == pytest.approx(
                    q_bessel_kernel(P, s, r), abs=1e-13
                )

    def test_diagonal_is_occupation_probability(self):
        for r in HALF:
            d = q_bessel_kernel(P, r, r)
            assert -1e-13 <= d <= 1.0 + 1e-13

    def test_diagonal_sums_to_density_one_per_site_deep(self):
        deep = Fraction(-41, 2)
        assert q_bessel_kernel(P, deep, deep) == pytest.approx(1.0, abs=1e-12)

    def test_far_right_vanishes(self):
        far = Fraction(41, 2)
        assert q_bessel_kernel(P, far, far) == pytest.approx(0.0, abs=1e-12)

    def test_xi_zero_is_vacuum_projector(self):
        p0 = QParams(q=0.5, xi=0.0)
        assert q_bessel_kernel(p0, Fraction(-1, 2), Fraction(-1, 2)) == 1.0
        assert q_bessel_kernel(p0, Fraction(1, 2), Fraction(1, 2)) == 0.0
        assert q_bessel_kernel(p0, Fraction(-1, 2), Fraction(1, 2)) == 0.0

    def test_matches_schur_series_form(self):
        for p in (P, QParams(q=0.9, xi=0.5)):
            t = MiwaTimes.principal(p.xi, p.q)
            for r in HALF:
                for s in HALF:
                    assert q_bessel_kernel(p, r, s) == pytest.approx(
                        schur_kernel(t, t, r, s), abs=1e-10
                    )

    @pytest.mark.parametrize("q, xi", [(0.99, 0.9), (0.95, 0.9)])
    def test_diagonal_matches_wide_table_near_q_one(self, q, xi):
        # past the edge c_n decays only like (xi q^{1/2})^n, so a table cut a
        # fixed number of orders past the edge drops visible mass here
        p = QParams(q=q, xi=xi)
        wide = circle_fft("J_gen", p, 16384)
        want = sum(wide[n] ** 2 for n in range(1, 2048))
        assert q_bessel_kernel(p, 0.5, 0.5) == pytest.approx(want, abs=1e-13)

    def test_edge_block_matches_schur_series_near_q_one(self):
        # the Christoffel-Darboux quotient is off by 1.3e-14 on this block
        p = QParams(q=0.97, xi=0.7)
        t = MiwaTimes.principal(p.xi, p.q)
        sites = [Fraction(k, 2) for k in range(119, 199, 2)]
        k = kernel_matrix(p, sites, sites)
        dev = max(abs(k[i, j] - schur_kernel(t, t, r, s))
                  for i, r in enumerate(sites) for j, s in enumerate(sites))
        assert dev <= 2e-15

    def test_matrix_entries_match_single_entries(self):
        p = QParams(q=0.9, xi=0.5)
        k = kernel_matrix(p, HALF[::2], HALF[1::3])
        assert k.shape == (len(HALF[::2]), len(HALF[1::3]))
        for i, r in enumerate(HALF[::2]):
            for j, s in enumerate(HALF[1::3]):
                assert k[i, j] == q_bessel_kernel(p, r, s)

    @staticmethod
    def _blocks():
        # the near-scaling edge block at (0.97, 0.7), with sites past the
        # table's span on both sides, the (0.9, 0.5) block of HALF and the
        # Bessel block at eta = 3, each with the table it reads
        p = QParams(q=0.97, xi=0.7)
        span = _j_gen(p)[0]
        far = [Fraction(sign * (2 * k + 1), 2) for sign in (-1, 1)
               for k in (span - 1, span, span + 3, 3 * span)]
        sites = [Fraction(k, 2) for k in range(119, 199, 2)] + far
        eta, orders = 3.0, HALF + [Fraction(2 * k + 1, 2) for k in (-90, 70, 200)]
        half = QParams(q=0.9, xi=0.5)
        return [(_j_gen(p), kernel_matrix(p, sites, sites), sites),
                (_j_gen(half), kernel_matrix(half, HALF, HALF), HALF),
                (_bessel(eta), np.array([[discrete_bessel_kernel(eta, r, s) for s in orders]
                                         for r in orders]), orders)]

    def test_blocks_are_pinned(self):
        # sha256 of the blocks' bytes as the 2-D lag-row pass built them,
        # signed zeros included, where == would take -0.0 for 0.0
        pins = ["f572a3f80c4588f719f287f0b93a8396cc718880725ff8903c1d66d55b5b0612",
                "21f1d70a56e3b8fc479233c602bebfdc67f38eab2a301cdf955afb7b5a14485a",
                "fd6ced47c209b581890c443806930a23127e58514fd0610f7b917279d52f1e66"]
        assert [hashlib.sha256(block.tobytes()).hexdigest()
                for _, block, _ in self._blocks()] == pins

    def test_kept_sums_give_the_bits_of_fresh_sums(self):
        # rows asked last to first end each lag below its kept partial sums,
        # which are summed again; every entry equals the one summed with
        # nothing kept, bit for bit, as does the block asked first to last
        (table, block, sites), *_ = self._blocks()
        p = QParams(q=0.97, xi=0.7)
        kernels._KEPT.clear()
        backward = kernel_matrix(p, sites[::-1], sites)[::-1]
        fresh = []
        for r in sites:
            for s in sites:
                kernels._KEPT.clear()
                fresh.append(kernels._lag_sum(table, r, s))
        assert backward.tobytes() == np.array(fresh).reshape(block.shape).tobytes() == block.tobytes()

    def test_benchmark_edge_block_entry_by_entry(self):
        # the 40 x 40 block about alpha0 / eps at (0.97, 0.7), asked one
        # q_bessel_kernel entry at a time, row by row from nothing kept, is
        # kernel_matrix bit for bit
        p = QParams(q=0.97, xi=0.7)
        base = math.floor(-2.0 * math.log1p(-p.xi) / -math.log(p.q)) - 20
        sites = [Fraction(2 * (base + i) + 1, 2) for i in range(40)]
        kernels._KEPT.clear()
        entries = [[q_bessel_kernel(p, r, s) for s in sites] for r in sites]
        assert all(type(v) is float for row in entries for v in row)
        kernels._KEPT.clear()
        assert np.array(entries).tobytes() == kernel_matrix(p, sites, sites).tobytes()

    def test_kept_sums_stay_within_their_bytes(self, monkeypatch):
        # with room for two lags, the oldest are dropped as the block is
        # built, and its bits stay those of the pinned block
        (_, block, sites), *_ = self._blocks()
        monkeypatch.setattr(kernels, "_KEPT_BYTES", 1 << 13)
        kernels._KEPT.clear()
        again = kernel_matrix(QParams(q=0.97, xi=0.7), sites, sites)
        assert kernels._KEPT.nbytes <= 1 << 13
        assert again.tobytes() == block.tobytes()

    def test_entries_are_the_exact_sums_of_their_terms(self):
        # math.fsum of c_n c_{n+d}, n > r, over the table; by Parseval the
        # terms' absolute sum is at most 1, and an entry that cancels below
        # the floor 0.1 keeps the digits of that scale only (3.5e-16 off at
        # (-511/2, -513/2), a sum of -3.2e-18)
        for (span, c), block, at in self._blocks():
            for i, r in enumerate(at):
                for j, s in enumerate(at):
                    a, d = (twice(r) + 1) // 2, (twice(s) - twice(r)) // 2
                    want = math.fsum(c[n + span + 1] * c[n + d + span + 1]
                                     for n in range(max(a, -span), span + 1)
                                     if abs(n + d) <= span)
                    assert abs(block[i, j] - want) <= 1e-14 * max(abs(want), 0.1)
        assert (np.signbit(block) & (block == 0)).any()  # far orders hold -0.0

    def test_trace_equals_mean_size_contribution(self):
        # sum over r > 0 of K(r, r) plus sum over r < 0 of (1 - K(r, r))
        # equals the expected partition size; compare with enumeration
        from qpart.measures import QPPSquared, measure
        from reference_partitions import enumerate_partitions

        mean_size = sum(
            lam.size * measure(QPPSquared(P.xi, P.q), lam)
            for lam in enumerate_partitions(25)
        )
        total = 0.0
        for k in range(0, 40):
            r = Fraction(2 * k + 1, 2)
            total += float(r) * q_bessel_kernel(P, r, r)
            rm = Fraction(-2 * k - 1, 2)
            total += float(-rm) * (1.0 - q_bessel_kernel(P, rm, rm))
        assert total == pytest.approx(mean_size, abs=1e-7)


class TestCoefficientTables:
    # the recurrence tables against the series, entry for entry: the float of
    # c_n = q^{n/2} J^(3)_n(2 xi; q) at 40 digits, and J_n(2 eta)
    NINE = [(q, xi) for q in (0.5, 0.7, 0.9) for xi in (0.3, 0.5)] + [
        (q, 0.7) for q in (0.9, 0.95, 0.97)]

    @staticmethod
    def _series(p, orders, dps=40):
        with mp.workdps(dps):
            q, x = mp.mpf(p.q), 2 * mp.mpf(p.xi)
            return np.array([float(q ** (mp.mpf(n) / 2) * (
                checks._j3(n, x, q) if n >= 0 else checks._j3_reflected(-n, x, q)))
                for n in orders])

    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7)])
    def test_j_gen_entries_are_the_rounded_series(self, q, xi):
        span, c = _j_gen(QParams(q=q, xi=xi))
        want = self._series(QParams(q=q, xi=xi), range(-span, span + 1))
        got = c[1:-1]
        big = np.abs(want) > 1e-300
        assert big.sum() > span  # the comparison reaches deep into both tails
        assert (got[big] == want[big]).all()
        assert (np.abs(got[~big]) <= 1e-300).all()

    @pytest.mark.parametrize("q, xi, step", [(0.99, 0.9, 37), (0.5, 0.999, 1)])
    def test_j_gen_entries_relative_near_one(self, q, xi, step):
        # where the FFT table kept only absolute digits: xi^2 near 1 makes
        # the two decay rates past the band nearly equal
        p = QParams(q=q, xi=xi)
        span, c = _j_gen(p)
        orders = list(range(-span, span + 1, step)) + [span]
        want = self._series(p, orders)
        got = c[np.array(orders) + span + 1]
        big = np.abs(want) > 1e-300
        assert big.sum() >= 40
        assert got[big] == pytest.approx(want[big], rel=1e-15, abs=0)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_j_gen_entries_are_the_rounded_series_as_xi_approaches_one(self, q):
        # a run loses about log10(1/(1 - xi)) digits, 16 at the largest double
        # below 1; at 34 digits 15 of these 25 orders were off at q = 0.5 (by
        # up to 2.2e-16 relative) and 148 of 163 at q = 0.9 (by up to 1.5e-15)
        p = QParams(q=q, xi=1 - 1.1e-16)
        span, c = _j_gen(p)
        orders = range(-span, span + 1, 7)
        want = self._series(p, orders, dps=60)
        got = c[np.array(orders) + span + 1]
        big = np.abs(want) > 1e-300
        assert big.sum() >= 25
        assert (got[big] == want[big]).all()

    @staticmethod
    def _fft_span(p):
        # the grid-doubling FFT table's span: the first grid from 512 whose
        # orders past grid/4 carry a squared mass below 1e-24, over 4
        grid = 512
        while (circle_fft("J_gen", p, grid)[grid // 4 + 1 : 3 * grid // 4] ** 2).sum() >= 1e-24:
            grid *= 2
        return grid // 4

    @pytest.mark.parametrize("q, xi", NINE)
    def test_spans_match_the_fft_table(self, q, xi):
        p = QParams(q=q, xi=xi)
        assert _j_gen(p)[0] == self._fft_span(p)

    @pytest.mark.parametrize("table", [lambda: _j_gen(QParams(q=0.0, xi=0.5)),
                                       lambda: _j_gen(QParams(q=0.5, xi=0.0)),
                                       lambda: _bessel(0.0)])
    def test_unit_symbol_gives_delta(self, table):
        span, c = table()
        assert span == 128
        assert c[span + 1] == 1.0
        assert np.count_nonzero(c) == 1

    def test_caller_decimal_context_does_not_reach_the_run(self):
        p = QParams(q=0.97, xi=0.7)
        _j_gen.cache_clear()
        want = _j_gen(p)[1]
        for ctx in (decimal.Context(prec=5), decimal.Context(prec=60, rounding=decimal.ROUND_FLOOR)):
            _j_gen.cache_clear()
            with decimal.localcontext(ctx):
                assert _j_gen(p)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("eta", [0.3, 3.0, 40.0])
    def test_bessel_entries_are_the_rounded_series(self, eta):
        span, c = _bessel(eta)
        with mp.workdps(40):
            want = np.array([float(mp.besselj(n, 2 * mp.mpf(eta)))
                             for n in range(-span, span + 1)])
        big = np.abs(want) > 1e-300
        assert (c[1:-1][big] == want[big]).all()
        assert (np.abs(c[1:-1][~big]) <= 1e-300).all()


class TestSchurKernel:
    def test_delta_times_give_discrete_bessel(self):
        eta = 0.8
        td = MiwaTimes.delta(eta)
        for r in HALF[4:12]:
            for s in HALF[4:12]:
                assert schur_kernel(td, td, r, s) == pytest.approx(
                    discrete_bessel_kernel(eta, r, s), abs=1e-12
                )

    def test_refused_past_the_span_limit(self):
        # the FFT grid is four times the span, so the last grid tried is 2^18
        t = MiwaTimes.principal(0.5, 0.99999)
        with pytest.raises(NonconvergenceError, match="not negligible by order 65536$"):
            schur_kernel(t, t, 0.5, 0.5)


class TestDiscreteBessel:
    def test_symmetric(self):
        for r in HALF[::3]:
            for s in HALF[::3]:
                assert discrete_bessel_kernel(0.9, r, s) == pytest.approx(
                    discrete_bessel_kernel(0.9, s, r), abs=1e-13
                )

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 3.0, 10.0, 40.0])
    def test_matches_mpmath_closed_form(self, eta):
        # reference at 40 digits: the Christoffel-Darboux form off the
        # diagonal, the series of J_n(2 eta)^2 on it
        orders = range(-8, 8)  # r - 1/2 for the sites r = -15/2 ... 15/2
        with mp.workdps(40):
            x = 2 * mp.mpf(eta)

            @functools.cache
            def j(n):
                return mp.besselj(n, x)

            dev = 0.0
            for r in orders:
                for s in orders:
                    if r == s:
                        want = mp.nsum(lambda n: j(int(n)) ** 2, [r + 1, mp.inf])
                    else:
                        want = eta * (j(r) * j(s + 1) - j(r + 1) * j(s)) / (r - s)
                    got = discrete_bessel_kernel(eta, r + 0.5, s + 0.5)
                    dev = max(dev, abs(got - float(want)))
        assert dev <= 4.5e-16

    def test_q_to_one_limit_of_q_bessel(self):
        eta = 1.0
        r, s = Fraction(1, 2), Fraction(3, 2)
        target = discrete_bessel_kernel(eta, r, s)
        devs = []
        for q in (0.9, 0.97, 0.99):
            p = QParams(q=q, xi=(1.0 - q) * eta)
            devs.append(abs(q_bessel_kernel(p, r, s) - target))
        assert devs[0] > devs[1] > devs[2]


class TestCorrelation:
    def test_single_point_is_diagonal(self):
        pt = Fraction(1, 2)
        kern = lambda r, s: q_bessel_kernel(P, r, s)
        assert correlation(kern, [pt]) == pytest.approx(
            q_bessel_kernel(P, pt, pt), abs=1e-14
        )

    def test_two_point_determinant(self):
        r, s = Fraction(-1, 2), Fraction(3, 2)
        kern = lambda a, b: q_bessel_kernel(P, a, b)
        want = q_bessel_kernel(P, r, r) * q_bessel_kernel(P, s, s) - (
            q_bessel_kernel(P, r, s) ** 2
        )
        assert correlation(kern, [r, s]) == pytest.approx(want, abs=1e-13)

    def test_against_enumeration(self):
        # P[r and s occupied] from the kernel determinant versus the
        # direct sum over partitions
        from qpart.measures import QPPSquared, measure
        from reference_partitions import enumerate_partitions

        kind = QPPSquared(P.xi, P.q)
        pts = [Fraction(-1, 2), Fraction(3, 2)]
        direct = 0.0
        for lam in enumerate_partitions(22):
            entries = {
                Fraction(2 * (lam.part(i) - i) + 1, 2)
                for i in range(1, lam.length + 6)
            }
            if all(p in entries for p in pts):
                direct += measure(kind, lam)
        kern = lambda a, b: q_bessel_kernel(P, a, b)
        assert correlation(kern, pts) == pytest.approx(direct, abs=1e-6)


class TestLimitShape:
    def test_endpoints(self):
        shape = limit_shape(0.5)
        assert shape.a == pytest.approx(-2.0 * math.log(1.5), rel=1e-14)
        assert shape.b == pytest.approx(-2.0 * math.log(0.5), rel=1e-14)

    def test_density_boundary_values(self):
        shape = limit_shape(0.5)
        assert shape.rho(shape.a) == pytest.approx(1.0, abs=1e-9)
        assert shape.rho(shape.b) == pytest.approx(0.0, abs=1e-9)

    def test_density_outside_support(self):
        shape = limit_shape(0.5)
        assert shape.rho(shape.a - 0.5) == 1.0
        assert shape.rho(shape.b + 0.5) == 0.0

    def test_profile_slope_relation(self):
        # Omega' = 1 - 2 rho, checked by a central difference
        shape = limit_shape(0.4)
        x = 0.5 * (shape.a + shape.b)
        h = 1e-5
        slope = (shape.omega(x + h) - shape.omega(x - h)) / (2.0 * h)
        assert slope == pytest.approx(1.0 - 2.0 * shape.rho(x), abs=1e-8)

    def test_profile_is_absolute_value_far_out(self):
        shape = limit_shape(0.3)
        assert shape.omega(shape.b + 2.0) == pytest.approx(
            shape.b + 2.0, abs=1e-9
        )

    def test_edge_constants(self):
        # the edge alpha0 = -2 log(1 - xi) is the support's right end b
        assert "alpha0" not in kernels.LimitShape.__dataclass_fields__
        for xi in (0.1, 0.4, 0.7):
            shape = limit_shape(xi)
            assert shape.b == pytest.approx(
                -2.0 * math.log(1.0 - xi), rel=1e-14
            )
            assert shape.beta0 == pytest.approx(
                xi / (1.0 - xi) ** 2, rel=1e-14
            )

    def test_left_edge_limit(self):
        assert limit_shape(0.9999).a == pytest.approx(
            -2.0 * math.log(2.0), abs=1e-3
        )

    @pytest.mark.parametrize("xi", [0.3, 0.7, 0.9])
    def test_profile_matches_mpmath_quadrature(self, xi):
        shape = limit_shape(xi)
        with mp.workdps(30):
            m = mp.mpf(xi)
            a = -2 * mp.log1p(m)
            # clamped: at 30 digits the argument can round just below -1 at a
            rho = lambda u: mp.acos(max(-1, (m + (1 - mp.exp(-u)) / m) / 2)) / mp.pi
            for k in range(1, 20):
                x = shape.a + (shape.b - shape.a) * k / 20
                want = float(x - 2 * a - 2 * mp.quad(rho, [a, x]))
                assert shape.omega(x) == pytest.approx(want, rel=5e-15, abs=0)

    def test_asymmetry(self):
        shape = limit_shape(0.5)
        assert abs(shape.a) != pytest.approx(shape.b, rel=1e-3)


class TestAiry:
    @given(st.floats(-7.5, 7.5))
    @settings(max_examples=120, deadline=None)
    def test_against_mpmath(self, x):
        ai, aip = airy(x)
        assert ai == pytest.approx(float(mp.airyai(x)), abs=1e-9)
        assert aip == pytest.approx(float(mp.airyai(x, derivative=1)), abs=1e-9)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            airy(9.0)

    def test_kernel_diagonal_value(self):
        assert airy_kernel(0.0, 0.0) == pytest.approx(
            float(mp.airyai(0.0, derivative=1)) ** 2, rel=1e-12
        )

    def test_kernel_symmetric(self):
        assert airy_kernel(0.3, -0.4) == pytest.approx(
            airy_kernel(-0.4, 0.3), rel=1e-12
        )


class TestScalingProbes:
    def test_bulk_deviation_decreasing(self):
        shape = limit_shape(0.5)
        x = 0.5 * (shape.a + shape.b)
        rows = scaling_probe("bulk_sine", 0.5, [0.9, 0.97, 0.99], x=x, u=1, v=0)
        devs = [r["deviation"] for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_bulk_diagonal_is_lattice_density(self):
        # u = v = 0: the kernel's diagonal at the site floor(x/eps) + 1/2
        # against the limit-shape density rho(x)
        shape = limit_shape(0.5)
        xs = [shape.a / 2, 0.0, 0.3 * shape.b, 0.7 * shape.b]
        worst = []
        for q in (0.9, 0.97, 0.99):
            eps = -math.log(q)
            devs = []
            for x in xs:
                (row,) = scaling_probe("bulk_sine", 0.5, [q], x=x, u=0, v=0)
                r = Fraction(2 * math.floor(x / eps) + 1, 2)
                assert row["value"] == q_bessel_kernel(QParams(q=q, xi=0.5), r, r)
                assert row["target"] == shape.rho(x)
                devs.append(row["deviation"])
            worst.append(max(devs))
        # single points are not monotone in q; the worst over the grid is
        assert worst[0] > worst[1] > worst[2]

    def test_edge_deviation_decreasing(self):
        rows = scaling_probe("edge_airy", 0.5, [0.9, 0.97, 0.99], x=0.0, y=0.0)
        devs = [r["deviation"] for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_bulk_requires_x_in_support(self):
        with pytest.raises(ValueError):
            scaling_probe("bulk_sine", 0.5, [0.9], x=5.0)
        # the input is checked once, before the schedule, so an empty one too
        with pytest.raises(ValueError, match="bulk probe needs x in"):
            scaling_probe("bulk_sine", 0.7, [], x=99.0)
        with pytest.raises(ValueError, match="unknown probe kind 'bogus'"):
            scaling_probe("bogus", 0.7, [])

    def test_edge_requires_positive_xi(self):
        # beta0 = 0 at xi = 0 made the Airy scale 0 and the probe divide by it
        with pytest.raises(ValueError, match="edge probe needs xi > 0"):
            scaling_probe("edge_airy", 0.0, [0.9])
        with pytest.raises(ValueError, match="edge probe needs xi > 0"):
            scaling_probe("edge_airy", 0.0, [])


class TestSineKernel:
    def test_diagonal(self):
        assert sine_kernel(0.3, 0) == 0.3

    def test_off_diagonal(self):
        assert sine_kernel(0.5, 1) == pytest.approx(1.0 / math.pi, rel=1e-14)
