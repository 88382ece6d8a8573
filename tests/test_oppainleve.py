import decimal
import hashlib
import math
from decimal import Decimal

import numpy as np
import pytest
from mpmath import mp

from qpart import oppainleve
from qpart.oppainleve import (
    dpii_limit_check,
    inversion_k,
    lax_checks,
    lax_matrices,
    op_sequence,
    painleve_trajectory,
    recurrence_residuals,
    rhp_jump_residual,
    rhp_sample,
    tail_comparator,
    tau_relation_check,
)
from qpart.qspecial import NonconvergenceError, QParams
from reference_fft import circle_fft

P = QParams(q=0.5, xi=0.3)
PINNED = [  # variant, q, xi, top, sha256 of repr((x, kappa_sq, log_z, monic))
    ("plain", 0.9, 0.7, 16, "c3a4114b78cc7e23433758bfeaa86923b127c78e10c18e350e5400d5da850147"),
    ("plain", 0.9, 0.7, 26, "c42ee518c582fd6e5138c4de0883108a1d0146675847b9715cc5004c2d5efae8"),
    ("check", 0.9, 0.7, 16, "633340068692ed976d75a6bf05d9b68c4b5b19132a371640159cf485fe3e907a"),
    ("check", 0.9, 0.7, 26, "1c13a8626c0586c4bbfcf96b5bfe9bf8048f6a3994352376c9ae8ec85b1c1dea"),
    ("plain", 0.95, 0.7, 16, "4633c2689b3a9eb3d124e4ecc007f7977394ad26f95fee2b2a73fca7123dd310"),
    ("plain", 0.95, 0.7, 26, "89f1b10dcbfd2f03689cb0d8a11f2c9a0fcf0a2f26028674a5f4c7e356147bdf"),
    ("check", 0.95, 0.7, 16, "fe8303244c4375df272ad8e4d34a2ba2e34802eeec533b7a7e2a0ebe39c3fcd4"),
    ("check", 0.95, 0.7, 26, "00eb524b5781ad88f423ef177ef0db5ba90ea9f7df694cad3d0a269bceb925c3"),
    ("plain", 0.97, 0.7, 16, "abb1ac4bab85c11f7fcebfc6f6534382473fb7563ea9d8460ace31d9c210405d"),
    ("plain", 0.97, 0.7, 26, "7022d5ff62536be1f7bdc6f951c4b459b45091335f79c1cba7a7a1a98926e26d"),
    ("check", 0.97, 0.7, 16, "d19241a4abc38aacf1d0cb080c9bdad9d579d3295ee1c24b5bc210ca71655931"),
    ("check", 0.97, 0.7, 26, "e597fab4fe557afcbea032ba4d5de4e79914f1ca6017588ddb9ff9f2565b482a"),
    ("plain", 0.5, 0.3, 16, "96ca954be31cc61928bf74ba7bd2b6b811b3d880c6850f693104605f2b23e1d5"),
    ("plain", 0.5, 0.3, 26, "fd9ee6d9f120c4e90d79d15bc040c3c115e6475156c859c543a83daddb971624"),
    ("check", 0.5, 0.3, 16, "c417150238b6d7b35114ad82b5f33b994544bb06c9ef51fdf10e5e22f522fb25"),
    ("check", 0.5, 0.3, 26, "92e99361c66820b883d5d0f4c35307f5fb076d075f8da3da9c9096dc3b34d589"),
    ("plain", 0.1, 0.05, 40, "afd93711de7ebab4e9fc726df7ea3291934e2ec90b5bc499170c3d0de2f1d903"),
]
PROBES = [0.4 + 0.3j, -0.7 + 0.1j, 1.3 - 0.5j, 0.2 - 0.9j, -1.1 - 0.4j]
NEAR_SCALING = [(variant, q, top) for variant in ("plain", "check")
                for q in (0.9, 0.95, 0.97) for top in (16, 26)]


def _count_runs(monkeypatch) -> list:
    """The digits of every engine run from here on."""
    runs, szego = [], oppainleve._szego
    monkeypatch.setattr(oppainleve, "_szego", lambda c, dps: runs.append(dps) or szego(c, dps))
    return runs


class TestOPSequence:
    def test_matches_double_precision_determinants(self):
        # the recursion's Z_n agree with mp.det of the Toeplitz matrices
        seq = op_sequence("plain", P, 6)
        want = _mp_det_reference("plain", P.q, P.xi, 6)["z"]
        for n in range(0, 7):
            assert math.exp(seq.log_z[n]) == pytest.approx(want[n], rel=1e-11)

    def test_kappa_ratios(self):
        seq = op_sequence("plain", P, 6)
        for n in range(0, 6):
            assert seq.kappa_sq[n] == pytest.approx(
                math.exp(seq.log_z[n] - seq.log_z[n + 1]), rel=1e-13
            )

    def test_x0_is_one(self):
        # pi_0 = 1 so the value at zero is 1
        for variant in ("plain", "check"):
            assert op_sequence(variant, P, 3).x[0] == pytest.approx(1.0)

    def test_verblunsky_bound(self):
        # 1 - x_n^2 = Z_{n+1} Z_{n-1} / Z_n^2 > 0 forces |x_n| < 1 for n >= 1
        for variant in ("plain", "check"):
            seq = op_sequence(variant, P, 10)
            for n in range(1, 11):
                assert abs(seq.x[n]) < 1.0

    def test_determinant_lemma(self):
        # Z_{n+1} Z_{n-1} / Z_n^2 = 1 - x_n^2
        seq = op_sequence("plain", P, 10)
        for n in range(1, 10):
            lhs = math.exp(seq.log_z[n + 1] + seq.log_z[n - 1] - 2 * seq.log_z[n])
            assert lhs == pytest.approx(1.0 - seq.x[n] ** 2, rel=1e-11)

    def test_guard(self):
        with pytest.raises(ValueError):
            op_sequence("plain", P, -1)
        with pytest.raises(ValueError):
            op_sequence("bogus", P, 5)

    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7), (0.999, 0.5)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_shorter_request_reads_the_longest_run(self, fresh_engine, variant, q, xi):
        # the run at top 61 serves n_max 15, unsliced, and its prefix is the
        # top-16 certification bit for bit: both round the same settled
        # values; only op_sequence writes the store, so the run stays there
        params = QParams(q=q, xi=xi)
        longest = op_sequence(variant, params, 60)
        assert op_sequence(variant, params, 15) is longest
        short, _ = oppainleve._certified(variant, params, 16)
        assert oppainleve._longest[(variant, params)][0] is longest
        assert repr((longest.x[:17], longest.kappa_sq[:17], longest.log_z[:18],
                     longest.monic[:17])) == repr((short.x, short.kappa_sq, short.log_z, short.monic))


def _series_moment(variant, q, xi, m):
    """Symbol moment c_m summed term by term at the working precision, q and
    xi mp numbers."""
    u = xi * mp.sqrt(q) if variant == "plain" else xi
    eps = mp.mpf(10) ** (-mp.dps - 10)
    total, k = mp.mpf(0), 0
    poch_k, poch_km = mp.mpf(1), mp.fprod(1 - q**j for j in range(1, m + 1))
    while True:
        term = u ** (2 * k + m) / (poch_k * poch_km)
        if variant == "check":
            term *= q ** (k * (k + m) + mp.mpf(m * m) / 2)
        total += term
        if term <= eps * total:  # <= also ends a sum whose terms are all 0
            return total
        k += 1
        poch_k *= 1 - q**k
        poch_km *= 1 - q ** (k + m)


def _mp_det_reference(variant, q, xi, n_top, dps=300):
    """Moments summed term by term and Toeplitz determinants by mp.det, at
    dps digits: x_n, kappa_n^2, Z_n, Z_n^(1) and the monic pi_n for n <= n_top.
    """
    with mp.workdps(dps):
        q, xi = mp.mpf(q), mp.mpf(xi)
        c = [_series_moment(variant, q, xi, m) for m in range(n_top + 2)]

        def toeplitz(n, shift):
            return mp.matrix([[c[abs(j - i - shift)] for j in range(n)]
                              for i in range(n)])

        z = [mp.det(toeplitz(n, 0)) if n else mp.mpf(1) for n in range(n_top + 2)]
        z1 = [mp.det(toeplitz(n, 1)) if n else mp.mpf(1) for n in range(n_top + 1)]
        monic = [[mp.mpf(1)]] + [
            [*mp.lu_solve(toeplitz(n, 0), [-c[n - i] for i in range(n)]), mp.mpf(1)]
            for n in range(1, n_top + 1)
        ]
        return {
            "x": [float((-1) ** n * z1[n] / z[n]) for n in range(n_top + 1)],
            "kappa_sq": [float(z[n] / z[n + 1]) for n in range(n_top + 1)],
            "z": [float(v) for v in z],
            "z1": [float(v) for v in z1],
            "log_z": [float(mp.log(v)) for v in z],
            "monic": [[float(v) for v in row] for row in monic],
        }


class TestSzegoRecursion:
    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.97, 0.7), (0.99, 0.9), (0.5, 0.99)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_matches_mp_det_reference(self, variant, q, xi):
        # floats certified to the last bit: x_n, kappa_n^2, pi_n, log Z_n.
        # Z_n = exp(log Z_n) holds the rounding of the stored log Z_n,
        # |log Z_n| 2^-52 relative, so it is compared where that stays below
        # 1e-13; past |log Z_n| = 450, log Z_n itself is compared
        params = QParams(q=q, xi=xi)
        ref = _mp_det_reference(variant, q, xi, 8)
        seq = op_sequence(variant, params, 7)
        fit = [n for n in range(9) if abs(ref["log_z"][n]) < 450]
        z = [math.exp(seq.log_z[n]) for n in fit]
        z1 = [z[i] * ((-1) ** n * seq.x[n]) for i, n in enumerate(fit)]
        assert z == pytest.approx([ref["z"][n] for n in fit], rel=1e-13, abs=0)
        assert z1 == pytest.approx([ref["z1"][n] for n in fit], rel=1e-13, abs=0)
        assert list(seq.x[:9]) == pytest.approx(ref["x"], rel=1e-15, abs=0)
        assert list(seq.kappa_sq[:9]) == pytest.approx(ref["kappa_sq"], rel=1e-15, abs=0)
        for n in range(9):
            np.testing.assert_allclose(seq.monic[n], ref["monic"][n], rtol=1e-15)
        assert list(seq.log_z[:10]) == pytest.approx(ref["log_z"], abs=1e-13)

    @pytest.mark.parametrize("q, xi", [(0.0, 0.3), (0.5, 0.0), (0.1, 0.05),
                                       (0.97, 0.7), (0.99, 0.9), (0.5, 0.99)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_moments_match_series_per_order(self, variant, q, xi):
        # two decimal series and the downward recurrence against one mpmath
        # series per order
        with mp.workdps(60), decimal.localcontext(decimal.Context(prec=60)):
            want = [_series_moment(variant, mp.mpf(q), mp.mpf(xi), m) for m in range(41)]
            for top in (0, 1, 26, 40):
                got = oppainleve._moments(variant, top, Decimal(q), Decimal(xi))
                assert len(got) == top + 1
                assert all(abs(mp.mpf(str(g)) - w) <= mp.mpf("1e-55") * w
                           for g, w in zip(got, want))

    def test_nonpositive_norm_counts_as_disagreement(self, fresh_engine, monkeypatch):
        # at 33 digits some E_n of this point rounds to zero or below, which
        # has no logarithm; such a run disagrees with every other, so the
        # precision is raised until two runs agree
        params = QParams(q=0.97, xi=0.7)
        with decimal.localcontext(oppainleve._context(33)):
            c = oppainleve._moments("plain", 26, Decimal(params.q), Decimal(params.xi))
        assert oppainleve._szego(c, 33) is None
        want, _ = oppainleve._certified("plain", params, 26)
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        got, _ = oppainleve._certified("plain", params, 26)
        assert (got.x, got.kappa_sq, got.log_z, got.monic) == (
            want.x, want.kappa_sq, want.log_z, want.monic)

    @pytest.mark.parametrize("variant, q, xi, top, digest", PINNED)
    def test_certified_floats_are_pinned(self, variant, q, xi, top, digest):
        # sha256 of the floats each certification returns, recorded from the
        # mpmath engine that preceded the decimal one: a change of arithmetic
        # or precision schedule keeps the near-scaling certifications and the
        # desk point bit-identical
        seq, _ = oppainleve._certified(variant, QParams(q=q, xi=xi), top)
        got = repr((seq.x, seq.kappa_sq, seq.log_z, seq.monic)).encode()
        assert hashlib.sha256(got).hexdigest() == digest

    def test_near_scaling_norms_positive_and_tau_relation(self):
        params = QParams(q=0.97, xi=0.7)
        for variant in ("plain", "check"):
            assert all(k > 0.0 for k in op_sequence(variant, params, 25).kappa_sq)
            for row in tau_relation_check(params, range(1, 25), variant=variant):
                assert row["residual"] < 1e-9

    def test_raises_when_precision_never_settles(self, fresh_engine, monkeypatch):
        # this point loses about 60 digits, so runs at 20, 30 and 45 digits
        # disagree, and the next run would pass the limit
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        monkeypatch.setattr(oppainleve, "_MAX_DPS", 45)
        with pytest.raises(NonconvergenceError, match="by 45 digits; the next pair needs "
                                                      "67 digits, past the limit of 45"):
            op_sequence("plain", QParams(q=0.41, xi=0.23), 4)

    def test_stored_digits_are_refused_before_any_run(self, fresh_engine, monkeypatch):
        # two runs at top 3001 would hold 3.9e10 digits, about 22 GB; the
        # slowest accepted pairs hold 1.0e8 (top 100 at 9,999 digits) and
        # 7.7e7 ((0.99, 0.7), top 330, certified at 703 digits). At top 700
        # the start of 830 digits, 1.6 log10 c_0 past 25, is refused too
        monkeypatch.setattr(oppainleve, "_szego", None)
        with pytest.raises(NonconvergenceError, match=r"top 3001\) needs 3\.9e\+10 stored digits "
                                                      r"\(top\^2 x 4326\), past the limit of 5e\+08"):
            op_sequence("plain", QParams(q=0.999, xi=0.5), 3000)
        with pytest.raises(NonconvergenceError, match=r"top 700\) needs 6\.1e\+08 stored digits "
                                                      r"\(top\^2 x 1245\)"):
            op_sequence("plain", QParams(q=0.999, xi=0.5), 699)
        assert oppainleve._refused(100, 9999) == oppainleve._refused(330, 703) == ""

    def test_stored_digits_bound_the_raised_precision(self, fresh_engine, monkeypatch):
        # (0.97, 0.7), plain, top 61 starts at 63 digits and settles only at
        # 141, after runs at 63 and 94; a limit of 61^2 x 94 digits stops it
        # before that pair
        monkeypatch.setattr(oppainleve, "_MAX_STORED", 61 * 61 * 94)
        with pytest.raises(NonconvergenceError, match=r"by 94 digits; the next pair needs 5\.2e\+05 "
                                                      r"stored digits \(top\^2 x 141\)"):
            oppainleve._certified("plain", QParams(q=0.97, xi=0.7), 61)

    @pytest.mark.parametrize("variant, q, top", NEAR_SCALING)
    def test_first_pair_settles_near_scaling(self, fresh_engine, monkeypatch, variant, q, top):
        # each of the benchmark's twelve certifications at xi = 0.7 settles
        # on its first pair of runs
        runs = _count_runs(monkeypatch)
        oppainleve._certified(variant, QParams(q=q, xi=0.7), top)
        assert runs == [runs[0], runs[0] * 3 // 2]

    @pytest.mark.parametrize("variant, q", sorted({(v, q) for v, q, _ in NEAR_SCALING}))
    def test_second_top_starts_from_the_settled_run(self, fresh_engine, monkeypatch, variant, q):
        # top 16, then top 26 at the same point: each settles on its first pair
        runs = _count_runs(monkeypatch)
        for n_max in (10, 25):
            op_sequence(variant, QParams(q=q, xi=0.7), n_max)
        assert len(runs) == 4

    def test_start_scales_the_settled_digits(self, fresh_engine):
        # (0.97, 0.7), plain, top 61 settles on its second pair, at 94 digits,
        # 1.5 times its estimate; a longer request starts at 1.5 times its own
        params = QParams(q=0.97, xi=0.7)
        op_sequence("plain", params, 60)
        run, dps = oppainleve._longest[("plain", params)]
        assert (len(run.x) - 1, dps) == (61, 94)
        assert oppainleve._estimate("plain", params, 61) == 63
        assert oppainleve._dps_for("plain", params, 91) == math.ceil(
            94 * oppainleve._estimate("plain", params, 91) / 63)

    def test_store_keeps_the_newest_points(self, fresh_engine):
        # 65 points: the first one's run is dropped, and asking for it again
        # certifies afresh, from the estimate, the floats of its first run
        assert oppainleve._LONGEST_POINTS == 64
        points = [QParams(q=0.1 + 0.01 * k, xi=0.3) for k in range(65)]
        first = op_sequence("plain", points[0], 3)
        for params in points[1:]:
            op_sequence("plain", params, 3)
        assert len(oppainleve._longest) == 64
        assert ("plain", points[0]) not in oppainleve._longest
        oppainleve.op_sequence.cache_clear()
        again = op_sequence("plain", points[0], 3)
        assert again is not first
        assert repr((again.x, again.kappa_sq, again.log_z, again.monic)) == repr(
            (first.x, first.kappa_sq, first.log_z, first.monic))

    def test_long_run_past_the_painleve_guard(self):
        # the engine has no index guard: x_40 at (0.97, 0.7) against mp.det
        params = QParams(q=0.97, xi=0.7)
        with mp.workdps(300):
            q, xi = mp.mpf(params.q), mp.mpf(params.xi)
            c = [_series_moment("plain", q, xi, m) for m in range(42)]
            z, z1 = (mp.det(mp.matrix([[c[abs(j - i - shift)] for j in range(40)]
                                       for i in range(40)])) for shift in (0, 1))
            want = float(z1 / z)
        assert op_sequence("plain", params, 39).x[40] == pytest.approx(want, rel=1e-15, abs=0)


class TestMonicPolynomials:
    def test_degree_and_monic(self):
        for n in range(0, 6):
            coeffs = op_sequence("plain", P, n).monic[n]
            assert len(coeffs) == n + 1
            assert coeffs[-1] == 1.0

    def test_value_at_zero_matches_sequence(self):
        seq = op_sequence("plain", P, 8)
        for n in range(0, 8):
            coeffs = op_sequence("plain", P, n).monic[n]
            assert coeffs[0] == pytest.approx(seq.x[n], rel=1e-9, abs=1e-12)

    def test_orthogonality_via_moments(self):
        # <pi_n, z^k> = sum_j a_j c_{j-k} must vanish for k < n
        table = circle_fft("I", P, 512)  # entry n holds order n, also for n < 0
        for n in range(1, 6):
            coeffs = op_sequence("plain", P, n).monic[n]
            for k in range(n):
                val = sum(coeffs[j] * table[j - k] for j in range(n + 1))
                assert abs(val) < 1e-12

    def test_norm_is_kappa_inverse_squared(self):
        # <pi_n, z^n> = Z_{n+1} / Z_n = kappa_n^{-2}
        seq = op_sequence("plain", P, 6)
        table = circle_fft("I", P, 512)
        for n in range(0, 6):
            coeffs = op_sequence("plain", P, n).monic[n]
            val = sum(coeffs[j] * table[j - n] for j in range(n + 1))
            assert val == pytest.approx(1.0 / seq.kappa_sq[n], rel=1e-10)


# (0.97, 0.7) at n_max 90 reaches past its edge index, about 79
RESIDUAL_CASES = [(P, 13), (QParams(q=0.5, xi=0.2), 13), (QParams(q=0.9, xi=0.5), 13),
                  (QParams(q=0.97, xi=0.7), 13), (QParams(q=0.97, xi=0.7), 90)]
RESIDUAL_IDS = [f"params{i}" for i in range(len(RESIDUAL_CASES))]


class TestPainleveTrajectories:
    def test_x0_seed(self):
        state = painleve_trajectory("x", "determinant", P, 5)
        assert state.values[0] == pytest.approx(math.sqrt(P.xi), rel=1e-13)

    def test_y_seed(self):
        state = painleve_trajectory("y", "determinant", P, 5)
        assert state.sq[0] == pytest.approx(-P.xi, rel=1e-13)

    @staticmethod
    def _assert_recurrence_residual(variant, params, n_max):
        # the q-P_V relation at n = 1 .. n_max - 1
        residuals = recurrence_residuals(painleve_trajectory(variant, "determinant", params, n_max))
        assert len(residuals) == n_max - 1
        assert max(residuals) <= 1e-7

    @pytest.mark.parametrize("params, n_max", RESIDUAL_CASES, ids=RESIDUAL_IDS)
    def test_x_recurrence_residual(self, params, n_max):
        # the x branch in v_n = xs_n, e = +1
        self._assert_recurrence_residual("x", params, n_max)

    @pytest.mark.parametrize("params, n_max", RESIDUAL_CASES, ids=RESIDUAL_IDS)
    def test_y_recurrence_residual(self, params, n_max):
        # the y branch in v_n = -i ys_n, e = -1
        self._assert_recurrence_residual("y", params, n_max)

    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.7, 0.5), (0.9, 0.5), (0.97, 0.7)])
    def test_determinant_trajectory_is_rounded_once(self, q, xi):
        # the products of the certified x_n, y_n, evaluated at 50 digits:
        # xs_n = xi^{1/2} q^{n/2} x_n, ys_n^2 = -xi q^{-n} y_n^2 and
        # ys_n ys_{n+1} = -xi q^{-n-1/2} y_n y_{n+1}
        params = QParams(q=q, xi=xi)
        x = painleve_trajectory("x", "determinant", params, 25)
        y = painleve_trajectory("y", "determinant", params, 25)
        assert len(x.values) == len(y.sq) == len(y.cross) == 26
        xs, ys = op_sequence("plain", params, 25).x, op_sequence("check", params, 25).x
        with mp.workdps(50):
            mq, mxi = mp.mpf(q), mp.mpf(xi)
            for n in range(26):
                want_x = mp.sqrt(mxi) * mq ** (mp.mpf(n) / 2) * xs[n]
                want_sq = -mxi * mq ** -n * mp.mpf(ys[n]) ** 2
                want_cross = -mxi * mq ** (-n - mp.mpf(1) / 2) * ys[n] * ys[n + 1]
                assert x.values[n] == pytest.approx(float(want_x), rel=1e-15, abs=0)
                assert y.sq[n] == pytest.approx(float(want_sq), rel=1e-15, abs=0)
                assert y.cross[n] == pytest.approx(float(want_cross), rel=1e-15, abs=0)

    def test_x_tail_comparator(self):
        state = painleve_trajectory("x", "determinant", P, 12)
        for n in range(4, 13):
            comp = tail_comparator("x", P, n)
            assert state.values[n] / comp == pytest.approx(1.0, rel=1e-8)

    def test_y_tail_comparator(self):
        state = painleve_trajectory("y", "determinant", P, 12)
        for n in range(6, 13):
            comp = tail_comparator("y", P, n)
            assert state.sq[n] / comp == pytest.approx(1.0, rel=1e-6)

    def test_dpii_residual_decreasing(self):
        rows = dpii_limit_check(1.0, [0.9, 0.99], [3])
        assert rows[1]["residual_x"] < rows[0]["residual_x"]
        assert rows[1]["residual_y"] < rows[0]["residual_y"]

    def test_dpii_rejects_n_below_one(self):
        # x[n - 1] at n = 0 read x[-1], and the row reported residual 0.0
        with pytest.raises(ValueError):
            dpii_limit_check(1.0, [0.9], [0, 1])

    def test_n_max_past_guard_raises(self, fresh_engine, monkeypatch):
        # the one index guard is the engine's digit limit, before any run
        monkeypatch.setattr(oppainleve, "_szego", None)
        with pytest.raises(NonconvergenceError, match="needs 36655 digits, past the limit"):
            painleve_trajectory("x", "determinant", P, 400)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            painleve_trajectory("z", "determinant", P, 5)
        with pytest.raises(ValueError):
            painleve_trajectory("x", "oracle", P, 5)
        with pytest.raises(ValueError):  # the certified engine is the one route
            painleve_trajectory("x", "recurrence", P, 5)


class TestTauRelation:
    def test_residuals_tiny(self):
        for row in tau_relation_check(P, range(2, 13)):
            assert row["residual"] < 1e-9

    def test_check_variant(self):
        for row in tau_relation_check(P, range(2, 10), variant="check"):
            assert row["residual"] < 1e-9

    def test_holds_where_kappa_underflows(self):
        # kappa_n^2 is 0.0 here, and math.log of it raised; log Z_n stays finite
        p = QParams(q=0.9999, xi=0.5)
        assert op_sequence("plain", p, 3).kappa_sq[1] == 0.0
        for row in tau_relation_check(p, range(2, 13)):
            assert row["residual"] < 1e-9

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            tau_relation_check(P, range(0, 3))


class TestLax:
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_compatibility_and_inversion(self, variant):
        seq = op_sequence(variant, P, 11)
        for n in range(1, 11):
            res = lax_checks(n, P, seq, PROBES)
            assert max(res["compatibility"]) < 1e-8
            assert max(res["inversion"]) < 1e-8
            assert res["det_k"] == pytest.approx(-1.0, abs=1e-12)

    def test_inversion_matrix_is_involution(self):
        k = inversion_k(0.4)
        assert np.allclose(k @ k, np.eye(2), atol=1e-14)

    def test_t_pole_locations(self):
        seq_p = op_sequence("plain", P, 4)
        seq_c = op_sequence("check", P, 4)
        m_p = lax_matrices(2, P, seq_p)
        m_c = lax_matrices(2, P, seq_c)
        assert m_p.z_pole == pytest.approx(P.xi / math.sqrt(P.q), rel=1e-14)
        assert m_c.z_pole == pytest.approx(-P.xi / math.sqrt(P.q), rel=1e-14)

    def test_u_shifts_rhp_solution(self):
        # Psi_{n+1}(z) = U_n(z) Psi_n(z) with
        # Psi_n = diag(1, kappa_n^{-2}) Y_n diag(w, z^n); checked at a
        # probe point via quadrature samples
        n = 3
        z = 0.6 + 0.4j
        seq = op_sequence("plain", P, n + 2)
        m = lax_matrices(n, P, seq)
        from qpart.qspecial import circle_weight

        w = complex(circle_weight("I", P, np.array([z]))[0])

        def psi(k):
            y = rhp_sample(k, z, P).y
            return np.diag([1.0, 1.0 / seq.kappa_sq[k]]) @ y @ np.diag(
                [w, z**k]
            )

        lhs = psi(n + 1)
        rhs = m.u(z) @ psi(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_probe_near_pole_rejected(self):
        seq = op_sequence("plain", P, 4)
        with pytest.raises(ValueError):
            lax_checks(2, P, seq, [seq and P.xi / math.sqrt(P.q) + 0j])


class TestRHP:
    def test_det_one(self):
        for n in (1, 3, 5, 8):
            s = rhp_sample(n, 2.0 + 0.0j, P)
            assert abs(s.det_y - 1.0) < 1e-8

    def test_value_at_zero(self):
        for n in (1, 4, 7):
            seq = op_sequence("plain", P, n + 1)
            s = rhp_sample(n, 0.0 + 0.0j, P)
            want = np.array([
                [seq.x[n], 1.0 / seq.kappa_sq[n]],
                [-seq.kappa_sq[n - 1], seq.x[n]],
            ])
            assert np.max(np.abs(s.y - want)) < 1e-8

    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_jump_condition(self, variant):
        for angle in (0.7, 2.1):
            assert rhp_jump_residual(4, angle, P, variant) < 1e-6

    def test_first_column_is_polynomial(self):
        n = 3
        z = 1.7 - 0.2j
        coeffs = op_sequence("plain", P, n).monic[n]
        s = rhp_sample(n, z, P)
        assert s.y[0, 0] == pytest.approx(
            complex(np.polyval(coeffs[::-1], z)), rel=1e-12
        )
