import decimal
import hashlib
import math
import re
from decimal import Decimal
from pathlib import Path

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
    recurrence_rhs,
    rhp_jump_residual,
    rhp_sample,
    tail_comparator,
    tau_relation_check,
)
from qpart.qspecial import NonconvergenceError, QParams
from reference_fft import circle_fft

P = QParams(q=0.5, xi=0.3)
README = Path(__file__).resolve().parent.parent / "README.md"
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

    def test_nonpositive_norm_counts_as_disagreement(self, monkeypatch):
        # at 33 digits some E_n of this point rounds to zero or below, which
        # has no logarithm; such a run disagrees with every other, so the
        # precision is raised until two runs agree
        params = QParams(q=0.97, xi=0.7)
        assert oppainleve._szego("plain", params, 26, 33) is None
        want = oppainleve._certified("plain", params, 26)
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        got = oppainleve._certified.__wrapped__("plain", params, 26)
        assert (got.x, got.kappa_sq, got.log_z, got.monic) == (
            want.x, want.kappa_sq, want.log_z, want.monic)

    @pytest.mark.parametrize("variant, q, xi, top, digest", PINNED)
    def test_certified_floats_are_pinned(self, variant, q, xi, top, digest):
        # sha256 of the floats each certification returns, recorded from the
        # mpmath engine that preceded the decimal one: a change of arithmetic
        # or precision schedule keeps the near-scaling certifications and the
        # desk point bit-identical
        seq = oppainleve._certified(variant, QParams(q=q, xi=xi), top)
        got = repr((seq.x, seq.kappa_sq, seq.log_z, seq.monic)).encode()
        assert hashlib.sha256(got).hexdigest() == digest

    def test_near_scaling_norms_positive_and_tau_relation(self):
        params = QParams(q=0.97, xi=0.7)
        for variant in ("plain", "check"):
            assert all(k > 0.0 for k in op_sequence(variant, params, 25).kappa_sq)
            for row in tau_relation_check(params, range(1, 25), variant=variant):
                assert row["residual"] < 1e-9

    def test_raises_when_precision_never_settles(self, monkeypatch):
        # this point loses about 60 digits, so runs at 20, 30 and 45 digits
        # disagree, and the next run would pass the limit
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        monkeypatch.setattr(oppainleve, "_MAX_DPS", 45)
        with pytest.raises(NonconvergenceError, match="by 45 digits; the next pair needs "
                                                      "67 digits, past the limit of 45"):
            op_sequence("plain", QParams(q=0.41, xi=0.23), 4)

    def test_stored_digits_are_refused_before_any_run(self, monkeypatch):
        # two runs at top 3001 would hold 3.9e10 digits, about 22 GB; the
        # slowest accepted pairs hold 1.0e8 (top 100 at 9,999 digits) and
        # 7.7e7 ((0.99, 0.7), top 330, certified at 703 digits)
        monkeypatch.setattr(oppainleve, "_szego", None)
        with pytest.raises(NonconvergenceError, match=r"top 3001\) needs 3\.9e\+10 stored digits "
                                                      r"\(top\^2 x 4326\), past the limit of 5e\+08"):
            op_sequence("plain", QParams(q=0.999, xi=0.5), 3000)
        assert oppainleve._refused(100, 9999) == oppainleve._refused(330, 703) == ""

    def test_stored_digits_bound_the_raised_precision(self, monkeypatch):
        # (0.97, 0.7), plain, top 26 settles only at 109 digits, after runs at
        # 33, 49 and 73; a limit of 26^2 x 73 digits stops it before that pair
        monkeypatch.setattr(oppainleve, "_MAX_STORED", 26 * 26 * 73)
        with pytest.raises(NonconvergenceError, match=r"by 73 digits; the next pair needs 7\.4e\+04 "
                                                      r"stored digits \(top\^2 x 109\)"):
            oppainleve._certified.__wrapped__("plain", QParams(q=0.97, xi=0.7), 26)

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


RESIDUAL_POINTS = [P, QParams(q=0.5, xi=0.2), QParams(q=0.9, xi=0.5), QParams(q=0.97, xi=0.7)]


class TestPainleveTrajectories:
    def test_x0_seed(self):
        state = painleve_trajectory("x", "determinant", P, 5)
        assert state.values[0] == pytest.approx(math.sqrt(P.xi), rel=1e-13)

    def test_y_seed(self):
        state = painleve_trajectory("y", "determinant", P, 5)
        assert state.sq[0] == pytest.approx(-P.xi, rel=1e-13)

    @staticmethod
    def _assert_recurrence_residual(variant, e, params):
        # (v_n v_{n+1} - e)(v_{n-1} v_n - e) = recurrence_rhs(v_n)
        v = painleve_trajectory(variant, "determinant", params, 13).values
        for n in range(1, 13):
            lhs = (v[n] * v[n + 1] - e) * (v[n - 1] * v[n] - e)
            rhs = recurrence_rhs(variant, v[n], n, params)
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-300)

    @pytest.mark.parametrize("params", RESIDUAL_POINTS)
    def test_x_recurrence_residual(self, params):
        # the x branch in v_n = xs_n, e = +1
        self._assert_recurrence_residual("x", 1.0, params)

    @pytest.mark.parametrize("params", RESIDUAL_POINTS)
    def test_y_recurrence_residual(self, params):
        # the y branch in v_n = -i ys_n, e = -1
        self._assert_recurrence_residual("y", -1.0, params)

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

    def test_forward_recurrence_matches_determinant_x_small_n(self):
        # each forward step amplifies rounding by about 1/x_n, so only the
        # first few indices are comparable
        det = painleve_trajectory("x", "determinant", P, 6)
        rec = painleve_trajectory("x", "recurrence", P, 6)
        for n in range(0, 5):
            assert rec.values[n] == pytest.approx(
                det.values[n], rel=1e-6, abs=1e-12
            )

    def test_forward_recurrence_matches_determinant_y(self):
        # both columns hold 1e-10 relative up to n = 5; past it the forward
        # recurrence loses digits, and the README's errors at n = 9 and
        # n = 12 stay within a factor of 2 of what it loses
        det = painleve_trajectory("y", "determinant", P, 12)
        rec = painleve_trajectory("y", "recurrence", P, 12)
        for n in range(0, 6):
            assert rec.sq[n] == pytest.approx(det.sq[n], rel=1e-10, abs=0)
            assert rec.cross[n] == pytest.approx(det.cross[n], rel=1e-10, abs=0)
        quoted = re.search(r"forward ys_n\^2 is off by (\S+) relative at n = 9, (\S+) at\s+n = 12",
                           README.read_text())
        for n, err in zip((9, 12), map(float, quoted.groups())):
            assert err / 2 <= abs(rec.sq[n] / det.sq[n] - 1) <= 2 * err

    @pytest.mark.parametrize("variant", ["x", "y"])
    def test_recurrence_source_at_n_max_zero_and_one(self, variant):
        # the seeds v_0, v_1 are all the values up to n_max
        for n_max in (0, 1):
            det = painleve_trajectory(variant, "determinant", P, n_max)
            rec = painleve_trajectory(variant, "recurrence", P, n_max)
            assert rec.values == det.values
            assert len(rec.values) == len(rec.sq) == len(rec.cross) == n_max + 1

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

    def test_n_max_past_guard_raises(self):
        with pytest.raises(ValueError):
            painleve_trajectory("x", "determinant", P, 30)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            painleve_trajectory("z", "determinant", P, 5)
        with pytest.raises(ValueError):
            painleve_trajectory("x", "oracle", P, 5)


class TestTauRelation:
    def test_residuals_tiny(self):
        for row in tau_relation_check(P, range(2, 13)):
            assert row["residual"] < 1e-9

    def test_check_variant(self):
        for row in tau_relation_check(P, range(2, 10), variant="check"):
            assert row["residual"] < 1e-9


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
            y = rhp_sample(k, z, P, "plain").y
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
