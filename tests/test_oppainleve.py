import math

import numpy as np
import pytest
from mpmath import mp

from qpart import oppainleve
from qpart.oppainleve import (
    dpii_limit_check,
    inner_product_series,
    inversion_k,
    lax_checks,
    lax_matrices,
    monic_coefficients,
    op_sequence,
    painleve_trajectory,
    rhp_jump_residual,
    rhp_sample,
    tau_relation_check,
    x_recurrence_rhs,
    y_recurrence_rhs,
)
from qpart.qspecial import NonconvergenceError, QParams, circle_fft, q_bessel

P = QParams(q=0.5, xi=0.3)
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
            op_sequence("plain", P, 26)
        with pytest.raises(ValueError):
            op_sequence("bogus", P, 5)


def _mp_det_reference(variant, q, xi, n_top, dps=300):
    """Moments summed term by term and Toeplitz determinants by mp.det, at
    dps digits: x_n, kappa_n^2, Z_n, Z_n^(1) and the monic pi_n for n <= n_top.
    """
    with mp.workdps(dps):
        q, xi = mp.mpf(q), mp.mpf(xi)
        u = xi * mp.sqrt(q) if variant == "plain" else xi
        eps = mp.mpf(10) ** (-dps - 10)

        def moment(m):
            total, k = mp.mpf(0), 0
            poch_k, poch_km = mp.mpf(1), mp.fprod(1 - q**j for j in range(1, m + 1))
            while True:
                term = u ** (2 * k + m) / (poch_k * poch_km)
                if variant == "check":
                    term *= q ** (k * (k + m) + mp.mpf(m * m) / 2)
                total += term
                if term < eps * total:
                    return total
                k += 1
                poch_k *= 1 - q**k
                poch_km *= 1 - q ** (k + m)

        c = [moment(m) for m in range(n_top + 2)]

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
    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.97, 0.7)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_matches_mp_det_reference(self, variant, q, xi):
        # floats certified to the last bit: x_n, kappa_n^2, pi_n; Z_n holds
        # the rounding of the stored log Z_n, |log Z_n| 2^-52 relative
        params = QParams(q=q, xi=xi)
        ref = _mp_det_reference(variant, q, xi, 8)
        seq = op_sequence(variant, params, 7)
        z = [math.exp(v) for v in seq.log_z[:9]]
        z1 = [z[n] * ((-1) ** n * seq.x[n]) for n in range(9)]
        assert z == pytest.approx(ref["z"][:9], rel=1e-13)
        assert z1 == pytest.approx(ref["z1"], rel=1e-13)
        assert list(seq.x) == pytest.approx(ref["x"], rel=1e-15)
        assert list(seq.kappa_sq) == pytest.approx(ref["kappa_sq"], rel=1e-15)
        for n in range(9):
            np.testing.assert_allclose(
                monic_coefficients(variant, params, n), ref["monic"][n], rtol=1e-15)
        assert list(seq.log_z) == pytest.approx(ref["log_z"], abs=1e-13)

    def test_near_scaling_norms_positive_and_tau_relation(self):
        params = QParams(q=0.97, xi=0.7)
        for variant in ("plain", "check"):
            assert all(k > 0.0 for k in op_sequence(variant, params, 25).kappa_sq)
            for row in tau_relation_check(params, range(1, 25), variant=variant):
                assert row["residual"] < 1e-9

    def test_raises_when_precision_never_settles(self, monkeypatch):
        monkeypatch.setattr(oppainleve, "_MAX_RAISES", 0)
        with pytest.raises(NonconvergenceError):
            oppainleve.szego_recursion("plain", QParams(q=0.41, xi=0.23), 4)


class TestMonicPolynomials:
    def test_degree_and_monic(self):
        for n in range(0, 6):
            coeffs = monic_coefficients("plain", P, n)
            assert len(coeffs) == n + 1
            assert coeffs[-1] == 1.0

    def test_value_at_zero_matches_sequence(self):
        seq = op_sequence("plain", P, 8)
        for n in range(0, 8):
            coeffs = monic_coefficients("plain", P, n)
            assert coeffs[0] == pytest.approx(seq.x[n], rel=1e-9, abs=1e-12)

    def test_orthogonality_via_moments(self):
        # <pi_n, z^k> = sum_j a_j c_{j-k} must vanish for k < n
        table = circle_fft("I", P, 512)  # entry n holds order n, also for n < 0
        for n in range(1, 6):
            coeffs = monic_coefficients("plain", P, n)
            for k in range(n):
                val = sum(coeffs[j] * table[j - k] for j in range(n + 1))
                assert abs(val) < 1e-12

    def test_norm_is_kappa_inverse_squared(self):
        # <pi_n, z^n> = Z_{n+1} / Z_n = kappa_n^{-2}
        seq = op_sequence("plain", P, 6)
        table = circle_fft("I", P, 512)
        for n in range(0, 6):
            coeffs = monic_coefficients("plain", P, n)
            val = sum(coeffs[j] * table[j - n] for j in range(n + 1))
            assert val == pytest.approx(1.0 / seq.kappa_sq[n], rel=1e-10)


class TestInnerProductSeries:
    def test_constant_pairing_is_zeroth_moment(self):
        table = circle_fft("I", P, 512)
        assert inner_product_series([1.0], [1.0], P) == pytest.approx(
            table[0], rel=1e-12
        )

    def test_linear_pairing_is_first_moment(self):
        # the symmetrized variable (z + 1/z)/2 picks out (c_1 + c_-1)/2 = c_1
        table = circle_fft("I", P, 512)
        assert inner_product_series([0.0, 1.0], [1.0], P) == pytest.approx(
            table[1], rel=1e-12
        )

    def test_quadratic_pairing(self):
        # ((z + 1/z)/2)^2 integrates to (c_2 + c_-2)/4 + c_0/2
        table = circle_fft("I", P, 512)
        want = 0.5 * table[2] + 0.5 * table[0]
        assert inner_product_series(
            [0.0, 0.0, 1.0], [1.0], P
        ) == pytest.approx(want, rel=1e-12)

    def test_rejects_xi_zero(self):
        with pytest.raises(ValueError):
            inner_product_series([1.0], [1.0], QParams(q=0.5, xi=0.0))


class TestPainleveTrajectories:
    def test_x0_seed(self):
        state = painleve_trajectory("x", "determinant", P, 5)
        assert state.values[0] == pytest.approx(math.sqrt(P.xi), rel=1e-13)

    def test_y_seed(self):
        state = painleve_trajectory("y", "determinant", P, 5)
        assert state.sq[0] == pytest.approx(-P.xi, rel=1e-13)

    @pytest.mark.parametrize("params", [P, QParams(q=0.5, xi=0.2)])
    def test_x_recurrence_residual(self, params):
        state = painleve_trajectory("x", "determinant", params, 13)
        for n in range(1, 13):
            lhs = (state.values[n] * state.values[n + 1] - 1.0) * (
                state.values[n - 1] * state.values[n] - 1.0
            )
            rhs = x_recurrence_rhs(state.values[n], n, params)
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-300)

    @pytest.mark.parametrize("params", [P, QParams(q=0.5, xi=0.2)])
    def test_y_recurrence_residual(self, params):
        state = painleve_trajectory("y", "determinant", params, 13)
        for n in range(1, 13):
            lhs = (state.cross[n] - 1.0) * (state.cross[n - 1] - 1.0)
            rhs = y_recurrence_rhs(state.sq[n], n, params)
            assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-300)

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
        det = painleve_trajectory("y", "determinant", P, 12)
        rec = painleve_trajectory("y", "recurrence", P, 12)
        for n in range(0, 12):
            assert rec.sq[n] == pytest.approx(det.sq[n], rel=1e-10)
            assert rec.cross[n] == pytest.approx(det.cross[n], rel=1e-10)

    def test_x_tail_comparator(self):
        state = painleve_trajectory("x", "determinant", P, 12)
        for n in range(4, 13):
            comp = math.sqrt(P.xi) * q_bessel(3, -n, 2.0 * P.xi, P.q)
            assert state.values[n] / comp == pytest.approx(1.0, rel=1e-8)

    def test_y_tail_comparator(self):
        state = painleve_trajectory("y", "determinant", P, 12)
        for n in range(6, 13):
            jn = q_bessel(3, n, -2.0 * P.xi, P.q)
            assert state.sq[n] / (-P.xi * jn * jn) == pytest.approx(
                1.0, rel=1e-6
            )

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
        coeffs = monic_coefficients("plain", P, n)
        s = rhp_sample(n, z, P)
        assert s.y[0, 0] == pytest.approx(
            complex(np.polyval(coeffs[::-1], z)), rel=1e-12
        )
