"""The input checks and edge returns of the library, one test each: every
refusal names what it refuses, and every edge return is the value the
docstring gives."""

import decimal
from decimal import Decimal

import pytest

from qpart import checks, kernels, measures, oppainleve
from qpart.measures import MiwaTimes
from qpart.qspecial import NonconvergenceError, QParams, _context, log_macmahon

P = QParams(q=0.5, xi=0.3)


class TestInputChecks:
    @pytest.mark.parametrize("xi", [-0.1, 1.0])
    def test_limit_shape_outside_the_unit_interval(self, xi):
        with pytest.raises(ValueError, match=r"xi must be in \[0, 1\)"):
            kernels.limit_shape(xi)

    def test_discrete_bessel_kernel_negative_eta(self):
        with pytest.raises(ValueError, match="eta must be nonnegative"):
            kernels.discrete_bessel_kernel(-0.1, 0.5, 0.5)

    def test_correlation_repeated_points(self):
        kernel = lambda r, s: kernels.q_bessel_kernel(P, r, s)  # noqa: E731
        with pytest.raises(ValueError, match="points must be distinct"):
            kernels.correlation(kernel, [0.5, 1.5, 0.5])

    def test_correlation_of_no_points_is_one(self):
        assert kernels.correlation(lambda r, s: 0.0, []) == 1.0

    def test_schur_kernel_past_both_tables_is_zero(self):
        t = MiwaTimes.principal(P.xi, P.q)
        (span, _), (span_t, _) = kernels._schur_coefficients(t, t)
        far = max(span, span_t) + 10.5  # the orders r + k lie past the table
        assert kernels.schur_kernel(t, t, far, far) == 0.0

    def test_unknown_measure_kind(self):
        with pytest.raises(TypeError, match="unknown measure kind 'bogus'"):
            measures._factors("bogus")

    def test_lax_matrices_index_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            oppainleve.lax_matrices(0, oppainleve.op_sequence("plain", P, 5))

    def test_lax_matrices_past_the_run(self):
        op = oppainleve.op_sequence("plain", P, 5)
        with pytest.raises(ValueError, match="op sequence too short for this n"):
            oppainleve.lax_matrices(len(op.x) - 1, op)

    def test_rhp_sample_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be one of"):
            oppainleve.rhp_sample(3, 2.0, P, "bogus", 1.0)

    def test_rhp_sample_index_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            oppainleve.rhp_sample(0, 2.0, P, "plain", 1.0)

    @pytest.mark.parametrize("k", [-1, checks._MACMAHON_DEGREE + 1])
    def test_macmahon_coefficient_outside_its_degree(self, k):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 64\]"):
            checks.macmahon_series_coefficient(k)

    def test_circle_weight_unknown_weight(self):
        with pytest.raises(ValueError, match="unknown weight 'J'"):
            checks.circle_weight("J", P, 0.3)


class TestReachedRefusals:
    def test_pad_refuses_a_start_error_that_grows_outward(self):
        # no table of J_gen (q and xi from 1e-6 to 0.999999) or of the
        # Bessel symbol (eta from 1e-6 to 100) reaches it: the start error
        # at n + 1 is 14 times that at n here, after the factor r^2 per order
        betas = [Decimal("2.5"), Decimal("2.6"), Decimal(10)]
        with decimal.localcontext(_context(30)):
            assert kernels._pad(lambda m, n: betas, 128, 1) is None

    def test_agreement_refuses_a_drifting_log_z(self):
        # each E_k of the two runs within _AGREE relative, but their product,
        # the ratio of exp log Z, past exp(_AGREE) after two rows
        e_lo = [Decimal(1), Decimal(1)]
        e_hi = [1 - Decimal("0.9e-17")] * 2
        x = [Decimal("0.5")] * 2
        with decimal.localcontext(_context(40)):
            one = oppainleve._agree((x[:1], e_lo[:1]), (x[:1], e_hi[:1]), Decimal(1))
            assert one == 1 / e_hi[0]
            assert oppainleve._agree((x, e_lo), (x, e_hi), Decimal(1)) is None

    def test_rhp_sample_entry_past_the_double_range(self):
        # pi_2(z) is near z^2 = 1e400
        with pytest.raises(OverflowError, match=r"an entry of Y_2 at z = \(1e\+200\+0j\)"):
            oppainleve.rhp_sample(2, 1e200 + 0j, P, "plain", 1.0)

    def test_log_macmahon_term_limit(self):
        # terms fall by xi^2 q = 0.9987 each: the float stop, 1e-16 below
        # the first term, is not reached in 10,000 of them
        with pytest.raises(NonconvergenceError, match="log_macmahon: 10000 terms"):
            log_macmahon(QParams(q=0.999, xi=0.9999))

    def test_circle_weight_term_limit(self):
        # u = xi sqrt(q) = 0.9999: the 10,000th term bound is 1e-4
        with pytest.raises(NonconvergenceError, match="I weight: 10000 terms"):
            checks.circle_weight("I", QParams(q=0.9999, xi=0.99995), 0.3)

    def test_schur_coefficients_term_limit(self):
        # the 10,000th Miwa time is 3.5e-5
        t = MiwaTimes.principal(0.9999, 0.9999)
        with pytest.raises(NonconvergenceError, match="past n = 10000"):
            kernels.schur_kernel(t, t, 0.5, 0.5)
