import collections
import decimal
import hashlib
import math
import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from mpmath import mp

from qpart import checks, oppainleve
from qpart.oppainleve import (
    LaxMatrices,
    lax_matrices,
    op_sequence,
    painleve_trajectory,
    recurrence_residuals,
    rhp_sample,
    tail_comparator,
    tau_relation_check,
)
from qpart.qspecial import NonconvergenceError, QParams
from reference_fft import circle_fft, product_weight

P = QParams(q=0.5, xi=0.3)
PINNED = [  # variant, q, xi, top, sha256 of repr((x, kappa_sq, log_z))
    ("plain", 0.9, 0.7, 16, "9bc0cd4882f5f1573c8d8f0b5b2d5caea8d32d7831b92c931521e0e24d426da4"),
    ("plain", 0.9, 0.7, 26, "c99a8aa2577f64067b3c39887ee081c88c6fcd2a0126b16c9e025a63a669b952"),
    ("check", 0.9, 0.7, 16, "9efdcbb17458c9e7f118f13d0f0ebd6bb299a265231ddb9a9e1e52472575b8e1"),
    ("check", 0.9, 0.7, 26, "0259204a713939a4012ecf415086cb1d647b45ce69803d446558adb259f83416"),
    ("plain", 0.95, 0.7, 16, "1ead1bea64d9f2c0858898f3967ae997bc79b8f0657e17f2bc55e83e5a0b549b"),
    ("plain", 0.95, 0.7, 26, "25d674082d869bb2378d77ae775b1059bc350d9346fdd675ce4604ba6614fbea"),
    ("check", 0.95, 0.7, 16, "71f704436948f444b970b4ebd8902a76ad47a8b43d39c891b78ac109a409311e"),
    ("check", 0.95, 0.7, 26, "9fa7b6afd01c741b259060a7d277edb00dd47768fae7d3c73b685476a6da1988"),
    ("plain", 0.97, 0.7, 16, "93b96f8f1f191afa7e0b7a491e143315ca2f49c902d02e9f7c1a86d4440ead20"),
    ("plain", 0.97, 0.7, 26, "f47e2243ce700c45f1970a8f4b7a6daaf82c3dd06acbfcd8df589cfd9ffa2e5c"),
    ("check", 0.97, 0.7, 16, "83dde4fed9327113bf5f56761c7c8aff907f8650bdfc544dfa6ed0c2dc7b6645"),
    ("check", 0.97, 0.7, 26, "75482ce697c1f23f743659034778a4974985fd14bad44b17a0e4b02b22d75d2c"),
    ("plain", 0.5, 0.3, 16, "579e392670b96dfec29cb71566e8b7e090c031d58c529d28d06566b9e74a2719"),
    ("plain", 0.5, 0.3, 26, "3f596c63ef9599c78df3c34fd99497cfbcdf253f1fcd9ea08917690d27159dac"),
    ("check", 0.5, 0.3, 16, "b1c6cbfba2353dc1da31cbbefa18e36395e05d0f75799f266d56540243ca5e4e"),
    ("check", 0.5, 0.3, 26, "7e639a3f6d27cd4658b5ec96e21f2ab0617fc507c45e55fb44531798b06fffd7"),
    ("plain", 0.1, 0.05, 40, "6513c6e30b6c0fa86a3bb19c1c2f4efcc560a95b17010d1185af1215ef50f7c2"),
    # first runs of 145 to 347 digits, where d + 17 and 1.5 d differ most
    ("plain", 0.999, 0.5, 61, "3684b4163076706dc8eb7eeb4ed12d809013d7d1f0ae173a738877b731c33827"),
    ("check", 0.999, 0.5, 61, "660666e30ac02fec9996748c365618540c820c24891aef7558ace9303be28063"),
    ("plain", 0.995, 0.7, 150, "b882e66df591999feeb5abfd959b59703179d13b0e8262f96bcf191b8aaf48c5"),
    ("plain", 0.99, 0.7, 100, "e3a1bfc5d5a287dfe3aee8c99a90924a2d937c4b7085a385e72a811166071c06"),
    # settles only on its second pair, at 94 digits
    ("plain", 0.97, 0.7, 61, "b2f5ffe89ed5fd6be79aa9c6eba083543a1007161639a1ba1de8a6c984a13844"),
]
POINTS = [P, QParams(q=0.7, xi=0.5), QParams(q=0.9, xi=0.5)]
NEAR_SCALING = [(variant, q, top) for variant in ("plain", "check")
                for q in (0.9, 0.95, 0.97) for top in (16, 26)]
CONTINUED = [(10, 25, 40), (3, 20, 60), (25, 10, 33)]  # n_max of successive requests


def _count_runs(monkeypatch) -> list:
    """(digits, whether it continued a kept run) of every engine run from here on."""
    runs, szego = [], oppainleve._szego
    monkeypatch.setattr(oppainleve, "_szego", lambda c, dps, state: runs.append(
        (dps, state is not None)) or szego(c, dps, state))
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
        short = oppainleve._certified(variant, params, 16).run
        assert oppainleve._longest[(variant, params)].run is longest
        assert repr((longest.x[:17], longest.kappa_sq[:17], longest.log_z[:18])) == repr(
            (short.x, short.kappa_sq, short.log_z))


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
    dps digits: x_n, kappa_n^2, Z_n, Z_n^(1) for n <= n_top, and the
    coefficients of the monic pi_n, low to high, as mp numbers, solved from
    its orthogonality to 1 .. z^{n-1}.
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
            "monic": monic,
        }


class TestSzegoRecursion:
    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.97, 0.7), (0.99, 0.9), (0.5, 0.99)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_matches_mp_det_reference(self, variant, q, xi):
        # floats certified to the last bit: x_n, kappa_n^2, log Z_n, and
        # pi_n(z), from the float recursion over them, to a few roundings.
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
        assert list(seq.log_z[:10]) == pytest.approx(ref["log_z"], abs=1e-13)
        with mp.workdps(50):
            for n in range(1, 9):
                for z in (2.0, 0.4 + 0.3j, 1.7 - 0.2j, -1.7 + 0.5j, 0.0):
                    want = complex(mp.polyval(ref["monic"][n][::-1], mp.mpc(z)))
                    got = rhp_sample(n, z, params, variant, 1.0)[0, 0]
                    assert got == pytest.approx(want, rel=5e-15)

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
        assert oppainleve._szego(c, 33, None) is None
        want = oppainleve._certified("plain", params, 26).run
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        got = oppainleve._certified("plain", params, 26).run
        assert (got.x, got.kappa_sq, got.log_z) == (want.x, want.kappa_sq, want.log_z)

    @pytest.mark.parametrize("variant, q, xi, top, digest", PINNED,
                             ids=[f"{v}-{q}-{xi}-{top}" for v, q, xi, top, _ in PINNED])
    def test_certified_floats_are_pinned(self, variant, q, xi, top, digest):
        # sha256 of the floats each certification returns, recorded while
        # runs also kept their polynomials, whose digests over the monic
        # coefficients too came from the mpmath engine that preceded the
        # decimal one: a change of arithmetic, precision schedule or store
        # keeps the near-scaling certifications and the desk point bit-identical
        seq = oppainleve._certified(variant, QParams(q=q, xi=xi), top).run
        got = repr((seq.x, seq.kappa_sq, seq.log_z)).encode()
        assert hashlib.sha256(got).hexdigest() == digest

    def test_run_holds_order_top_numbers(self, fresh_engine):
        # runs kept the top^2 / 2 coefficients of pi_0 .. pi_top, as decimals
        # and as floats: a peak of 1.96 MB here, where x and E take 0.14 MB.
        # The kept pair holds O(top) decimals: 182 moments at 207 digits,
        # pi_90 of both runs, and the floats, 93 kB
        params = QParams(q=0.97, xi=0.7)
        oppainleve._symbol_digits("plain", params)
        tracemalloc.start()
        try:
            kept = oppainleve._certified("plain", params, 90)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(kept.c), len(kept.lo[0]), len(kept.hi[0])) == (182, 91, 91)
        assert peak < 0.5e6
        assert held < 0.12e6

    @pytest.mark.parametrize("prec", [20, 27, 34, 45])
    def test_log_is_within_its_bound(self, prec):
        # against libmpdec's correctly rounded ln at 10 more digits, over
        # 60-digit values with exponents from -400 to 400: within 4 units of
        # 10^(w - p), 10^w >= 2.31 (|exponent| + 1)
        rng = random.Random(prec)
        ctx, wide = oppainleve._context(prec), oppainleve._context(prec + 10)
        worst = 0.0
        for _ in range(400):
            v = Decimal(f"{rng.randrange(10**59, 10**60)}E{rng.randint(-459, 341)}")
            w = math.ceil(math.log10(2.31 * (abs(v.adjusted()) + 1)))
            err = abs(oppainleve._ln(v, ctx) - v.ln(wide)).scaleb(prec - w)
            worst = max(worst, float(err))
        assert worst <= 4

    def test_near_scaling_norms_positive_and_tau_relation(self):
        params = QParams(q=0.97, xi=0.7)
        for variant in ("plain", "check"):
            assert all(k > 0.0 for k in op_sequence(variant, params, 25).kappa_sq)
            for row in tau_relation_check(params, range(1, 25), variant=variant):
                assert row["residual"] < 1e-9

    def test_raises_when_precision_never_settles(self, fresh_engine, monkeypatch):
        # this point loses about 60 digits, so the pair at 20 and 37 digits
        # disagrees, and the next, at 30, would run its second run at 47
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        monkeypatch.setattr(oppainleve, "_MAX_DPS", 45)
        with pytest.raises(NonconvergenceError, match="by the pair at 20 and 37 digits; the next "
                                                      "pair needs 47 digits, past the limit of 45"):
            op_sequence("plain", QParams(q=0.41, xi=0.23), 4)

    def test_no_run_passes_the_digit_limit(self, fresh_engine, monkeypatch):
        # each limit is checked at the digits of the pair's second run: with
        # the limit at 45, the runs at 30 and 47 that followed the pair at 20
        # and 37 are not made
        runs = _count_runs(monkeypatch)
        monkeypatch.setattr(oppainleve, "_dps_for", lambda *args: 20)
        monkeypatch.setattr(oppainleve, "_MAX_DPS", 45)
        with pytest.raises(NonconvergenceError):
            op_sequence("plain", QParams(q=0.41, xi=0.23), 15)
        assert runs and max(dps for dps, _ in runs) <= 45

    def test_stored_digits_are_refused_before_any_run(self, fresh_engine, monkeypatch):
        # two runs at top 3001 would take 2.6e10 digit-operations; the
        # slowest accepted pairs take 1.0e8 (top 100 at 9,999 digits) and
        # 5.3e7 ((0.99, 0.7), top 330, whose pair settles at 469 and 486
        # digits). At top 800 the start of 830 digits, 1.6 log10 c_0 past
        # 25, is refused too
        monkeypatch.setattr(oppainleve, "_szego", None)
        with pytest.raises(NonconvergenceError, match=r"top 3001\) needs 2\.6e\+10 "
                                                      r"digit-operations \(top\^2 x 2901\), "
                                                      r"past the limit of 5e\+08"):
            op_sequence("plain", QParams(q=0.999, xi=0.5), 3000)
        with pytest.raises(NonconvergenceError, match=r"top 800\) needs 5\.4e\+08 "
                                                      r"digit-operations \(top\^2 x 847\)"):
            op_sequence("plain", QParams(q=0.999, xi=0.5), 799)
        assert oppainleve._refused(100, 9999) == oppainleve._refused(330, 486) == ""

    def test_stored_digits_bound_the_raised_precision(self, fresh_engine, monkeypatch):
        # (0.97, 0.7), plain, top 61 starts at 63 digits and settles only on
        # the pair at 94 and 111, after the one at 63 and 80; a limit of
        # 61^2 x 94 digit-operations stops it before that pair
        monkeypatch.setattr(oppainleve, "_MAX_WORK", 61 * 61 * 94)
        with pytest.raises(NonconvergenceError, match=r"by the pair at 63 and 80 digits; the "
                                                      r"next pair needs 4\.1e\+05 digit-operations "
                                                      r"\(top\^2 x 111\)"):
            oppainleve._certified("plain", QParams(q=0.97, xi=0.7), 61)

    @pytest.mark.parametrize("variant, q, top", NEAR_SCALING)
    def test_first_pair_settles_near_scaling(self, fresh_engine, monkeypatch, variant, q, top):
        # each of the benchmark's twelve certifications at xi = 0.7 settles
        # on its first pair of runs, the second 17 digits past the first
        runs = _count_runs(monkeypatch)
        oppainleve._certified(variant, QParams(q=q, xi=0.7), top)
        assert runs == [(runs[0][0], False), (runs[0][0] + 17, False)]

    @pytest.mark.parametrize("variant, q", sorted({(v, q) for v, q, _ in NEAR_SCALING}))
    def test_second_top_starts_from_the_settled_run(self, fresh_engine, monkeypatch, variant, q):
        # top 16, then top 26 at the same point: the pair that settled top 16
        # runs on from its last row over the moments it summed to 33, at its
        # own digits, with the floats of a fresh top-26 certification. Plain
        # at q = 0.9 settles top 16 at 34 digits where top 26 starts at 44,
        # so it certifies afresh, summing the moments again
        params = QParams(q=q, xi=0.7)
        oppainleve._symbol_digits(variant, params)  # its moments are not the runs'
        runs, summed, moments = _count_runs(monkeypatch), [], oppainleve._moments
        monkeypatch.setattr(oppainleve, "_moments",
                            lambda *args: summed.append(args[1]) or moments(*args))
        for n_max in (10, 25):
            got = op_sequence(variant, params, n_max)
        first = runs[0][0]
        if (variant, q) == ("plain", 0.9):
            assert runs == [(34, False), (51, False), (44, False), (61, False)]
            assert summed == [33, 53]
        else:
            assert runs == [(first, False), (first + 17, False),
                            (first, True), (first + 17, True)]
            assert summed == [33]
        oppainleve._longest.clear()
        want = oppainleve._certified(variant, params, 26).run
        assert repr((got.x, got.kappa_sq, got.log_z)) == repr(
            (want.x, want.kappa_sq, want.log_z))

    @pytest.mark.parametrize("n_maxes", CONTINUED, ids=["-".join(map(str, c)) for c in CONTINUED])
    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.7), (0.97, 0.7)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_growing_requests_end_at_a_fresh_certification(self, fresh_engine, variant,
                                                           q, xi, n_maxes):
        # whether each longer request continued the kept pair or certified
        # afresh, the final run holds the floats of a fresh certification at
        # its top
        params = QParams(q=q, xi=xi)
        for n_max in n_maxes:
            got = op_sequence(variant, params, n_max)
        oppainleve._longest.clear()
        want = oppainleve._certified(variant, params, len(got.x) - 1).run
        assert repr((got.x, got.kappa_sq, got.log_z)) == repr(
            (want.x, want.kappa_sq, want.log_z))

    def test_disagreeing_continuation_certifies_afresh(self, fresh_engine, monkeypatch):
        # a continued first run whose new rows are off by 1e-12 disagrees
        # with its second, and the request certifies a fresh pair from the
        # kept pair's digits, returning that pair's floats
        params = QParams(q=0.97, xi=0.7)
        op_sequence("check", params, 10)
        want = oppainleve._certified("check", params, 26).run
        runs = _count_runs(monkeypatch)
        kept, szego = oppainleve._longest[("check", params)], oppainleve._szego

        def off(c, dps, state):
            out = szego(c, dps, state)
            if state is kept.lo:
                x, e, last = out
                return [v * (1 + Decimal("1e-12")) for v in x], e, last
            return out

        monkeypatch.setattr(oppainleve, "_szego", off)
        got = op_sequence("check", params, 25)
        assert [continued for _, continued in runs] == [True, True, False, False]
        assert len(oppainleve._longest[("check", params)].c) == 54
        assert repr((got.x, got.kappa_sq, got.log_z)) == repr(
            (want.x, want.kappa_sq, want.log_z))

    def test_every_request_reads_the_stored_run(self, fresh_engine):
        # op_sequence's own cache returned the top-21 run to the third
        # request, after _longest had replaced it with the top-61 one
        params = QParams(q=0.9, xi=0.7)
        for n_max in (20, 60, 20):
            got = op_sequence("plain", params, n_max)
        assert len(got.x) == 62
        assert got is oppainleve._longest[("plain", params)].run

    def test_start_scales_the_settled_digits(self, fresh_engine):
        # (0.97, 0.7), plain, top 61 settles on its second pair, at 94 digits,
        # 1.5 times its estimate; a longer request starts at 1.5 times its own
        params = QParams(q=0.97, xi=0.7)
        op_sequence("plain", params, 60)
        kept = oppainleve._longest[("plain", params)]
        assert (len(kept.run.x) - 1, kept.dps) == (61, 94)
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
        assert repr((again.x, again.kappa_sq, again.log_z)) == repr(
            (first.x, first.kappa_sq, first.log_z))

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


def _pi_coefficients(n: int) -> np.ndarray:
    """Coefficients a_0 .. a_15 of the plain pi_n at P, low to high, from the
    values rhp_sample evaluates: the discrete Fourier transform of pi_n at
    16 points of |z| = 2, off the contour, reads 16 a_k 2^k at order k."""
    z = 2.0 * np.exp(2j * np.pi * np.arange(16) / 16)
    values = [rhp_sample(n, v, P, "plain", 1.0)[0, 0] for v in z]
    return (np.fft.fft(values) / (16 * 2.0 ** np.arange(16))).real


class TestMonicPolynomials:
    def test_degree_and_monic(self):
        for n in range(1, 6):
            coeffs = _pi_coefficients(n)
            assert np.max(np.abs(coeffs[n + 1 :])) < 1e-14
            assert coeffs[n] == pytest.approx(1.0, rel=1e-14)

    def test_value_at_zero_matches_sequence(self):
        seq = op_sequence("plain", P, 8)
        for n in range(1, 8):
            coeffs = _pi_coefficients(n)
            assert coeffs[0] == pytest.approx(seq.x[n], rel=1e-9, abs=1e-12)

    def test_orthogonality_via_moments(self):
        # <pi_n, z^k> = sum_j a_j c_{j-k} must vanish for k < n
        table = circle_fft("I", P, 512)  # entry n holds order n, also for n < 0
        for n in range(1, 6):
            coeffs = _pi_coefficients(n)
            for k in range(n):
                val = sum(coeffs[j] * table[j - k] for j in range(n + 1))
                assert abs(val) < 1e-12

    def test_norm_is_kappa_inverse_squared(self):
        # <pi_n, z^n> = Z_{n+1} / Z_n = kappa_n^{-2}
        seq = op_sequence("plain", P, 6)
        table = circle_fft("I", P, 512)
        for n in range(1, 6):
            coeffs = _pi_coefficients(n)
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
        # the q-P_V relation at n = 1 .. n_max - 1; an entry is None exactly
        # where v_{n-1}, v_n and v_{n+1} are all below 2^-27
        state = painleve_trajectory(variant, "determinant", params, n_max)
        residuals = recurrence_residuals(state)
        assert len(residuals) == n_max - 1
        below = [max(map(abs, state.v[n - 1 : n + 2])) < 2.0**-27 for n in range(1, n_max)]
        assert [r is None for r in residuals] == below
        assert max(r for r in residuals if r is not None) <= 1e-7

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

    def test_tail_comparator_rejects_unknown_branch(self):
        # an unknown branch raised KeyError: 'z'
        with pytest.raises(ValueError, match="branch must be 'x' or 'y'"):
            tail_comparator("z", P, 3)

    def test_dpii_residual_decreasing(self):
        rows = checks.dpii_limit_check(1.0, [0.9, 0.99], [3])
        assert rows[1]["residual_x"] < rows[0]["residual_x"]
        assert rows[1]["residual_y"] < rows[0]["residual_y"]
        # towards q = 1 from each point, xi = (1 - q) eta starting at its xi
        for params in POINTS:
            eta = params.xi / (1.0 - params.q)
            rows = checks.dpii_limit_check(eta, [params.q, 0.97, 0.99], [3])
            for key in ("residual_x", "residual_y"):
                assert rows[2][key] < rows[1][key] < rows[0][key]

    def test_dpii_rejects_n_below_one(self):
        # x[n - 1] at n = 0 read x[-1], and the row reported residual 0.0
        with pytest.raises(ValueError):
            checks.dpii_limit_check(1.0, [0.9], [0, 1])

    def test_n_max_past_guard_raises(self, fresh_engine, monkeypatch):
        # the one index guard is the engine's digit limit, before any run
        monkeypatch.setattr(oppainleve, "_szego", None)
        with pytest.raises(NonconvergenceError, match="needs 24454 digits, past the limit"):
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
    def test_compatibility_and_inversion(self, variant, monkeypatch):
        # the variant's residuals alone, n = 1..10, at the verify probes
        monkeypatch.setattr(oppainleve, "OP_VARIANTS", (variant,))
        for params in POINTS:
            ns = range(1, 11)
            assert checks.lax_residual(params, "compatibility", ns) < 1e-8
            assert checks.lax_residual(params, "inversion", ns) < 1e-8
            assert checks.lax_residual(params, "det_k", ns) <= 1e-12

    @pytest.mark.parametrize("kind, want", [("compatibility", {"t": 200, "u": 200}),
                                            ("inversion", {"t": 200}), ("det_k", {})])
    def test_each_row_computes_its_own_kind(self, kind, want, monkeypatch):
        # every Lax row once ran all three residuals; at 5 probes, 10 indices
        # and 2 variants, compatibility evaluates T and U twice a probe and
        # inversion T_n twice. No row inverts T_n: in binary64 that left
        # 6.9e-7 of the identity at (0.3, 0.3), and the inversion row failed
        calls = collections.Counter()
        for name in ("t", "u"):
            method = getattr(LaxMatrices, name)
            monkeypatch.setattr(LaxMatrices, name, lambda self, z, name=name, method=method:
                                calls.update([name]) or method(self, z))
        monkeypatch.setattr(np.linalg, "inv", None)
        checks.lax_residual(P, kind, range(1, 11))
        assert calls == want

    def test_t_pole_locations(self):
        seq_p = op_sequence("plain", P, 4)
        seq_c = op_sequence("check", P, 4)
        m_p = lax_matrices(2, seq_p)
        m_c = lax_matrices(2, seq_c)
        assert m_p.z_pole == pytest.approx(P.xi / math.sqrt(P.q), rel=1e-14)
        assert m_c.z_pole == pytest.approx(-P.xi / math.sqrt(P.q), rel=1e-14)

    def test_point_is_the_sequences(self):
        # lax_matrices took the point apart from the sequence, and mixed the
        # pole of one point with the x_n of another
        other = QParams(q=0.7, xi=0.5)
        m = lax_matrices(2, op_sequence("plain", other, 4))
        assert m.z_pole == pytest.approx(other.xi / math.sqrt(other.q), rel=1e-14)
        assert m.t2[0, 0] == pytest.approx(other.q**3, rel=1e-14)

    def test_u_shifts_rhp_solution(self):
        # Psi_{n+1}(z) = U_n(z) Psi_n(z) with
        # Psi_n = diag(1, kappa_n^{-2}) Y_n diag(w, z^n); checked at a
        # probe point on the samples, w from the product form
        n = 3
        z = 0.6 + 0.4j
        seq = op_sequence("plain", P, n + 2)
        m = lax_matrices(n, seq)
        w = complex(product_weight("I", P, np.array([z]))[0])

        def psi(k):
            y = rhp_sample(k, z, P, "plain", 1.0)
            return np.diag([1.0, 1.0 / seq.kappa_sq[k]]) @ y @ np.diag(
                [w, z**k]
            )

        lhs = psi(n + 1)
        rhs = m.u(z) @ psi(n)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def _tolerance(check_id: str) -> float:
    """The tolerance of the verify row check_id."""
    return next(c.tolerance for c in checks.CHECKS if c.check_id == check_id)


def _trapezoid_nodes(variant, q, xi, count):
    """The nodes u_j = e^{2 pi i j / count} of the unit circle and the
    trapezoid weights w(u_j) / count at 40 digits, w the variant's weight in
    product form: on the circle (1 -+ a_k u)(1 -+ a_k / u) = 1 + a_k^2 -+ 2
    a_k cos theta, a_k = xi q^{k+1/2}, taken while a_k is above 1e-40. The
    weights at theta and -theta are equal, so each is formed once."""
    with mp.workdps(40):
        q, xi = mp.mpf(q), mp.mpf(xi)
        sign, a = (-1 if variant == "plain" else 1), [xi * mp.sqrt(q)]
        while a[-1] > mp.mpf(10) ** -40:
            a.append(a[-1] * q)
        half = []
        for j in range(count // 2 + 1):
            cos = mp.cospi(mp.mpf(2 * j) / count)
            f = mp.fprod(1 + b * b + sign * 2 * b * cos for b in a)
            half.append((f if variant == "check" else 1 / f) / count)
        nodes = [mp.expjpi(mp.mpf(2 * j) / count) for j in range(count)]
        return nodes, half + half[-2:0:-1]


class TestRHP:
    def test_det_one(self):
        for n in (1, 3, 5, 8):
            y = rhp_sample(n, 2.0 + 0.0j, P, "plain", 1.0)
            assert abs(np.linalg.det(y) - 1.0) < 1e-8

    def test_value_at_zero(self):
        for n in (1, 4, 7):
            seq = op_sequence("plain", P, n + 1)
            y = rhp_sample(n, 0.0 + 0.0j, P, "plain", 1.0)
            want = np.array([
                [seq.x[n], 1.0 / seq.kappa_sq[n]],
                [-seq.kappa_sq[n - 1], seq.x[n]],
            ])
            assert np.max(np.abs(y - want)) < 1e-8

    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_jump_condition(self, variant):
        for params in POINTS:
            assert checks.rhp_jump(params, [(4, angle, variant) for angle in (0.7, 2.1)]) < 1e-6

    def test_first_column_is_polynomial(self):
        # Y_11 = pi_n and Y_21 = -kappa_{n-1}^2 pi*_{n-1}, pi*_{n-1}(z) =
        # z^{n-1} pi_{n-1}(1/z) for real coefficients, at both variants
        n, z = 3, 1.7 - 0.2j
        for variant in ("plain", "check"):
            k2 = op_sequence(variant, P, n + 1).kappa_sq[n - 1]
            y = rhp_sample(n, z, P, variant, 1.0)
            pi_prev = rhp_sample(n - 1, 1.0 / z, P, variant, 1.0)[0, 0]
            assert y[1, 0] == pytest.approx(-k2 * z ** (n - 1) * pi_prev, rel=1e-14)

    @pytest.mark.parametrize("z", [1.0 + 0.0j, complex(np.exp(2j * np.pi * 5 / 2048))],
                             ids=["one", "node-5"])
    def test_probe_on_the_contour_raises(self, z):
        # a probe on the contour is on neither side; when the sample was a
        # quadrature, at a node w = z its sum divided by zero, and the sample
        # was a NaN matrix with only a RuntimeWarning
        with pytest.raises(ValueError, match="lies on the contour"):
            rhp_sample(3, z, P, "plain", 1.0)
        with pytest.raises(ValueError, match="lies on the contour"):
            rhp_sample(3, 1.01 * z, P, "plain", 1.01)

    def test_contour_past_a_pole(self):
        # the weight's poles at (0.97, 0.7) are at a = 0.69 and 1/a = 1.45.
        # The quadrature summed over a contour of radius 2, past 1/a, and
        # returned det Y - 1 = 2.7e14; the series give the Y of every contour
        # between the poles with z = 1.3 inside, so radius 1.4 gives it too
        params = QParams(q=0.97, xi=0.7)
        y = rhp_sample(3, 1.3, params, "plain", 2.0)
        assert abs(np.linalg.det(y) - 1.0) <= _tolerance("painleve.rhp_det")
        assert np.array_equal(y, rhp_sample(3, 1.3, params, "plain", 1.4))
        # outside a contour of radius 0.2 the series in 1/z diverge at
        # z = 0.5, where the quadrature returned det Y - 1 = 3.1e11
        with pytest.raises(ValueError, match=r"diverge at z = 0\.5: a \|z\|\^\(\+-1\) = 1\.38 >= 1"):
            rhp_sample(3, 0.5, params, "plain", 0.2)

    @pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.5)])
    @pytest.mark.parametrize("variant", ["plain", "check"])
    def test_cauchy_column_matches_a_trapezoid_reference(self, variant, q, xi):
        # Y_12 = C[u^{-n} pi_n w] and Y_22 = -C[u^{-n} pi*_{n-1} w] / E_{n-1}
        # against a 256-node trapezoid sum at 40 digits over the product-form
        # weight in mp, with pi_n from mp.det and E_{n-1} = <pi_{n-1},
        # u^{n-1}> from the same sum. Its error is near a^256 (a = xi
        # sqrt(q) <= 0.48) and |z|^{+-256}, far below 1e-40, so the two differ
        # by their roundings: the largest measured is 1.8e-16, within the
        # 2^-52 that a unit in the last place of each part allows
        ref = _mp_det_reference(variant, q, xi, 8)
        nodes, weights = _trapezoid_nodes(variant, q, xi, 256)
        with mp.workdps(40):
            def cauchy(coeffs, n, z):
                return mp.fsum(wt * u ** (1 - n) * mp.polyval(coeffs[::-1], u) / (u - z)
                               for u, wt in zip(nodes, weights))

            for n in (1, 4, 8):
                prev = ref["monic"][n - 1]
                e_prev = mp.re(mp.fsum(wt * u ** (1 - n) * mp.polyval(prev[::-1], u)
                                       for u, wt in zip(nodes, weights)))
                for z in (2.0, 0.4 + 0.3j, 0.0, -1.7 + 0.5j):
                    y = rhp_sample(n, z, QParams(q=q, xi=xi), variant, 1.0)
                    want = [complex(cauchy(ref["monic"][n], n, mp.mpc(z))),
                            complex(-cauchy(prev[::-1], n, mp.mpc(z)) / e_prev)]
                    assert [y[0, 1], y[1, 1]] == pytest.approx(want, rel=2.0**-52)

    def test_rows_pass_near_q_one(self):
        # both failed on the quadrature: rhp_det read 2.5e-8 at (0.99, 0.7)
        # and rhp_jump 1.3e6 at (0.97, 0.7)
        assert checks.rhp_det(QParams(q=0.99, xi=0.7), range(1, 9)) <= _tolerance("painleve.rhp_det")
        probes = ((3, 0.7, "plain"), (5, 2.1, "check"))
        assert checks.rhp_jump(QParams(q=0.97, xi=0.7), probes) <= _tolerance("painleve.rhp_jump")
