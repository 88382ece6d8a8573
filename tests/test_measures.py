import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from qpart import checks
from qpart.measures import (
    MAX_ENUM_SIZE,
    MiwaTimes,
    Plancherel,
    PoissonizedPlancherel,
    QPPMixed,
    QPPSquared,
    SchurMeasure,
    _enum_stats,
    _masses,
    _partition_stats,
    measure,
    normalization_partial_sum,
)
from qpart.partitions import Partition
from qpart.qspecial import QParams, log_macmahon
from reference_partitions import cell_stats, enumerate_partitions

SAMPLE = [
    Partition(()),
    Partition((1,)),
    Partition((2,)),
    Partition((1, 1)),
    Partition((2, 1)),
    Partition((3, 2, 1)),
    Partition((4, 1, 1)),
]


class TestPlancherel:
    def test_sums_to_one(self):
        for n in range(1, 8):
            assert normalization_partial_sum(Plancherel(n), n) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            measure(Plancherel(3), Partition((1,)))

    def test_single_box(self):
        assert measure(Plancherel(1), Partition((1,))) == 1.0


class TestPoissonized:
    def test_empty_partition_mass(self):
        eta = 0.8
        assert measure(PoissonizedPlancherel(eta), Partition(())) == (
            pytest.approx(math.exp(-eta * eta), rel=1e-14)
        )

    def test_mixture_of_plancherels(self):
        # mass at size n is Poisson(eta^2) times the Plancherel mass
        eta = 0.7
        lam = Partition((2, 1))
        pois = math.exp(-eta * eta) * (eta * eta) ** 3 / math.factorial(3)
        want = pois * measure(Plancherel(3), lam)
        assert measure(PoissonizedPlancherel(eta), lam) == pytest.approx(
            want, rel=1e-13
        )

    def test_total_mass(self):
        assert normalization_partial_sum(
            PoissonizedPlancherel(0.9), 22
        ) == pytest.approx(1.0, abs=1e-10)


class TestQDeformations:
    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_squared_total_mass(self, xi, q):
        total = normalization_partial_sum(QPPSquared(xi=xi, q=q), 25)
        assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_mixed_total_mass(self, xi, q):
        total = normalization_partial_sum(QPPMixed(xi=xi, q=q), 25)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_nonnegative(self):
        for lam in SAMPLE:
            for kind in (QPPSquared(0.3, 0.5), QPPMixed(0.3, 0.5)):
                assert measure(kind, lam) >= 0.0

    def test_squared_is_schur_with_principal_times(self):
        # one evaluator and one log Z, so bit-equal; a separate Cauchy sum
        # differed at (0.97, 0.7) and overflowed at (0.99, 0.9)
        for q, xi in [(0.5, 0.3), (0.97, 0.7), (0.99, 0.9)]:
            t = MiwaTimes.principal(xi, q)
            sm = SchurMeasure(t=t, t_tilde=t)
            kind = QPPSquared(xi, q)
            for lam in SAMPLE:
                assert measure(sm, lam) == measure(kind, lam)

    def test_mixed_is_schur_with_principal_and_delta_times(self):
        # the mixed type pairs the principal specialization with the
        # one-variable exponential one; this fixes its normalization
        # constant as exp(-xi^2/(1-q)) via the Cauchy identity
        xi, q = 0.3, 0.5
        t = MiwaTimes.principal(xi, q)
        td = MiwaTimes.delta(xi / math.sqrt(q))
        sm = SchurMeasure(t=t, t_tilde=td)
        kind = QPPMixed(xi, q)
        for lam in SAMPLE:
            assert measure(sm, lam) == pytest.approx(
                measure(kind, lam), rel=1e-10
            )

    def test_mixed_at_q_zero(self):
        # only single rows (n) carry mass, e^{-xi^2} xi^{2n} / n!; the mixed
        # type must not be evaluated through the delta time xi q^{-1/2}
        kind = QPPMixed(xi=0.3, q=0.0)
        assert normalization_partial_sum(kind, 20) == pytest.approx(1.0, abs=2e-16)
        assert measure(kind, Partition((2,))) == pytest.approx(
            math.exp(-0.09) * 0.09**2 / 2, rel=1e-14)
        assert measure(kind, Partition((1, 1))) == 0.0

    def test_unbuilt_schur_pairs_raise(self):
        with pytest.raises(NotImplementedError):
            measure(SchurMeasure(MiwaTimes.principal(0.3, 0.5),
                                 MiwaTimes.principal(0.3, 0.6)), Partition((1,)))

    def test_mixed_reduces_to_poissonized_at_q_scaling(self):
        eta = 0.8
        pp = PoissonizedPlancherel(eta)
        for lam in SAMPLE:
            prev = None
            for q in (0.9, 0.99, 0.999):
                val = measure(QPPMixed(xi=math.sqrt(1.0 - q) * eta, q=q), lam)
                dev = abs(val - measure(pp, lam))
                if prev is not None:
                    assert dev <= prev + 1e-15
                prev = dev

    def test_q_limit_chain_rows(self):
        # both the squared and the mixed mass approach the Poissonized one
        # monotonically, from each of q = 0.5, 0.7 and 0.9; a schedule run
        # away from q = 1 fails the chain
        lam = Partition((2, 1))
        assert checks.q_to_1_chain(lam, 0.8, [0.9, 0.97, 0.99]) == 0.0
        for q in (0.5, 0.7, 0.9):
            assert checks.q_to_1_chain(lam, 0.8, [q, 0.97, 0.99]) == 0.0
            assert checks.q_to_1_chain(lam, 0.8, [0.99, 0.97, q]) == 1.0

    def test_richardson_step_ratio(self):
        # differences from the Poissonized value shrink by about the
        # step ratio of (1 - q) along a geometric schedule
        lam = Partition((2, 1))
        eta = 0.8
        pp = measure(PoissonizedPlancherel(eta), lam)
        devs = []
        for q in (0.9, 0.99, 0.999):
            val = measure(QPPSquared(xi=(1.0 - q) * eta, q=q), lam)
            devs.append(abs(val - pp))
        assert devs[1] / devs[0] < 0.3
        assert devs[2] / devs[1] < 0.3


@pytest.mark.parametrize("q, xi", [(0.5, 0.3), (0.9, 0.5), (0.97, 0.7)])
def test_measure_matches_hook_content_mass(q, xi):
    # 40-digit masses from the reference's hooks and b(lambda); the bound's
    # second term is the rounding of exp(-log Z), log M = 566.5 at (0.97, 0.7)
    with mp.workdps(40):
        mq, mxi = mp.mpf(q), mp.mpf(xi)
        # terms past n = 4000 are below 1e-45 for q <= 0.97
        log_m = -mp.fsum(n * mp.log(1 - mxi**2 * mq**n) for n in range(1, 4000))
        log_z = {QPPSquared: log_m, QPPMixed: mxi**2 / (1 - mq)}
        for lam in enumerate_partitions(12):
            stats = cell_stats(lam)
            hooks = list(stats.hooks.values())
            squared = ((mxi**2 * mq) ** lam.size * mq ** (2 * stats.b_of_lambda)
                       / mp.fprod((1 - mq**h) ** 2 for h in hooks))
            mixed = mxi ** (2 * lam.size) * mq**stats.b_of_lambda / mp.fprod(
                (1 - mq**h) * h for h in hooks)
            for kind, mass in ((QPPSquared, squared), (QPPMixed, mixed)):
                want = mass * mp.exp(-log_z[kind])
                rel = 2e-15 + 2.3e-16 * float(log_z[kind])
                assert measure(kind(xi, q), lam) == pytest.approx(float(want), rel=rel, abs=0)


class TestSchurSpecialized:
    def test_exponential_single_row(self):
        # s_(n) at the exponential specialization is xi^n / n!
        for n in range(1, 6):
            lam = Partition((n,))
            s_n = 0.7**n / math.factorial(n)
            assert measure(PoissonizedPlancherel(0.7), lam) == pytest.approx(
                math.exp(-0.49) * s_n * s_n, rel=1e-14
            )

    def test_principal_single_box(self):
        # s_(1) = xi q^{1/2} / (1 - q)
        xi, q = 0.3, 0.5
        s_1 = xi * math.sqrt(q) / (1.0 - q)
        want = s_1 * s_1 * math.exp(-log_macmahon(QParams(q=q, xi=xi)))
        assert measure(QPPSquared(xi, q), Partition((1,))) == (
            pytest.approx(want, rel=1e-14)
        )

    @given(st.sampled_from(list(enumerate_partitions(10))))
    @settings(max_examples=60, deadline=None)
    def test_principal_to_exponential_limit(self, lam):
        # with xi -> xi (1-q)/q^{1/2} scaling, q -> 1 recovers the
        # exponential specialization; check at q close to 1
        xi = 0.5
        q = 0.9999
        t = MiwaTimes.principal(xi * (1.0 - q) / math.sqrt(q), q)
        val = measure(SchurMeasure(t, MiwaTimes.delta(xi)), lam)
        want = measure(PoissonizedPlancherel(xi), lam)
        assert val == pytest.approx(want, rel=5e-3, abs=1e-30)


class TestEnumStats:
    def test_rows_match_cell_stats(self):
        size, first, length, b, counts = _enum_stats(12)
        assert counts.dtype == np.uint8 and counts.shape[1] == 12
        for k, lam in enumerate(enumerate_partitions(12)):
            stats = cell_stats(lam)
            hooks = [h for h, m in enumerate(counts[k].tolist(), start=1) for _ in range(m)]
            assert hooks == sorted(stats.hooks.values())
            assert counts[k].sum() == lam.size
            assert (size[k], first[k], length[k], b[k]) == (
                lam.size, lam.part(1), lam.length, stats.b_of_lambda)
        assert k + 1 == len(size)

    def test_partial_sum_matches_single_masses(self):
        # the size-graded table and measure() read the same weights
        kind = QPPSquared(xi=0.4, q=0.6)
        each = math.fsum(measure(kind, lam) for lam in enumerate_partitions(10))
        assert normalization_partial_sum(kind, 10) == pytest.approx(each, rel=1e-15)

    @pytest.mark.parametrize("max_size", [0, 1, 12, 25])
    def test_table_equals_per_partition_rows(self, max_size):
        # the row-prepending build against one row per enumerated partition
        rows = [_partition_stats(lam, max_size) for lam in enumerate_partitions(max_size)]
        want = [np.concatenate(col) for col in zip(*rows)]
        got = _enum_stats(max_size)
        assert len(got) == len(want) == 5
        assert want[4].shape == (len(rows), max_size)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("max_size", [0, 1, 5, 25, 30])
    def test_hook_counts_are_column_major(self, max_size):
        assert _enum_stats(max_size)[4].flags.f_contiguous

    def test_table_is_pinned(self):
        # sha256 of each array's bytes as the per-(n, k) build made them
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in _enum_stats(25)] == [
            "fa32b64aa0d6e87b10dd28e76d0b8fe3e1e7c10830b9d01099d1c3ee79065b5b",  # size
            "552ddd7d3067d77471b05e2f69be73dfe7956ab0c17e357d4fa03cbf877dce4a",  # first part
            "b7a5454507f0fecc87110365a7c2f8c66a7555dc888ed0727f9522be06a680db",  # length
            "db3fee03f0eef826ec062fcc5e0570db22f8567e252a85b003b6761af69fd54a",  # b
            "d62a4ce1d97a75d232a4dd8bb85d3f13e320e311354577626693774697776f3b",  # hook counts
        ]

    @pytest.mark.parametrize("kind, digest", [
        (QPPSquared(xi=0.3, q=0.5), "39a5b8afea0cacb4206a6f6372ce11dfa16044ba1af9ebdd570427f197aa87ba"),
        (QPPSquared(xi=0.5, q=0.9), "9e0d2bfcdfa930c98edcc783ffe49a40d461fb3707e17e980770de5ede756b1e"),
        (QPPSquared(xi=0.3, q=0.0), "9bb781b5f0473a2f444ea5d0701e29802b8d9e9faee9b04afe7d17074e22898a"),
        (QPPMixed(xi=0.3, q=0.5), "8868154e8d1760f28c55c312c40c07e00875952e1bde39072894020a94f6dd19"),
        (QPPMixed(xi=0.7, q=0.97), "e825a835243dc11c4d0ea330d0ad8eaed2dd85e8e324cbb94d14ed32a1fab9db"),
        (PoissonizedPlancherel(eta=1.2), "979aabc58d61a9f49ce7cede0800d0167c2ff62dbf4085f363124d2fc68531ea"),
        (Plancherel(n=10), "4420598f3ed6049d16c20752f66ef8662d9dc6a7cadc2965fc3c28d474e65246"),
        (SchurMeasure(MiwaTimes.principal(0.4, 0.6), MiwaTimes.delta(0.5)),
         "8fd0928c245f22fe5839ba673b941d20ed12a9043ab79ade849bf9e3ca18010a"),
    ])
    def test_masses_are_pinned(self, kind, digest):
        # sha256 of the masses over _enum_stats(25) as elementwise powers of
        # the whole rows gave them: the power tables change no bit
        got = hashlib.sha256(_masses(kind, _enum_stats(25)).tobytes()).hexdigest()
        assert got == digest

    def test_table_builds_no_partition(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the table is built without Partition objects")

        monkeypatch.setattr(Partition, "__post_init__", refuse)
        _enum_stats.cache_clear()
        assert len(_enum_stats(25)[0]) == 9296

    @pytest.mark.parametrize("max_size", [-1, MAX_ENUM_SIZE + 1, 61])
    def test_size_guards(self, max_size):
        with pytest.raises(ValueError, match="nonnegative|exceeds guard"):
            _enum_stats(max_size)
        with pytest.raises(ValueError, match="nonnegative|exceeds guard"):
            normalization_partial_sum(QPPSquared(xi=0.3, q=0.5), max_size)

    def test_partial_sum_rejects_negative_size(self):
        with pytest.raises(ValueError, match="nonnegative"):
            normalization_partial_sum(QPPSquared(xi=0.3, q=0.5), -1)


class TestMiwaTimes:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            MiwaTimes(family="bogus", xi=0.3, q=0.5)

    def test_principal_values(self):
        t = MiwaTimes.principal(0.3, 0.5)
        q = 0.5
        want = -0.3 / (math.sqrt(q) - 1.0 / math.sqrt(q))
        assert t.value(1) == pytest.approx(want, rel=1e-14)
        assert MiwaTimes.principal(0.3, 0.0).value(2) == 0.0

    def test_delta_values(self):
        t = MiwaTimes.delta(0.4)
        assert t.value(1) == 0.4
        assert t.value(2) == 0.0

    @given(st.floats(0.05, 0.6), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_principal_series_decays(self, xi, q):
        t = MiwaTimes.principal(xi, q)
        assert abs(t.value(8)) < abs(t.value(1)) + 1e-12
