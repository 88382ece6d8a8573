import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from qpart.measures import (
    MAX_ENUM_SIZE,
    MiwaTimes,
    Plancherel,
    PoissonizedPlancherel,
    QPPMixed,
    QPPSquared,
    SchurMeasure,
    _enum_stats,
    _partition_stats,
    measure,
    normalization_partial_sum,
    q_limit_check,
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
        rows = q_limit_check(Partition((2, 1)), 0.8, [0.9, 0.97, 0.99])
        assert len(rows) == 3
        dev_sq = [abs(r[1] - r[3]) for r in rows]
        dev_mx = [abs(r[2] - r[3]) for r in rows]
        assert dev_sq[2] < dev_sq[0]
        assert dev_mx[2] < dev_mx[0]

    def test_q_limit_check_requires_increasing_schedule(self):
        with pytest.raises(ValueError):
            q_limit_check(Partition((1,)), 0.5, [0.9, 0.8])

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
