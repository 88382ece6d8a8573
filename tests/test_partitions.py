import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpart.partitions import Partition
from reference_partitions import cell_stats, enumerate_partitions, transpose


@st.composite
def partitions(draw, max_size=18):
    n = draw(st.integers(0, max_size))
    parts = []
    cap = n
    while n > 0:
        p = draw(st.integers(1, min(cap, n)))
        parts.append(p)
        cap = p
        n -= p
    return Partition(tuple(parts))


class TestPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_empty(self):
        lam = Partition(())
        assert lam.size == 0 and lam.length == 0
        assert transpose(lam) == lam

    @given(partitions())
    @settings(max_examples=120, deadline=None)
    def test_transpose_involution(self, lam):
        assert transpose(transpose(lam)) == lam

    @given(partitions())
    @settings(max_examples=120, deadline=None)
    def test_transpose_preserves_size(self, lam):
        assert transpose(lam).size == lam.size

    def test_part_indexing(self):
        lam = Partition((4, 2, 1))
        assert [lam.part(i) for i in range(1, 6)] == [4, 2, 1, 0, 0]


class TestEnumeration:
    def test_counts_match_partition_numbers(self):
        # p(0..11) = 1,1,2,3,5,7,11,15,22,30,42,56
        want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
        got = [0] * 12
        for lam in enumerate_partitions(11):
            got[lam.size] += 1
        assert got == want

    def test_order_size_then_lex_descending(self):
        lams = [lam.parts for lam in enumerate_partitions(3)]
        assert lams == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

    def test_no_duplicates(self):
        seen = list(enumerate_partitions(12))
        assert len(seen) == len(set(seen))


class TestCellStats:
    def test_hook_lengths_staircase(self):
        stats = cell_stats(Partition((2, 1)))
        assert stats.hooks == {(1, 1): 3, (1, 2): 1, (2, 1): 1}
        assert stats.b_of_lambda == 1
        assert stats.dim_lambda == 2

    @given(partitions())
    @settings(max_examples=100, deadline=None)
    def test_hook_multiset_transpose_invariant(self, lam):
        a = sorted(cell_stats(lam).hooks.values())
        b = sorted(cell_stats(transpose(lam)).hooks.values())
        assert a == b

    @given(partitions())
    @settings(max_examples=100, deadline=None)
    def test_hook_sum_identity(self, lam):
        # sum of hooks = b(lambda) + b(lambda^T) + |lambda|
        stats = cell_stats(lam)
        stats_t = cell_stats(transpose(lam))
        assert sum(stats.hooks.values()) == (
            stats.b_of_lambda + stats_t.b_of_lambda + lam.size
        )

    @given(partitions())
    @settings(max_examples=100, deadline=None)
    def test_contents_sum(self, lam):
        # sum of contents = b(lambda^T) - b(lambda)
        stats = cell_stats(lam)
        stats_t = cell_stats(transpose(lam))
        assert sum(stats.contents.values()) == (
            stats_t.b_of_lambda - stats.b_of_lambda
        )

    def test_dimension_square_sum_is_factorial(self):
        for n in range(0, 9):
            total = sum(
                cell_stats(lam).dim_lambda ** 2
                for lam in enumerate_partitions(n)
                if lam.size == n
            )
            assert total == math.factorial(n)

