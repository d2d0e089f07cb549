import threading
from fractions import Fraction as F
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from polyfam.stirling import StirlingTable, stirling1_unsigned, stirling2

from .oracles import (
    bell_by_enumeration,
    inverse_stirling_transform,
    stirling1_row_by_enumeration,
    stirling2_row_by_enumeration,
    stirling_transform,
)

rational_seqs = st.lists(
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=100), min_size=1, max_size=16
)


def test_second_kind_against_partition_enumeration():
    for n in range(8):
        row = stirling2_row_by_enumeration(n)
        assert [stirling2(n, k) for k in range(n + 1)] == row


def test_first_kind_against_cycle_enumeration():
    for n in range(8):
        row = stirling1_row_by_enumeration(n)
        assert [stirling1_unsigned(n, k) for k in range(n + 1)] == row
    assert stirling1_unsigned(4, 1) == factorial(3)


def test_point_values():
    assert stirling2(4, 2) == 7
    assert stirling2(3, 0) == 0
    assert stirling2(6, 6) == 1
    assert stirling1_unsigned(4, 2) == 11
    assert stirling2(5, 9) == 0 and stirling2(5, -1) == 0


def test_row_sums():
    for n in range(11):
        assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == factorial(n)
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell_by_enumeration(n)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=41))
def test_recurrences(n, k):
    assert stirling2(n + 1, k) == k * stirling2(n, k) + stirling2(n, k - 1)
    assert stirling1_unsigned(n + 1, k) == n * stirling1_unsigned(n, k) + stirling1_unsigned(n, k - 1)


def test_orthogonality_to_20():
    for n in range(21):
        for m in range(n + 1):
            total = sum(
                (-1) ** (n - k) * stirling1_unsigned(n, k) * stirling2(k, m)
                for k in range(n + 1)
            )
            assert total == (1 if n == m else 0)


def test_transform_examples():
    assert stirling_transform([1, 0, 0, 0]) == [1, 0, 0, 0]
    assert stirling_transform([0, 1, 0, 0]) == [0, 1, 1, 1]
    ones = stirling_transform([1, 1, 1, 1])
    # direct double-sum oracle
    assert ones == [
        sum(F(stirling2(n, k)) for k in range(n + 1)) for n in range(4)
    ]
    assert inverse_stirling_transform([0, 1, 1, 1]) == [0, 1, 0, 0]
    assert inverse_stirling_transform([1, 0, 0]) == [
        sum(F((-1) ** (n - k) * stirling1_unsigned(n, k)) * (1 if k == 0 else 0) for k in range(n + 1))
        for n in range(3)
    ]


def test_transform_roundtrip_example():
    seq = [F(1), F(1, 2), F(-3), F(7)]
    assert inverse_stirling_transform(stirling_transform(seq)) == seq


@given(rational_seqs)
def test_transform_roundtrip(seq):
    assert inverse_stirling_transform(stirling_transform(seq)) == seq
    assert stirling_transform(inverse_stirling_transform(seq)) == seq


def test_fresh_table_growth_and_kinds():
    table = StirlingTable(lambda n, k: k)
    assert table.built_rows == 1
    assert table.value(5, 3) == 25
    assert table.built_rows == 6
    assert table.row(3) == (0, 1, 3, 1)


def test_concurrent_growth_is_consistent():
    table = StirlingTable(lambda n, k: n)
    results = []

    def reader():
        results.append([table.value(60, k) for k in range(0, 61, 7)])

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert sum(table.row(60)) == factorial(60)
