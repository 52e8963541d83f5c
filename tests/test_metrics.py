from itertools import product

import numpy as np
import pytest

from fairexp.metrics import (
    RoundRecord,
    cumulative_ndcg,
    dcg,
    ndcg_at_k,
    pairwise_regret,
    trace_header,
)


def brute_ndcg(grades, k):
    def d(seq):
        return sum((2 ** g - 1) / np.log2(r + 2) for r, g in enumerate(seq[:k]))

    ideal = d(sorted(grades, reverse=True))
    return 1.0 if ideal == 0 else d(list(grades)) / ideal


class TestNdcg:
    def test_descending_is_one(self):
        assert ndcg_at_k([4, 3, 2, 1, 0], 5) == pytest.approx(1.0)

    def test_all_zero_grades_is_one(self):
        assert ndcg_at_k([0, 0, 0], 3) == 1.0

    def test_hand_value_zero_four(self):
        # DCG = 15/log2(3), ideal = 15; the 15s cancel
        assert abs(ndcg_at_k([0, 4], 2) - 1.0 / np.log2(3)) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            grades = rng.integers(0, 5, size=rng.integers(1, 12))
            k = int(rng.integers(1, 12))
            assert ndcg_at_k(grades, k) == pytest.approx(brute_ndcg(list(grades), k))

    def test_permutation_of_equal_grades_invariant(self):
        rng = np.random.default_rng(1)
        grades = [3, 2, 2, 2, 1, 0]
        base = ndcg_at_k(grades, 6)
        # permute only the equal-grade run
        assert ndcg_at_k([3, 2, 2, 2, 1, 0], 6) == pytest.approx(base)
        values = {ndcg_at_k(list(rng.permutation([2, 2, 2])) + [3, 1, 0], 6) for _ in range(5)}
        assert len(values) == 1

    def test_external_ideal_pool(self):
        # displayed prefix scored against the ideal of the full pool
        full = [4, 3, 0, 0]
        shown = [0, 3]
        expected = dcg(shown, 2) / dcg(sorted(full, reverse=True), 2)
        assert ndcg_at_k(shown, 2, ideal_grades=full) == pytest.approx(expected)

    def test_returns_a_python_float(self):
        assert type(ndcg_at_k([0, 4, 2], 2)) is float

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], 0)


def one_row_dcg(grades, k):
    """The 1-D DCG formula that ``dcg`` replaced, kept as its reference."""
    g = np.asarray(grades, dtype=np.float64)[:k]
    if g.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, g.size + 2))
    return float(np.sum((2.0**g - 1.0) * discounts))


def test_dcg_equals_the_one_row_formula_on_sequences_and_rows():
    # empty, shorter than 8, 8 to 10 long, and longer than k; integer and fractional grades
    rng = np.random.default_rng(4)
    lengths = (0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 15, 23, 40)
    for n, k, fractional in product(lengths, (1, 5, 8, 10, 12, 40), (False, True)):
        grades = rng.integers(0, 5, size=(6, n)).astype(np.float64)
        if fractional:
            grades += rng.random((6, n))
        expected = [one_row_dcg(row, k) for row in grades]
        assert [dcg(row, k) for row in grades] == expected
        assert [dcg(list(row), k) for row in grades] == expected
        assert dcg(grades, k).tolist() == expected


class TestCumulativeNdcg:
    def test_constant_gamma_one(self):
        assert cumulative_ndcg([1.0] * 10, 1.0) == pytest.approx(10.0)

    def test_two_rounds_half(self):
        assert cumulative_ndcg([1.0, 1.0], 0.5) == pytest.approx(1.5)

    def test_geometric_limit(self):
        total = cumulative_ndcg([1.0] * 120_000, 0.9995)
        assert abs(total - 2000.0) < 1e-9

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(2)
        series = rng.random(50)
        base = cumulative_ndcg(series, 0.9)
        bumped = series.copy()
        bumped[17] += 0.1
        assert cumulative_ndcg(bumped, 0.9) > base

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            cumulative_ndcg([1.0], 0.0)
        with pytest.raises(ValueError):
            cumulative_ndcg([1.0], 1.2)


class TestPairwiseRegret:
    def test_descending_is_zero(self):
        assert pairwise_regret([4, 2, 2, 1]) == 0

    def test_single_inversion(self):
        assert pairwise_regret([0, 4]) == 1

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            grades = list(rng.integers(0, 5, size=rng.integers(0, 10)))
            brute = sum(
                1
                for p in range(len(grades))
                for q in range(p + 1, len(grades))
                if grades[q] > grades[p]
            )
            assert pairwise_regret(grades) == brute

    def test_reversal_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            grades = list(rng.integers(0, 5, size=8))
            strict = sum(
                1
                for p in range(len(grades))
                for q in range(p + 1, len(grades))
                if grades[p] != grades[q]
            )
            assert pairwise_regret(grades) + pairwise_regret(grades[::-1]) == strict


def test_round_record_csv():
    rec = RoundRecord(3, 0.5, 0.25, -0.125, 0.375, 2, 1)
    assert rec.to_csv_row() == "3,0.5,0.25,-0.125,0.375,2,1"
    header = trace_header()
    assert header.startswith("# fairexp-trace v1\n")
    assert header.count(",") == rec.to_csv_row().count(",")
