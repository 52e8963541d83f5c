"""The certain relation as one boolean matrix, against the set readers it
replaced (``pair_set_oracle``): the same blocks, index, added regret and
refusals. Also the guard that a run never builds the set of certain
pairs."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairexp import fairswap, harness, ranker
from fairexp.data import QueryCandidates, SyntheticSpec
from fairexp.fairswap import MalformedPartitionError, added_regret, certain_matrix, index_pairs
from fairexp.ranker import BlockPartition, PairOrderSets, partition_blocks
from pair_set_oracle import reference_added_regret, reference_index_pairs, reference_partition_blocks

PROPERTY = settings(max_examples=400)


def candidates(n: int) -> QueryCandidates:
    return QueryCandidates("q", np.zeros((n, 1)), [0] * n)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the ``ValueError`` it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert got == want


def matrix_blocks(n_candidates, certain, n):
    return partition_blocks(candidates(n_candidates), PairOrderSets(certain_matrix(certain, range(n)))).blocks


def sorted_index(index):
    origin, within = index
    return origin, {doc: sorted(losers) for doc, losers in within.items()}


@st.composite
def relations(draw):
    """A certain set over n in 0..30 documents: each pair certain with a
    drawn probability, in the order of a random ranking or, with a second
    drawn probability, against it, so that certain orders can contradict
    each other in cycles of any length."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(0, 31))
    p_certain = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))
    p_flip = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    rank = rng.permutation(n)
    certain = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < p_certain:
            win, lose = (i, j) if rank[i] < rank[j] else (j, i)
            certain.add((lose, win) if rng.random() < p_flip else (win, lose))
    return n, certain, rng


class TestMatrixReadersMatchTheSetReaders:
    @PROPERTY
    @given(relation=relations())
    def test_blocks_index_and_added_regret(self, relation):
        n, certain, rng = relation
        blocks = matrix_blocks(n, certain, n)
        assert blocks == reference_partition_blocks(n, certain, n)
        beats = certain_matrix(certain, range(n))
        want = sorted_index(reference_index_pairs(blocks, certain))
        partition = BlockPartition(blocks=blocks)
        assert sorted_index(index_pairs(partition, beats)) == want
        assert sorted_index(index_pairs(partition, certain)) == want
        for k in {0, 1, min(5, n), min(10, n), n}:
            order = rng.permutation(n)[:k].tolist()
            want_regret = reference_added_regret(order, certain)
            assert added_regret(order, beats) == want_regret
            assert added_regret(order, certain) == want_regret

    @PROPERTY
    @given(
        relation=relations(),
        extra=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=3),
    )
    @example(relation=(3, {(0, 1)}, None), extra=[(1, 1)])  # a self pair
    @example(relation=(3, {(0, 1)}, None), extra=[(1, 0)])  # both orders of one pair
    def test_malformed_pairs_refused_alike(self, relation, extra):
        # a matrix has a cell for every pair of its documents and no other
        n, certain, _ = relation
        certain = certain | {(i, j) for i, j in extra if i < n and j < n}
        # the set reader names the first faulty pair it visits, the matrix
        # the first in row-major order: visit the pairs in that order
        in_matrix_order = dict.fromkeys(sorted(certain))
        assert_same_outcome(
            outcome(matrix_blocks, n, certain, n),
            outcome(reference_partition_blocks, n, in_matrix_order, n),
        )

    def test_uncovered_candidates_refused_alike(self):
        assert_same_outcome(
            outcome(matrix_blocks, 3, {(0, 1)}, 4),
            outcome(reference_partition_blocks, 3, {(0, 1)}, 4),
        )


class TestIndexRefusals:
    @pytest.mark.parametrize(
        "blocks, certain, message",
        [
            ([[0, 1], [1]], {(0, 1)}, "duplicate documents"),
            ([[0], [], [1]], {(0, 1)}, "must not be empty"),
            ([[0, 1], [2]], {(0, 2), (1, 2), (1, 1)}, r"\(1, 1\) is a self pair"),
            ([[0], [1, 2]], {(0, 1), (0, 2), (2, 0)}, r"\(2, 0\) points from block 1 up to block 0"),
            ([[0], [1, 2]], {(0, 1)}, r"documents 0 and 2 are in blocks 0 and 1"),
        ],
    )
    def test_each_refusal_names_its_fault(self, blocks, certain, message):
        partition = BlockPartition(blocks=blocks)
        with pytest.raises(MalformedPartitionError, match=message) as want:
            reference_index_pairs(blocks, certain)
        for given_as in (certain, certain_matrix(certain, [0, 1, 2])):
            with pytest.raises(MalformedPartitionError) as got:
                index_pairs(partition, given_as)
            assert str(got.value) == str(want.value)

    def test_documents_must_be_rows_of_the_matrix(self):
        beats = np.zeros((2, 2), dtype=bool)
        for blocks in ([[0], [2]], [[-1, 0]]):
            with pytest.raises(MalformedPartitionError, match="outside 0..1"):
                index_pairs(BlockPartition(blocks=blocks), beats)
        # a set has no rows, so only a negative document cannot be one
        with pytest.raises(MalformedPartitionError, match="-1 is not a candidate index"):
            index_pairs(BlockPartition(blocks=[[-1, 0]]), set())


class TestPairOrderSets:
    def test_certain_is_the_set_of_true_cells(self):
        sets = PairOrderSets(certain_matrix({(0, 2), (1, 0)}, range(3)))
        assert sets.n == 3 and sets.n_pairs() == 3
        assert sets.beats.tolist() == [[False, False, True], [True, False, False], [False] * 3]
        assert sets.certain == {(0, 2), (1, 0)}

    @pytest.mark.parametrize(
        "beats, message",
        [
            (np.zeros((2, 3), dtype=bool), "square boolean matrix"),
            (np.zeros((2, 2), dtype=int), "square boolean matrix"),
            (np.eye(3, dtype=bool), r"\(0, 0\)"),  # the first self pair
            (np.ones((3, 3), dtype=bool) & ~np.eye(3, dtype=bool), r"\(0, 1\)"),
        ],
    )
    def test_a_malformed_matrix_is_refused(self, beats, message):
        with pytest.raises(ValueError, match=message):
            PairOrderSets(beats)


def test_runs_never_build_the_set_of_certain_pairs(monkeypatch):
    # the round loop reads the matrix only: a set read anywhere in it, or a
    # set handed to a calibration reader, fails the run
    def no_set(self):
        raise AssertionError("a run built the set of certain pairs")

    handed = []

    def matrix_only(certain, docs, convert=fairswap.certain_matrix):
        handed.append(type(certain))
        return convert(certain, docs)

    monkeypatch.setattr(ranker.PairOrderSets, "certain", property(no_set))
    monkeypatch.setattr(fairswap, "certain_matrix", matrix_only)
    certain_pairs = []

    def counted(*args, classify=ranker.classify_pairs):
        sets = classify(*args)
        certain_pairs.append(int(sets.beats.sum()))
        return sets

    monkeypatch.setattr(ranker, "classify_pairs", counted)
    spec = SyntheticSpec(n_queries=20, docs_per_query=12, d=5, group_balance=0.5, seed=5)
    for algorithm in ("fairexp_pairrank", "pairrank"):
        config = harness.ExperimentConfig(
            algorithm=algorithm, synthetic=spec, rounds=80, k=5, n_validation=5, n_test=10, seed=3
        )
        harness.run_experiment(config)
    assert sum(certain_pairs) > 0  # the runs did have certain pairs to read
    assert handed and set(handed) == {np.ndarray}
