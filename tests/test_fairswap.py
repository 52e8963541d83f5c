"""Calibration tests, anchored by an exhaustive reference search.

The reference explores every way a calibration could run: shortfalls may
be promoted from any lower blocks (not only the nearest), and any members
may be the displaced ones. Each leaf is realized under the shared
presentation rule (promoted documents precede the members they joined,
deeper origins first) and scored by realized certain-order violations in
the displayed prefix. The calibrator's greedy choices must match the
minimum over all leaves exactly.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibration_oracle import (
    ReferenceCalibration,
    brute_added_regret,
    cross_block_certain,
    global_min_regret,
    oracle_min_regret,
    random_instance,
    reference_fair_swap,
    reference_fill,
    reference_regret_bound,
    within_block_wins,
)
from fairexp import fairswap
from fairexp.fairness import enumerate_templates, log_discount_model, make_template
from fairexp.fairswap import (
    CalibratedRanking,
    InfeasibleTemplateError,
    MalformedPartitionError,
    _donor_sort_key,
    _prepare,
    added_regret,
    certain_matrix,
    fair_swap,
    index_pairs,
    select_ranking,
)
from fairexp.ranker import BlockPartition
from pair_set_oracle import reference_index_pairs


def swap_instance(blocks, placement, certain, groups, seed=0, **kwargs) -> CalibratedRanking:
    template = make_template(placement, log_discount_model(len(placement)))
    return fair_swap(
        BlockPartition(blocks=[list(b) for b in blocks]),
        template,
        certain,
        groups,
        np.random.default_rng(seed),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# direct cases


FIG2_BLOCKS = [[1, 2], [3, 4, 5]]
FIG2_GROUPS = {1: "A", 2: "B", 3: "A", 4: "A", 5: "B"}
FIG2_CERTAIN = cross_block_certain(FIG2_BLOCKS)


class TestFairSwap:
    def test_five_document_two_block_replay(self):
        result = swap_instance(FIG2_BLOCKS, ("A", "A", "B", "A", "B"), FIG2_CERTAIN, FIG2_GROUPS)
        assert tuple(FIG2_GROUPS[d] for d in result.order) == ("A", "A", "B", "A", "B")
        assert result.added_regret == 2
        assert brute_added_regret(result.order, FIG2_CERTAIN) == 2

    def test_matching_template_costs_nothing(self):
        blocks = [[0], [1], [2]]
        groups = {0: "A", 1: "B", 2: "A"}
        result = swap_instance(blocks, ("A", "B", "A"), cross_block_certain(blocks), groups)
        assert result.order == [0, 1, 2]
        assert result.added_regret == 0

    def test_single_block_any_template_is_free(self):
        blocks = [[0, 1, 2, 3]]
        groups = {0: "A", 1: "A", 2: "B", 3: "B"}
        for placement in [("B", "B", "A", "A"), ("A", "B", "A", "B")]:
            result = swap_instance(blocks, placement, set(), groups)
            assert result.added_regret == 0
            assert tuple(groups[d] for d in result.order) == placement

    def test_conservation_no_duplicates_no_drops(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(blocks, placement[:k], certain, groups, seed=1)
            assert len(result.order) == k
            assert len(set(result.order)) == k
            universe = {d for b in blocks for d in b}
            assert set(result.order) <= universe

    def test_template_satisfaction(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(blocks, placement[:k], certain, groups, seed=2)
            assert tuple(groups[d] for d in result.order) == placement[:k]

    def test_reported_regret_is_recomputable(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(blocks, placement[:k], certain, groups, seed=3)
            assert result.added_regret == brute_added_regret(result.order, certain)

    def test_determinism_per_seed(self):
        blocks = [[0, 1, 2], [3, 4, 5, 6]]
        groups = {0: "A", 1: "B", 2: "B", 3: "A", 4: "B", 5: "A", 6: "B"}
        certain = cross_block_certain(blocks)
        a = swap_instance(blocks, ("A", "A", "B", "B", "A"), certain, groups, seed=9)
        b = swap_instance(blocks, ("A", "A", "B", "B", "A"), certain, groups, seed=9)
        assert a.order == b.order and a.added_regret == b.added_regret

    def test_infeasible_template(self):
        with pytest.raises(InfeasibleTemplateError):
            swap_instance([[0, 1]], ("A", "A"), set(), {0: "A", 1: "B"})

    def test_malformed_partition(self):
        with pytest.raises(MalformedPartitionError):
            swap_instance([[0, 1], [1, 2]], ("A", "B"), set(), {0: "A", 1: "B", 2: "B"})

    def test_an_empty_block_is_malformed(self):
        with pytest.raises(MalformedPartitionError, match="empty"):
            swap_instance([[0], [], [1]], ("A", "B"), {(0, 1)}, {0: "A", 1: "B"})

    def test_a_document_in_neither_group_is_malformed(self):
        groups = {0: "A", 1: None, 2: "B"}
        partition = BlockPartition(blocks=[[0, 1], [2]])
        template = make_template(("A", "B"), log_discount_model(2))
        with pytest.raises(MalformedPartitionError, match="document 1"):
            fair_swap(partition, template, set(), groups, np.random.default_rng(0))
        with pytest.raises(MalformedPartitionError, match="document 1"):
            select_ranking(partition, [template], set(), groups, np.random.default_rng(0))

    def test_donor_preference_uses_within_block_wins(self):
        # doc 3 beats doc 4 inside their own block, so doc 3 gets promoted
        blocks = [[1, 2], [3, 4, 5]]
        groups = dict(FIG2_GROUPS)
        certain = FIG2_CERTAIN | {(3, 4)}
        result = swap_instance(blocks, ("A", "A", "B", "A", "B"), certain, groups)
        assert 3 in result.order[:2]

    def test_donor_tie_breaks_by_score_then_index(self):
        scores = {1: 2.0, 2: 1.0, 3: 0.4, 4: 0.9, 5: 0.1}
        result = swap_instance(
            FIG2_BLOCKS, ("A", "A", "B", "A", "B"), FIG2_CERTAIN, FIG2_GROUPS, scores=scores
        )
        assert 4 in result.order[:2]  # higher-scored donor promoted

    def test_respect_certain_orders_same_block(self):
        # certain order inside one block is followed when the pattern allows
        blocks = [[0, 1, 2]]
        groups = {0: "A", 1: "A", 2: "B"}
        certain = {(1, 0)}
        for seed in range(10):
            result = swap_instance(blocks, ("A", "A", "B"), certain, groups, seed=seed)
            assert result.order.index(1) < result.order.index(0)
            assert result.added_regret == 0

    def test_heuristic_off_still_satisfies_template(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(
                blocks, placement[:k], certain, groups, seed=4, respect_certain=False
            )
            assert tuple(groups[d] for d in result.order) == placement[:k]
            assert result.added_regret == brute_added_regret(result.order, certain)


class TestMinimality:
    def test_figure_case_matches_oracle(self):
        got = swap_instance(FIG2_BLOCKS, ("A", "A", "B", "A", "B"), FIG2_CERTAIN, FIG2_GROUPS)
        want = oracle_min_regret(
            FIG2_BLOCKS, ("A", "A", "B", "A", "B"), FIG2_CERTAIN, FIG2_GROUPS, 5
        )
        assert got.added_regret == want == 2

    def test_full_length_instances_match_free_donor_oracle(self):
        rng = np.random.default_rng(14)
        gaps = 0
        for trial in range(300):
            blocks, placement, certain, groups, k = random_instance(rng, full_length=True)
            result = swap_instance(blocks, placement, certain, groups, seed=trial)
            want = oracle_min_regret(blocks, placement, certain, groups, k)
            assert result.added_regret == want, (blocks, placement, groups, k)
            if want > global_min_regret(blocks, placement, certain, groups, k):
                gaps += 1
        # the looser all-permutations minimum can undercut the calibrated one
        # (merged blocks forfeit known orders); report scale only
        assert gaps >= 0

    def test_truncated_instances_match_procedure_oracle(self):
        # with a display cutoff the regret counts displayed documents only,
        # so donor freedom could hide blocks below k; the procedure pins
        # nearest-block promotion, and the reference honors the same rule
        rng = np.random.default_rng(17)
        for trial in range(300):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(blocks, placement[:k], certain, groups, seed=trial)
            want = oracle_min_regret(blocks, placement[:k], certain, groups, k, nearest_only=True)
            assert result.added_regret == want, (blocks, placement, groups, k)

    def test_added_regret_within_event_bound(self):
        # every promotion charges at most: hosts it may precede, displaced
        # documents, everything in skipped-over blocks, plus donor pairs
        rng = np.random.default_rng(15)
        for trial in range(300):
            blocks, placement, certain, groups, k = random_instance(rng)
            result = swap_instance(blocks, placement[:k], certain, groups, seed=trial)
            bound = 0
            for e in result.events:
                donor_pairs = 0
                seen = 0
                for bi in sorted(e.donors_per_block):
                    m_i = e.donors_per_block[bi]
                    jumped = sum(e.blocks_sizes[j] for j in range(bi))
                    bound += m_i * (e.host_members + e.displaced + jumped)
                    donor_pairs += seen * m_i
                    seen += m_i
                bound += donor_pairs
            assert result.added_regret <= bound


class TestAddedRegret:
    def test_consistent_order_zero(self):
        assert added_regret([0, 1, 2], {(0, 1), (1, 2), (0, 2)}) == 0

    def test_single_violation(self):
        assert added_regret([1, 0], {(0, 1)}) == 1

    def test_ignores_undisplayed_documents(self):
        assert added_regret([2, 1], {(0, 1), (0, 2), (1, 2)}) == 1

    def test_matches_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            order = list(rng.permutation(n))
            certain = set()
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.3 and (j, i) not in certain:
                        certain.add((i, j))
            assert added_regret(order, certain) == brute_added_regret(order, certain)


# ---------------------------------------------------------------------------
# certain-set lookups against the definitions that scan every certain pair

# documents 0..9 are displayed or partitioned; certain pairs may also name
# 10..13, which never are, and pairs of a document with itself
DOCS = st.lists(st.integers(0, 9), unique=True, max_size=10)
CERTAIN = st.sets(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=60)
PROPERTY = settings(max_examples=300)


@st.composite
def unsorted_blocks(draw):
    docs = draw(DOCS)  # drawn order, not sorted
    cuts = draw(st.sets(st.integers(1, 9)))
    bounds = [0, *sorted(c for c in cuts if c < len(docs)), len(docs)]
    return [docs[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@st.composite
def partitioned_pairs(draw):
    """A partition, and certain pairs around it: every pair across its
    blocks pointing down, less up to two of them, plus up to eight drawn
    pairs of any kind (within a block, up, self, or off the partition)."""
    blocks = draw(unsorted_blocks())
    forward = cross_block_certain(blocks)
    dropped = draw(st.sets(st.sampled_from(sorted(forward)), max_size=2)) if forward else set()
    extra = draw(st.sets(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=8))
    return blocks, (forward - dropped) | extra


def scan_index(blocks, certain):
    """The index by a plain scan of every pair of partitioned documents:
    each one's block, the members of its block it certainly beats, and
    whether the set holds a self pair, a pair pointing up the blocks or
    misses a pair across them."""
    origin = {doc: bi for bi, block in enumerate(blocks) for doc in block}
    beats = {
        w: sorted(l for l in origin if l != w and origin[l] == origin[w] and (w, l) in certain)
        for w in origin
    }
    broken = any(
        (w, l) in certain and (w == l or origin[w] > origin[l])
        or origin[w] < origin[l] and (w, l) not in certain
        for w in origin
        for l in origin
    )
    return origin, beats, broken


def self_or_upward(origin, certain) -> int:
    """The certain pairs between partitioned documents that are self pairs
    or point up the blocks."""
    return sum(
        1 for w, l in certain if w in origin and l in origin and (w == l or origin[w] > origin[l])
    )


class TestCertainLookups:
    @PROPERTY
    @given(order=DOCS, certain=CERTAIN)
    @example(order=[], certain={(0, 1), (1, 0)})
    @example(order=[3], certain={(3, 3), (3, 4), (4, 3)})
    @example(order=[2, 12, 0], certain={(0, 2), (12, 2), (0, 11)})
    def test_added_regret_matches_the_scan(self, order, certain):
        assert added_regret(order, certain) == brute_added_regret(order, certain)

    @PROPERTY
    @given(case=partitioned_pairs())
    @example(case=([], {(0, 1)}))
    @example(case=([[4]], {(4, 4), (4, 11)}))  # a self pair
    @example(case=([[5, 0, 9, 2, 7]], {(9, 0), (0, 9), (2, 12), (7, 5)}))
    @example(case=([[3, 1], [0, 2]], {(3, 0), (3, 2), (1, 0), (1, 2), (3, 1), (13, 3)}))
    @example(case=([[3, 1], [0, 2]], {(3, 0), (3, 2), (1, 0), (1, 2), (2, 1)}))  # one up
    @example(case=([[3, 1], [0, 2]], {(3, 0), (3, 2), (1, 0)}))  # one missing
    @example(case=([[3, 1], [0, 2]], {(3, 0), (1, 0), (1, 2), (0, 3)}))  # one up, one missing
    def test_index_matches_the_scan(self, case):
        # given as a set or as its matrix; a refusal names the pair that the
        # set pass it replaced names (``reference_index_pairs``) whenever at
        # most one pair is a self pair or points up: with more, the set pass
        # names whichever its iteration meets first, the matrix the first in
        # block order
        blocks, certain = case
        origin, beats, broken = scan_index(blocks, certain)
        partition = BlockPartition(blocks=blocks)
        for given_as in (certain, certain_matrix(certain, partition.documents())):
            if broken:
                with pytest.raises(MalformedPartitionError) as refusal:
                    index_pairs(partition, given_as)
                if self_or_upward(origin, certain) <= 1:
                    with pytest.raises(MalformedPartitionError) as want:
                        reference_index_pairs(blocks, certain)
                    assert str(refusal.value) == str(want.value)
            else:
                got_origin, got_beats = index_pairs(partition, given_as)
                assert got_origin == origin
                assert {w: sorted(losers) for w, losers in got_beats.items()} == beats


@st.composite
def segments(draw):
    """A segment's shown documents in drawn order, of both groups and of at
    least two origins; its slot pattern over all of them or a prefix; and
    certain pairs among them, self-pairs, cycles and pairs across origins
    included."""
    n = draw(st.integers(2, 13))
    displayed = draw(st.permutations(range(n)))
    several = lambda values: len(set(values)) > 1  # noqa: E731
    origins = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(several))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n).filter(several))
    seg = tuple(draw(st.permutations(labels))[: draw(st.integers(1, n))])
    certain = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    return seg, displayed, dict(enumerate(origins)), dict(enumerate(labels)), certain


class TestDrawSlots:
    @PROPERTY
    @given(segment=segments(), respect=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # a placement lifts its successor, 1, to a forced choice over 2
    @example(
        segment=(("A", "A", "A"), [0, 1, 2, 3], {0: 0, 1: 0, 2: 0, 3: 1},
                 {0: "A", 1: "A", 2: "A", 3: "B"}, {(0, 1), (1, 2)}),
        respect=True, seed=0,
    )
    # the deeper origin goes first though it has a certain predecessor
    @example(
        segment=(("A", "B", "A"), [0, 1, 2], {0: 0, 1: 1, 2: 1},
                 {0: "A", 1: "A", 2: "B"}, {(2, 1)}),
        respect=True, seed=0,
    )
    def test_draws_as_the_per_slot_recount(self, segment, respect, seed):
        # the count-once keys must choose, draw and advance the generator
        # exactly as recounting predecessors at every slot does
        seg, displayed, origin, groups, certain = segment
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = reference_fill(seg, displayed, origin, certain, groups, want_rng, respect)
        lists = {g: [d for d in displayed if groups[d] == g] for g in "AB"}
        slots = [lists[g] for g in seg]
        beats = {
            w: [l for l in displayed if l != w and origin[l] == origin[w] and (w, l) in certain]
            for w in displayed
        }
        got = fairswap.draw_slots(slots, lists.values(), origin, beats, got_rng, respect)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSelectRanking:
    def _setup(self):
        blocks = [[0, 1], [2, 3, 4]]
        groups = {0: "A", 1: "B", 2: "A", 3: "A", 4: "B"}
        certain = cross_block_certain(blocks)
        model = log_discount_model(5)
        return BlockPartition(blocks=blocks), groups, certain, model

    def test_own_pattern_costs_nothing(self):
        partition, groups, certain, model = self._setup()
        own = make_template(("A", "B", "A", "A", "B"), model)
        other = make_template(("B", "A", "A", "A", "B"), model)
        result = select_ranking(
            partition, [other, own], certain, groups, np.random.default_rng(0)
        )
        assert result.added_regret == 0
        assert result.template is own

    def test_exhaustive_toy_minimum(self):
        partition, groups, certain, model = self._setup()
        templates = [
            make_template(p, model)
            for p in [("A", "A", "B", "A", "B"), ("B", "A", "A", "A", "B"), ("A", "A", "A", "B", "B")]
        ]
        result = select_ranking(partition, templates, certain, groups, np.random.default_rng(1))
        want = min(
            oracle_min_regret(partition.blocks, t.placement, certain, groups, 5)
            for t in templates
        )
        assert result.added_regret == want

    def test_tie_breaks_by_projection_then_placement(self):
        blocks = [[0, 1, 2, 3]]
        groups = {0: "A", 1: "A", 2: "B", 3: "B"}
        model = log_discount_model(4)
        balanced = make_template(("B", "A", "A", "B"), model)
        skewed = make_template(("A", "A", "B", "B"), model)
        result = select_ranking(
            BlockPartition(blocks=blocks),
            [skewed, balanced],
            set(),
            groups,
            np.random.default_rng(2),
            projections=[2.0, 0.5],
        )
        assert result.template is balanced
        lex = select_ranking(
            BlockPartition(blocks=blocks),
            [skewed, balanced],
            set(),
            groups,
            np.random.default_rng(2),
            projections=[1.0, 1.0],
        )
        assert lex.template is skewed  # ("A",...) sorts before ("B",...)

    def test_a_repeated_placement_goes_to_the_earlier_template(self):
        # equal regret, |projection| and placement: the list order decides
        partition, groups, certain, model = self._setup()
        other = make_template(("B", "A", "A", "A", "B"), model)
        first = make_template(("A", "B", "A", "A", "B"), model)
        again = make_template(("A", "B", "A", "A", "B"), model)
        for templates, projections, want in (
            ([other, first, again], [1.0, -0.5, 0.5], first),
            ([again, other, first], [0.5, 1.0, -0.5], again),
        ):
            result = select_ranking(
                partition, templates, certain, groups, np.random.default_rng(4),
                projections=projections,
            )
            assert result.template is want
            assert result.added_regret == 0

    def test_blocks_against_their_certain_pairs_are_malformed(self):
        # the bound needs every pair across blocks certain, from the earlier
        # block to the later one
        partition = BlockPartition(blocks=[[0, 1], [2]])
        groups = {0: "A", 1: "B", 2: "A"}
        template = make_template(("A", "B"), log_discount_model(2))
        for certain, named in (
            ({(0, 2), (2, 1)}, r"\(2, 1\) points from block 1 up to block 0"),
            ({(0, 2)}, r"\(1, 2\) is not a certain pair"),
            ({(0, 2), (1, 2), (1, 0), (2, 9)}, None),  # within a block or off it: no matter
        ):
            def select():
                return select_ranking(
                    partition, [template], certain, groups, np.random.default_rng(0)
                )

            if named is None:
                assert select().template is template
            else:
                with pytest.raises(MalformedPartitionError, match=named):
                    select()

    def test_empty_template_list(self):
        partition, groups, certain, _ = self._setup()
        with pytest.raises(InfeasibleTemplateError):
            select_ranking(partition, [], certain, groups, np.random.default_rng(3))

    def test_deterministic_output(self):
        partition, groups, certain, model = self._setup()
        templates = [
            make_template(p, model)
            for p in [("A", "A", "B", "A", "B"), ("B", "B", "A", "A", "A")]
        ]
        a = select_ranking(partition, templates, certain, groups, np.random.default_rng(5))
        b = select_ranking(partition, templates, certain, groups, np.random.default_rng(5))
        assert a.order == b.order and a.template is b.template


# ---------------------------------------------------------------------------
# one preparation per round against the calibrator that recounted per event


def wide_instance(rng: np.random.Generator):
    """A partition of 6..30 documents into many small blocks, skewed group
    labels, cross-block and some within-block certain pairs, scores, and
    a feasible placement: shortfalls often span several donor blocks, empty
    some, and displace members back into the queue."""
    n = int(rng.integers(6, 31))
    blocks, start = [], 0
    while start < n:
        size = int(rng.integers(1, 5))
        blocks.append(list(range(start, min(start + size, n))))
        start += size
    share_a = rng.uniform(0.15, 0.85)
    groups = {d: ("A" if rng.random() < share_a else "B") for d in range(n)}
    certain = cross_block_certain(blocks)
    for block in blocks:
        for w, l in zip(block, block[1:]):
            if rng.random() < 0.5:
                certain.add((w, l))
    scores = {d: float(rng.standard_normal()) for d in range(n)}
    k = int(rng.integers(1, n + 1))
    pool = [groups[d] for d in range(n)]
    placement = tuple(pool[i] for i in rng.permutation(n)[:k])
    return blocks, placement, certain, groups, scores


class TestPreparedCalibration:
    def test_matches_the_recounting_reference(self):
        rng = np.random.default_rng(18)
        multi_donor = displaced = emptied = 0
        for trial in range(400):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            for respect in (True, False):
                got = swap_instance(
                    blocks, placement, certain, groups, seed=trial,
                    scores=scores, respect_certain=respect,
                )
                want = reference_fair_swap(
                    BlockPartition(blocks=[list(b) for b in blocks]),
                    make_template(placement, log_discount_model(len(placement))),
                    certain,
                    groups,
                    np.random.default_rng(trial),
                    scores=scores,
                    respect_certain=respect,
                )
                assert got == want, (blocks, placement, groups, respect)
            for e in got.events:
                multi_donor += len(e.donors_per_block) > 1
                displaced += e.displaced > 0
                emptied += any(e.blocks_sizes[bi] == m for bi, m in e.donors_per_block.items())
        # the instances exercise every way the counts change
        assert min(multi_donor, displaced, emptied) >= 20

    def test_a_record_with_other_events_is_not_equal(self):
        # equality reads the events, which a calibration builds when read
        rng = np.random.default_rng(26)
        promoting = 0
        for trial in range(100):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            got = swap_instance(blocks, placement, certain, groups, seed=trial, scores=scores)
            events = got.events
            same = ReferenceCalibration(got.order, got.added_regret, got.template, events)
            assert got == same and same == got
            if not events:
                continue
            promoting += 1
            changed = dataclasses.replace(events[0], displaced=events[0].displaced + 1)
            for other in (events[:-1], events + events[:1], [changed, *events[1:]]):
                record = ReferenceCalibration(got.order, got.added_regret, got.template, other)
                assert got != record and record != got
        assert promoting >= 20

    def test_two_groups_promote_once_per_host_from_blocks_in_donor_order(self):
        # a host short of one group holds a surplus of the other, so the order
        # of a segment's need counts never decides which group promotes first
        rng = np.random.default_rng(20)
        promoting_hosts = 0
        for trial in range(300):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            result = swap_instance(blocks, placement, certain, groups, seed=trial, scores=scores)
            hosts = [e.host_block for e in result.events]
            assert len(hosts) == len(set(hosts)), (blocks, placement, groups)
            promoting_hosts += len(hosts)

            wins = within_block_wins(blocks, certain)
            prepared = _prepare(partition, certain, groups, scores)
            # each group's sequence, cut at its block ends, gives each block's
            # members of that group
            by_block = [
                [seq[lo:hi] for lo, hi in zip((0, *ends), ends[: len(blocks)])]
                for seq, ends in zip(prepared.seqs, prepared.ends)
            ]
            assert [sorted(a + b) for a, b in zip(*by_block)] == [sorted(b) for b in blocks]
            for label, members_per_block in zip(("A", "B"), by_block):
                for members in members_per_block:
                    assert all(groups[d] == label for d in members)
                    keys = [_donor_sort_key(d, wins, scores) for d in members]
                    assert all(a < b for a, b in zip(keys, keys[1:]))
        assert promoting_hosts >= 100

    def test_selection_equals_the_best_standalone_calibration(self):
        # two calls on one generator: each template calibrates from a copy of
        # the generator as it was passed, and the generator ends where the
        # winner's copy did
        rng = np.random.default_rng(19)
        for trial in range(150):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            k = len(placement)
            model = log_discount_model(k)
            templates = [make_template(placement, model)]
            labels = list(placement)
            for _ in range(int(rng.integers(0, 6))):
                rng.shuffle(labels)
                templates.append(make_template(tuple(labels), model))
            projections = list(rng.standard_normal(len(templates)))
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            respect = bool(trial % 2)
            served = np.random.default_rng(trial)
            for _ in range(2):
                copies = [copy.deepcopy(served) for _ in templates]
                standalone = [
                    fair_swap(
                        partition, t, certain, groups, each, scores=scores, respect_certain=respect
                    )
                    for t, each in zip(templates, copies)
                ]
                # ties go to the earlier template: index finds the first minimum
                keys = [
                    (result.added_regret, abs(projection), t.placement)
                    for result, projection, t in zip(standalone, projections, templates)
                ]
                best = keys.index(min(keys))
                got = select_ranking(
                    partition, templates, certain, groups, served,
                    projections=projections, scores=scores, respect_certain=respect,
                )
                assert got == standalone[best]
                assert served.bit_generator.state == copies[best].bit_generator.state
            assert served.bit_generator.seed_seq.n_children_spawned == 0
            assert partition.blocks == blocks  # calibration copies the blocks

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), respect=st.booleans(), data=st.data())
    def test_the_selection_does_not_depend_on_the_template_order(self, seed, respect, data):
        # with distinct placements every key differs, and every candidate
        # draws the same numbers, so the list order changes nothing served
        rng = np.random.default_rng(seed)
        blocks, placement, certain, groups, scores = wide_instance(rng)
        model = log_discount_model(len(placement))
        placements = {placement}
        labels = list(placement)
        for _ in range(int(rng.integers(1, 8))):
            rng.shuffle(labels)
            placements.add(tuple(labels))
        templates = [make_template(p, model) for p in sorted(placements)]
        projections = list(rng.standard_normal(len(templates)))
        order = data.draw(st.permutations(range(len(templates))))
        partition = BlockPartition(blocks=[list(b) for b in blocks])
        served = []
        for each in (range(len(templates)), order):
            generator = np.random.default_rng(seed)
            got = select_ranking(
                partition, [templates[i] for i in each], certain, groups, generator,
                projections=[projections[i] for i in each], scores=scores,
                respect_certain=respect,
            )
            served.append((got.order, got.template, generator.bit_generator.state))
        assert served[0] == served[1]


class TestSharedSteps:
    def test_sharing_one_preparation_equals_preparing_per_template(self, monkeypatch):
        # calls over one prepared partition share each walk step, keyed by the
        # two counters where it starts and its slot pattern, in any order of
        # the templates and for both heuristic values
        built = []
        step = fairswap._step
        monkeypatch.setattr(fairswap, "_step", lambda *a: built.append(1) or step(*a))
        rng = np.random.default_rng(21)
        # steps built by shared calls, by whether the order is lexicographic,
        # and by fresh calls
        shared_built, fresh_built = [0, 0], 0
        for trial in range(25):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            k = min(len(placement), 8)
            counts = tuple(sum(groups[d] == g for d in groups) for g in ("A", "B"))
            # lengths k - 1 and k: a segment cut short by the end of a
            # placement is not the step of a longer one with that prefix
            lengths = {max(k - 1, 1), k}
            templates = sorted(
                (t for j in lengths for t in enumerate_templates(j, counts, log_discount_model(j))),
                key=lambda t: t.placement,
            )
            shuffled = [templates[i] for i in rng.permutation(len(templates))]
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            for order in (templates, shuffled):
                prepared = _prepare(partition, certain, groups, scores)
                for respect in (True, False):
                    for i, t in enumerate(order):
                        seed = (trial, i)
                        del built[:]
                        got = fair_swap(
                            partition, t, certain, groups, np.random.default_rng(seed),
                            scores=scores, respect_certain=respect, prepared=prepared,
                        )
                        shared_built[order is templates] += len(built)
                        del built[:]
                        want = fair_swap(
                            partition, t, certain, groups, np.random.default_rng(seed),
                            scores=scores, respect_certain=respect,
                        )
                        fresh_built += len(built) * (order is templates)
                        assert got == want, (blocks, t.placement, groups, respect)
        # each walk state's step is built once, whatever the order
        assert shared_built[True] == shared_built[False]
        assert shared_built[True] < fresh_built / 4


# ---------------------------------------------------------------------------
# the regret bound that orders and stops the selection


def every_template(groups, k):
    """Every template of lengths k - 1 and k that the groups can fill."""
    counts = tuple(sum(g == label for g in groups.values()) for label in ("A", "B"))
    return [
        t
        for j in sorted({max(k - 1, 1), k})
        for t in enumerate_templates(j, counts, log_discount_model(j))
    ]


class TestRegretBound:
    def test_the_walk_bounds_the_served_regret(self):
        # random_instance has certain pairs across blocks only, wide_instance
        # also inside them; each is checked with its own pairs and with the
        # cross-block ones alone, where the heuristic's bound is exact
        rng = np.random.default_rng(22)
        instances = [random_instance(rng)[:4] + (None, 8) for _ in range(60)]
        for _ in range(40):
            blocks, placement, certain, groups, scores = wide_instance(rng)
            instances.append((blocks, placement, certain, groups, scores, min(len(placement), 6)))
        loose = forced = 0
        for trial, (blocks, _, certain, groups, scores, k) in enumerate(instances):
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            k = min(k, len(groups))
            across = cross_block_certain(blocks)
            for pairs in (certain, across):
                prepared = _prepare(partition, pairs, groups, scores)
                for respect in (True, False):
                    for i, t in enumerate(every_template(groups, k)):
                        bound = fairswap._regret_bound(prepared, t.placement, respect)
                        regret = fair_swap(
                            partition, t, pairs, groups, np.random.default_rng((trial, i)),
                            scores=scores, respect_certain=respect,
                        ).added_regret
                        assert bound <= regret, (blocks, t.placement, groups, respect)
                        if respect and pairs is across:
                            assert bound == regret, (blocks, t.placement, groups)
                        loose += bound < regret
                        forced += bound > 0
        # the instances reach both a strict and a nonzero bound often
        assert min(loose, forced) >= 200

    def test_the_state_table_equals_the_step_by_step_walk(self):
        # one preparation serves every template and both heuristic values,
        # as in a round; the reference walks each template afresh
        rng = np.random.default_rng(23)
        instances = [random_instance(rng)[:4] + (None,) for _ in range(80)]
        instances += [wide_instance(rng) for _ in range(80)]
        longer = cut_short = last_in_host = 0
        for blocks, placement, certain, groups, scores in instances:
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            k = min(len(placement), 8)
            prepared = _prepare(partition, certain, groups, scores)
            reference = _prepare(partition, certain, groups, scores)
            for respect in (True, False):
                for t in every_template(groups, k):
                    p = t.placement
                    got = fairswap._regret_bound(prepared, p, respect)
                    want = reference_regret_bound(reference, p, respect)
                    assert got == want, (blocks, p, groups, respect)
                    state = (p[:-1].count("A"), p[:-1].count("B"))
                    last_in_host += fairswap._state(prepared, *state)[0] > 1
            longer += len(prepared.steps)
            cut_short += sum(len(s.seg) < s.size for s in prepared.steps.values())
        # hosts of several slots, longer segments cut short by the end of a
        # placement, and last slots of a host with more unshown members
        assert min(longer, cut_short, last_in_host) >= 100

    def test_the_fill_walk_sums_to_the_bound(self):
        # the fill walks every segment by one rule (``_step``), one-slot
        # segments included, which the bound reads off the state table
        # instead; each side has its own preparation, so neither reads what
        # the other memoized
        rng = np.random.default_rng(25)
        instances = [random_instance(rng)[:4] + (None,) for _ in range(80)]
        instances += [wide_instance(rng) for _ in range(80)]
        one_slot = longer = 0
        for blocks, placement, certain, groups, scores in instances:
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            walked = _prepare(partition, certain, groups, scores)
            bounded = _prepare(partition, certain, groups, scores)
            for respect in (True, False):
                for t in every_template(groups, min(len(placement), 8)):
                    steps = list(fairswap._walk(walked, t.placement))
                    got = sum(step.forced[respect] for step in steps)
                    want = fairswap._regret_bound(bounded, t.placement, respect)
                    assert got == want, (blocks, t.placement, groups, respect)
                    one_slot += sum(len(step.seg) == 1 and step.forced[respect] > 0 for step in steps)
                    longer += sum(len(step.seg) > 1 for step in steps)
        # one-slot segments that cost something, and longer ones
        assert min(one_slot, longer) >= 100

    def test_the_selection_equals_one_on_the_step_by_step_bound(self, monkeypatch):
        # order, added regret, template, events and generator state
        rng = np.random.default_rng(24)
        instances = [random_instance(rng)[:4] + (None,) for _ in range(60)]
        instances += [wide_instance(rng) for _ in range(60)]
        bound = fairswap._regret_bound
        for trial, (blocks, placement, certain, groups, scores) in enumerate(instances):
            partition = BlockPartition(blocks=[list(b) for b in blocks])
            templates = every_template(groups, min(len(placement), 6))
            projections = list(rng.standard_normal(len(templates)))
            respect = bool(trial % 2)
            served = []
            for regret_bound in (bound, reference_regret_bound):
                monkeypatch.setattr(fairswap, "_regret_bound", regret_bound)
                generator = np.random.default_rng(trial)
                got = select_ranking(
                    partition, templates, certain, groups, generator,
                    projections=projections, scores=scores, respect_certain=respect,
                )
                served.append((
                    got.order, got.added_regret, got.template,
                    [e.describe() for e in got.events], generator.bit_generator.state,
                ))
            assert served[0] == served[1], (blocks, groups, respect)

    @pytest.mark.parametrize(
        "placement, message",
        [
            (("A", "B", "B", "A", "A"), "needs 3 documents of group A, only 2"),  # last slot
            (("B", "B", "A", "B", "A"), "needs 3 documents of group B, only 2"),  # one-slot host
            (("A", "A", "A"), "needs 3 documents of group A, only 2"),  # a longer segment
            (("A", "B", "B", "C"), "needs 1 documents of group C, only 0"),  # one slot
            (("C", "A", "B"), "needs 1 documents of group C, only 0"),  # a longer segment
        ],
    )
    def test_the_walk_refuses_a_template_the_pool_cannot_fill(self, placement, message):
        # blocks [0, 1, 2] and [3]: the first host has three slots, and each
        # after it one
        partition = BlockPartition(blocks=[[0, 1, 2], [3]])
        groups = {0: "A", 1: "B", 2: "B", 3: "A"}
        certain = cross_block_certain(partition.blocks)
        prepared = _prepare(partition, certain, groups, None)
        fine = make_template(("A", "B"), log_discount_model(2))
        bad = make_template(placement, log_discount_model(len(placement)))
        for respect in (True, False):
            with pytest.raises(InfeasibleTemplateError, match=message):
                fairswap._regret_bound(prepared, placement, respect)
            with pytest.raises(InfeasibleTemplateError, match=message):
                select_ranking(
                    partition, [fine, bad], certain, groups, np.random.default_rng(0),
                    respect_certain=respect,
                )
