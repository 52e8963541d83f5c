from functools import cmp_to_key
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairexp import ranker
from fairexp.data import QueryCandidates
from fairexp.fairswap import certain_matrix
from fairexp.ranker import (
    CG_RTOL,
    CHECKPOINT_VERSION,
    DIRECT_SOLVE_MAX_D,
    DimensionError,
    GRAD_TOL,
    MAX_NEWTON_ITERS,
    PairOrderSets,
    RankerState,
    _cg_step,
    _loss_grad,
    _pair_dot,
    _pair_tdot,
    _upper_pairs,
    classify_pairs,
    infer_pairs,
    load_checkpoint,
    partition_blocks,
    save_checkpoint,
    score_all,
    sigmoid,
    update,
)
from width_oracle import confidence_width


def make_candidates(features: np.ndarray, grades=None) -> QueryCandidates:
    grades = grades if grades is not None else [0] * len(features)
    return QueryCandidates("q", features, grades)


class TestScore:
    def test_zero_theta(self):
        state = RankerState.initial(3, lam=1.0)
        assert score_all(state, np.array([[1.0, -2.0, 0.5]])).tolist() == [0.0]

    def test_dot_product(self):
        state = RankerState.initial(2, lam=1.0)
        state.theta = np.array([1.0, 2.0])
        assert score_all(state, np.array([[3.0, 1.0], [0.0, -1.0]])).tolist() == [5.0, -2.0]

    def test_dimension_mismatch(self):
        state = RankerState.initial(2, lam=1.0)
        with pytest.raises(DimensionError):
            score_all(state, np.array([[1.0, 2.0, 3.0]]))

    def test_matches_grade_order_on_true_theta(self):
        from fairexp.data import SyntheticSpec, synthetic_splits

        ds = synthetic_splits(SyntheticSpec(n_queries=10, docs_per_query=8, d=5, seed=0), 0, 0)[0]
        state = RankerState.initial(5, lam=1.0)
        state.theta = ds.true_theta
        for q in ds.queries:
            order = np.argsort(-score_all(state, q.feature_matrix()))
            grades = q.grades()[order]
            assert np.all(np.diff(grades) <= 0)


class TestPairwiseProb:
    """The probability that document i ranks above j, sigmoid((x_i - x_j) @ theta),
    as ``classify_pairs`` and ``update`` compute it."""

    def test_equal_vectors(self):
        state = RankerState.initial(2, lam=1.0)
        state.theta = np.array([0.3, -0.7])
        assert sigmoid(np.subtract([1.0, 2.0], [1.0, 2.0]) @ state.theta) == 0.5

    def test_sigmoid_of_one(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=4)
        diffs = rng.normal(size=(500, 4)) - rng.normal(size=(500, 4))
        total = sigmoid(diffs @ theta) + sigmoid(-diffs @ theta)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_sigmoid_extremes_finite(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(0.0) == 0.5


class TestConfidenceWidth:
    def test_zero_for_identical(self):
        state = RankerState.initial(3, lam=0.5)
        assert confidence_width(state, [1.0, 0.0, 2.0], [1.0, 0.0, 2.0], alpha=3.0) == 0.0

    def test_identity_metric_unit_vector(self):
        state = RankerState.initial(2, lam=1.0)
        assert confidence_width(state, [1.0, 0.0], [0.0, 0.0], alpha=1.0) == pytest.approx(1.0)

    def test_nonincreasing_as_information_accumulates(self):
        # oracle: recompute the quadratic form from an explicitly inverted
        # matrix after every rank-one addition; the width can only shrink
        rng = np.random.default_rng(1)
        d = 4
        state = RankerState.initial(d, lam=1.0)
        xi, xj = rng.normal(size=d), rng.normal(size=d)
        diff = xi - xj
        prev = confidence_width(state, xi, xj, alpha=1.0)
        for _ in range(50):
            v = rng.normal(size=d)
            update(state, v.reshape(1, -1), np.array([1.0]))
            explicit = np.sqrt(diff @ np.linalg.inv(state.info_matrix) @ diff)
            width = confidence_width(state, xi, xj, alpha=1.0)
            assert width == pytest.approx(explicit, rel=1e-9)
            assert width <= prev + 1e-12
            prev = width


class TestClassifyPairs:
    def test_alpha_zero_all_certain(self):
        state = RankerState.initial(1, lam=1.0)
        state.theta = np.array([1.0])
        cands = make_candidates(np.array([[3.0], [2.0], [1.0]]))
        sets = classify_pairs(state, cands, alpha=0.0)
        assert sets.certain == {(0, 1), (0, 2), (1, 2)}
        assert sets.n_pairs() == 3

    def test_huge_alpha_all_uncertain(self):
        state = RankerState.initial(1, lam=1.0)
        state.theta = np.array([1.0])
        cands = make_candidates(np.array([[3.0], [2.0], [1.0]]))
        sets = classify_pairs(state, cands, alpha=1e6)
        assert not sets.certain
        assert sets.n == 3

    def test_probability_point_six_width_point_05(self):
        # sigma = 0.6 with width 0.05 leaves the interval above 1/2
        state = RankerState.initial(1, lam=1.0)
        state.theta = np.array([1.0])
        z = np.log(0.6 / 0.4)
        cands = make_candidates(np.array([[z], [0.0]]))
        alpha = 0.05 / abs(z)  # M = I so the width is alpha * |diff|
        sets = classify_pairs(state, cands, alpha=alpha)
        assert sets.certain == {(0, 1)}

    def test_interval_touching_half_is_uncertain(self):
        state = RankerState.initial(1, lam=1.0)
        state.theta = np.array([0.0])  # sigma = 0.5 exactly, any width
        cands = make_candidates(np.array([[1.0], [0.0]]))
        sets = classify_pairs(state, cands, alpha=0.0)
        assert sets.certain == set() and sets.n_pairs() == 1

    def test_partition_of_all_pairs(self):
        rng = np.random.default_rng(2)
        state = RankerState.initial(3, lam=0.3)
        state.theta = rng.normal(size=3)
        cands = make_candidates(rng.normal(size=(7, 3)))
        sets = classify_pairs(state, cands, alpha=0.2)
        assert sets.n == 7 and sets.n_pairs() == 21
        for i, j in sets.certain:
            assert 0 <= i < 7 and 0 <= j < 7 and (j, i) not in sets.certain


def test_classify_pairs_shares_one_read_only_index_pair_per_n():
    idx_i, idx_j = _upper_pairs(5)
    assert _upper_pairs(5)[0] is idx_i
    assert [a.tolist() for a in np.triu_indices(5, k=1)] == [idx_i.tolist(), idx_j.tolist()]
    with pytest.raises(ValueError):
        idx_j[0] = 0


def classify_by_pair(state, feats, alpha):
    """The definition of ``classify_pairs``: one quadratic form per pair and a
    loop over the pairs, giving the certain pairs. Also returns the pairs
    whose nonzero width puts p - w or p + w within 1e-12 of 1/2, where the
    rounding of the width decides the class."""
    idx_i, idx_j = np.triu_indices(len(feats), k=1)
    diffs = feats[idx_i] - feats[idx_j]
    probs = sigmoid(diffs @ state.theta)
    quad = np.einsum("pd,de,pe->p", diffs, state.info_inverse(), diffs)
    widths = alpha * np.sqrt(np.maximum(quad, 0.0))
    certain, near_half = set(), set()
    for i, j, p, w in zip(idx_i.tolist(), idx_j.tolist(), probs, widths):
        if p - w > 0.5:
            certain.add((i, j))
        elif p + w < 0.5:
            certain.add((j, i))
        if w > 0 and min(abs(p - w - 0.5), abs(p + w - 0.5)) < 1e-12:
            near_half.add((i, j))
    return certain, near_half


@st.composite
def classify_instances(draw):
    """Candidates, a state whose information matrix ``update`` built from
    random pairs, and alpha. The sizes n in 1..40 and d in 1..136 come from
    the drawn seed, so they spread evenly over their ranges; duplicate rows,
    theta = 0 and alpha = 0 are each drawn as a case of their own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = int(rng.integers(1, 41)), int(rng.integers(1, 137))
    feats = rng.normal(size=(n, d)) * draw(st.sampled_from([0.01, 1.0, 10.0]))
    if draw(st.booleans()):
        feats[rng.integers(0, n, size=n // 2)] = feats[rng.integers(0, n, size=n // 2)]
    state = RankerState.initial(d, lam=draw(st.sampled_from([0.01, 0.1, 1.0, 10.0])))
    m = int(rng.integers(0, 2 * d + 1))
    update(state, rng.normal(size=(m, d)), (rng.random(m) < 0.5).astype(float))
    state.theta = rng.normal(size=d) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    alpha = draw(st.sampled_from([0.0, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0]))
    return feats, state, alpha


class TestClassifyPairsMatchesTheDefinition:
    @given(instance=classify_instances())
    def test_same_sets_as_one_quadratic_form_per_pair(self, instance):
        feats, state, alpha = instance
        got = classify_pairs(state, make_candidates(feats), alpha)
        certain, near_half = classify_by_pair(state, feats, alpha)
        n = len(feats)
        assert got.n == n and got.n_pairs() == n * (n - 1) // 2

        def settled(pairs):
            return {(i, j) for i, j in pairs if (min(i, j), max(i, j)) not in near_half}

        assert settled(got.certain) == settled(certain)

    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.1, 1.0, 1e9])
    def test_identical_documents_stay_uncertain(self, alpha):
        rng = np.random.default_rng(9)
        state = RankerState.initial(5, lam=0.1)
        update(state, rng.normal(size=(12, 5)), np.ones(12))
        row = rng.normal(size=5)
        sets = classify_pairs(state, make_candidates(np.stack([row, row])), alpha)
        assert sets.certain == set() and sets.n == 2

    def test_one_candidate_has_no_pairs(self):
        state = RankerState.initial(3, lam=1.0)
        state.theta = np.array([1.0, -1.0, 0.5])
        sets = classify_pairs(state, make_candidates(np.ones((1, 3))), alpha=0.1)
        assert sets.certain == set() and sets.n_pairs() == 0

    def test_alpha_zero_orders_near_identical_documents_by_probability(self):
        # rows 1e-9 apart: their Gram-form quadratic forms are rounding noise
        # of either sign, and at alpha = 0 every such pair must still be
        # certain, in the direction of p, as the definition says
        rng = np.random.default_rng(10)
        d = 136
        state = RankerState.initial(d, lam=0.1)
        update(state, rng.normal(size=(40, d)), np.ones(40))
        state.theta = rng.normal(size=d)
        feats = rng.normal(size=d) + 1e-9 * rng.normal(size=(40, d))
        sets = classify_pairs(state, make_candidates(feats), alpha=0.0)
        certain, _ = classify_by_pair(state, feats, 0.0)
        assert sets.certain == certain and len(certain) == sets.n_pairs()


@st.composite
def partition_instances(draw):
    """``classify_pairs`` output for n in 1..40 candidates, d in 1..8, a
    state whose information matrix ``update`` built from up to 30d random
    pairs, and alpha up to 10. About 1 in 30 examples has certain orders
    that contradict each other through uncertain pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = int(rng.integers(1, 41)), int(rng.integers(1, 9))
    state = RankerState.initial(d, lam=draw(st.sampled_from([0.01, 0.1, 1.0])))
    m = int(rng.integers(0, 30 * d + 1))
    update(state, rng.normal(size=(m, d)), (rng.random(m) < 0.5).astype(float))
    state.theta = rng.normal(size=d) * draw(st.sampled_from([0.0, 1.0, 10.0]))
    alpha = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0, 3.0, 10.0]))
    return n, classify_pairs(state, make_candidates(rng.normal(size=(n, d))), alpha)


@st.composite
def certain_set_instances(draw):
    """A random certain set over n in 1..40 documents: each pair is certain
    with a drawn probability, in the order of a random ranking or, with a
    second drawn probability, against it. Flipped pairs make certain orders
    contradict each other in cycles of any length; at a flip probability of
    1/2 every certain pair points a random way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 41))
    p_certain = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))
    p_flip = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    rank = rng.permutation(n)
    certain = set()
    for i, j in combinations(range(n), 2):
        if rng.random() < p_certain:
            win, lose = (i, j) if rank[i] < rank[j] else (j, i)
            certain.add((lose, win) if rng.random() < p_flip else (win, lose))
    return n, PairOrderSets(certain_matrix(certain, range(n)))


def uncertain_pairs(sets):
    """The pairs (i, j), i < j, that are certain in neither order."""
    return {
        (i, j)
        for i, j in combinations(range(sets.n), 2)
        if (i, j) not in sets.certain and (j, i) not in sets.certain
    }


def arc_list_partition(sets):
    """Reference for ``partition_blocks``: the strongly connected components
    of the pair-order digraph by an arc-list scan. Every document has an arc
    to itself, each uncertain pair an arc both ways and each certain pair one
    from winner to loser. After a sort by arc count, descending, scan the
    positions backwards and cut where no arc runs from a later position to an
    earlier one."""
    n = sets.n
    targets = [[doc] for doc in range(n)]
    for i, j in sets.certain:
        targets[i].append(j)
    for i, j in uncertain_pairs(sets):
        targets[i].append(j)
        targets[j].append(i)
    order = sorted(range(n), key=lambda doc: -len(targets[doc]))
    position = [0] * n
    for p, doc in enumerate(order):
        position[doc] = p
    blocks = []
    earliest_reached, end = n, n
    for p in reversed(range(n)):
        earliest_reached = min(earliest_reached, *map(position.__getitem__, targets[order[p]]))
        if earliest_reached == p:
            blocks.append(sorted(order[p:end]))
            end = p
    return blocks[::-1]


def reached(block, arcs, backwards):
    """The members of ``block`` that its first member reaches (or, with
    ``backwards``, that reach it) along ``arcs`` inside the block."""
    if backwards:
        arcs = {(j, i) for i, j in arcs}
    members, seen, todo = set(block), {block[0]}, [block[0]]
    while todo:
        u = todo.pop()
        for v in members - seen:
            if (u, v) in arcs:
                seen.add(v)
                todo.append(v)
    return seen


def uncertain_components_in_order(sets):
    """The earlier definition of the blocks: the connected components of the
    uncertain pairs, each sorted, in the order the certain pairs between them
    give; None where those pairs order no two components one way only."""
    n = sets.n
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in uncertain_pairs(sets):
            if label[i] != label[j]:
                label[i] = label[j] = min(label[i], label[j])
                changed = True
    components: dict[int, list[int]] = {}
    for doc in range(n):
        components.setdefault(label[doc], []).append(doc)
    blocks = sorted(
        components.values(),
        key=cmp_to_key(lambda a, b: -1 if (a[0], b[0]) in sets.certain else 1),
    )
    place = {doc: bi for bi, block in enumerate(blocks) for doc in block}
    if any(place[w] > place[l] for w, l in sets.certain):
        return None
    return blocks


class TestPartitionBlocks:
    def test_all_certain_gives_singletons_in_order(self):
        state = RankerState.initial(1, lam=1.0)
        state.theta = np.array([1.0])
        cands = make_candidates(np.array([[1.0], [3.0], [2.0]]))
        sets = classify_pairs(state, cands, alpha=0.0)
        partition = partition_blocks(cands, sets)
        assert partition.blocks == [[1], [2], [0]]

    def test_all_uncertain_gives_single_block(self):
        state = RankerState.initial(1, lam=1.0)
        cands = make_candidates(np.array([[1.0], [3.0], [2.0]]))
        sets = classify_pairs(state, cands, alpha=1e9)
        partition = partition_blocks(cands, sets)
        assert partition.blocks == [[0, 1, 2]]

    def test_two_block_shape(self):
        # {0,1} above {2,3,4}: cross pairs certain, inner pairs uncertain
        cands = make_candidates(np.zeros((5, 1)))
        certain = {(i, j) for i in (0, 1) for j in (2, 3, 4)}
        partition = partition_blocks(cands, PairOrderSets(certain_matrix(certain, range(5))))
        assert partition.blocks == [[0, 1], [2, 3, 4]]

    def test_component_cycle_merges_into_one_block(self):
        # components {0,1} and {2} of the uncertain pairs, with certain
        # orders between them pointing both ways: one strongly connected block
        cands = make_candidates(np.zeros((3, 1)))
        sets = PairOrderSets(certain_matrix({(0, 2), (2, 1)}, range(3)))
        assert partition_blocks(cands, sets).blocks == [[0, 1, 2]]

    def test_missing_pairs_are_uncertain(self):
        cands = make_candidates(np.zeros((3, 1)))
        for certain, blocks in [({(0, 1)}, [[0, 1, 2]]), ({(0, 1), (0, 2)}, [[0], [1, 2]])]:
            assert partition_blocks(cands, PairOrderSets(certain_matrix(certain, range(3)))).blocks == blocks

    def test_malformed_order_sets_rejected(self):
        cands = make_candidates(np.zeros((3, 1)))
        for certain, n, message in [
            ({(0, 1)}, 4, "cover 4 documents, not the 3"),
            ({(0, 0), (1, 2)}, 3, r"\(0, 0\)"),  # a self pair
            ({(0, 1), (1, 0), (1, 2)}, 3, r"\((0, 1|1, 0)\)"),  # both orders of one pair
        ]:
            with pytest.raises(ValueError, match=message):
                partition_blocks(cands, PairOrderSets(certain_matrix(certain, range(n))))

    @settings(max_examples=600)
    @given(instance=st.one_of(partition_instances(), certain_set_instances()))
    def test_random_instances_satisfy_invariants(self, instance):
        n, sets = instance
        partition = partition_blocks(make_candidates(np.zeros((n, 1))), sets)
        assert partition.blocks == arc_list_partition(sets)
        assert sorted(partition.documents()) == list(range(n))
        block_of = {doc: bi for bi, blk in enumerate(partition.blocks) for doc in blk}
        for i in range(n):
            for j in range(i + 1, n):
                if block_of[i] != block_of[j]:
                    first, second = (i, j) if block_of[i] < block_of[j] else (j, i)
                    assert (first, second) in sets.certain
        # arcs both ways for an uncertain pair, winner to loser for a certain one
        uncertain = uncertain_pairs(sets)
        arcs = sets.certain | uncertain | {(j, i) for i, j in uncertain}
        for block in partition.blocks:
            # strongly connected: no split into two parts with every pair
            # between them certain and pointing one way
            assert reached(block, arcs, backwards=False) == set(block)
            assert reached(block, arcs, backwards=True) == set(block)
        old = uncertain_components_in_order(sets)
        if old is not None:
            assert partition.blocks == old


def infer_pairs_by_loop(features, clicks):
    """The reference: every clicked position over every unclicked one at or
    above the last click, by a double loop over positions, clicked-major."""
    clicked = [p for p, c in enumerate(clicks) if c]
    last = clicked[-1] if clicked else -1
    unclicked = [p for p in range(last + 1) if not clicks[p]]
    diffs = [features[m] - features[n] for m in clicked for n in unclicked]
    return np.stack(diffs) if diffs else np.empty((0, features.shape[1]))


@st.composite
def click_patterns(draw):
    k = draw(st.integers(1, 10))
    d = draw(st.integers(1, 9))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    features = draw(arrays(np.float64, (k, d), elements=values))
    return features, draw(st.lists(st.booleans(), min_size=k, max_size=k))


class TestInferPairs:
    # _PairBuffer keeps rows in first-occurrence order and the refit sums in
    # that order, so the rows must come out in the reference's order, bit for bit
    @settings(max_examples=500)
    @given(instance=click_patterns())
    @example(instance=(np.arange(12.0).reshape(4, 3), [False] * 4))
    @example(instance=(np.arange(12.0).reshape(4, 3), [True, False, False, False]))
    @example(instance=(np.arange(12.0).reshape(4, 3), [True, True, True, False]))
    @example(instance=(np.arange(15.0).reshape(5, 3) ** 2, [False, True, False, True, False]))
    def test_rows_match_the_double_loop_in_order(self, instance):
        features, clicks = instance
        expected = infer_pairs_by_loop(features, clicks)
        diffs, labels = infer_pairs(features, clicks)
        assert diffs.dtype == expected.dtype and diffs.shape == expected.shape
        assert diffs.tobytes() == expected.tobytes()
        assert labels.dtype == np.float64 and labels.tolist() == [1.0] * len(expected)

    def test_no_clicks_no_pairs(self):
        diffs, labels = infer_pairs(np.eye(3), [False, False, False])
        assert diffs.shape == (0, 3) and labels.shape == (0,)

    def test_click_at_top_only(self):
        diffs, labels = infer_pairs(np.eye(3), [True, False, False])
        assert len(labels) == 0

    def test_clicks_at_one_and_three(self):
        feats = np.eye(5)
        diffs, labels = infer_pairs(feats, [True, False, True, False, False])
        assert len(labels) == 2 and np.all(labels == 1.0)
        expected = {tuple(feats[0] - feats[1]), tuple(feats[2] - feats[1])}
        assert {tuple(row) for row in diffs} == expected

    def test_all_clicked_window_has_no_negatives(self):
        diffs, labels = infer_pairs(np.eye(4), [True, True, True, False])
        assert len(labels) == 0


def pairwise_loss(theta, x, y, lam):
    """The fit's objective summed over every buffered pair, one row each."""
    z = x @ theta
    return float(np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * theta @ theta)


def pairwise_grad(theta, x, y, lam):
    """The gradient of ``pairwise_loss``."""
    return x.T @ (sigmoid(x @ theta) - y) + lam * theta


def newton_fit_per_pair(theta, x, y, lam):
    """Reference for ``update``'s fit: damped Newton over every pair, one
    row per pair, with a line search that accepts only a lower loss."""

    def loss_grad(t):
        s = sigmoid(x @ t)
        return pairwise_loss(t, x, y, lam), x.T @ (s - y) + lam * t, s

    loss, grad, s = loss_grad(theta)
    for _ in range(MAX_NEWTON_ITERS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        hess = (x * (s * (1.0 - s))[:, None]).T @ x + lam * np.eye(len(theta))
        step = np.linalg.solve(hess, grad)
        for halving in range(50):
            cand = theta - 0.5**halving * step
            cand_loss, cand_grad, cand_s = loss_grad(cand)
            if cand_loss < loss:
                theta, loss, grad, s = cand, cand_loss, cand_grad, cand_s
                break
        else:
            break
    return theta


@st.composite
def document_histories(draw):
    """A document table with the zero row first and repeated documents,
    pairs over it (a document may meet itself) with labels 0 and 1 and
    counts 1 to 5, and a parameter vector, a direction and a ridge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    n_docs = draw(st.integers(1, 10))
    docs = rng.normal(size=(n_docs, d)) * rng.uniform(0.1, 3.0, size=d)
    docs[0] = 0.0
    docs = np.vstack([docs, docs[rng.integers(0, n_docs, size=draw(st.integers(0, n_docs)))]])
    u = draw(st.integers(1, 40))
    win, lose = rng.integers(0, len(docs), size=(2, u))
    labels = rng.integers(0, 2, size=u).astype(np.float64)
    counts = rng.integers(1, 6, size=u)
    theta = rng.normal(size=d) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    lam = draw(st.sampled_from([0.01, 0.1, 1.0]))
    return docs, win, lose, labels, counts, theta, rng.normal(size=d), lam


class TestUpdate:
    def test_empty_buffer_theta_zero(self):
        state = RankerState.initial(3, lam=0.7)
        update(state, np.empty((0, 3)), np.empty(0))
        np.testing.assert_array_equal(state.theta, np.zeros(3))

    def test_single_pair_reaches_tolerance(self):
        state = RankerState.initial(2, lam=0.5)
        diff = np.array([1.0, -0.5])
        update(state, diff.reshape(1, -1), np.array([1.0]))
        grad = diff * (sigmoid(float(diff @ state.theta)) - 1.0) + 0.5 * state.theta
        assert np.linalg.norm(grad) <= GRAD_TOL

    def test_info_matrix_accumulates_outer_products(self):
        state = RankerState.initial(2, lam=1.0)
        diffs = np.array([[1.0, 0.0], [0.0, 2.0]])
        update(state, diffs, np.ones(2))
        expected = np.eye(2) + diffs.T @ diffs
        np.testing.assert_allclose(state.info_matrix, expected)

    def test_info_matrix_stays_positive_definite(self):
        rng = np.random.default_rng(4)
        state = RankerState.initial(3, lam=0.2)
        for _ in range(30):
            m = int(rng.integers(0, 4))
            update(state, rng.normal(size=(m, 3)), np.ones(m))
            eigvals = np.linalg.eigvalsh(state.info_matrix)
            assert eigvals.min() >= 0.2 - 1e-9
            np.testing.assert_allclose(state.info_matrix, state.info_matrix.T)

    def test_loss_non_increasing_versus_warm_start(self):
        rng = np.random.default_rng(5)
        state = RankerState.initial(4, lam=0.3)
        for _ in range(10):
            diffs = rng.normal(size=(5, 4))
            labels = (rng.random(5) < 0.7).astype(float)
            warm = state.theta.copy()
            update(state, diffs, labels)
            x, y = state.pairs.x, state.pairs.y
            warm_loss = pairwise_loss(warm, x, y, state.lam)
            assert pairwise_loss(state.theta, x, y, state.lam) <= warm_loss + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_newton_fit_over_every_pair(self, seed):
        # each row repeats 1-5 times in a round, with mixed labels, and rows
        # come back in later rounds
        rng = np.random.default_rng(seed)
        d, lam = 5, 0.3
        base = rng.normal(size=(8, d))
        state = RankerState.initial(d, lam=lam)
        theta = np.zeros(d)
        xs, ys = [], []
        for _ in range(6):
            rows = rng.integers(0, len(base), size=3)
            diffs = np.repeat(base[rows], rng.integers(1, 6, size=3), axis=0)
            labels = rng.integers(0, 2, size=len(diffs)).astype(float)
            update(state, diffs, labels)
            xs.append(diffs)
            ys.append(labels)
            x, y = np.concatenate(xs), np.concatenate(ys)
            theta = newton_fit_per_pair(theta, x, y, lam)
            assert np.linalg.norm(state.theta - theta) <= 1e-9 * np.linalg.norm(theta)
            assert state.pairs.n == len(state.pairs.x) == len(x)
            assert len(state.pairs.rows) < len(x)
            expected = lam * np.eye(d) + state.pairs.x.T @ state.pairs.x
            np.testing.assert_allclose(state.info_matrix, expected, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_newton_fit_over_every_pair_on_the_cg_path(self, seed, monkeypatch):
        # The loss is lam-strongly convex, so a point with gradient g lies
        # within ||g|| / lam of the optimum, and two fits within the sum of
        # those radii of each other.
        rng = np.random.default_rng(seed)
        d, lam = DIRECT_SOLVE_MAX_D + 8, 0.3
        base = rng.normal(size=(30, d))
        steps = []
        real_step = ranker._cg_step
        monkeypatch.setattr(ranker, "_cg_step", lambda *a: steps.append(1) or real_step(*a))
        state = RankerState.initial(d, lam=lam)
        theta = np.zeros(d)
        xs, ys = [], []
        for _ in range(6):
            rows = rng.integers(0, len(base), size=10)
            diffs = np.repeat(base[rows], rng.integers(1, 4, size=10), axis=0)
            labels = rng.integers(0, 2, size=len(diffs)).astype(float)
            update(state, diffs, labels)
            xs.append(diffs)
            ys.append(labels)
            x, y = np.concatenate(xs), np.concatenate(ys)
            theta = newton_fit_per_pair(theta, x, y, lam)
            radii = (
                np.linalg.norm(pairwise_grad(state.theta, x, y, lam))
                + np.linalg.norm(pairwise_grad(theta, x, y, lam))
            ) / lam
            assert np.linalg.norm(state.theta - theta) <= radii
        assert steps

    @pytest.mark.parametrize("u, d, lam", [(20, 40, 0.5), (200, 40, 0.1), (500, 136, 0.1)])
    def test_cg_step_solves_the_newton_system_to_its_residual(self, u, d, lam):
        # u < d leaves x^T W x singular, so only the ridge makes H invertible
        rng = np.random.default_rng(u + d)
        x = rng.normal(size=(u, d)) * rng.uniform(0.1, 2.0, size=d)
        counts = rng.integers(1, 4, size=u).astype(float)
        s = sigmoid(x @ rng.normal(size=d))
        w = counts * s * (1.0 - s)
        grad = rng.normal(size=d)
        precond = np.linalg.inv(lam * np.eye(d) + (x * counts[:, None]).T @ x)
        # each row of x is a document paired with the zero row
        docs = np.vstack([np.zeros(d), x])
        win, lose = np.arange(1, u + 1), np.zeros(u, dtype=np.intp)
        step = _cg_step(docs, win, lose, w, lam, grad, precond)
        hess = x.T @ np.diag(w) @ x + lam * np.eye(d)
        assert np.linalg.norm(hess @ step - grad) <= CG_RTOL * np.linalg.norm(grad)

    @settings(max_examples=200, deadline=None)
    @given(instance=document_histories())
    def test_document_space_products_match_the_difference_rows(self, instance):
        docs, win, lose, y, c, theta, v, lam = instance
        x = docs[win] - docs[lose]
        z = x @ theta
        s = sigmoid(z)
        loss, grad, got_s = _loss_grad(theta, docs, win, lose, y, c, lam)
        # the pair-space formulas, one difference row per distinct pair
        ref_loss = float(np.sum(c * (np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * theta @ theta)
        ref_grad = x.T @ (c * (s - y)) + lam * theta
        w = c * s * (1.0 - s)
        ref_hvp = x.T @ (w * (x @ v)) + lam * v
        hvp = _pair_tdot(docs, win, lose, w * _pair_dot(docs, win, lose, v)) + lam * v
        # over the difference rows themselves the products are the formulas
        rows_loss, rows_grad, _ = _loss_grad(theta, x, None, None, y, c, lam)
        assert rows_loss == ref_loss and rows_grad.tobytes() == ref_grad.tobytes()
        rows_hvp = _pair_tdot(x, None, None, w * _pair_dot(x, None, None, v)) + lam * v
        assert rows_hvp.tobytes() == ref_hvp.tobytes()
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        np.testing.assert_allclose(got_s, s, rtol=1e-12, atol=1e-12)
        # the products sum the two documents' terms, which may cancel, so
        # each coordinate is compared relative to its terms' magnitudes
        mags = np.abs(docs[win]) + np.abs(docs[lose])
        scale = mags.T @ np.abs(c * (s - y)) + lam * np.abs(theta)
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * scale)
        scale = mags.T @ (w * (mags @ np.abs(v))) + lam * np.abs(v)
        assert np.all(np.abs(hvp - ref_hvp) <= 1e-12 * scale)

    @pytest.mark.parametrize("d", [6, DIRECT_SOLVE_MAX_D + 8])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_update_with_the_shown_documents_matches_one_without(self, d, seed):
        rng = np.random.default_rng(seed)
        # a few documents, shown again and again, one of them all zeros; a
        # list shows each document at most once
        pool = rng.normal(size=(int(rng.integers(3, 9)), d))
        pool[0] = 0.0
        lam = 0.3
        with_docs, without = RankerState.initial(d, lam), RankerState.initial(d, lam)
        for _ in range(int(rng.integers(1, 8))):
            feats = pool[rng.choice(len(pool), size=int(rng.integers(1, len(pool))), replace=False)]
            clicks = rng.random(len(feats)) < 0.4
            diffs, _ = infer_pairs(feats, clicks)
            labels = rng.integers(0, 2, size=len(diffs)).astype(float)
            update(with_docs, diffs, labels, (feats, clicks))
            update(without, diffs, labels)
            a, b = with_docs.pairs, without.pairs
            assert a.rows.tobytes() == b.rows.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.counts.tolist() == b.counts.tolist() and a.n == b.n
            assert with_docs.info_matrix.tobytes() == without.info_matrix.tobytes()
            assert len(a.docs) <= len(pool) + 1
            x, y = a.x, a.y
            if not len(x):
                continue
            radii = (
                np.linalg.norm(pairwise_grad(with_docs.theta, x, y, lam))
                + np.linalg.norm(pairwise_grad(without.theta, x, y, lam))
            ) / lam
            assert np.linalg.norm(with_docs.theta - without.theta) <= radii

    def test_a_wide_fit_with_more_pairs_than_documents_runs_through_the_documents(
        self, monkeypatch
    ):
        rng = np.random.default_rng(3)
        d, lam = DIRECT_SOLVE_MAX_D + 8, 0.3
        pool = rng.normal(size=(6, d))
        steps = []
        real_step = ranker._cg_step
        monkeypatch.setattr(
            ranker, "_cg_step", lambda docs, win, *a: steps.append(win) or real_step(docs, win, *a)
        )
        state = RankerState.initial(d, lam)
        # one pair over two documents first, then lists with more pairs
        update(state, *infer_pairs(pool[:2], [False, True]), (pool[:2], [False, True]))
        for _ in range(12):
            feats = pool[rng.permutation(len(pool))]
            clicks = rng.random(len(pool)) < 0.5
            update(state, *infer_pairs(feats, clicks), (feats, clicks))
        pairs = state.pairs
        assert len(pairs.labels) > len(pairs.docs)
        # the first fits had fewer pairs than documents and ran over the rows
        assert steps[0] is None and steps[-1] is not None
        x, y = pairs.x, pairs.y
        theta = newton_fit_per_pair(np.zeros(d), x, y, lam)
        radii = (
            np.linalg.norm(pairwise_grad(state.theta, x, y, lam))
            + np.linalg.norm(pairwise_grad(theta, x, y, lam))
        ) / lam
        assert np.linalg.norm(state.theta - theta) <= radii

    def test_shown_rows_that_do_not_give_the_pairs_are_rejected(self):
        state = RankerState.initial(2, lam=0.5)
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        diffs, labels = infer_pairs(feats, [False, True, False])
        with pytest.raises(ValueError, match="the shown clicks give 2 pairs, not 1"):
            update(state, diffs, labels, (feats, [False, True, True]))
        with pytest.raises(ValueError, match="2 clicks for 3 displayed rows"):
            update(state, diffs, labels, (feats, [False, True]))
        with pytest.raises(DimensionError):
            update(state, diffs, labels, (feats[:, :1], [False, True, False]))
        assert state.round == 0 and state.pairs.n == 0

    def test_diffs_that_are_not_the_shown_pairs_are_refused(self, tmp_path):
        # the buffer keeps the shown pairs and the information matrix gains
        # diffs.T @ diffs, so the two must describe the same pairs
        state = state_from_shown_lists(3)
        theta, info = state.theta.copy(), state.info_matrix.copy()
        n, rounds = state.pairs.n, state.round
        feats = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        clicks = [False, True, True]
        diffs, labels = infer_pairs(feats, clicks)
        noise = np.random.default_rng(0).normal(size=diffs.shape)
        for wrong in (noise, diffs[::-1], diffs + 1e-12):
            with pytest.raises(ValueError, match="diffs are not the clicked shown rows"):
                update(state, wrong, labels, (feats, clicks))
        np.testing.assert_array_equal(state.theta, theta)
        np.testing.assert_array_equal(state.info_matrix, info)
        assert state.pairs.n == n and state.round == rounds
        update(state, diffs, labels, (feats, clicks))
        save_checkpoint(state, tmp_path / "ckpt.npz")
        assert_same_state(load_checkpoint(tmp_path / "ckpt.npz"), state)

    def test_pairs_of_other_documents_stay_apart_when_their_differences_are_equal(self):
        # clicked 1 and 3 over skipped 0 and 2: 1 - 0 and 3 - 2 are both (1, 0)
        feats = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [2.0, 0.0]])
        clicks = [False, True, False, True]
        diffs, labels = infer_pairs(feats, clicks)
        with_docs, without = RankerState.initial(2, 0.5), RankerState.initial(2, 0.5)
        update(with_docs, diffs, labels, (feats, clicks))
        update(without, diffs, labels)
        assert with_docs.pairs.counts.tolist() == [1, 1, 1, 1]
        assert without.pairs.counts.tolist() == [2, 1, 1]
        np.testing.assert_array_equal(with_docs.pairs.x, diffs)
        np.testing.assert_array_equal(without.pairs.x, diffs[[0, 3, 1, 2]])
        np.testing.assert_allclose(with_docs.theta, without.theta, rtol=1e-12)

    def test_shown_documents_are_stored_once(self):
        state = RankerState.initial(2, lam=0.5)
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        # clicked 1 over skipped 0, then 2 over 0 and 1; 3 is below the last click
        clicks = [False, True, False, False]
        update(state, *infer_pairs(feats, clicks), (feats, clicks))
        clicks = [False, False, True, False]
        update(state, *infer_pairs(feats[[1, 0, 2, 3]], clicks), (feats[[1, 0, 2, 3]], clicks))
        np.testing.assert_array_equal(state.pairs.docs, [[0.0, 0.0], *feats[:3]])
        assert state.pairs.win.tolist() == [2, 3, 3]
        assert state.pairs.lose.tolist() == [1, 2, 1]
        expected = [feats[1] - feats[0], feats[2] - feats[1], feats[2] - feats[0]]
        np.testing.assert_array_equal(state.pairs.rows, expected)

    def test_an_empty_round_after_a_converged_fit_does_not_refit(self, monkeypatch):
        state = RankerState.initial(3, lam=0.4)
        update(state, np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]]), np.ones(2))
        x, y = state.pairs.x, state.pairs.y
        assert np.linalg.norm(pairwise_grad(state.theta, x, y, state.lam)) <= GRAD_TOL
        self.assert_no_refit(state, monkeypatch)

    def test_an_empty_round_after_a_stalled_fit_does_not_refit(self, monkeypatch):
        state = RankerState.initial(3, lam=0.4)
        real = ranker._loss_grad
        losses = []

        def tying(theta, *args):
            # every candidate ties the warm start's loss, so the fit stalls
            loss, grad, s = real(theta, *args)
            losses.append(loss)
            return (losses[0], grad, s)

        with monkeypatch.context() as patch:
            patch.setattr(ranker, "_loss_grad", tying)
            update(state, np.array([[1.0, -1.0, 0.5]]), np.ones(1))
        assert len(losses) == 51
        self.assert_no_refit(state, monkeypatch)

    @staticmethod
    def assert_no_refit(state, monkeypatch):
        theta, rounds = state.theta.copy(), state.round
        monkeypatch.setattr(ranker, "_loss_grad", lambda *a: pytest.fail("the fit ran"))
        update(state, np.empty((0, 3)), np.empty(0))
        np.testing.assert_array_equal(state.theta, theta)
        assert state.round == rounds + 1

    def test_an_empty_round_refits_after_running_out_of_iterations(self, monkeypatch):
        state = RankerState.initial(3, lam=0.4)
        diffs = np.array([[1.0, -1.0, 0.5], [0.2, 0.3, -1.0]])
        with monkeypatch.context() as patch:
            patch.setattr(ranker, "MAX_NEWTON_ITERS", 1)
            update(state, diffs, np.ones(2))
        x, y = state.pairs.x, state.pairs.y
        assert np.linalg.norm(pairwise_grad(state.theta, x, y, state.lam)) > GRAD_TOL
        update(state, np.empty((0, 3)), np.empty(0))
        assert np.linalg.norm(pairwise_grad(state.theta, x, y, state.lam)) <= GRAD_TOL

    def test_an_empty_round_refits_a_loaded_checkpoint(self, tmp_path, monkeypatch):
        state = state_with_repeated_pairs(9)
        save_checkpoint(state, tmp_path / "ckpt.npz")
        resumed = load_checkpoint(tmp_path / "ckpt.npz")
        calls = []
        real = ranker._loss_grad
        monkeypatch.setattr(ranker, "_loss_grad", lambda *a: calls.append(1) or real(*a))
        update(resumed, np.empty((0, 3)), np.empty(0))
        assert calls

    def test_repeated_pairs_are_stored_once_with_their_counts(self):
        state = RankerState.initial(2, lam=0.5)
        a, b = [1.0, 0.0], [0.0, 2.0]
        update(state, np.array([a, b, a]), np.array([1.0, 1.0, 1.0]))
        update(state, np.array([a, a]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(state.pairs.rows, [a, b, a])
        np.testing.assert_array_equal(state.pairs.labels, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(state.pairs.counts, [3, 1, 1])
        assert state.pairs.n == 5
        np.testing.assert_array_equal(state.pairs.x, [a, a, a, b, a])
        np.testing.assert_array_equal(state.pairs.y, [1.0, 1.0, 1.0, 1.0, 0.0])

    def test_a_step_that_ties_the_loss_ends_the_fit(self, monkeypatch):
        from fairexp import ranker

        state = RankerState.initial(3, lam=0.4)
        update(state, np.eye(3), np.ones(3))
        warm = state.theta.copy()
        real = ranker._loss_grad
        losses = []

        def tying(theta, *args):
            # every candidate ties the warm start's loss, as rounding can make it
            loss, grad, s = real(theta, *args)
            losses.append(loss)
            return (losses[0], grad, s)

        monkeypatch.setattr(ranker, "_loss_grad", tying)
        diffs = np.array([[1.0, -1.0, 0.5]])
        update(state, diffs, np.ones(1))
        # the warm start and 50 halvings, none of them accepted
        assert len(losses) == 51
        np.testing.assert_array_equal(state.theta, warm)

    @pytest.mark.parametrize(
        "where, value",
        [("diffs", np.nan), ("diffs", np.inf), ("diffs", -np.inf), ("labels", np.nan)],
    )
    @pytest.mark.parametrize("with_shown", [False, True])
    def test_non_finite_input_is_refused_before_the_state_changes(self, where, value, with_shown):
        state = state_from_shown_lists(2)
        theta, info, inv = state.theta.copy(), state.info_matrix.copy(), state.info_inverse().copy()
        n, rounds = state.pairs.n, state.round
        feats = np.array([[1.0, 0.0, 2.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        clicks = [False, True, True]
        diffs, labels = infer_pairs(feats, clicks)
        if where == "diffs":
            feats[0, 1] = value
            diffs, _ = infer_pairs(feats, clicks)
        else:
            labels[1] = value
        with pytest.raises(ValueError, match=f"{where} holds values that are not finite"):
            update(state, diffs, labels, (feats, clicks) if with_shown else None)
        np.testing.assert_array_equal(state.theta, theta)
        np.testing.assert_array_equal(state.info_matrix, info)
        np.testing.assert_array_equal(state.info_inverse(), inv)
        assert state.pairs.n == n and state.round == rounds

    @pytest.mark.parametrize("d", [3, 8, DIRECT_SOLVE_MAX_D + 8])
    def test_the_maintained_inverse_tracks_a_fresh_one(self, d, tmp_path):
        # 240 updates: shown lists of recurring documents, and bare
        # difference rows drawn with repeats from a few, every tenth round
        # d + 2 of them, which drops the kept inverse (as does every round
        # at d <= DIRECT_SOLVE_MAX_D); the checkpoint loaded halfway
        # carries no inverse
        rng = np.random.default_rng(d)
        pool = rng.normal(size=(10, d))
        state = RankerState.initial(d, lam=0.3)
        assert_inverse_is_fresh(state)
        for t in range(240):
            if t == 120:
                save_checkpoint(state, tmp_path / "ckpt.npz")
                state = load_checkpoint(tmp_path / "ckpt.npz")
            if t % 2:
                feats = pool[rng.choice(len(pool), size=int(rng.integers(2, 8)), replace=False)]
                clicks = rng.random(len(feats)) < 0.4
                diffs, _ = infer_pairs(feats, clicks)
                shown = (feats, clicks)
            else:
                p = d + 2 if t % 10 == 0 else int(rng.integers(0, min(d, 6)))
                diffs, shown = pool[rng.integers(0, len(pool), size=p)], None
            update(state, diffs, rng.integers(0, 2, size=len(diffs)).astype(float), shown)
            assert_inverse_is_fresh(state)

    def test_a_long_chain_of_rank_p_updates_stays_within_tolerance(self):
        # 300 Woodbury steps in a row, none dropping the kept inverse, on
        # rows whose feature scales span 1e-3 to 1e2 (cond(M) near 1.5e8 at
        # the end); the drift is checked along the way and at the end
        d = DIRECT_SOLVE_MAX_D + 8
        rng = np.random.default_rng(d)
        pool = rng.normal(size=(30, d)) * np.logspace(-3, 2, d)
        state = RankerState.initial(d, lam=0.3)
        for t in range(300):
            p = int(rng.integers(1, (d + 1) // 2))
            picks = rng.integers(0, len(pool), size=(2, p))
            update(state, pool[picks[0]] - pool[picks[1]], rng.integers(0, 2, size=p).astype(float))
            assert state._info_inv is not None
            if t % 50 == 49:
                assert_inverse_is_fresh(state)

    def test_learns_true_preferences(self):
        # pairs labeled by a hidden vector; the fit must order held-out pairs
        rng = np.random.default_rng(6)
        d = 6
        theta_star = rng.normal(size=d)
        theta_star /= np.linalg.norm(theta_star)
        state = RankerState.initial(d, lam=0.1)
        errors = []
        for chunk in range(20):
            diffs = rng.normal(size=(50, d))
            labels = (diffs @ theta_star > 0).astype(float)
            update(state, diffs, labels)
            errors.append(np.linalg.norm(state.theta / np.linalg.norm(state.theta) - theta_star))
        assert errors[-1] < errors[0]
        held = rng.normal(size=(2000, d))
        accuracy = np.mean((held @ state.theta > 0) == (held @ theta_star > 0))
        assert accuracy >= 0.95


# how far the inverse that ``update`` maintains may drift from a fresh
# ``np.linalg.inv`` of the information matrix, relative to the largest entry
INVERSE_RTOL = 1e-10


def assert_inverse_is_fresh(state: RankerState) -> None:
    inv = state.info_inverse()
    fresh = np.linalg.inv(state.info_matrix)
    scale = np.max(np.abs(fresh))
    assert np.max(np.abs(inv - fresh)) <= INVERSE_RTOL * scale
    assert np.max(np.abs(inv - inv.T)) <= INVERSE_RTOL * scale


def state_with_repeated_pairs(seed: int, d: int = 3) -> RankerState:
    """A state whose buffer holds repeated pairs: rows drawn from a few
    base vectors, with mixed labels."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(4, d))
    state = RankerState.initial(d, lam=0.4)
    for _ in range(3):
        diffs = base[rng.integers(0, len(base), size=6)]
        update(state, diffs, (rng.random(6) < 0.5).astype(float))
    assert len(state.pairs.rows) < state.pairs.n
    return state


def state_from_shown_lists(seed: int, d: int = 3) -> RankerState:
    """A state fed as the round loop feeds it: lists of a few documents
    with their clicks, so documents recur and pairs repeat."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(5, d))
    state = RankerState.initial(d, lam=0.4)
    for _ in range(8):
        feats = pool[rng.choice(len(pool), size=4, replace=False)]
        clicks = rng.random(4) < 0.5
        update(state, *infer_pairs(feats, clicks), (feats, clicks))
    assert len(state.pairs.docs) < len(state.pairs.rows) < state.pairs.n
    return state


def assert_same_pairs(loaded: RankerState, state: RankerState) -> None:
    assert loaded.pairs.n == state.pairs.n
    for name in ("rows", "labels", "counts"):
        got, want = getattr(loaded.pairs, name), getattr(state.pairs, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_same_state(loaded: RankerState, state: RankerState) -> None:
    np.testing.assert_array_equal(loaded.theta, state.theta)
    np.testing.assert_array_equal(loaded.info_matrix, state.info_matrix)
    assert loaded.lam == state.lam
    assert loaded.round == state.round
    assert_same_pairs(loaded, state)
    for name in ("docs", "win", "lose"):
        np.testing.assert_array_equal(getattr(loaded.pairs, name), getattr(state.pairs, name))


def saved_arrays(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        state = state_from_shown_lists(7)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        arrays = saved_arrays(path)
        assert int(arrays["version"]) == CHECKPOINT_VERSION == 4
        assert "pairs_x" not in arrays
        assert "minmax_lo" not in arrays and "minmax_hi" not in arrays
        pairs = state.pairs
        saved = {
            "theta": state.theta,
            "info_matrix": state.info_matrix,
            "pairs_docs": pairs.docs,
            "pairs_win": pairs.win,
            "pairs_lose": pairs.lose,
            "pairs_y": pairs.labels,
            "pairs_count": pairs.counts,
        }
        for name, value in saved.items():
            got = arrays[name]
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
        loaded = load_checkpoint(path)
        assert_same_state(loaded, state)
        assert loaded.minmax_bounds is None
        save_checkpoint(loaded, tmp_path / "again.npz")
        again = saved_arrays(tmp_path / "again.npz")
        assert all(again[name].tobytes() == arrays[name].tobytes() for name in arrays)

    def test_min_max_bounds_roundtrip(self, tmp_path):
        state = state_with_repeated_pairs(9)
        state.minmax_bounds = (np.linspace(-1.0, 1.0, state.d), np.linspace(2.0, 5.0, state.d))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert_same_state(loaded, state)
        for got, want in zip(loaded.minmax_bounds, state.minmax_bounds):
            np.testing.assert_array_equal(got, want)

    def test_resumed_state_updates_like_original(self, tmp_path):
        state = state_with_repeated_pairs(8, d=2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        resumed = load_checkpoint(path)
        extra = np.concatenate([state.pairs.rows[:2], np.random.default_rng(8).normal(size=(3, 2))])
        update(state, extra, np.ones(5))
        update(resumed, extra, np.ones(5))
        assert_same_state(resumed, state)

    # versions 1 to 3 stored each pair as its difference row; nothing writes them any more
    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_an_unknown_version_is_rejected(self, tmp_path, version):
        path = tmp_path / "ckpt.npz"
        write_tampered_checkpoint(path, lambda arrays: arrays.update(version=np.array(version)))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)


def _replace(name, value):
    def change(arrays):
        arrays[name] = value(arrays[name])

    return change


def _drop(name):
    def change(arrays):
        del arrays[name]

    return change


def _set(name, index, value):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value

    return change


def _shift(name, by):
    def change(arrays):
        arrays[name] = arrays[name] + by(arrays)

    return change


def _negative_direction(arrays):
    # symmetric, but with a negative eigenvalue along the first axis
    info = arrays["info_matrix"].copy()
    info[0, 0] = -info[0, 0]
    arrays["info_matrix"] = info


TAMPERED_CHECKPOINTS = [
    (_replace("theta", lambda a: a.reshape(-1, 1)), "theta has shape"),
    (_replace("theta", lambda a: a[:-1]), "info_matrix has shape"),
    (_replace("info_matrix", lambda a: a[:, :-1]), "info_matrix has shape"),
    (_replace("pairs_y", lambda a: a[:-1]), "pairs_win has shape"),
    (_replace("lam", lambda a: np.array([a, a])), "lam has shape"),
    (_drop("pairs_y"), "no pairs_y"),
    (_drop("info_matrix"), "no info_matrix"),
    (_set("theta", 1, np.nan), "theta holds values that are not finite"),
    (_set("info_matrix", (2, 2), np.inf), "info_matrix holds values that are not finite"),
    (_set("pairs_y", 3, -np.inf), "pairs_y holds values that are not finite"),
    (_replace("lam", lambda a: np.array(np.nan)), "lam holds values that are not finite"),
    (_replace("lam", lambda a: np.array(0.0)), "lam is 0.0, not positive"),
    (_replace("lam", lambda a: np.array(-0.5)), "lam is -0.5, not positive"),
    (_replace("round", lambda a: np.array(-3)), "round is -3, not an integer of 0 or more"),
    (_replace("round", lambda a: np.array(2.7)), "round is 2.7, not an integer of 0 or more"),
    (_set("info_matrix", (0, 1), 5.0), "info_matrix is not symmetric"),
    (_negative_direction, "info_matrix is not positive definite"),
    (_replace("info_matrix", lambda a: np.zeros_like(a)), "info_matrix is not positive definite"),
    # symmetric positive definite, but not the matrix that the pairs give
    (_replace("info_matrix", lambda a: 100 * np.eye(len(a))), "info_matrix is .* off, in its"),
    (_replace("info_matrix", lambda a: a * (1 + 1e-8)), "info_matrix is .* off, in its largest"),
    (_set("pairs_count", 2, 2), "info_matrix is .* off, in its largest entry, from lam"),
    (_replace("lam", lambda a: a * 2), "info_matrix is 0.5 off, in its largest entry"),
    (_drop("pairs_count"), "no pairs_count"),
    (_replace("pairs_count", lambda a: a[:-1]), "pairs_count has shape"),
    (_set("pairs_count", 2, 0), "pairs_count holds values that are not positive integers"),
    (_set("pairs_count", 2, -3), "pairs_count holds values that are not positive integers"),
    (_replace("pairs_count", lambda a: a + 0.5), "pairs_count holds values that are not positive"),
    (_replace("pairs_count", lambda a: a * np.nan), "pairs_count holds values that are not finite"),
    (_set("pairs_count", 2, 2**62), "pairs_count holds values that are not positive integers up"),
    (_drop("minmax_hi"), "no minmax_hi"),
    (_replace("minmax_lo", lambda a: a[:-1]), "minmax_lo has shape"),
    (_set("minmax_hi", 1, np.inf), "minmax_hi holds values that are not finite"),
    (_set("minmax_lo", 2, 3.5), "minmax_lo holds values above minmax_hi"),
    (_drop("version"), "checkpoint has no version that is one integer"),
    (_replace("version", lambda a: np.array([a, a])), "no version that is one integer"),
    (_replace("version", lambda a: np.array(3.0)), "no version that is one integer"),
    (_shift("pairs_win", lambda a: len(a["pairs_docs"])), "pairs_win holds indices outside 0..6"),
    (_set("pairs_lose", 2, 7), "pairs_lose holds indices outside 0..6"),
    (_set("pairs_win", 0, -1), "pairs_win holds indices outside 0..6"),
    (_replace("pairs_lose", lambda a: a.astype(np.float64)), "pairs_lose has dtype float64, not"),
    (_replace("pairs_win", lambda a: a > 0), "pairs_win has dtype bool, not an integer one"),
    (_replace("pairs_docs", lambda a: a[:, :-1]), "pairs_docs has shape"),
    (_replace("pairs_docs", lambda a: a[0]), "pairs_docs has shape"),
    (_set("pairs_docs", (3, 1), np.inf), "pairs_docs holds values that are not finite"),
    (_set("pairs_docs", (0, 0), np.nan), "pairs_docs holds values that are not finite"),
    (_replace("pairs_win", lambda a: a[:-1]), "pairs_win has shape"),
    (_drop("pairs_lose"), "no pairs_lose"),
    (_drop("pairs_docs"), "no pairs_docs"),
]


def write_tampered_checkpoint(path, change):
    """Save a small state after ``change`` edits its arrays."""
    rng = np.random.default_rng(11)
    state = RankerState.initial(4, lam=0.5)
    update(state, rng.normal(size=(6, 4)), np.ones(6))
    state.minmax_bounds = (np.zeros(4), np.arange(1.0, 5.0))
    save_checkpoint(state, path)
    arrays = saved_arrays(path)
    change(arrays)
    np.savez(path, **arrays)


class TestCheckpointValidation:
    @pytest.mark.parametrize("change, message", TAMPERED_CHECKPOINTS)
    def test_tampered_checkpoint_rejected(self, tmp_path, change, message):
        path = tmp_path / "ckpt.npz"
        write_tampered_checkpoint(path, change)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda fh: np.save(fh, np.arange(3.0)), "checkpoint is one array, not an .npz"),
            (lambda fh: None, "checkpoint is not an .npz archive"),
            (lambda fh: fh.write(b"PK\x03\x04 cut off"), "checkpoint is not an .npz archive"),
        ],
        ids=["npy", "empty", "cut-off"],
    )
    def test_a_file_that_is_not_an_archive_is_rejected(self, tmp_path, write, message):
        path = tmp_path / "ckpt.npz"
        with path.open("wb") as fh:
            write(fh)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_bounds_of_a_constant_feature_load(self, tmp_path):
        # a feature constant on the train split has equal bounds
        path = tmp_path / "ckpt.npz"
        write_tampered_checkpoint(path, _set("minmax_lo", 2, 3.0))
        np.testing.assert_array_equal(load_checkpoint(path).minmax_bounds[0], [0.0, 0.0, 3.0, 0.0])

    def test_an_information_matrix_off_by_rounding_loads(self, tmp_path):
        # update adds each round's outer products, the check sums them per
        # pair: the two orders of summation round differently
        path = tmp_path / "ckpt.npz"
        write_tampered_checkpoint(path, _replace("info_matrix", lambda a: a * (1 + 1e-12)))
        assert load_checkpoint(path).pairs.n == 6

    def test_checkpoint_with_a_q_norm_loads(self, tmp_path):
        # older checkpoints also hold the parameter-norm bound, which nothing reads
        path = tmp_path / "ckpt.npz"
        write_tampered_checkpoint(path, lambda arrays: arrays.update(q_norm=np.array(2.0)))
        with np.load(path) as data:
            assert "q_norm" in data.files
        loaded = load_checkpoint(path)
        assert not hasattr(loaded, "q_norm")
        assert loaded.round == 1 and loaded.pairs.n == 6

    def test_checkpoint_without_pairs_loads(self, tmp_path):
        state = RankerState.initial(3, lam=0.4)
        update(state, np.eye(3), np.ones(3))
        path = tmp_path / "ckpt.npz"
        np.savez(
            path,
            version=np.array(CHECKPOINT_VERSION),
            theta=state.theta,
            info_matrix=state.info_matrix,
            lam=np.array(state.lam),
            round=np.array(state.round),
        )
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.info_matrix, state.info_matrix)
        assert loaded.pairs.n == 0

    def test_long_run_checkpoint_loads(self, tmp_path):
        # thousands of accumulated outer products keep the matrix symmetric
        rng = np.random.default_rng(12)
        state = RankerState.initial(20, lam=0.1)
        for _ in range(200):
            update(state, rng.normal(size=(10, 20)), np.ones(10))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, path)
        np.testing.assert_array_equal(load_checkpoint(path).info_matrix, state.info_matrix)
