"""The certain relation as a Python set of (winner, loser) pairs: the
reference for the boolean-matrix readers of ``ranker`` and ``fairswap``.

These are the readers as they were before the relation became one (n, n)
matrix: ``partition_blocks`` counts wins and losses pair by pair,
``index_pairs`` makes one pass over the set, and ``added_regret`` looks
each displayed pair up. The matrix readers must give the same blocks,
index and counts, and refuse malformed input with the same exception and
message wherever one pair is at fault.
"""

from itertools import combinations

from fairexp.fairswap import MalformedPartitionError


def reference_partition_blocks(n_candidates: int, certain: set, n: int) -> list[list[int]]:
    """``ranker.partition_blocks`` of ``n_candidates`` candidates and a
    ``PairOrderSets`` of the pairs ``certain`` over ``n`` documents."""
    if n != n_candidates:
        raise ValueError(f"order sets cover {n} documents, not the {n_candidates} candidates")
    wins, losses = [0] * n, [0] * n
    for i, j in certain:
        # a self pair (i, i) is its own reverse
        if not (0 <= i < n and 0 <= j < n) or (j, i) in certain:
            raise ValueError(
                f"certain pair ({i}, {j}) must name two documents of 0..{n - 1} in one order"
            )
        wins[i] += 1
        losses[j] += 1
    order = sorted(range(n), key=losses.__getitem__)
    blocks: list[list[int]] = []
    start, surplus = 0, 0
    for m, doc in enumerate(order, 1):
        surplus += wins[doc] - losses[doc]
        if surplus == m * (n - m):
            blocks.append(sorted(order[start:m]))
            start = m
    return blocks


def reference_index_pairs(blocks, certain: set) -> tuple[dict[int, int], dict[int, list]]:
    """``fairswap.index_pairs`` of the partition ``blocks``, in one pass
    over the set."""
    origin = {doc: bi for bi, block in enumerate(blocks) for doc in block}
    sizes = [len(block) for block in blocks]
    if len(origin) != sum(sizes):
        raise MalformedPartitionError("blocks contain duplicate documents")
    if not all(sizes):
        raise MalformedPartitionError("blocks must not be empty")
    beats: dict[int, list] = {doc: [] for doc in origin}
    forward = 0
    for winner, loser in certain:
        above, below = origin.get(winner), origin.get(loser)
        if above is None or below is None:
            continue
        if above < below:
            forward += 1
        elif winner == loser:
            raise MalformedPartitionError(f"certain pair ({winner}, {loser}) is a self pair")
        elif above == below:
            beats[winner].append(loser)
        else:
            raise MalformedPartitionError(
                f"certain pair ({winner}, {loser}) points from block {above} up to block {below}"
            )
    if forward < (len(origin) ** 2 - sum(s * s for s in sizes)) // 2:
        winner, loser = next(
            (w, l) for w in origin for l in origin if origin[w] < origin[l] and (w, l) not in certain
        )
        raise MalformedPartitionError(
            f"documents {winner} and {loser} are in blocks {origin[winner]} and "
            f"{origin[loser]} but ({winner}, {loser}) is not a certain pair"
        )
    return origin, beats


def reference_added_regret(order, certain: set) -> int:
    """``fairswap.added_regret``: the k(k-1)/2 displayed pairs looked up."""
    return len(certain.intersection(combinations(reversed(order), 2)))
