"""Minimum-added-regret calibration of a block partition to a group template.

Given an ordered block partition (cross-block orders all certain) and a
group placement template for the top-k slots, the calibrator segments the
template by block sizes and walks the segments in order. Whenever the
current block lacks documents of a required group, it promotes exactly the
shortfall from the nearest lower blocks; documents squeezed out of the
block form a new block inserted just before the next one, keeping their
known superiority over everything below. Promotions merge documents of
different original blocks into one block, and the randomized within-block
presentation then no longer preserves their known relative order; the
output realizes that loss explicitly by placing promoted documents above
the block members they joined, so the reported added regret is the exact,
deterministic cost of the calibration structure.

Added regret is the count of certain pairs displayed in inverted order,
restricted to the top-k since lower positions receive no exposure.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import NamedTuple

import numpy as np

from .data import GROUP_B
from .fairness import GroupTemplate
from .ranker import BlockPartition, fewest_predecessors


class InfeasibleTemplateError(ValueError):
    """Raised when the candidate pool cannot satisfy a template's group usage."""


class MalformedPartitionError(ValueError):
    """Raised when the input blocks are not a partition of distinct documents."""


@dataclass
class SwapEvent:
    """Diagnostics for one promotion event during calibration.

    ``donors_per_block`` and the per-block counts are indexed by position
    in the queue of lower blocks as it stood when the promotion happened
    (0 = nearest). ``blocks_b_counts`` counts group-B members per lower
    block and ``blocks_sizes`` their total sizes.
    """

    host_block: int
    group: str
    shortage: int
    donors_per_block: dict[int, int]
    host_members: int
    displaced: int
    blocks_b_counts: list[int]
    blocks_sizes: list[int]

    def describe(self) -> str:
        return (
            f"host={self.host_block} group={self.group} shortage={self.shortage} "
            f"donors={self.donors_per_block} host_members={self.host_members} "
            f"displaced={self.displaced} b_counts={self.blocks_b_counts} "
            f"sizes={self.blocks_sizes}"
        )


@dataclass
class CalibratedRanking:
    """A template-satisfying display order and its calibration cost."""

    order: list[int]
    added_regret: int
    template: GroupTemplate
    events: list[SwapEvent] = field(default_factory=list)


def added_regret(order, certain: set[tuple[int, int]]) -> int:
    """Count certain pairs (winner, loser) whose loser precedes the winner.

    Only the k(k-1)/2 displayed pairs are looked up in ``certain``.
    """
    return len(certain.intersection(combinations(reversed(order), 2)))


def _within_block_wins(partition: BlockPartition, certain) -> dict[int, int]:
    # only the sum(|b|^2) same-block pairs are looked up in ``certain``
    wins = dict.fromkeys(partition.documents(), 0)
    same_block = chain.from_iterable(product(block, block) for block in partition.blocks)
    for winner, _ in certain.intersection(same_block):
        wins[winner] += 1
    return wins


def _donor_sort_key(doc: int, wins, scores):
    # promotion prefers documents likely to deserve it: most certain wins
    # inside their own block, then higher score, then stable index
    return (-wins[doc], -scores.get(doc, 0.0), doc)


class _PreparedPartition(NamedTuple):
    """What every calibration of one partition reads and none changes.

    Built once per round by ``select_ranking`` (or by a direct ``fair_swap``
    call) from the partition, the certain set, the group labels and scores.
    """

    n_docs: int
    have_total: Counter  # documents per group over the whole partition
    origin: dict[int, int]  # document -> index of its original block
    blocks: tuple[tuple[int, ...], ...]  # each block's members in donor order
    b_counts: tuple[int, ...]  # group-B members per block


def _prepare(partition: BlockPartition, certain, groups, scores) -> _PreparedPartition:
    docs_all = partition.documents()
    if len(set(docs_all)) != len(docs_all):
        raise MalformedPartitionError("blocks contain duplicate documents")
    wins = _within_block_wins(partition, certain)
    scores = scores or {}
    return _PreparedPartition(
        n_docs=len(docs_all),
        have_total=Counter(groups[doc] for doc in docs_all),
        origin={doc: bi for bi, block in enumerate(partition.blocks) for doc in block},
        blocks=tuple(
            tuple(sorted(block, key=lambda d: _donor_sort_key(d, wins, scores)))
            for block in partition.blocks
        ),
        b_counts=tuple(sum(1 for d in block if groups[d] == GROUP_B) for block in partition.blocks),
    )


def fair_swap(
    partition: BlockPartition,
    template: GroupTemplate,
    certain: set[tuple[int, int]],
    groups: dict[int, str],
    rng: np.random.Generator,
    scores: dict[int, float] | None = None,
    respect_certain: bool = True,
    *,
    prepared: _PreparedPartition | None = None,
) -> CalibratedRanking:
    """Calibrate the partition to one template with minimum added regret.

    ``groups`` maps document ids to group labels and ``scores`` (optional)
    to relevance scores used for deterministic tie-breaking. With
    ``respect_certain`` (default), certain orders between documents of the
    same original block are followed where the slot pattern allows;
    disabling it recovers pure seeded shuffling within blocks.

    Work that does not depend on the template (the duplicate check, the
    group totals, each document's original block, each block's group-B
    count, and each block sorted once into donor order) is ``prepared``:
    ``select_ranking`` builds it once per round for every call, and a call
    without it builds it from its own arguments. The walk takes prefixes of
    the donor order: a host keeps its first members of each group with
    slots left, a shortfall comes from the nearest lower blocks' first
    members of the group, and the displaced carry on as the next host. It
    keeps the lower blocks' group-B counts current, so an event's counts
    cost one copy, not a pass over the lower documents.

    One calibration looks ``certain`` up O(k^3 + sum(|b|^2)) times over the
    blocks b, and never scans it: its cost does not grow with len(certain).
    """
    if prepared is None:
        prepared = _prepare(partition, certain, groups, scores)
    k = len(template)
    if k > prepared.n_docs:
        raise InfeasibleTemplateError(f"template length {k} exceeds {prepared.n_docs} documents")
    have_total = prepared.have_total
    for g, n in Counter(template.placement).items():
        if n > have_total.get(g, 0):
            raise InfeasibleTemplateError(
                f"template needs {n} documents of group {g}, only {have_total.get(g, 0)} available"
            )
    origin = prepared.origin

    # the lower blocks in donor order; b_counts[i] counts group-B documents in work[i]
    work: deque[list[int]] = deque(list(block) for block in prepared.blocks)
    b_counts: deque[int] = deque(prepared.b_counts)
    # members displaced from the previous segment: a new block just above
    # the lower ones, so always the next host
    displaced: list[int] = []
    order: list[int] = []
    events: list[SwapEvent] = []
    pos = 0
    host_index = 0
    while pos < k:
        if displaced:
            block = displaced
        elif work:
            block = work.popleft()
            b_counts.popleft()
        else:
            raise MalformedPartitionError("ran out of blocks before filling the template")
        seg = template.placement[pos : min(pos + len(block), k)]
        # keep the strongest members while their group has slots left; the
        # rest are displaced, and what is still needed is the shortfall
        need = Counter(seg)
        kept, displaced = [], []
        for doc in block:
            if need[groups[doc]] > 0:
                need[groups[doc]] -= 1
                kept.append(doc)
            else:
                displaced.append(doc)

        donors: list[int] = []
        for g, shortage in need.items():
            if shortage <= 0:
                continue
            counts_before = list(b_counts)
            sizes_before = list(map(len, work))
            taken, per_block = _promote(work, b_counts, g, shortage, groups)
            if len(taken) < shortage:
                raise InfeasibleTemplateError(
                    f"could not promote {shortage} documents of group {g}"
                )
            donors.extend(taken)
            events.append(
                SwapEvent(
                    host_block=host_index,
                    group=g,
                    shortage=shortage,
                    donors_per_block=per_block,
                    host_members=len(block),
                    displaced=max(len(block) + len(taken) - len(seg), 0),
                    blocks_b_counts=counts_before,
                    blocks_sizes=sizes_before,
                )
            )

        order.extend(
            _fill_segment(seg, donors + kept, origin, certain, groups, rng, respect_certain)
        )
        pos += len(seg)
        host_index += 1

    return CalibratedRanking(
        order=order,
        added_regret=added_regret(order, certain),
        template=template,
        events=events,
    )


def _promote(
    work: deque, b_counts: deque, group: str, shortage: int, groups
) -> tuple[list[int], dict[int, int]]:
    """Take the shortfall as the nearest lower blocks' first members of
    ``group`` (donor order), keeping ``b_counts`` in step with ``work``."""
    taken: list[int] = []
    per_block: dict[int, int] = {}
    for bi, block in enumerate(work):
        if len(taken) == shortage:
            break
        chosen = [d for d in block if groups[d] == group][: shortage - len(taken)]
        if chosen:
            per_block[bi] = len(chosen)
            for d in chosen:
                block.remove(d)
            if group == GROUP_B:
                b_counts[bi] -= len(chosen)
            taken.extend(chosen)
    # drop blocks emptied by promotion
    empty = [i for i, blk in enumerate(work) if not blk]
    for i in reversed(empty):
        del work[i]
        del b_counts[i]
    return taken, per_block


def _fill_segment(
    seg,
    displayed: list[int],
    origin: dict[int, int],
    certain: set[tuple[int, int]],
    groups,
    rng: np.random.Generator,
    respect_certain: bool,
) -> list[int]:
    """Assign the block's displayed documents to the segment's slots.

    Documents promoted from farther blocks go first among their group's
    slots: the merge already forfeited their known inferiority, and
    realizing it keeps the reported regret equal to the structural cost.
    Among documents of one original block, certain orders are respected
    greedily when the heuristic is on; remaining ties are random.
    """
    remaining: dict[str, list[int]] = {}
    for doc in displayed:
        remaining.setdefault(groups[doc], []).append(doc)
    filled: list[int] = []
    placed: set[int] = set()
    for g in seg:
        cands = remaining[g]
        if respect_certain:
            top_origin = max(origin[d] for d in cands)
            pool = [d for d in cands if origin[d] == top_origin]
            if len(pool) > 1:
                rivals = [d for d in displayed if d not in placed and origin[d] == top_origin]
                pool = fewest_predecessors(pool, rivals, certain)
        else:
            pool = cands
        choice = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
        cands.remove(choice)
        placed.add(choice)
        filled.append(choice)
    return filled


def select_ranking(
    partition: BlockPartition,
    templates: list[GroupTemplate],
    certain: set[tuple[int, int]],
    groups: dict[int, str],
    rng: np.random.Generator,
    projections: list[float] | None = None,
    scores: dict[int, float] | None = None,
    respect_certain: bool = True,
) -> CalibratedRanking:
    """Calibrate every qualified template and keep the cheapest ranking.

    Ties on added regret break toward the smaller projected unfairness
    magnitude (when given), then the lexicographically smallest placement,
    so concurrent evaluation can never change the outcome. Each template
    gets an independently derived seed and one ``fair_swap`` call, whose
    cost does not grow with len(certain).

    Once per round, before the templates are walked: the duplicate check,
    the group totals, each document's original block, each block's group-B
    count and the donor order (each block sorted by within-block certain
    wins, then score, then index). Once per template: the feasibility check
    and the walk, which takes prefixes of the donor order and sorts nothing.
    """
    if not templates:
        raise InfeasibleTemplateError("no templates to select from")
    if projections is None:
        projections = [0.0] * len(templates)
    child_rngs = rng.spawn(len(templates))
    prepared = _prepare(partition, certain, groups, scores)
    best: CalibratedRanking | None = None
    best_key = None
    for template, projection, child in zip(templates, projections, child_rngs):
        result = fair_swap(
            partition,
            template,
            certain,
            groups,
            child,
            scores=scores,
            respect_certain=respect_certain,
            prepared=prepared,
        )
        key = (result.added_regret, abs(projection), template.placement)
        if best is None or key < best_key:
            best, best_key = result, key
    return best
