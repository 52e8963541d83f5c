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
the block members they joined. The reported added regret is that of the
served fill: the seeded draw among members of one original block can
invert a certain pair inside it that another draw avoids, so it is not a
function of the calibration structure alone (ROADMAP item 2).

Added regret is the count of certain pairs displayed in inverted order,
restricted to the top-k since lower positions receive no exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import NamedTuple

import numpy as np

from .data import GROUP_A, GROUP_B
from .fairness import GroupTemplate
from .ranker import BlockPartition, fewest_predecessors

GROUPS = (GROUP_A, GROUP_B)


class InfeasibleTemplateError(ValueError):
    """Raised when the candidate pool cannot satisfy a template's group usage."""


class MalformedPartitionError(ValueError):
    """Raised when the input blocks are not a partition of distinct documents,
    or a document is labelled neither ``GROUP_A`` nor ``GROUP_B``."""


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

    have: tuple[int, int]  # documents of group A and of group B over the partition
    origin: dict[int, int]  # document -> index of its original block
    # each block as (its group-A members, its group-B members), each in donor order
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _prepare(partition: BlockPartition, certain, groups, scores) -> _PreparedPartition:
    docs_all = partition.documents()
    if len(set(docs_all)) != len(docs_all):
        raise MalformedPartitionError("blocks contain duplicate documents")
    for doc in docs_all:
        if groups.get(doc) not in GROUPS:
            raise MalformedPartitionError(
                f"document {doc} has group {groups.get(doc)!r}, not {GROUP_A!r} or {GROUP_B!r}"
            )
    wins = _within_block_wins(partition, certain)
    scores = scores or {}
    blocks = []
    for block in partition.blocks:
        ranked = sorted(block, key=lambda d: _donor_sort_key(d, wins, scores))
        blocks.append(tuple(tuple(d for d in ranked if groups[d] == g) for g in GROUPS))
    return _PreparedPartition(
        have=tuple(sum(len(block[g]) for block in blocks) for g in (0, 1)),
        origin={doc: bi for bi, block in enumerate(partition.blocks) for doc in block},
        blocks=tuple(blocks),
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

    ``groups`` maps document ids to group labels, ``GROUP_A`` or ``GROUP_B``
    (any other label is a ``MalformedPartitionError``), and ``scores``
    (optional) to relevance scores used for deterministic tie-breaking.
    With ``respect_certain`` (default), certain orders between documents of
    the same original block are followed where the slot pattern allows;
    disabling it recovers pure seeded shuffling within blocks.

    Work that does not depend on the template (the duplicate and label
    checks, the group totals, each document's original block, and each
    block split by group and sorted once into donor order) is
    ``prepared``: ``select_ranking`` builds it once per round for every
    call, and a call without it builds it from its own arguments. A call
    is then the feasibility check, the walk (``_walk``, which draws
    nothing), and the seeded fill of each segment.

    One calibration looks ``certain`` up O(k^3 + sum(|b|^2)) times over the
    blocks b, and never scans it: its cost does not grow with len(certain).
    """
    if prepared is None:
        prepared = _prepare(partition, certain, groups, scores)
    have = dict(zip(GROUPS, prepared.have))
    # every document is A or B, so meeting each group's count also bounds k
    for g in dict.fromkeys(template.placement):
        n = template.placement.count(g)
        if n > have.get(g, 0):
            raise InfeasibleTemplateError(
                f"template needs {n} documents of group {g}, only {have.get(g, 0)} available"
            )
    events: list[SwapEvent] = []
    order: list[int] = []
    for seg, shown in _walk(prepared, template, events):
        order.extend(_fill_segment(seg, shown, prepared.origin, certain, rng, respect_certain))
    return CalibratedRanking(
        order=order,
        added_regret=added_regret(order, certain),
        template=template,
        events=events,
    )


def _walk(
    prepared: _PreparedPartition, template: GroupTemplate, events: list[SwapEvent]
) -> list[tuple[tuple[str, ...], list[list[int]]]]:
    """Each segment's slot pattern and its shown documents as [group A,
    group B] lists, in order, for a feasible template; appends a
    ``SwapEvent`` per promotion to ``events``.

    A host keeps its first members of each group, as many as the segment
    has slots for, and the rest are displaced: a new block just above the
    lower ones, so always the next host. A segment is never longer than
    its host, so a host short of one group has a surplus of the other, and
    at most one group promotes. Each group's list holds the donors and
    then the kept members, all in donor order. The lower blocks are a list
    of the prepared (A, B) tuples; promotion replaces an entry and changes
    none, so nothing is copied per template.
    """
    placement = template.placement
    lower = list(prepared.blocks)
    host: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    segments = []
    pos = 0
    while pos < len(placement):
        if not (host[0] or host[1]):
            host = lower.pop(0)
        size = len(host[0]) + len(host[1])
        seg = placement[pos : pos + size]
        need_b = seg.count(GROUP_B)
        need = (len(seg) - need_b, need_b)
        shown: list[list[int]] = [[], []]
        for g in (0, 1):
            shortage = need[g] - len(host[g])
            if shortage > 0:
                b_counts = [len(b) for _, b in lower]
                sizes = [len(a) + len(b) for a, b in lower]
                per_block: dict[int, int] = {}
                shown[g] = _promote(lower, g, shortage, per_block)
                events.append(
                    SwapEvent(
                        host_block=len(segments),
                        group=GROUPS[g],
                        shortage=shortage,
                        donors_per_block=per_block,
                        host_members=size,
                        displaced=max(size + shortage - len(seg), 0),
                        blocks_b_counts=b_counts,
                        blocks_sizes=sizes,
                    )
                )
            shown[g] += host[g][: need[g]]
        segments.append((seg, shown))
        host = (host[0][need[0] :], host[1][need[1] :])
        pos += len(seg)
    return segments


def _promote(lower: list, group: int, shortage: int, per_block: dict[int, int]) -> list[int]:
    """Take the shortfall as the nearest lower blocks' first members of
    ``GROUPS[group]`` (donor order), counting in ``per_block`` how many come
    from each block by its position in ``lower`` (0 = nearest). The blocks
    given are replaced by what is left of them, and emptied ones dropped."""
    taken: list[int] = []
    left = []
    for bi, entry in enumerate(lower):
        members = entry[group]
        n = min(len(members), shortage - len(taken))
        if n:
            per_block[bi] = n
            taken.extend(members[:n])
            entry = (members[n:], entry[1]) if group == 0 else (entry[0], members[n:])
        if entry[0] or entry[1]:
            left.append(entry)
        if len(taken) == shortage:
            break
    lower[: bi + 1] = left
    return taken


def _fill_segment(
    seg,
    shown: list[list[int]],
    origin: dict[int, int],
    certain: set[tuple[int, int]],
    rng: np.random.Generator,
    respect_certain: bool,
) -> list[int]:
    """Assign the segment's shown documents, given as its [group A, group B]
    lists, to the segment's slots; each choice leaves its list.

    Documents promoted from farther blocks go first among their group's
    slots: the merge already forfeited their known inferiority, and the
    fill realizes that loss instead of hiding it. Among documents of one
    original block, certain orders are respected greedily when the
    heuristic is on, counting predecessors among the documents of that
    block left in either list; remaining ties are random, so one draw can
    invert a certain pair that another avoids (ROADMAP item 2).
    """
    remaining = dict(zip(GROUPS, shown))
    filled: list[int] = []
    for g in seg:
        cands = remaining[g]
        if respect_certain:
            top_origin = max(origin[d] for d in cands)
            pool = [d for d in cands if origin[d] == top_origin]
            if len(pool) > 1:
                rivals = [d for d in chain(*shown) if origin[d] == top_origin]
                pool = fewest_predecessors(pool, rivals, certain)
        else:
            pool = cands
        choice = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
        cands.remove(choice)
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

    Once per round, before the templates are walked: the duplicate and
    label checks, the group totals, each document's original block, and the
    donor order (each block split into its two groups, each sorted by
    within-block certain wins, then score, then index). Once per template:
    the feasibility check and the walk, which slices prefixes of the
    per-group donor order and sorts nothing.
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
