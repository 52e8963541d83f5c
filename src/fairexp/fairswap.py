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
from .ranker import BlockPartition

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


class _Step(NamedTuple):
    """One segment of the walk. It depends only on the placement up to its
    end, so every template with that prefix shares it."""

    size: int  # the host's members as the segment starts: the most slots it takes
    seg: tuple[str, ...]  # the segment's slot pattern
    shown: tuple[tuple[int, ...], tuple[int, ...]]  # its documents of group A, of group B
    events: list[SwapEvent]  # its promotion, if any
    lower: tuple  # the lower blocks after it, as (A, B) pairs
    host: tuple[tuple[int, ...], tuple[int, ...]]  # what is left of its host
    fills: dict[bool, list[int]]  # by respect_certain, its fill where that draws nothing


class _PreparedPartition(NamedTuple):
    """What every calibration of one partition reads, and the walk steps
    they share.

    Built once per round by ``select_ranking`` (or by a direct ``fair_swap``
    call) from the partition, the certain set, the group labels and scores.
    Only ``trail`` changes: each walk cuts it back to the steps its
    placement shares with the last one and appends its own, so templates
    that arrive in lexicographic order build each prefix's step once.
    """

    have: tuple[int, int]  # documents of group A and of group B over the partition
    origin: dict[int, int]  # document -> index of its original block
    # each block as (its group-A members, its group-B members), each in donor order
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    trail: list[_Step]  # the steps of the placement walked last


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
        trail=[],
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
    nothing), and the fill of each segment. Calls that share ``prepared``
    share the walk steps of a common placement prefix, and each step's
    fill where it draws nothing; a fill that draws is redone with each
    call's own ``rng``, which is read only through ``integers`` and only
    when a fill draws.

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
    for step in _walk(prepared, template.placement):
        events += step.events
        fill = step.fills.get(respect_certain)
        if fill is None:
            shown = dict(zip(GROUPS, map(list, step.shown)))
            slots = [shown[g] for g in step.seg]
            fill, drew = draw_slots(
                slots, shown.values(), prepared.origin, certain, rng, respect_certain
            )
            if not drew:
                step.fills[respect_certain] = fill
        order += fill
    return CalibratedRanking(
        order=order,
        added_regret=added_regret(order, certain),
        template=template,
        events=events,
    )


def _walk(prepared: _PreparedPartition, placement: tuple[str, ...]) -> list[_Step]:
    """The steps of a feasible placement, in order: ``prepared.trail``,
    valid until the next walk over ``prepared``.

    The walk state where a step starts depends only on the placement up to
    there, so a trail step is this placement's too when the steps before
    it are and the placement has the step's pattern over the ``size``
    slots from its start. The walk keeps those steps and resumes after
    the last of them.
    """
    trail = prepared.trail
    pos = depth = 0
    for step in trail:
        if placement[pos : pos + step.size] != step.seg:
            break
        pos += len(step.seg)
        depth += 1
    del trail[depth:]
    lower, host = (trail[-1].lower, trail[-1].host) if trail else (prepared.blocks, ((), ()))
    while pos < len(placement):
        step = _step(lower, host, placement, pos, len(trail))
        trail.append(step)
        lower, host = step.lower, step.host
        pos += len(step.seg)
    return trail


def _step(lower: tuple, host, placement: tuple[str, ...], pos: int, depth: int) -> _Step:
    """The segment of ``placement`` that starts at ``pos``, the walk's
    ``depth``-th, given the lower blocks and what is left of the last host.

    A host keeps its first members of each group, as many as the segment
    has slots for, and the rest are displaced: a new block just above the
    lower ones, so always the next host. A segment is never longer than
    its host, so a host short of one group has a surplus of the other, and
    at most one group promotes. Each group's shown documents are the
    donors and then the kept members, all in donor order. The lower blocks
    are a tuple of the prepared (A, B) pairs; promotion replaces an entry
    and changes none, so steps share them.
    """
    if not (host[0] or host[1]):
        host, lower = lower[0], lower[1:]
    size = len(host[0]) + len(host[1])
    seg = placement[pos : pos + size]
    need_b = seg.count(GROUP_B)
    need = (len(seg) - need_b, need_b)
    shown = [host[0][: need[0]], host[1][: need[1]]]
    events: list[SwapEvent] = []
    for g in (0, 1):
        shortage = need[g] - len(host[g])
        if shortage > 0:
            per_block: dict[int, int] = {}
            taken, left = _promote(lower, g, shortage, per_block)
            events.append(
                SwapEvent(
                    host_block=depth,
                    group=GROUPS[g],
                    shortage=shortage,
                    donors_per_block=per_block,
                    host_members=size,
                    displaced=max(size + shortage - len(seg), 0),
                    blocks_b_counts=[len(b) for _, b in lower],
                    blocks_sizes=[len(a) + len(b) for a, b in lower],
                )
            )
            shown[g] = taken + shown[g]
            lower = left
    host = (host[0][need[0] :], host[1][need[1] :])
    return _Step(size, seg, tuple(shown), events, lower, host, {})


def _promote(
    lower: tuple, group: int, shortage: int, per_block: dict[int, int]
) -> tuple[tuple[int, ...], tuple]:
    """Take the shortfall as the nearest lower blocks' first members of
    ``GROUPS[group]`` (donor order), counting in ``per_block`` how many come
    from each block by its position in ``lower`` (0 = nearest). Returns the
    documents taken and the lower blocks left: the blocks given replaced by
    what is left of them, and emptied ones dropped."""
    taken: tuple[int, ...] = ()
    left = []
    for bi, entry in enumerate(lower):
        members = entry[group]
        n = min(len(members), shortage - len(taken))
        if n:
            per_block[bi] = n
            taken += members[:n]
            entry = (members[n:], entry[1]) if group == 0 else (entry[0], members[n:])
        if entry[0] or entry[1]:
            left.append(entry)
        if len(taken) == shortage:
            break
    return taken, (*left, *lower[bi + 1 :])


def draw_slots(
    slots, lists, origin: dict[int, int], certain, rng, respect_certain: bool = True
) -> tuple[list[int], bool]:
    """Fill each of ``slots``, a candidate list of ``lists`` per slot, with
    one of its documents, which then leaves its list. Returns the fill and
    whether it drew from ``rng``. Every choice before the first draw is
    fixed, so a fill that does not draw never will, and ``fair_swap`` keeps
    it for every template that shares the segment. This is the one
    within-block draw: ``fair_swap`` fills each segment with it, and
    ``harness.sample_block_order`` each block.

    With the heuristic on, a slot chooses among its candidates of the
    deepest ``origin`` (documents promoted from farther blocks go first: the
    merge already forfeited their known inferiority, and the fill realizes
    that loss instead of hiding it), and among those the ones with the
    fewest certain predecessors left unplaced in ``lists`` with the same
    origin; remaining ties are random, so one draw can invert a certain
    pair that another avoids (ROADMAP item 2). With it off, a slot draws
    among all its candidates.

    The predecessors are counted once, at the first slot with a choice, into
    one integer key per document with its origin folded in, and a placement
    decrements the keys of its same-origin certain successors: O(n^2)
    lookups in ``certain`` for the n documents of ``lists``.
    """
    fill: list[int] = []
    drew = False
    key, succ = None, {}
    for cands in slots:
        pool = cands
        if len(cands) > 1 and respect_certain:
            if key is None:
                docs = [d for each in lists for d in each]
                span = len(docs) + 1  # more than any count
                key = {d: -origin[d] * span for d in docs}
                for r in docs:
                    o = origin[r]
                    succ[r] = [d for d in docs if (r, d) in certain and d != r and origin[d] == o]
                    for d in succ[r]:
                        key[d] += 1
            low = min(map(key.__getitem__, cands))
            pool = [d for d in cands if key[d] == low]
        if len(pool) > 1:
            choice = pool[int(rng.integers(len(pool)))]
            drew = True
        else:
            choice = pool[0]
        cands.remove(choice)
        fill.append(choice)
        for d in succ.get(choice, ()):
            key[d] -= 1
    return fill, drew


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
    gets one ``fair_swap`` call, whose cost does not grow with
    len(certain), and its own child of ``rng``: the round spawns one seed
    sequence per template, as ``rng.spawn`` does, and builds a template's
    generator from its seed sequence only when its fill first draws.

    Once per round, before the templates are walked: the duplicate and
    label checks, the group totals, each document's original block, and the
    donor order (each block split into its two groups, each sorted by
    within-block certain wins, then score, then index). Once per placement
    prefix: the walk step that ends there, which slices prefixes of the
    per-group donor order and sorts nothing, and its fill if that draws
    nothing. Once per template: the feasibility check, the fills that
    draw, and the added regret. ``enumerate_templates`` lists placements
    in lexicographic order, so consecutive templates share the longest
    prefixes.
    """
    if not templates:
        raise InfeasibleTemplateError("no templates to select from")
    if projections is None:
        projections = [0.0] * len(templates)
    seeds = rng.bit_generator.seed_seq.spawn(len(templates))
    bit_generator = type(rng.bit_generator)
    prepared = _prepare(partition, certain, groups, scores)
    best: CalibratedRanking | None = None
    best_key = None
    for template, projection, seed in zip(templates, projections, seeds):
        result = fair_swap(
            partition,
            template,
            certain,
            groups,
            _ChildOnFirstDraw(bit_generator, seed),
            scores=scores,
            respect_certain=respect_certain,
            prepared=prepared,
        )
        key = (result.added_regret, abs(projection), template.placement)
        if best is None or key < best_key:
            best, best_key = result, key
    return best


class _ChildOnFirstDraw:
    """The generator that ``rng.spawn`` would return for ``seed``, built on
    its first draw: most calibrations never draw."""

    __slots__ = ("_bit_generator", "_seed", "_generator")

    def __init__(self, bit_generator: type, seed: np.random.SeedSequence):
        self._bit_generator = bit_generator
        self._seed = seed
        self._generator: np.random.Generator | None = None

    def integers(self, high: int) -> int:
        if self._generator is None:
            self._generator = np.random.Generator(self._bit_generator(self._seed))
        return self._generator.integers(high)
