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
served fill: the draw among members of one original block, from the
run's one generator, can invert a certain pair inside it that another
draw avoids, so it is not a function of the calibration structure alone
(ROADMAP item 2).

The walk's state is two counters: the documents of group A and of group B
shown so far. Each group's shown documents are always a prefix of that
group's documents taken block by block, each block in donor order, and the
current block is what is left of the earliest block with documents
unshown. So a step follows from the two counters and its segment's slot
pattern alone, and templates that reach the same state share it whatever
their prefix.

A template's regret bound is read off that walk. Each round keeps a table
of walk states (``_state``): the host's unshown members, and for each
group the inversions of a one-slot segment of that group, which depend on
the state alone. A one-slot segment, nine in ten of those walked on
wide_pool, is one read of that table; only a segment of two or more slots
goes through the round's memoized steps (``_step``).

A round reads the certain relation as one boolean matrix, ``beats[w, l]``
true when w certainly beats l (``ranker.PairOrderSets``); a set of pairs
given instead is converted once on entry (``certain_matrix``). One index,
``index_pairs``, serves the block order check, the donor order and every
within-block draw, and ``added_regret`` counts a submatrix. Every
cross-block pair is certain, and the fill takes the deepest origin first,
so the walk alone fixes every cross-block inversion a calibration serves.
That count bounds its added regret from below, exactly when no certain
pair lies inside an original block, and ``select_ranking`` calibrates
only the templates whose bound can still win.

Added regret is the count of certain pairs displayed in inverted order,
restricted to the top-k since lower positions receive no exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .data import GROUP_A, GROUP_B
from .fairness import GroupTemplate
from .ranker import BlockPartition, _upper_pairs

GROUPS = (GROUP_A, GROUP_B)


class InfeasibleTemplateError(ValueError):
    """Raised when the candidate pool cannot satisfy a template's group usage."""


class MalformedPartitionError(ValueError):
    """Raised when the input blocks are not a partition of distinct documents
    into non-empty blocks, a document is labelled neither ``GROUP_A`` nor
    ``GROUP_B``, a document is not a row of the certain matrix, a certain
    pair is a self pair, or two documents of different blocks are not a
    certain pair from the earlier block to the later."""


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


def certain_matrix(certain, docs) -> np.ndarray:
    """The certain relation as the boolean matrix that the calibration
    reads, ``beats[w, l]`` true when document w certainly beats l, for
    ``certain`` given as that matrix (returned as it is) or as a set of
    pairs (winner, loser).

    A set becomes the matrix over documents ``0..max(docs)``. Pairs naming
    a document outside that range are left out, since every reader skips
    pairs off its documents. Raises ``MalformedPartitionError`` when a set
    comes with a negative document, which no matrix has a row for."""
    if isinstance(certain, np.ndarray):
        return certain
    docs = list(docs)
    if docs and min(docs) < 0:
        raise MalformedPartitionError(f"document {min(docs)} is not a candidate index")
    n = max(docs, default=-1) + 1
    beats = np.zeros((n, n), dtype=bool)
    pairs = [(w, l) for w, l in certain if 0 <= w < n and 0 <= l < n]
    if pairs:
        beats[tuple(np.array(pairs).T)] = True
    return beats


def added_regret(order, certain) -> int:
    """Count certain pairs (winner, loser) whose loser precedes the winner:
    the true cells of the strictly lower triangle of
    ``beats[order][:, order]``. ``certain`` is a set of pairs or the
    matrix (see ``certain_matrix``)."""
    beats = certain_matrix(certain, order)
    earlier, later = _upper_pairs(len(order))
    order = np.asarray(order, dtype=np.intp)
    return int(np.count_nonzero(beats[order[later], order[earlier]]))


def index_pairs(partition: BlockPartition, certain) -> tuple[dict[int, int], dict[int, Sequence]]:
    """Each document's block, and the documents it certainly beats inside
    that block, read off the same-block part of the certain matrix
    (``certain`` is that matrix or a set of pairs, see ``certain_matrix``);
    pairs naming a document outside the partition are skipped.

    It refuses a duplicate document, an empty block, a document that is not
    a row of the matrix, a self pair, and a break of ``BlockPartition``'s
    invariant, which the selection's bound rests on: a pair across blocks
    pointing up, or one missing. The check is ``partition_blocks``' cut
    criterion: with N documents in block order, the first m of them up to
    each block's end have certain wins minus certain losses m(N - m)
    exactly when they certainly beat every later one and no later one
    beats any of them, which the row and column sums give in O(N). Then
    each document beats every document of the later blocks and no other
    outside its own, so only one with more wins than there are later
    documents beats any inside its block, and only such rows are read. Only
    a partition that fails a check is scanned pair by pair, to name the
    pair. A document that beats none of its block has an empty tuple."""
    blocks = partition.blocks
    origin = {doc: bi for bi, block in enumerate(blocks) for doc in block}
    sizes = [len(block) for block in blocks]
    if len(origin) != sum(sizes):
        raise MalformedPartitionError("blocks contain duplicate documents")
    if not all(sizes):
        raise MalformedPartitionError("blocks must not be empty")
    beats = certain_matrix(certain, origin)
    n, total = len(beats), len(origin)
    if origin and not (min(origin) >= 0 and max(origin) < n):
        raise MalformedPartitionError(
            f"blocks name documents outside 0..{n - 1}, the rows of the certain matrix"
        )
    if total < n:  # only pairs between the partition's documents count
        inside = np.zeros(n, dtype=bool)
        inside[list(origin)] = True
        beats = beats & inside[:, None] & inside
    wins, losses = beats.sum(axis=1).tolist(), beats.sum(axis=0).tolist()
    hosts = []  # (document, its block) for each that beats one inside its block
    shown = surplus = 0
    for members in blocks:
        shown += len(members)
        later = total - shown
        for doc in members:
            surplus += wins[doc] - losses[doc]
            if wins[doc] > later:
                hosts.append((doc, members))
        if surplus != shown * later:
            _refuse(origin, beats)
    within = dict.fromkeys(origin, ())
    if hosts:
        for (doc, members), row in zip(hosts, beats[[doc for doc, _ in hosts]].tolist()):
            if row[doc]:
                _refuse(origin, beats)
            within[doc] = [loser for loser in members if row[loser]]
    return origin, within


def _refuse(origin: dict[int, int], beats: np.ndarray):
    """Raise for the first pair in block order that is a self pair or
    points up the blocks, else for the first pair across blocks that is
    missing; ``index_pairs`` calls it only when there is one."""
    rows = beats.tolist()
    for winner in origin:
        for loser in origin:
            if not rows[winner][loser]:
                continue
            if winner == loser:
                raise MalformedPartitionError(f"certain pair ({winner}, {loser}) is a self pair")
            if origin[winner] > origin[loser]:
                raise MalformedPartitionError(
                    f"certain pair ({winner}, {loser}) points from block {origin[winner]} "
                    f"up to block {origin[loser]}"
                )
    winner, loser = next(
        (w, l) for w in origin for l in origin if origin[w] < origin[l] and not rows[w][l]
    )
    raise MalformedPartitionError(
        f"documents {winner} and {loser} are in blocks {origin[winner]} and "
        f"{origin[loser]} but ({winner}, {loser}) is not a certain pair"
    )


def _donor_sort_key(doc: int, wins, scores):
    # promotion prefers documents likely to deserve it: most certain wins
    # inside their own block, then higher score, then stable index
    return (-wins[doc], -scores.get(doc, 0.0), doc)


class _Step(NamedTuple):
    """One segment of the walk. The walk's state where it starts is two
    counters, the documents of group A and of group B shown so far, and the
    step follows from that state and the segment's slot pattern alone, so
    every template that reaches both shares it."""

    start: tuple[int, int]  # documents of group A and of group B shown before it
    host: int  # the earliest block with documents unshown, whose members it keeps
    size: int  # the host's unshown members as the segment starts: the most slots it takes
    seg: tuple[str, ...]  # the segment's slot pattern
    shortage: tuple[int, int]  # documents of each group promoted from the lower blocks
    after: tuple[int, int]  # the next step's two counters
    forced: tuple[int, int]  # cross-block inversions it makes whatever it draws: heuristic off, on


class _PreparedPartition(NamedTuple):
    """What every calibration of one partition reads, and the walk states
    and steps they share.

    Built once per round by ``select_ranking`` (or by a direct ``fair_swap``
    call) from the partition, the certain matrix, the group labels and scores.
    Only ``states`` and ``steps`` grow, by an entry the first time a walk
    reaches it.
    """

    origin: dict[int, int]  # document -> index of its original block
    within: dict[int, Sequence]  # document -> the documents of its block it certainly beats
    # each group's documents, block by block, each block's in donor order
    seqs: tuple[tuple[int, ...], tuple[int, ...]]
    # for each group, the block of each of those documents, then the number of blocks
    where: tuple[tuple[int, ...], tuple[int, ...]]
    # for each group and each block j, that group's documents in blocks 0..j;
    # one more entry, for no block, is the group's total
    ends: tuple[tuple[int, ...], tuple[int, ...]]
    # (shown A) * (group B's total + 1) + (shown B) -> that state's entry (``_state``)
    states: dict[int, tuple[int, int, int]]
    steps: dict[tuple, _Step]  # (shown A, shown B, segment pattern) -> its step


def _prepare(partition: BlockPartition, certain, groups, scores) -> _PreparedPartition:
    for doc in partition.documents():
        if groups.get(doc) not in GROUPS:
            raise MalformedPartitionError(
                f"document {doc} has group {groups.get(doc)!r}, not {GROUP_A!r} or {GROUP_B!r}"
            )
    origin, within = index_pairs(partition, certain)
    wins = {doc: len(losers) for doc, losers in within.items()}
    scores = scores or {}
    seqs: tuple[list[int], list[int]] = ([], [])
    where: tuple[list[int], list[int]] = ([], [])
    ends: tuple[list[int], list[int]] = ([], [])
    for bi, block in enumerate(partition.blocks):
        if len(block) > 1:
            block = sorted(block, key=lambda d: _donor_sort_key(d, wins, scores))
        for doc in block:
            g = groups[doc] == GROUP_B
            seqs[g].append(doc)
            where[g].append(bi)
        for seq, end in zip(seqs, ends):
            end.append(len(seq))
    n_blocks = len(partition.blocks)
    for g in (0, 1):
        where[g].append(n_blocks)
        ends[g].append(len(seqs[g]))
    return _PreparedPartition(
        origin=origin,
        within=within,
        seqs=(tuple(seqs[0]), tuple(seqs[1])),
        where=(tuple(where[0]), tuple(where[1])),
        ends=(tuple(ends[0]), tuple(ends[1])),
        states={},
        steps={},
    )


def _require_feasible(prepared: _PreparedPartition, placement: tuple[str, ...]) -> None:
    # every document is A or B, so meeting each group's count also bounds k
    need_b = placement.count(GROUP_B)
    need_a = len(placement) - need_b
    seq_a, seq_b = prepared.seqs
    if need_a <= len(seq_a) and need_b <= len(seq_b) and placement.count(GROUP_A) == need_a:
        return  # what select_ranking's templates always are; otherwise, name the group
    have = dict(zip(GROUPS, map(len, prepared.seqs)))
    for g in dict.fromkeys(placement):
        n = placement.count(g)
        if n > have.get(g, 0):
            raise InfeasibleTemplateError(
                f"template needs {n} documents of group {g}, only {have.get(g, 0)} available"
            )


def fair_swap(
    partition: BlockPartition,
    template: GroupTemplate,
    certain,
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
    disabling it recovers pure seeded shuffling within blocks. ``certain``
    is the certain matrix or a set of pairs (see ``certain_matrix``).

    Work that does not depend on the template (the label check,
    ``index_pairs`` of ``certain``, and each group's documents
    block by block in donor order) is ``prepared``: ``select_ranking``
    builds it once per round for every call, and a call without it builds
    it from its own arguments. A call is then the feasibility check, the
    walk (``_walk``, which draws nothing), each promotion's ``SwapEvent``,
    the fill of each segment with the call's own ``rng``, which is read
    only through ``integers`` and only for a slot with a choice, and
    ``added_regret``, its only read of ``certain``.
    Calls that share ``prepared`` share each walk step, keyed by the two
    counters where it starts and its slot pattern.
    """
    certain = certain_matrix(certain, partition.documents())
    if prepared is None:
        prepared = _prepare(partition, certain, groups, scores)
    _require_feasible(prepared, template.placement)
    events: list[SwapEvent] = []
    order: list[int] = []
    for depth, step in enumerate(_walk(prepared, template.placement)):
        if any(step.shortage):
            events.append(_event(prepared, step, depth))
        shown = dict(zip(GROUPS, _shown(prepared, step)))
        slots = [shown[g] for g in step.seg]
        order += draw_slots(slots, shown.values(), prepared.origin, prepared.within, rng, respect_certain)
    return CalibratedRanking(
        order=order,
        added_regret=added_regret(order, certain),
        template=template,
        events=events,
    )


def _walk(prepared: _PreparedPartition, placement: tuple[str, ...]):
    """Yield the steps of a feasible placement in order, building each the
    first time the round's walks reach its state with its slot pattern."""
    steps = prepared.steps
    pa = pb = 0
    while pa + pb < len(placement):
        seg = placement[pa + pb : pa + pb + _state(prepared, pa, pb)[0]]
        step = steps.get((pa, pb, seg))
        if step is None:
            step = steps[pa, pb, seg] = _step(prepared, pa, pb, seg)
        yield step
        pa, pb = step.after


def _state(prepared: _PreparedPartition, pa: int, pb: int) -> tuple[int, int, int]:
    """The entry of the walk state where ``pa`` documents of group A and
    ``pb`` of group B are shown, filled the first time a walk reaches it:
    the host's unshown members, the most slots a segment from there takes,
    and the cost of a one-slot segment of group A and of group B, the
    cross-block inversions it makes (``_later`` of the origin of the
    group's next document). One slot has no order inside it, so the cost
    is the same with the heuristic on or off."""
    key = pa * (len(prepared.seqs[1]) + 1) + pb
    entry = prepared.states.get(key)
    if entry is None:
        # conditional expressions rather than min and max: this runs for
        # every walk state a round reaches
        (where_a, where_b), (ends_a, ends_b) = prepared.where, prepared.ends
        host = where_a[pa] if where_a[pa] < where_b[pb] else where_b[pb]
        left_a, left_b = ends_a[host] - pa, ends_b[host] - pb
        entry = prepared.states[key] = (
            (left_a if left_a > 0 else 0) + (left_b if left_b > 0 else 0),
            _later(prepared, pa, pb, where_a[pa]),
            _later(prepared, pa, pb, where_b[pb]),
        )
    return entry


def _later(prepared: _PreparedPartition, pa: int, pb: int, origin: int) -> int:
    """The documents shown from a later block than ``origin`` while ``pa``
    of group A and ``pb`` of group B are shown: each group's documents run
    block by block, so they are counted from ``prepared.ends``."""
    ends_a, ends_b = prepared.ends
    a, b = pa - ends_a[origin], pb - ends_b[origin]
    return (a if a > 0 else 0) + (b if b > 0 else 0)


def _step(prepared: _PreparedPartition, pa: int, pb: int, seg: tuple[str, ...]) -> _Step:
    """The segment ``seg`` from the state where ``pa`` documents of group A
    and ``pb`` of group B are shown.

    Each group's shown documents are a prefix of its sequence in
    ``prepared.seqs``, so the host is what is left of the earliest block
    with documents unshown. The segment keeps the host's first unshown
    members of each group, as many as it has slots for; the rest stay
    unshown and so are the next host, just above the lower blocks. A
    segment is never longer than its host, so a host short of one group
    has a surplus of the other, and at most one group promotes: its
    shortfall is that group's next documents after the host's, the nearest
    lower blocks' first in donor order. A one-slot segment takes the
    group's next document, promoted when it is not the host's, at the cost
    in the state's entry.
    """
    (where_a, where_b), (ends_a, ends_b) = prepared.where, prepared.ends
    host = where_a[pa] if where_a[pa] < where_b[pb] else where_b[pb]
    end_a, end_b = ends_a[host], ends_b[host]  # each group's documents through the host
    size, cost_a, cost_b = _state(prepared, pa, pb)
    need_b = seg.count(GROUP_B)
    qa, qb = pa + len(seg) - need_b, pb + need_b
    if len(seg) == 1:  # the group's next document, promoted unless the host's
        if need_b:
            shortage, forced = (0, int(qb > end_b)), (cost_b, cost_b)
        else:
            shortage, forced = (int(qa > end_a), 0), (cost_a, cost_a)
    elif qa > pa and qa > end_a:
        shortage = (qa - (pa if pa > end_a else end_a), 0)
        forced = _forced(prepared, pa, pb, host, seg, GROUP_A, where_a[qa - shortage[0] : qa])
    elif qb > pb and qb > end_b:
        shortage = (0, qb - (pb if pb > end_b else end_b))
        forced = _forced(prepared, pa, pb, host, seg, GROUP_B, where_b[qb - shortage[1] : qb])
    else:  # the host's members only, each below those shown from later blocks
        shortage = (0, 0)
        forced = (len(seg) * _later(prepared, pa, pb, host),) * 2
    return _Step((pa, pb), host, size, seg, shortage, (qa, qb), forced)


def _forced(prepared: _PreparedPartition, pa, pb, host, seg, promoted, donors) -> tuple[int, int]:
    """The cross-block inversions a promoting segment makes whatever its
    fill draws: with the heuristic off, against the documents shown before
    it; with it on, also among its own. ``donors`` are the origins of the
    documents of group ``promoted`` that it promotes, in block order; every
    other document it shows is the host's.

    A document shown before it from a later block than one of its own is an
    inversion (``_later``). With the heuristic, each slot takes the deepest
    origin left in its group, so the order of origins over the segment is
    fixed: only documents of one origin are drawn.
    """
    later = [_later(prepared, pa, pb, o) for o in (host, *donors)]
    across = (len(seg) - len(donors)) * later[0] + sum(later[1:])
    deepest = iter(donors[::-1])
    placed = [next(deepest, host) if g == promoted else host for g in seg]
    within = sum(a > b for i, a in enumerate(placed) for b in placed[i + 1 :])
    return across, across + within


def _shown(prepared: _PreparedPartition, step: _Step) -> list[list[int]]:
    """A step's documents of group A and of group B, the fill's candidates:
    promoted documents first, then the host's, each in donor order."""
    return [
        list(seq[stop - short : stop] + seq[p : stop - short])
        for seq, p, stop, short in zip(prepared.seqs, step.start, step.after, step.shortage)
    ]


def _event(prepared: _PreparedPartition, step: _Step, depth: int) -> SwapEvent:
    """The ``SwapEvent`` of a promoting step, the walk's ``depth``-th,
    counted from the unshown members of each lower block as it starts."""
    g = 0 if step.shortage[0] else 1
    shortage, stop = step.shortage[g], step.after[g]
    (pa, pb), (ends_a, ends_b) = step.start, prepared.ends
    # the blocks after the host with documents unshown, by their queue position
    position: dict[int, int] = {}
    b_counts: list[int] = []
    sizes: list[int] = []
    for j in range(step.host + 1, len(ends_a) - 1):
        a = ends_a[j] - (pa if pa > ends_a[j - 1] else ends_a[j - 1])
        b = ends_b[j] - (pb if pb > ends_b[j - 1] else ends_b[j - 1])
        if a > 0 or b > 0:
            position[j] = len(sizes)
            b_counts.append(b if b > 0 else 0)
            sizes.append((a if a > 0 else 0) + b_counts[-1])
    donors_per_block: dict[int, int] = {}
    for o in prepared.where[g][stop - shortage : stop]:
        donors_per_block[position[o]] = donors_per_block.get(position[o], 0) + 1
    return SwapEvent(
        host_block=depth,
        group=GROUPS[g],
        shortage=shortage,
        donors_per_block=donors_per_block,
        host_members=step.size,
        displaced=max(step.size + shortage - len(step.seg), 0),
        blocks_b_counts=b_counts,
        blocks_sizes=sizes,
    )


def draw_slots(
    slots, lists, origin: dict[int, int], within, rng, respect_certain: bool = True
) -> list[int]:
    """Fill each of ``slots``, a candidate list of ``lists`` per slot, with
    one of its documents, which then leaves its list, and return the fill.
    ``rng`` is read only through ``integers``, and only for a slot with a
    choice. This is the one within-block draw: ``fair_swap`` fills each
    segment with it, and ``harness.sample_block_order`` every block at once.

    With the heuristic on, a slot chooses among its candidates of the
    deepest ``origin`` (documents promoted from farther blocks go first: the
    merge already forfeited their known inferiority, and the fill realizes
    that loss instead of hiding it), and among those the ones with the
    fewest certain predecessors left unplaced in ``lists``; remaining ties
    are random, so one draw can invert a certain pair that another avoids
    (ROADMAP item 2). With it off, a slot draws among all its candidates.

    The predecessors are counted once, at the first slot with a choice, into
    one integer key per document with its origin folded in, and a placement
    decrements the keys of its certain successors. Both read ``within``,
    the documents each certainly beats in its origin, as ``index_pairs``
    gives them: one pass over the lists of the n documents of ``lists``.
    """
    fill: list[int] = []
    key, succ = None, {}
    for cands in slots:
        pool = cands
        if len(cands) > 1 and respect_certain:
            if key is None:
                docs = [d for each in lists for d in each]
                span = len(docs) + 1  # more than any count
                key = {d: -origin[d] * span for d in docs}
                for r in docs:
                    succ[r] = [d for d in within[r] if d in key]
                    for d in succ[r]:
                        key[d] += 1
            low = min(map(key.__getitem__, cands))
            pool = [d for d in cands if key[d] == low]
        choice = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
        cands.remove(choice)
        fill.append(choice)
        for d in succ.get(choice, ()):
            key[d] -= 1
    return fill


def select_ranking(
    partition: BlockPartition,
    templates: Sequence[GroupTemplate],
    certain,
    groups: dict[int, str],
    rng: np.random.Generator,
    projections: list[float] | None = None,
    scores: dict[int, float] | None = None,
    respect_certain: bool = True,
) -> CalibratedRanking:
    """The cheapest calibration over the templates, calibrating only those
    that can still win.

    Ties on added regret break toward the smaller projected unfairness
    magnitude (when given), then the lexicographically smallest placement,
    then the earlier template, so the order of evaluation can never change
    the outcome. Every calibrated template fills from ``rng`` set back to
    its state on entry, so all draw the same numbers and the outcome depends
    on neither the order of ``templates`` nor which are calibrated; ``rng``
    is left where the winner's fill ended.

    Each template's walk alone fixes every cross-block inversion that its
    calibration serves (``_forced``; with the heuristic off, only those
    across segments): a lower bound on its added regret, exact with the
    heuristic on when no certain pair lies inside an original block. That
    holds because every cross-block pair is certain and points down the
    blocks, which ``index_pairs`` checks. Templates are
    calibrated by ``fair_swap`` in order of (bound, |projection|,
    placement, index), and the round stops at the first whose key is above
    the best (added regret, |projection|, placement, index) so far: it and
    every template after it would cost at least that much.

    Once per round: the conversion of a set ``certain`` to its matrix
    (``certain_matrix``), the label check, ``index_pairs``, and the donor
    order (each group's documents block by block, each block sorted by
    within-block certain wins, then score, then index). Once per walk
    state: its entry in the state table. Once per walk state and pattern of
    two or more slots: the step taken from there, which reads the donor
    order by position and sorts nothing, and the inversions it forces. Once
    per template: the bound, with the feasibility check folded into its
    walk (``_regret_bound``). Once per calibrated template: its events, its
    fills and its added regret.
    """
    if not templates:
        raise InfeasibleTemplateError("no templates to select from")
    if projections is None:
        projections = [0.0] * len(templates)
    certain = certain_matrix(certain, partition.documents())
    prepared = _prepare(partition, certain, groups, scores)
    keys = []
    for i, (template, projection) in enumerate(zip(templates, projections)):
        bound = _regret_bound(prepared, template.placement, respect_certain)
        keys.append((bound, abs(projection), template.placement, i))
    keys.sort()
    start = rng.bit_generator.state
    best = best_key = end = None
    for key in keys:
        if best_key is not None and key > best_key:
            break
        rng.bit_generator.state = start  # every candidate draws the same numbers
        result = fair_swap(
            partition,
            templates[key[-1]],
            certain,
            groups,
            rng,
            respect_certain=respect_certain,
            prepared=prepared,
        )
        found = (result.added_regret, *key[1:])
        if best_key is None or found < best_key:
            best, best_key, end = result, found, rng.bit_generator.state
    rng.bit_generator.state = end
    return best


def _regret_bound(prepared: _PreparedPartition, placement, respect_certain: bool) -> int:
    """The cross-block inversions that the walk of ``placement`` forces,
    whatever its fills draw (``_Step.forced``): at most the added regret of
    its calibration, and equal to it with the heuristic on when no certain
    pair lies inside an original block.

    A one-slot segment (a host of one unshown member, or the placement's
    last slot) costs what its state's entry says (``_state``); only a
    longer one goes through ``steps``. Feasibility is checked on the way,
    by counts, and ``_require_feasible`` raises its message for a placement
    the pool cannot fill."""
    states, steps = prepared.states, prepared.steps
    n_a, n_b = len(prepared.seqs[0]), len(prepared.seqs[1])
    stride = n_b + 1
    last = len(placement) - 1
    pa = pb = bound = 0
    while pa + pb <= last:
        shown = pa + pb
        entry = states.get(pa * stride + pb) or _state(prepared, pa, pb)
        size = entry[0]
        if size < 2 or shown == last:
            g = placement[shown]
            if g == GROUP_A and pa < n_a:
                bound += entry[1]
                pa += 1
            elif g == GROUP_B and pb < n_b:
                bound += entry[2]
                pb += 1
            else:  # the count of g exceeds its documents, or g is no group
                _require_feasible(prepared, placement)
        else:
            seg = placement[shown : shown + size]
            step = steps.get((pa, pb, seg))
            if step is None:
                need_b = seg.count(GROUP_B)
                need_a = len(seg) - need_b
                if pa + need_a > n_a or pb + need_b > n_b or seg.count(GROUP_A) != need_a:
                    _require_feasible(prepared, placement)
                step = steps[pa, pb, seg] = _step(prepared, pa, pb, seg)
            bound += step.forced[respect_certain]
            pa, pb = step.after
    return bound
