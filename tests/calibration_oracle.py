"""Exhaustive reference search for the calibration minimality tests.

Explores every way a block calibration can run: shortfalls promoted from
any lower blocks (not just the nearest) and any choice of displaced
members, realizing each leaf with the shared presentation rule (promoted
documents precede the members they join, deeper origins first). The
reported minimum is over realized certain-order violations in the
displayed prefix.

``reference_fair_swap`` is the calibrator as it was before its
template-independent work moved into one preparation per round: it
recounts every lower block's group-B members at each promotion, and
builds its events as it walks. It returns a ``ReferenceCalibration``,
which a ``CalibratedRanking`` equals when their orders, added regrets,
templates and events are equal.
"""

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from fairexp.fairness import GroupTemplate
from fairexp.fairswap import (
    InfeasibleTemplateError,
    MalformedPartitionError,
    SwapEvent,
    _donor_sort_key,
    _require_feasible,
    added_regret,
)


def fewest_predecessors(pool, rivals, certain):
    """The members of ``pool`` with the fewest certain predecessors among
    ``rivals``, in pool order, recounted at every call: the reference for
    the count-once keys of ``fairswap.draw_slots``.

    When some member has no predecessor these are exactly the undominated
    members. Only a directed cycle of certain pairs inside a block leaves
    every member dominated, and a cycle needs every score difference around
    it to be positive, which only rounding at the 1e-16 level can produce.
    """
    counts = [sum(1 for r in rivals if r != d and (r, d) in certain) for d in pool]
    fewest = min(counts)
    return [d for d, c in zip(pool, counts) if c == fewest]


def within_block_wins(blocks, certain):
    """Each document's certain wins over members of its own block, by a
    scan of every certain pair: the reference for the donor order."""
    origin = {doc: bi for bi, block in enumerate(blocks) for doc in block}
    wins = dict.fromkeys(origin, 0)
    for winner, loser in certain:
        if winner in origin and origin.get(loser) == origin[winner]:
            wins[winner] += 1
    return wins


def brute_added_regret(order, certain):
    pos = {d: i for i, d in enumerate(order)}
    return sum(1 for w, l in certain if w in pos and l in pos and pos[l] < pos[w])


def _realize_segment(seg, members, donors, origin, groups):
    remaining = {"A": [], "B": []}
    for d in sorted(members) + sorted(donors):
        remaining[groups[d]].append(d)
    out = []
    for g in seg:
        cands = remaining[g]
        deepest = max(origin[d] for d in cands)
        choice = min(d for d in cands if origin[d] == deepest)
        cands.remove(choice)
        out.append(choice)
    return out


def oracle_min_regret(blocks, template, certain, groups, k, nearest_only=False):
    """Minimum realized added regret over every possible calibration.

    With ``nearest_only`` the donor supply follows the procedure's rule
    (shortfalls drawn from the closest lower blocks, only document
    identities free); otherwise donors may come from any lower blocks,
    which is the full space the minimality claim quantifies over.
    """
    origin = {d: bi for bi, blk in enumerate(blocks) for d in blk}
    best = [float("inf")]

    def donor_subsets(rest, g, r):
        if not nearest_only:
            pool = [d for b in rest for d in b if groups[d] == g]
            if len(pool) < r:
                return None
            return list(combinations(pool, r))
        remaining = r
        choices = [[]]
        for b in rest:
            if remaining == 0:
                break
            supply = [d for d in b if groups[d] == g]
            take = min(len(supply), remaining)
            remaining -= take
            if take:
                block_opts = list(combinations(supply, take))
                choices = [prev + list(opt) for prev in choices for opt in block_opts]
        if remaining > 0:
            return None
        return [tuple(c) for c in choices]

    def rec(work, pos, order):
        if pos >= k:
            best[0] = min(best[0], brute_added_regret(order, certain))
            return
        block = list(work[0])
        rest = [list(b) for b in work[1:]]
        seg = template[pos : min(pos + len(block), k)]
        need = {"A": seg.count("A"), "B": seg.count("B")}
        members = {
            "A": [d for d in block if groups[d] == "A"],
            "B": [d for d in block if groups[d] == "B"],
        }
        shortages = {g: need[g] - len(members[g]) for g in "AB" if need[g] > len(members[g])}
        donor_choices = [()]
        if shortages:
            ((g, r),) = shortages.items()
            donor_choices = donor_subsets(rest, g, r)
            if donor_choices is None:
                return
        for donors in donor_choices:
            new_rest = [[d for d in b if d not in donors] for b in rest]
            new_rest = [b for b in new_rest if b]
            kept_choices_a = list(combinations(members["A"], min(len(members["A"]), need["A"])))
            kept_choices_b = list(combinations(members["B"], min(len(members["B"]), need["B"])))
            for kept_a in kept_choices_a:
                for kept_b in kept_choices_b:
                    kept = list(kept_a) + list(kept_b)
                    displaced = [d for d in block if d not in kept]
                    filled = _realize_segment(seg, kept, list(donors), origin, groups)
                    next_work = ([displaced] if displaced else []) + new_rest
                    rec(next_work, pos + len(seg), order + filled)

    rec([list(b) for b in blocks], 0, [])
    return best[0]


def global_min_regret(blocks, template, certain, groups, k):
    """Minimum over all template-satisfying displayed orders (the looser
    reading that ignores calibration reachability; reported, not asserted)."""
    docs = [d for b in blocks for d in b]
    a_docs = [d for d in docs if groups[d] == "A"]
    b_docs = [d for d in docs if groups[d] == "B"]
    a_slots = sum(1 for g in template[:k] if g == "A")
    best = float("inf")
    for a_perm in permutations(a_docs, a_slots):
        for b_perm in permutations(b_docs, k - a_slots):
            order = []
            ai = bi = 0
            for g in template[:k]:
                if g == "A":
                    order.append(a_perm[ai])
                    ai += 1
                else:
                    order.append(b_perm[bi])
                    bi += 1
            best = min(best, brute_added_regret(order, certain))
    return best


def cross_block_certain(blocks):
    certain = set()
    for bi, blk in enumerate(blocks):
        for later in blocks[bi + 1 :]:
            certain.update((w, l) for w in blk for l in later)
    return certain


def random_instance(rng: np.random.Generator, full_length=False):
    """Random partition (<= 8 documents, <= 3 blocks), groups, feasible
    template, and the implied cross-block certain set.

    ``full_length`` forces the template to cover every document (no
    display cutoff), which is the setting of the minimality claim; with a
    cutoff the nearest-donor rule deliberately differs from the free
    optimum, since skipping a block can hide its violated pairs below k.
    """
    n = int(rng.integers(2, 9))
    n_blocks = int(rng.integers(1, min(3, n) + 1))
    if n_blocks > 1:
        cuts = sorted(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
    else:
        cuts = []
    bounds = [0, *cuts, n]
    blocks = [list(range(bounds[i], bounds[i + 1])) for i in range(n_blocks)]
    groups = {d: ("A" if rng.random() < 0.5 else "B") for d in range(n)}
    k = n if full_length else int(rng.integers(1, n + 1))
    rem = {"A": sum(1 for d in range(n) if groups[d] == "A")}
    rem["B"] = n - rem["A"]
    placement = []
    for _ in range(k):
        options = [g for g in "AB" if rem[g] > 0]
        g = options[int(rng.integers(len(options)))]
        placement.append(g)
        rem[g] -= 1
    return blocks, tuple(placement), cross_block_certain(blocks), groups, k


@dataclass(eq=False)
class ReferenceCalibration:
    """What ``reference_fair_swap`` serves, events stored rather than
    built when read. It equals any record with the same order, added
    regret, template and events, a ``CalibratedRanking`` included."""

    order: list[int]
    added_regret: int
    template: GroupTemplate
    events: list[SwapEvent]

    def __eq__(self, other):
        names = ("order", "added_regret", "template", "events")
        return all(hasattr(other, name) for name in names) and all(
            getattr(self, name) == getattr(other, name) for name in names
        )


def reference_fair_swap(
    partition, template, certain, groups, rng, scores=None, respect_certain=True
) -> ReferenceCalibration:
    docs_all = [doc for block in partition.blocks for doc in block]
    if len(set(docs_all)) != len(docs_all):
        raise MalformedPartitionError("blocks contain duplicate documents")
    k = len(template)
    if k > len(docs_all):
        raise InfeasibleTemplateError(f"template length {k} exceeds {len(docs_all)} documents")
    need_total = Counter(template.placement)
    have_total = Counter(groups[doc] for doc in docs_all)
    for g, n in need_total.items():
        if n > have_total.get(g, 0):
            raise InfeasibleTemplateError(
                f"template needs {n} documents of group {g}, only {have_total.get(g, 0)} available"
            )
    scores = scores or {}
    origin = {doc: bi for bi, block in enumerate(partition.blocks) for doc in block}
    wins = within_block_wins(partition.blocks, certain)

    work = deque(list(block) for block in partition.blocks)
    order = []
    events = []
    pos = 0
    host_index = 0
    while pos < k:
        if not work:
            raise MalformedPartitionError("ran out of blocks before filling the template")
        block = work.popleft()
        seg = template.placement[pos : min(pos + len(block), k)]
        seg_need = Counter(seg)
        members_by_group = {}
        for doc in block:
            members_by_group.setdefault(groups[doc], []).append(doc)

        donors = []
        for g, needed in seg_need.items():
            shortage = needed - len(members_by_group.get(g, []))
            if shortage <= 0:
                continue
            b_counts = [sum(1 for d in blk if groups[d] == "B") for blk in work]
            sizes = [len(blk) for blk in work]
            taken, per_block = _reference_promote(work, g, shortage, groups, wins, scores)
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
                    blocks_b_counts=b_counts,
                    blocks_sizes=sizes,
                )
            )

        displayed = list(donors)
        displaced = []
        for g, members in members_by_group.items():
            keep = min(len(members), seg_need.get(g, 0))
            ranked = sorted(members, key=lambda d: _donor_sort_key(d, wins, scores))
            displayed.extend(ranked[:keep])
            displaced.extend(ranked[keep:])

        order += reference_fill(seg, displayed, origin, certain, groups, rng, respect_certain)
        if displaced:
            work.appendleft(sorted(displaced))
        pos += len(seg)
        host_index += 1

    return ReferenceCalibration(
        order=order,
        added_regret=added_regret(order, certain),
        template=template,
        events=events,
    )


def reference_fill(seg, displayed, origin, certain, groups, rng, respect_certain):
    """The calibration fill as it was when it took one displayed list: it
    regroups the list by label, tracks placed documents in a set and
    recounts predecessors at every slot, so the calibrator's count-once
    ``fairswap.draw_slots`` is checked against separate code."""
    remaining = {}
    for doc in displayed:
        remaining.setdefault(groups[doc], []).append(doc)
    filled = []
    placed = set()
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


def _reference_promote(work, group, shortage, groups, wins, scores):
    taken = []
    per_block = {}
    for bi, block in enumerate(work):
        if len(taken) == shortage:
            break
        candidates = sorted(
            (d for d in block if groups[d] == group),
            key=lambda d: _donor_sort_key(d, wins, scores),
        )
        chosen = candidates[: shortage - len(taken)]
        if chosen:
            per_block[bi] = len(chosen)
            for d in chosen:
                block.remove(d)
            taken.extend(chosen)
    empty = [i for i, blk in enumerate(work) if not blk]
    for i in reversed(empty):
        del work[i]
    return taken, per_block


def reference_regret_bound(prepared, placement, respect_certain):
    """The cross-block inversions that the walk of ``placement`` forces,
    step by step: the feasibility check, then each segment from the two
    counters where it starts, its host and its shortfall worked out from
    ``prepared.where`` and ``prepared.ends`` alone. The reference for
    ``fairswap._regret_bound``, which reads one-slot segments off a table of
    walk states and keeps the longer steps."""
    _require_feasible(prepared, placement)
    (where_a, where_b), (ends_a, ends_b) = prepared.where, prepared.ends

    def later(pa, pb, o):
        return max(pa - ends_a[o], 0) + max(pb - ends_b[o], 0)

    def host_size(pa, pb):
        host = min(where_a[pa], where_b[pb])
        return host, max(ends_a[host] - pa, 0) + max(ends_b[host] - pb, 0)

    bound = pa = pb = 0
    while pa + pb < len(placement):
        host, size = host_size(pa, pb)
        seg = placement[pa + pb : pa + pb + size]
        end_a, end_b = ends_a[host], ends_b[host]
        need_b = seg.count("B")
        qa, qb = pa + len(seg) - need_b, pb + need_b
        if qa > pa and qa > end_a:
            promoted, donors = "A", where_a[max(pa, end_a) : qa]
        elif qb > pb and qb > end_b:
            promoted, donors = "B", where_b[max(pb, end_b) : qb]
        else:
            promoted, donors = None, ()
        # every slot not promoted shows a host member; with the heuristic,
        # promoted slots take the deepest origin first
        across = (len(seg) - len(donors)) * later(pa, pb, host)
        across += sum(later(pa, pb, o) for o in donors)
        deepest = iter(donors[::-1])
        placed = [next(deepest, host) if g == promoted else host for g in seg]
        within = sum(a > b for i, a in enumerate(placed) for b in placed[i + 1 :])
        bound += across + within * respect_certain
        pa, pb = qa, qb
    return bound
