"""Online pairwise logistic regression with confidence-interval exploration.

The ranker scores documents linearly and models pairwise preferences with
a sigmoid link. Every observed preference pair contributes a rank-one
update to an information matrix; the Mahalanobis norm of a difference
vector under its inverse yields a confidence width for that pair's
predicted order. Pairs whose interval excludes 1/2 are "certain", the
rest "uncertain"; candidates partition into blocks whose cross-block
orders are all certain.

The parameters are re-fitted over the whole pair history every round.
Every pair is a clicked document over a skipped one, and the same query
showing the same list again yields the same pairs, so the history is kept
as the D distinct documents it compares and its u distinct (winner,
loser, label) pairs of document indices with their counts. The fit runs on
these sufficient statistics: each distinct pair once, weighted by its
count. A product with the u difference rows X = docs[win] - docs[lose]
can go through the document table, O(D d + u) instead of O(u d):
X v = (docs v)[win] - (docs v)[lose], and X^T r = docs^T (the sum of r
over the pairs each document wins minus over those it loses). Above
``DIRECT_SOLVE_MAX_D`` features, with more pairs than documents, every
product does. Otherwise the fit builds X once and multiplies with it: the
direct solve needs X for its Hessian, and with no more pairs than
documents one product with X costs less than the two gathers and two
bincounts of one through the table.

Each Newton step of the refit solves H p = grad with the Hessian
H = X^T diag(c s (1 - s)) X + lam I over the u distinct rows X. Up to
``DIRECT_SOLVE_MAX_D`` features the step forms H, O(u d^2), and solves it
directly. Above that width it runs conjugate gradients on Hessian-vector
products, O(D d + u) each, preconditioned by the inverse information matrix
M^-1 = (lam I + X^T diag(c) X)^-1, as in TRON (Lin, Weng & Keerthi, JMLR
2008). M carries the scale and correlation of the features that make H
ill-conditioned, and it bounds H: since s (1 - s) <= 1/4, H <= M
(Boehning & Lindsay, 1988), and H >= m M with m the smallest s (1 - s)
over the rows. So M^-1 H has its eigenvalues in [m, 1], and only rows
the model already predicts confidently spread them. The confidence widths
read M^-1 anyway, so the preconditioner costs no extra inverse: both read
the one M^-1 that ``update`` keeps current, which each round's new pairs
change by a rank-p term (see ``RankerState``).
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import QueryCandidates


class DimensionError(ValueError):
    """Raised on feature-dimension mismatches."""


class NumericError(RuntimeError):
    """Raised when the loss or gradient turns non-finite."""


CHECKPOINT_VERSION = 4
GRAD_TOL = 1e-6
MAX_NEWTON_ITERS = 100
# The widest input whose Newton step forms the Hessian and solves it. Timed
# for one step over 1,000 to 2,300 distinct rows, CG wins from d = 32 on;
# over 100 to 300 rows it ties or loses up to d = 136, but such a step
# takes under 1 ms. The d = 8 workloads stay below and the d = 136 above.
DIRECT_SOLVE_MAX_D = 32
# CG ends at residual CG_RTOL * ||grad|| (or after d iterations); the line
# search and the gradient stop make the fit's accuracy, not the step's.
CG_RTOL = 1e-3


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) below
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


class _PairBuffer:
    """Growable store of preference pairs, kept over the distinct documents
    they compare, each distinct (winner, loser, label) pair once with the
    number of times it was observed.

    ``docs`` holds each distinct document row once, in order of first
    occurrence; row 0 is the zero vector, and a dict keyed by a row's exact
    bytes finds a repeat. ``win``, ``lose``, ``labels`` and ``counts`` hold
    the u distinct pairs in order of first occurrence: the indices into
    ``docs`` of the preferred and the other document, the label and the
    count; a dict keyed by the index pair and label finds a repeat.
    ``rows`` is the pairs' difference vectors ``docs[win] - docs[lose]``.
    ``n`` is the number of pairs buffered, the sum of the counts, and ``x``
    and ``y`` expand the distinct pairs back into all n of them, each row
    repeated by its count (not in the order they arrived).

    A difference vector stored without the documents it came from is a
    document paired with row 0. Two pairs are then the same pair when their
    documents are the same, not when their differences are.
    """

    def __init__(self, d: int):
        self._docs = np.zeros((16, d), dtype=np.float64)
        self._doc_index: dict[bytes, int] = {self._docs[0].tobytes(): 0}
        self._win = np.empty(16, dtype=np.intp)
        self._lose = np.empty(16, dtype=np.intp)
        self._labels = np.empty(16, dtype=np.float64)
        self._counts = np.empty(16, dtype=np.int64)
        self._pair_index: dict[tuple[int, int, float], int] = {}
        self.n = 0

    def doc_ids(self, rows: np.ndarray) -> list[int]:
        """The index in ``docs`` of each float64 row, appending the new ones."""
        ids = []
        for row in rows:
            key = row.tobytes()
            i = self._doc_index.get(key)
            if i is None:
                i = self._doc_index[key] = len(self._doc_index)
                if i == len(self._docs):
                    self._docs = np.concatenate([self._docs, np.empty_like(self._docs)])
                self._docs[i] = row
            ids.append(i)
        return ids

    def add(self, win: list[int], lose: list[int], labels: list[float], counts=None) -> None:
        """Add the pair of documents ``win[i]`` over ``lose[i]`` with label
        ``labels[i]`` ``counts[i]`` times (default once)."""
        if counts is None:
            counts = [1] * len(labels)
        for key, count in zip(zip(win, lose, labels), counts):
            i = self._pair_index.get(key)
            if i is None:
                i = self._pair_index[key] = len(self._pair_index)
                if i == len(self._labels):
                    self._win, self._lose, self._labels, self._counts = (
                        np.concatenate([a, np.empty_like(a)])
                        for a in (self._win, self._lose, self._labels, self._counts)
                    )
                self._win[i], self._lose[i], self._labels[i] = key
                self._counts[i] = 0
            self._counts[i] += count
            self.n += count

    @property
    def docs(self) -> np.ndarray:
        return self._docs[: len(self._doc_index)]

    @property
    def win(self) -> np.ndarray:
        return self._win[: len(self._pair_index)]

    @property
    def lose(self) -> np.ndarray:
        return self._lose[: len(self._pair_index)]

    @property
    def labels(self) -> np.ndarray:
        return self._labels[: len(self._pair_index)]

    @property
    def counts(self) -> np.ndarray:
        return self._counts[: len(self._pair_index)]

    @property
    def rows(self) -> np.ndarray:
        docs = self.docs
        return docs[self.win] - docs[self.lose]

    @property
    def x(self) -> np.ndarray:
        return np.repeat(self.rows, self.counts, axis=0)

    @property
    def y(self) -> np.ndarray:
        return np.repeat(self.labels, self.counts)


@dataclass
class RankerState:
    """Model parameters plus the accumulated pair evidence.

    ``info_matrix`` equals lam * I plus the sum of outer products of all
    buffered difference vectors (``pairs.x``, every repeat included), so it
    stays symmetric positive definite.

    ``_info_inv`` caches its inverse M^-1, which ``info_inverse()`` returns.
    ``initial`` sets it to the exact (1/lam) I. Above ``DIRECT_SOLVE_MAX_D``
    features, ``update`` keeps it equal to M^-1 up to rounding: a round's
    p < d / 2 new difference rows D add D^T D to M, and by the Woodbury
    identity M^-1 becomes M^-1 - M^-1 D^T (I_p + D M^-1 D^T)^-1 D M^-1,
    O(d^2 p + p^3) instead of the O(d^3) of a fresh inverse. Any other
    round drops the cache, and ``info_inverse()`` inverts M for a state
    without one (so does a state loaded from a checkpoint or built by
    hand). Timed against ``np.linalg.inv`` on a 2-CPU x86 VM with
    OpenBLAS, the step loses at d = 8 (18 us against 9.5 us: the overhead
    of four small calls), and at d = 40 to 256 it wins or ties up to
    p = d / 2 and loses from about p = 3d / 4 on.
    """

    theta: np.ndarray
    info_matrix: np.ndarray
    lam: float
    round: int = 0
    pairs: _PairBuffer = None
    # the per-feature (lo, hi) that the run min-max scaled its features with,
    # or None; ``theta`` scores features scaled so
    minmax_bounds: tuple[np.ndarray, np.ndarray] | None = None
    _info_inv: np.ndarray = field(default=None, repr=False)
    # the last fit ended at a point a refit on the same pairs would keep:
    # its gradient met GRAD_TOL, or its line search found no lower loss
    _fit_settled: bool = field(default=False, repr=False)

    @classmethod
    def initial(cls, d: int, lam: float) -> "RankerState":
        if lam <= 0:
            raise ValueError("lam must be positive")
        return cls(
            theta=np.zeros(d),
            info_matrix=lam * np.eye(d),
            lam=lam,
            round=0,
            pairs=_PairBuffer(d),
            _info_inv=np.eye(d) / lam,
        )

    @property
    def d(self) -> int:
        return len(self.theta)

    def info_inverse(self) -> np.ndarray:
        if self._info_inv is None:
            self._info_inv = np.linalg.inv(self.info_matrix)
        return self._info_inv


@dataclass
class PairOrderSets:
    """The certain relation among ``n`` candidates as one (n, n) boolean
    matrix: ``beats[i, j]`` is true when i certainly beats j, and a pair
    certain in neither order is uncertain.

    ``certain`` is the same relation as a set of (winner, loser) pairs,
    built on each read. Raises ``ValueError`` unless ``beats`` is a square
    boolean matrix with no pair certain in both orders, a document paired
    with itself included."""

    beats: np.ndarray

    def __post_init__(self):
        beats = self.beats
        if beats.dtype != bool or beats.ndim != 2 or beats.shape[0] != beats.shape[1]:
            raise ValueError(f"beats must be a square boolean matrix, not {beats.dtype} {beats.shape}")
        both = beats & beats.T  # a self pair is its own reverse
        if np.count_nonzero(both):
            i, j = np.argwhere(both)[0].tolist()
            raise ValueError(
                f"certain pair ({i}, {j}) must name two documents of 0..{len(beats) - 1} in one order"
            )

    @property
    def n(self) -> int:
        return len(self.beats)

    @property
    def certain(self) -> set[tuple[int, int]]:
        winners, losers = self.beats.nonzero()
        return set(zip(winners.tolist(), losers.tolist()))

    def n_pairs(self) -> int:
        return self.n * (self.n - 1) // 2


@dataclass
class BlockPartition:
    """Ordered blocks of document indices; all cross-block orders are certain."""

    blocks: list[list[int]]

    def documents(self) -> list[int]:
        return [doc for block in self.blocks for doc in block]


def _check_dim(state: RankerState, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != state.d:
        raise DimensionError(f"feature dimension {x.shape[-1]} != model dimension {state.d}")
    return x


def score_all(state: RankerState, features: np.ndarray) -> np.ndarray:
    return _check_dim(state, features) @ state.theta


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per n and read-only, since
    every caller shares the arrays. The bound caps what a split with many
    query lengths keeps: n(n-1) indices per length."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


@lru_cache(maxsize=64)
def _upper_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices into an (n, n) matrix of the cells (i, j) and
    (j, i) of each pair of ``_upper_pairs(n)``, read-only like it."""
    idx_i, idx_j = _upper_pairs(n)
    cells = (idx_i * n + idx_j, idx_j * n + idx_i)
    for idx in cells:
        idx.flags.writeable = False
    return cells


def classify_pairs(state: RankerState, candidates: QueryCandidates, alpha: float) -> PairOrderSets:
    """The certain relation over all candidate pairs, as ``PairOrderSets``.

    A pair (i, j) is certain when the predicted preference probability
    stays on one side of 1/2 by more than the confidence width
    alpha ||x_i - x_j||_M (``alpha`` >= 0): the Mahalanobis norm of the
    pair's feature difference under the inverse information matrix M. An
    interval that touches 1/2 exactly, or a NaN, counts as uncertain.

    The norms are read off one Gram matrix G = F M F^T of the candidate
    features F: ||x_i - x_j||_M^2 = G_ii + G_jj - 2 G_ij. That costs
    O(n d^2 + n^2) per query instead of O(n^2 d^2) for a quadratic form per
    pair; rounding can make the sum slightly negative where x_i and x_j
    (nearly) coincide, hence the clip at 0.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to classify")
    feats = _check_dim(state, candidates.feature_matrix())
    n = len(candidates)
    idx_i, idx_j = _upper_pairs(n)
    probs = sigmoid((feats[idx_i] - feats[idx_j]) @ state.theta)
    gram = feats @ state.info_inverse() @ feats.T
    sq_norms = gram.diagonal()
    quad = sq_norms[idx_i] + sq_norms[idx_j] - 2.0 * gram[idx_i, idx_j]
    widths = alpha * np.sqrt(np.maximum(quad, 0.0))
    above = probs - widths > 0.5
    below = probs + widths < 0.5
    # the masks land in the cells (i, j) and (j, i) of the flat matrix
    cell_ij, cell_ji = _upper_cells(n)
    beats = np.zeros(n * n, dtype=bool)
    beats[cell_ij] = above
    beats[cell_ji] = below
    return PairOrderSets(beats.reshape(n, n))


def partition_blocks(candidates: QueryCandidates, order_sets: PairOrderSets) -> BlockPartition:
    """Group candidates into ordered blocks separated only by certain orders.

    Blocks are the strongly connected components of the digraph with an arc
    both ways for each uncertain pair and one arc from winner to loser for
    each certain pair. Every pair has an arc, so every pair between two
    components is certain and points the same way, and the components form
    one total order. Certain orders that contradict each other through
    uncertain pairs merge their blocks.

    A block ends after the top m documents exactly when they certainly beat
    the other n - m. For any m documents, their certain wins minus their
    certain losses sum to the certain pairs from them to the others minus
    those the other way, which equals m(n - m) exactly when they beat every
    other document. Such m documents have at most m - 1 losses each and the
    others at least m, so they are the first m after a sort by losses.

    Wins and losses are the row and column sums of ``order_sets.beats``.
    Raises ``ValueError`` unless ``order_sets.n`` is the number of
    candidates.
    """
    n = len(candidates)
    if order_sets.n != n:
        raise ValueError(f"order sets cover {order_sets.n} documents, not the {n} candidates")
    beats = order_sets.beats
    losses = beats.sum(axis=0)
    # stable: documents with equal losses keep their index order
    order = np.argsort(losses, kind="stable")
    surplus = np.cumsum((beats.sum(axis=1) - losses)[order]).tolist()
    order = order.tolist()
    blocks: list[list[int]] = []
    start = 0
    for m, total in enumerate(surplus, 1):
        if total == m * (n - m):
            blocks.append(sorted(order[start:m]))
            start = m
    return BlockPartition(blocks=blocks)


def _pair_masks(clicks) -> tuple[np.ndarray, np.ndarray]:
    """The clicked and the skipped positions of a displayed list: every
    clicked document is preferred over every unclicked one at or above the
    last click. The pairs run clicked-major: each clicked position, top
    down, over each skipped one, top down."""
    clicks = np.asarray(clicks, dtype=bool)
    # unclicked with a click at or below it, that is at or above the last click
    skipped = ~clicks & np.logical_or.accumulate(clicks[::-1])[::-1]
    return clicks, skipped


def infer_pairs(
    displayed_features: np.ndarray, clicks
) -> tuple[np.ndarray, np.ndarray]:
    """Turn clicks on a displayed list into preference difference vectors.

    Every clicked document is preferred over every unclicked document at
    or above the last clicked position; positions below the last click
    carry no signal. Returns (difference matrix, labels), labels all 1.
    """
    clicked, skipped = _pair_masks(clicks)
    d = displayed_features.shape[1]
    diffs = (displayed_features[clicked][:, None] - displayed_features[skipped]).reshape(-1, d)
    return diffs, np.ones(len(diffs))


def _pair_dot(docs: np.ndarray, win, lose, v: np.ndarray) -> np.ndarray:
    """X v for the difference rows X = docs[win] - docs[lose], in O(D d + u)
    over D documents and u pairs; with ``win`` None, ``docs`` is X."""
    t = docs @ v
    return t if win is None else t[win] - t[lose]


def _pair_tdot(docs: np.ndarray, win, lose, r: np.ndarray) -> np.ndarray:
    """X^T r for the difference rows X = docs[win] - docs[lose], in
    O(D d + u): each document's share of r, then one product with docs;
    with ``win`` None, ``docs`` is X."""
    if win is None:
        return docs.T @ r
    n_docs = len(docs)
    return docs.T @ (np.bincount(win, r, n_docs) - np.bincount(lose, r, n_docs))


def _loss_grad(theta, docs, win, lose, y, c, lam: float):
    z = _pair_dot(docs, win, lose, theta)
    s = sigmoid(z)
    # cross-entropy of sigmoid(z) against y, in the softplus form, of each
    # distinct pair times its count
    loss = float(np.sum(c * (np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * theta @ theta)
    grad = _pair_tdot(docs, win, lose, c * (s - y)) + lam * theta
    return loss, grad, s


def _cg_step(docs, win, lose, w: np.ndarray, lam: float, grad: np.ndarray, precond: np.ndarray):
    """Approximate solution p of H p = grad, H = X^T diag(w) X + lam I over
    the difference rows X = docs[win] - docs[lose], by conjugate gradients
    preconditioned with ``precond`` (symmetric positive definite, close to
    H^-1). Each iteration applies H as two products with ``docs``; the
    iterations stop once the residual ||grad - H p|| is at most
    ``CG_RTOL * ||grad||``, or after d of them."""
    step = np.zeros_like(grad)
    resid = grad.copy()
    z = precond @ resid
    direction = z.copy()
    rz = resid @ z
    tol = CG_RTOL * np.linalg.norm(grad)
    for _ in range(len(grad)):
        if np.linalg.norm(resid) <= tol:
            break
        h_dir = _pair_tdot(docs, win, lose, w * _pair_dot(docs, win, lose, direction))
        h_dir += lam * direction
        a = rz / (direction @ h_dir)
        step += a * direction
        resid -= a * h_dir
        z = precond @ resid
        rz_next = resid @ z
        direction = z + (rz_next / rz) * direction
        rz = rz_next
    return step


def _shown_pairs(state: RankerState, shown, diffs: np.ndarray):
    """The displayed rows down to the last click, and for each pair that
    ``infer_pairs`` makes of ``shown``, (displayed rows, clicks), the
    positions of its clicked and its skipped row, in ``infer_pairs``' order.
    Raises ``ValueError`` unless ``diffs`` are those pairs' differences,
    equal entry by entry, as ``infer_pairs`` returns them."""
    feats, clicks = shown
    feats = _check_dim(state, feats)
    clicked, skipped = _pair_masks(clicks)
    if clicked.shape != (len(feats),):
        raise ValueError(f"{clicked.size} clicks for {len(feats)} displayed rows")
    won, lost = clicked.nonzero()[0].tolist(), skipped.nonzero()[0].tolist()
    if len(won) * len(lost) != len(diffs):
        raise ValueError(f"the shown clicks give {len(won) * len(lost)} pairs, not {len(diffs)}")
    win, lose = [i for i in won for _ in lost], lost * len(won)
    if not np.array_equal(feats[win] - feats[lose], diffs):
        raise ValueError("diffs are not the clicked shown rows minus the skipped ones")
    # every row at or above the last click is clicked or skipped
    return feats[: won[-1] + 1], win, lose


def update(state: RankerState, diffs: np.ndarray, labels: np.ndarray, shown=None) -> RankerState:
    """Fold new preference pairs into the state and re-fit the parameters.

    ``shown`` is (displayed rows, clicks), what ``infer_pairs`` made
    ``diffs`` from; the buffer then keeps each pair as its two documents.
    Without it each difference vector is stored as a document paired with
    the zero row. Both give the same ``rows``, labels and counts. A round
    without pairs adds nothing, so its ``shown`` is not read.

    The information matrix gains the new outer products; the parameter
    vector is re-optimized over the full pair history by damped Newton
    iterations warm-started at the previous value, stopping at gradient
    norm 1e-6 or 100 iterations. The fit runs over the u distinct pairs
    weighted by their counts c: the loss is sum c (softplus(z) - y z) plus
    the ridge term. A backtracking line search accepts a step only if it
    strictly lowers the loss, and the fit ends when 50 halvings find none,
    so the final loss is below the warm start's or equal to it.

    Above ``DIRECT_SOLVE_MAX_D`` features, with more distinct pairs u than
    distinct documents D, every product with the history runs over the
    documents: X v is (docs v)[win] - (docs v)[lose], and X^T r is docs^T
    times each document's summed share of r, so a loss, gradient or
    Hessian-vector product costs O(D d + u) instead of O(u d). Otherwise
    the fit builds the u difference rows X once and multiplies with them.
    The Newton step solves (X^T diag(c s (1 - s)) X + lam I) p = grad. At
    d <= ``DIRECT_SOLVE_MAX_D`` it forms that Hessian from X, O(u d^2)
    instead of O(n d^2) over all n pairs buffered, and solves it. Wider, it
    runs ``_cg_step``: conjugate gradients on Hessian-vector products to a
    residual of ``CG_RTOL`` times the gradient norm, with the inverse
    information matrix as preconditioner (see the module docstring for why
    it fits); that inverse is the one ``classify_pairs`` reads next round,
    kept current here by a rank-p update when the round brings fewer than
    d / 2 pairs (see ``RankerState``).

    Raises ``ValueError`` before changing the state when ``diffs`` or
    ``labels`` holds a NaN or an infinity, or when ``diffs`` are not the
    pairs that ``infer_pairs`` makes of ``shown``.

    A round with no new pairs after a fit that settled (its gradient met
    the tolerance, or its line search found no lower loss) keeps theta
    as it is: a refit on the same pairs from the same point would end
    there again. A fit that ran out of iterations, and a state loaded
    from a checkpoint, refit.
    """
    diffs = np.asarray(diffs, dtype=np.float64).reshape(-1, state.d)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(diffs) != len(labels):
        raise ValueError("diffs and labels disagree in length")
    for name, value in (("diffs", diffs), ("labels", labels)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} holds values that are not finite")
    if shown is not None and len(labels):
        shown_rows, won, lost = _shown_pairs(state, shown, diffs)
    state.round += 1
    if not len(diffs) and state._fit_settled:
        return state
    pairs = state.pairs
    if len(diffs):
        if shown is None:
            win = pairs.doc_ids(diffs)
            lose = [0] * len(win)
        else:
            ids = pairs.doc_ids(shown_rows)
            win, lose = [ids[i] for i in won], [ids[j] for j in lost]
        pairs.add(win, lose, labels.tolist())
        state.info_matrix = state.info_matrix + diffs.T @ diffs
        inv = state._info_inv
        if inv is not None and state.d > DIRECT_SOLVE_MAX_D and 2 * len(diffs) < state.d:
            # the Woodbury step of RankerState; dm = D M^-1 = (M^-1 D^T)^T, M^-1 symmetric
            dm = diffs @ inv
            inner = np.eye(len(diffs)) + dm @ diffs.T
            state._info_inv = inv - dm.T @ np.linalg.solve(inner, dm)
        else:
            state._info_inv = None

    if pairs.n == 0:
        state.theta = np.zeros(state.d)
        return state
    y, c = pairs.labels, pairs.counts
    # the difference rows as ``_pair_dot`` reads them
    if state.d <= DIRECT_SOLVE_MAX_D or len(y) <= len(pairs.docs):
        # the direct solve forms its Hessian from the rows themselves; and
        # with no more pairs than documents, one product with the rows costs
        # less than the two gathers and two bincounts of one through docs
        x = (pairs.rows, None, None)
    else:
        x = (pairs.docs, pairs.win, pairs.lose)

    theta = state.theta.copy()
    state._fit_settled = False
    loss, grad, s = _loss_grad(theta, *x, y, c, state.lam)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite loss at warm start (round {state.round})")
    for _ in range(MAX_NEWTON_ITERS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            state._fit_settled = True
            break
        # Hessian weights from the accepted point's probabilities
        w = c * s * (1.0 - s)
        if state.d > DIRECT_SOLVE_MAX_D:
            step = _cg_step(*x, w, state.lam, grad, state.info_inverse())
        else:
            rows = x[0]
            hess = (rows * w[:, None]).T @ rows + state.lam * np.eye(state.d)
            step = np.linalg.solve(hess, grad)
        # backtracking keeps the loss monotone even far from the optimum; a
        # step that only ties the loss is rounding, not progress
        stepsize = 1.0
        for _ in range(50):
            cand = theta - stepsize * step
            cand_loss, cand_grad, cand_s = _loss_grad(cand, *x, y, c, state.lam)
            if np.isfinite(cand_loss) and cand_loss < loss:
                theta, loss, grad, s = cand, cand_loss, cand_grad, cand_s
                break
            stepsize *= 0.5
        else:
            state._fit_settled = True
            break
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient during update (round {state.round})")
    state.theta = theta
    return state


def save_checkpoint(state: RankerState, path: str | Path) -> None:
    """Write a versioned checkpoint: theta, info matrix, lam, round, the
    pair history as the buffer keeps it, so a resumed run can keep
    re-fitting the full history, and the min-max bounds as ``minmax_lo``
    and ``minmax_hi`` when the run scaled its features.

    The history is ``pairs_docs`` (D, d), the distinct documents with the
    zero row first, and per distinct pair ``pairs_win`` and ``pairs_lose``
    (u,), indices into ``pairs_docs``, ``pairs_y`` (u,) its label and
    ``pairs_count`` (u,) how often it was observed. No (u, d) array of
    difference rows is built.
    """
    bounds = {}
    if state.minmax_bounds is not None:
        bounds = dict(zip(("minmax_lo", "minmax_hi"), state.minmax_bounds))
    pairs = state.pairs
    np.savez(
        path,
        **bounds,
        version=np.array(CHECKPOINT_VERSION),
        theta=state.theta,
        info_matrix=state.info_matrix,
        lam=np.array(state.lam),
        round=np.array(state.round),
        pairs_docs=pairs.docs,
        pairs_win=pairs.win,
        pairs_lose=pairs.lose,
        pairs_y=pairs.labels,
        pairs_count=pairs.counts,
    )


def load_checkpoint(path: str | Path) -> RankerState:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises ``ValueError`` unless the file is an ``.npz`` archive with one
    integer ``version`` equal to ``CHECKPOINT_VERSION`` and its arrays
    describe a valid state: theta of shape (d,), an information matrix of
    shape (d, d) that is symmetric positive definite, a positive ``lam``, a
    ``round`` that is an integer of 0 or more, every value finite. It holds
    either no pair arrays or all of them: ``pairs_docs`` of shape (D, d),
    integer ``pairs_win`` and ``pairs_lose`` of shape (m,) with values in
    0..D-1, ``pairs_y`` of shape (m,) and ``pairs_count`` of shape (m,)
    that holds positive integers up to 2**53. It holds both or neither of
    ``minmax_lo`` and ``minmax_hi``, each of shape (d,), with no
    ``minmax_lo`` value above its ``minmax_hi``. With the pair arrays, the
    information matrix must be lam * I plus count * x x^T over each pair's
    difference x = docs[win] - docs[lose], up to 1e-9 of its largest entry,
    as ``update`` builds it. The loaded buffer stores
    the pairs as the buffer would have: repeated documents and pairs merge.
    Arrays it does not read, such as a ``q_norm``, are ignored.
    """
    try:
        # opened here: np.load leaks the file of an archive it cannot read
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("checkpoint is one array, not an .npz archive of named arrays")
            arrays = {name: data[name] for name in data.files}
    except (EOFError, zipfile.BadZipFile) as exc:  # an empty or cut-off file
        raise ValueError(f"checkpoint is not an .npz archive ({exc})") from None
    version = arrays.get("version")
    if version is None or version.shape != () or version.dtype.kind not in "iu":
        raise ValueError("checkpoint has no version that is one integer")
    if int(version) != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {int(version)}")
    _check_checkpoint(arrays)
    theta = arrays["theta"]
    state = RankerState(
        theta=theta,
        info_matrix=arrays["info_matrix"],
        lam=float(arrays["lam"]),
        round=int(arrays["round"]),
        pairs=_PairBuffer(len(theta)),
    )
    if "minmax_lo" in arrays:
        state.minmax_bounds = (arrays["minmax_lo"], arrays["minmax_hi"])
    if "pairs_y" in arrays:
        pairs = state.pairs
        ids = np.array(pairs.doc_ids(arrays["pairs_docs"].astype(np.float64)), dtype=np.intp)
        win, lose = ids[arrays["pairs_win"]].tolist(), ids[arrays["pairs_lose"]].tolist()
        counts = arrays["pairs_count"].astype(np.int64).tolist()
        pairs.add(win, lose, arrays["pairs_y"].astype(np.float64).tolist(), counts)
    return state


def _check_checkpoint(arrays: dict[str, np.ndarray]) -> None:
    names = ["theta", "info_matrix", "lam", "round"]
    for optional in (
        ["pairs_docs", "pairs_win", "pairs_lose", "pairs_y", "pairs_count"],
        ["minmax_lo", "minmax_hi"],
    ):
        if any(name in arrays for name in optional):
            names += optional
    for name in names:
        if name not in arrays:
            raise ValueError(f"checkpoint has no {name}")
    theta = arrays["theta"]
    if theta.ndim != 1:
        raise ValueError(f"checkpoint theta has shape {theta.shape}, expected (d,)")
    d = len(theta)
    has_pairs = "pairs_y" in names
    m = arrays["pairs_y"].size if has_pairs else 0
    n_docs = len(arrays["pairs_docs"]) if has_pairs and arrays["pairs_docs"].ndim else 0
    shapes = {
        "theta": (d,),
        "info_matrix": (d, d),
        "pairs_docs": (n_docs, d),
        "pairs_win": (m,),
        "pairs_lose": (m,),
        "pairs_y": (m,),
        "pairs_count": (m,),
        "minmax_lo": (d,),
        "minmax_hi": (d,),
    }
    for name in names:
        value, shape = arrays[name], shapes.get(name, ())
        if value.shape != shape:
            raise ValueError(f"checkpoint {name} has shape {value.shape}, expected {shape}")
        if value.dtype.kind not in "biuf" or not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint {name} holds values that are not finite numbers")
    if has_pairs:
        for name in ("pairs_win", "pairs_lose"):
            index = arrays[name]
            if index.dtype.kind not in "iu":
                raise ValueError(f"checkpoint {name} has dtype {index.dtype}, not an integer one")
            if np.any(index < 0) or np.any(index >= n_docs):
                raise ValueError(f"checkpoint {name} holds indices outside 0..{n_docs - 1}")
        # the fit weighs rows by their counts in float64, exact up to 2**53
        counts = arrays["pairs_count"]
        if np.any(counts < 1) or np.any(counts > 2**53) or np.any(counts != np.floor(counts)):
            raise ValueError(
                "checkpoint pairs_count holds values that are not positive integers up to 2**53"
            )
    # RankerState.initial refuses such a lam, and a round counts updates
    lam, rounds = arrays["lam"], arrays["round"]
    if lam <= 0:
        raise ValueError(f"checkpoint lam is {lam}, not positive")
    if rounds < 0 or rounds != np.floor(rounds):
        raise ValueError(f"checkpoint round is {rounds}, not an integer of 0 or more")
    if "minmax_lo" in names and np.any(arrays["minmax_lo"] > arrays["minmax_hi"]):
        raise ValueError("checkpoint minmax_lo holds values above minmax_hi")
    info = arrays["info_matrix"]
    # a sum of outer products is symmetric up to rounding in the products
    if np.max(np.abs(info - info.T), initial=0.0) > 1e-9 * np.max(np.abs(info), initial=0.0):
        raise ValueError("checkpoint info_matrix is not symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("checkpoint info_matrix is not positive definite") from None
    if has_pairs:
        # what update builds from the same pairs, summed in another order
        docs = arrays["pairs_docs"].astype(np.float64)
        rows = docs[arrays["pairs_win"]] - docs[arrays["pairs_lose"]]
        weighted = rows * arrays["pairs_count"].astype(np.float64)[:, None]
        rebuilt = float(lam) * np.eye(d) + weighted.T @ rows
        off = np.max(np.abs(info - rebuilt), initial=0.0)
        if off > 1e-9 * np.max(np.abs(info), initial=0.0):
            raise ValueError(
                f"checkpoint info_matrix is {off:.3g} off, in its largest entry, from lam * I "
                "plus the outer products of its pairs"
            )
