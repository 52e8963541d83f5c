"""Online pairwise logistic regression with confidence-interval exploration.

The ranker scores documents linearly and models pairwise preferences with
a sigmoid link. Every observed preference pair contributes a rank-one
update to an information matrix; the Mahalanobis norm of a difference
vector under its inverse yields a confidence width for that pair's
predicted order. Pairs whose interval excludes 1/2 are "certain", the
rest "uncertain"; candidates partition into blocks whose cross-block
orders are all certain.

The parameters are re-fitted over the whole pair history every round.
The same query showing the same list again yields the same difference
vectors, so the history is kept as its distinct (difference vector,
label) pairs with their counts, and the fit runs on these sufficient
statistics: each distinct pair once, weighted by its count.

Each Newton step of the refit solves H p = grad with the Hessian
H = X^T diag(c s (1 - s)) X + lam I over the u distinct rows X. Up to
``DIRECT_SOLVE_MAX_D`` features the step forms H, O(u d^2), and solves it
directly. Above that width it runs conjugate gradients on Hessian-vector
products, O(u d) each, preconditioned by the inverse information matrix
M^-1 = (lam I + X^T diag(c) X)^-1, as in TRON (Lin, Weng & Keerthi, JMLR
2008). M carries the scale and correlation of the features that make H
ill-conditioned, and it bounds H: since s (1 - s) <= 1/4, H <= M
(Boehning & Lindsay, 1988), and H >= m M with m the smallest s (1 - s)
over the rows. So M^-1 H has its eigenvalues in [m, 1], and only rows
the model already predicts confidently spread them. The read path inverts
M for the confidence widths anyway, so the preconditioner costs no extra
inverse: the refit computes the one that ``classify_pairs`` reads next.
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


CHECKPOINT_VERSION = 3
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
    """Growable store of preference pairs, each distinct (difference vector,
    label) kept once with the number of times it was observed.

    ``rows``, ``labels`` and ``counts`` hold the u distinct pairs in order of
    first occurrence; a dict keyed by the exact bytes of row and label finds
    a repeat. ``n`` is the number of pairs buffered, the sum of the counts,
    and ``x`` and ``y`` expand the distinct pairs back into all n of them,
    each row repeated by its count (not in the order they arrived).
    """

    def __init__(self, d: int):
        self._rows = np.empty((16, d), dtype=np.float64)
        self._labels = np.empty(16, dtype=np.float64)
        self._counts = np.empty(16, dtype=np.int64)
        self._index: dict[bytes, int] = {}
        self.n = 0

    def extend(self, diffs: np.ndarray, labels: np.ndarray, counts=None) -> None:
        """Add each pair ``counts`` times (default once); ``diffs`` and
        ``labels`` must be float64."""
        if counts is None:
            counts = np.ones(len(labels), dtype=np.int64)
        for row, label, count in zip(diffs, labels, counts):
            key = row.tobytes() + label.tobytes()
            i = self._index.get(key)
            if i is None:
                i = self._index[key] = len(self._index)
                if i == len(self._labels):
                    self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
                    self._labels = np.concatenate([self._labels, np.empty_like(self._labels)])
                    self._counts = np.concatenate([self._counts, np.empty_like(self._counts)])
                self._rows[i], self._labels[i], self._counts[i] = row, label, 0
            self._counts[i] += count
            self.n += int(count)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: len(self._index)]

    @property
    def labels(self) -> np.ndarray:
        return self._labels[: len(self._index)]

    @property
    def counts(self) -> np.ndarray:
        return self._counts[: len(self._index)]

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
    """The certain directed pairs (winner, loser) among ``n`` candidates;
    every other pair of ``0..n-1`` is uncertain."""

    certain: set[tuple[int, int]]
    n: int

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


def confidence_width(state: RankerState, x_i, x_j, alpha: float) -> float:
    """alpha-scaled Mahalanobis norm of the pair's difference vector.

    The single-pair definition of the width that ``classify_pairs`` reads
    off one Gram matrix; kept as the reference the tests check it against."""
    diff = _check_dim(state, x_i) - _check_dim(state, x_j)
    quad = float(diff @ state.info_inverse() @ diff)
    return alpha * np.sqrt(max(quad, 0.0))


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per n and read-only, since
    every caller shares the arrays. The bound caps what a split with many
    query lengths keeps: n(n-1) indices per length."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def classify_pairs(state: RankerState, candidates: QueryCandidates, alpha: float) -> PairOrderSets:
    """The certain pairs of all candidate pairs, each directed winner to loser.

    A pair is certain when the predicted preference probability stays on
    one side of 1/2 by more than the confidence width (``alpha`` >= 0
    times the pair's Mahalanobis norm); an interval that touches 1/2
    exactly, or a NaN, counts as uncertain.

    The widths are those of ``confidence_width``, read off one Gram matrix
    G = F M F^T of the candidate features F under the inverse information
    matrix M: ||x_i - x_j||_M^2 = G_ii + G_jj - 2 G_ij. That costs
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
    certain = set(zip(idx_i[above].tolist(), idx_j[above].tolist()))
    certain.update(zip(idx_j[below].tolist(), idx_i[below].tolist()))
    return PairOrderSets(certain=certain, n=n)


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

    Raises ``ValueError`` unless ``order_sets.n`` is the number of
    candidates and every certain pair names two distinct documents of
    ``0..n-1`` in one order only.
    """
    n = len(candidates)
    certain = order_sets.certain
    if order_sets.n != n:
        raise ValueError(f"order sets cover {order_sets.n} documents, not the {n} candidates")
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
    return BlockPartition(blocks=blocks)


def infer_pairs(
    displayed_features: np.ndarray, clicks
) -> tuple[np.ndarray, np.ndarray]:
    """Turn clicks on a displayed list into preference difference vectors.

    Every clicked document is preferred over every unclicked document at
    or above the last clicked position; positions below the last click
    carry no signal. Returns (difference matrix, labels), labels all 1.
    """
    clicks = np.asarray(clicks, dtype=bool)
    # unclicked with a click at or below it, that is at or above the last click
    skipped = ~clicks & np.logical_or.accumulate(clicks[::-1])[::-1]
    d = displayed_features.shape[1]
    diffs = (displayed_features[clicks][:, None] - displayed_features[skipped]).reshape(-1, d)
    return diffs, np.ones(len(diffs))


def _loss_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, c: np.ndarray, lam: float):
    z = x @ theta
    s = sigmoid(z)
    # cross-entropy of sigmoid(z) against y, in the softplus form, of each
    # distinct pair times its count
    loss = float(np.sum(c * (np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * theta @ theta)
    grad = x.T @ (c * (s - y)) + lam * theta
    return loss, grad, s


def _cg_step(x: np.ndarray, w: np.ndarray, lam: float, grad: np.ndarray, precond: np.ndarray):
    """Approximate solution p of H p = grad, H = x^T diag(w) x + lam I, by
    conjugate gradients preconditioned with ``precond`` (symmetric positive
    definite, close to H^-1). Each iteration applies H as two products with
    ``x``; the iterations stop once the residual ||grad - H p|| is at most
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
        h_dir = x.T @ (w * (x @ direction)) + lam * direction
        a = rz / (direction @ h_dir)
        step += a * direction
        resid -= a * h_dir
        z = precond @ resid
        rz_next = resid @ z
        direction = z + (rz_next / rz) * direction
        rz = rz_next
    return step


def update(state: RankerState, diffs: np.ndarray, labels: np.ndarray) -> RankerState:
    """Fold new preference pairs into the state and re-fit the parameters.

    The information matrix gains the new outer products; the parameter
    vector is re-optimized over the full pair history by damped Newton
    iterations warm-started at the previous value, stopping at gradient
    norm 1e-6 or 100 iterations. The fit runs over the u distinct pairs
    weighted by their counts c: the loss is sum c (softplus(z) - y z) plus
    the ridge term. A backtracking line search accepts a step only if it
    strictly lowers the loss, and the fit ends when 50 halvings find none,
    so the final loss is below the warm start's or equal to it.

    The Newton step solves (X^T diag(c s (1 - s)) X + lam I) p = grad. At
    d <= ``DIRECT_SOLVE_MAX_D`` it forms that Hessian, O(u d^2) instead of
    O(n d^2) over all n pairs buffered, and solves it. Wider, it runs
    ``_cg_step``: conjugate gradients on Hessian-vector products, O(u d)
    each, to a residual of ``CG_RTOL`` times the gradient norm, with the
    inverse information matrix as preconditioner (see the module
    docstring for why it fits); that inverse is the one ``classify_pairs``
    reads next round, computed here instead.

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
    state.round += 1
    if not len(diffs) and state._fit_settled:
        return state
    state.pairs.extend(diffs, labels)
    if len(diffs):
        state.info_matrix = state.info_matrix + diffs.T @ diffs
        state._info_inv = None

    if state.pairs.n == 0:
        state.theta = np.zeros(state.d)
        return state
    x, y, c = state.pairs.rows, state.pairs.labels, state.pairs.counts

    theta = state.theta.copy()
    state._fit_settled = False
    loss, grad, s = _loss_grad(theta, x, y, c, state.lam)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite loss at warm start (round {state.round})")
    for _ in range(MAX_NEWTON_ITERS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            state._fit_settled = True
            break
        # Hessian weights from the accepted point's probabilities
        w = c * s * (1.0 - s)
        if state.d > DIRECT_SOLVE_MAX_D:
            step = _cg_step(x, w, state.lam, grad, state.info_inverse())
        else:
            hess = (x * w[:, None]).T @ x + state.lam * np.eye(state.d)
            step = np.linalg.solve(hess, grad)
        # backtracking keeps the loss monotone even far from the optimum; a
        # step that only ties the loss is rounding, not progress
        stepsize = 1.0
        for _ in range(50):
            cand = theta - stepsize * step
            cand_loss, cand_grad, cand_s = _loss_grad(cand, x, y, c, state.lam)
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
    """Write a versioned checkpoint (theta, info matrix, lam, round, and
    the distinct pairs with their counts, so a resumed run can keep
    re-fitting the full history), and the min-max bounds as ``minmax_lo``
    and ``minmax_hi`` when the run scaled its features.
    """
    bounds = {}
    if state.minmax_bounds is not None:
        bounds = dict(zip(("minmax_lo", "minmax_hi"), state.minmax_bounds))
    np.savez(
        path,
        **bounds,
        version=np.array(CHECKPOINT_VERSION),
        theta=state.theta,
        info_matrix=state.info_matrix,
        lam=np.array(state.lam),
        round=np.array(state.round),
        pairs_x=state.pairs.rows,
        pairs_y=state.pairs.labels,
        pairs_count=state.pairs.counts,
    )


def load_checkpoint(path: str | Path) -> RankerState:
    """Read a checkpoint written by ``save_checkpoint``, of this version or
    of versions 1 and 2, which store no min-max bounds.

    Raises ``ValueError`` unless the file is an ``.npz`` archive with one
    integer ``version`` and its arrays describe a valid state: theta of
    shape (d,), an information matrix of shape (d, d) that is symmetric
    positive definite, pair arrays of shapes (m, d) and (m,), every value
    finite, and (from version 2 on) a ``pairs_count`` of shape (m,) that
    holds positive integers up to 2**53, and (from version 3 on) both or
    neither of ``minmax_lo`` and ``minmax_hi``, each of shape (d,). A
    version 1 file has no counts: each of its rows counts once, and
    repeated rows merge on load. Arrays it does not read, such as the
    ``q_norm`` of older checkpoints, are ignored.
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
    version = int(version)
    if version not in (1, 2, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    pair_names = ["pairs_x", "pairs_y"] + (["pairs_count"] if version > 1 else [])
    bound_names = ["minmax_lo", "minmax_hi"] if version > 2 else []
    _check_checkpoint(arrays, pair_names, bound_names)
    theta = arrays["theta"]
    state = RankerState(
        theta=theta,
        info_matrix=arrays["info_matrix"],
        lam=float(arrays["lam"]),
        round=int(arrays["round"]),
        pairs=_PairBuffer(len(theta)),
    )
    if bound_names and "minmax_lo" in arrays:
        state.minmax_bounds = (arrays["minmax_lo"], arrays["minmax_hi"])
    if "pairs_x" in arrays:
        state.pairs.extend(
            arrays["pairs_x"].astype(np.float64),
            arrays["pairs_y"].astype(np.float64),
            arrays["pairs_count"].astype(np.int64) if version > 1 else None,
        )
    return state


def _check_checkpoint(
    arrays: dict[str, np.ndarray], pair_names: list[str], bound_names: list[str]
) -> None:
    names = ["theta", "info_matrix", "lam", "round"]
    for optional in (pair_names, bound_names):
        if any(name in arrays for name in optional):
            names += optional
    for name in names:
        if name not in arrays:
            raise ValueError(f"checkpoint has no {name}")
    theta = arrays["theta"]
    if theta.ndim != 1:
        raise ValueError(f"checkpoint theta has shape {theta.shape}, expected (d,)")
    d = len(theta)
    m = arrays["pairs_y"].size if "pairs_y" in names else 0
    shapes = {
        "theta": (d,),
        "info_matrix": (d, d),
        "pairs_x": (m, d),
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
    if "pairs_count" in names:
        # the fit weighs rows by their counts in float64, exact up to 2**53
        counts = arrays["pairs_count"]
        if np.any(counts < 1) or np.any(counts > 2**53) or np.any(counts != np.floor(counts)):
            raise ValueError(
                "checkpoint pairs_count holds values that are not positive integers up to 2**53"
            )
    info = arrays["info_matrix"]
    # a sum of outer products is symmetric up to rounding in the products
    if np.max(np.abs(info - info.T), initial=0.0) > 1e-9 * np.max(np.abs(info), initial=0.0):
        raise ValueError("checkpoint info_matrix is not symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("checkpoint info_matrix is not positive definite") from None
