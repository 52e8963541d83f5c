"""Online pairwise logistic regression with confidence-interval exploration.

The ranker scores documents linearly and models pairwise preferences with
a sigmoid link. Every observed preference pair contributes a rank-one
update to an information matrix; the Mahalanobis norm of a difference
vector under its inverse yields a confidence width for that pair's
predicted order. Pairs whose interval excludes 1/2 are "certain", the
rest "uncertain"; candidates partition into blocks whose cross-block
orders are all certain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import QueryCandidates


class DimensionError(ValueError):
    """Raised on feature-dimension mismatches."""


class NumericError(RuntimeError):
    """Raised when the loss or gradient turns non-finite."""


CHECKPOINT_VERSION = 1
GRAD_TOL = 1e-6
MAX_NEWTON_ITERS = 100


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


class _PairBuffer:
    """Growable store of (difference vector, preference label) pairs."""

    def __init__(self, d: int):
        self.d = d
        self._x = np.empty((16, d), dtype=np.float64)
        self._y = np.empty(16, dtype=np.float64)
        self.n = 0

    def extend(self, diffs: np.ndarray, labels: np.ndarray) -> None:
        m = len(labels)
        if m == 0:
            return
        while self.n + m > len(self._y):
            self._x = np.concatenate([self._x, np.empty_like(self._x)])
            self._y = np.concatenate([self._y, np.empty_like(self._y)])
        self._x[self.n : self.n + m] = diffs
        self._y[self.n : self.n + m] = labels
        self.n += m

    @property
    def x(self) -> np.ndarray:
        return self._x[: self.n]

    @property
    def y(self) -> np.ndarray:
        return self._y[: self.n]


@dataclass
class RankerState:
    """Model parameters plus the accumulated pair evidence.

    ``info_matrix`` equals lam * I plus the sum of outer products of all
    buffered difference vectors, so it stays symmetric positive definite.
    """

    theta: np.ndarray
    info_matrix: np.ndarray
    lam: float
    round: int = 0
    pairs: _PairBuffer = None
    _info_inv: np.ndarray = field(default=None, repr=False)

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
    idx_i, idx_j = np.triu_indices(n, k=1)
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


def fewest_predecessors(pool, rivals, certain: set[tuple[int, int]]) -> list[int]:
    """The members of ``pool`` with the fewest certain predecessors among
    ``rivals``, in pool order: the within-block choice set when certain
    orders inside a block are respected.

    When some member has no predecessor these are exactly the undominated
    members. Only a directed cycle of certain pairs inside a block leaves
    every member dominated, and a cycle needs every score difference around
    it to be positive, which only rounding at the 1e-16 level can produce.
    """
    counts = [sum(1 for r in rivals if r != d and (r, d) in certain) for d in pool]
    fewest = min(counts)
    return [d for d, c in zip(pool, counts) if c == fewest]


def infer_pairs(
    displayed_features: np.ndarray, clicks
) -> tuple[np.ndarray, np.ndarray]:
    """Turn clicks on a displayed list into preference difference vectors.

    Every clicked document is preferred over every unclicked document at
    or above the last clicked position; positions below the last click
    carry no signal. Returns (difference matrix, labels), labels all 1.
    """
    clicks = list(clicks)
    clicked = [p for p, c in enumerate(clicks) if c]
    if not clicked:
        d = displayed_features.shape[1] if displayed_features.ndim == 2 else 0
        return np.empty((0, d)), np.empty(0)
    last = clicked[-1]
    unclicked = [p for p in range(last + 1) if not clicks[p]]
    diffs = [
        displayed_features[m] - displayed_features[n] for m in clicked for n in unclicked
    ]
    if not diffs:
        return np.empty((0, displayed_features.shape[1])), np.empty(0)
    return np.stack(diffs), np.ones(len(diffs))


def _loss_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float):
    z = x @ theta
    s = sigmoid(z)
    # cross-entropy of sigmoid(z) against y, in the softplus form
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * theta @ theta)
    grad = x.T @ (s - y) + lam * theta
    return loss, grad, s


def update(state: RankerState, diffs: np.ndarray, labels: np.ndarray) -> RankerState:
    """Fold new preference pairs into the state and re-fit the parameters.

    The information matrix gains the new outer products; the parameter
    vector is re-optimized over the full pair history by damped Newton
    iterations warm-started at the previous value, stopping at gradient
    norm 1e-6 or 100 iterations. The final loss never exceeds the warm
    start's.
    """
    diffs = np.asarray(diffs, dtype=np.float64).reshape(-1, state.d)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(diffs) != len(labels):
        raise ValueError("diffs and labels disagree in length")
    state.pairs.extend(diffs, labels)
    if len(diffs):
        state.info_matrix = state.info_matrix + diffs.T @ diffs
        state._info_inv = None
    state.round += 1

    x, y = state.pairs.x, state.pairs.y
    if state.pairs.n == 0:
        state.theta = np.zeros(state.d)
        return state

    theta = state.theta.copy()
    loss, grad, s = _loss_grad(theta, x, y, state.lam)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite loss at warm start (round {state.round})")
    for _ in range(MAX_NEWTON_ITERS):
        if np.linalg.norm(grad) <= GRAD_TOL:
            break
        # Hessian weights from the accepted point's probabilities
        w = s * (1.0 - s)
        hess = (x * w[:, None]).T @ x + state.lam * np.eye(state.d)
        step = np.linalg.solve(hess, grad)
        # backtracking keeps the loss monotone even far from the optimum
        stepsize = 1.0
        for _ in range(50):
            cand = theta - stepsize * step
            cand_loss, cand_grad, cand_s = _loss_grad(cand, x, y, state.lam)
            if np.isfinite(cand_loss) and cand_loss <= loss:
                theta, loss, grad, s = cand, cand_loss, cand_grad, cand_s
                break
            stepsize *= 0.5
        else:
            break
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient during update (round {state.round})")
    state.theta = theta
    return state


def save_checkpoint(state: RankerState, path: str | Path) -> None:
    """Write a versioned checkpoint (theta, info matrix, lam, round, and
    the pair buffer, so a resumed run can keep re-fitting the full history).
    """
    np.savez(
        path,
        version=np.array(CHECKPOINT_VERSION),
        theta=state.theta,
        info_matrix=state.info_matrix,
        lam=np.array(state.lam),
        round=np.array(state.round),
        pairs_x=state.pairs.x,
        pairs_y=state.pairs.y,
    )


def load_checkpoint(path: str | Path) -> RankerState:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises ``ValueError`` unless the arrays describe a valid state: theta of
    shape (d,), an information matrix of shape (d, d) that is symmetric
    positive definite, pair arrays of shapes (m, d) and (m,), and every
    value finite. Arrays it does not read, such as the ``q_norm`` of older
    checkpoints, are ignored.
    """
    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        arrays = {name: data[name] for name in data.files}
    _check_checkpoint(arrays)
    theta = arrays["theta"]
    state = RankerState(
        theta=theta,
        info_matrix=arrays["info_matrix"],
        lam=float(arrays["lam"]),
        round=int(arrays["round"]),
        pairs=_PairBuffer(len(theta)),
    )
    if "pairs_x" in arrays:
        state.pairs.extend(arrays["pairs_x"], arrays["pairs_y"])
    return state


def _check_checkpoint(arrays: dict[str, np.ndarray]) -> None:
    names = ["theta", "info_matrix", "lam", "round"]
    if "pairs_x" in arrays or "pairs_y" in arrays:
        names += ["pairs_x", "pairs_y"]
    for name in names:
        if name not in arrays:
            raise ValueError(f"checkpoint has no {name}")
    theta = arrays["theta"]
    if theta.ndim != 1:
        raise ValueError(f"checkpoint theta has shape {theta.shape}, expected (d,)")
    d = len(theta)
    m = arrays["pairs_y"].size if "pairs_y" in arrays else 0
    shapes = {"theta": (d,), "info_matrix": (d, d), "pairs_x": (m, d), "pairs_y": (m,)}
    for name in names:
        value, shape = arrays[name], shapes.get(name, ())
        if value.shape != shape:
            raise ValueError(f"checkpoint {name} has shape {value.shape}, expected {shape}")
        if value.dtype.kind not in "biuf" or not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint {name} holds values that are not finite numbers")
    info = arrays["info_matrix"]
    # a sum of outer products is symmetric up to rounding in the products
    if np.max(np.abs(info - info.T), initial=0.0) > 1e-9 * np.max(np.abs(info), initial=0.0):
        raise ValueError("checkpoint info_matrix is not symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("checkpoint info_matrix is not positive definite") from None
