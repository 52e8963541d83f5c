"""Dataset loading and synthesis for grouped learning-to-rank experiments.

Supports the line-oriented SVMLight/LETOR text format
(``<grade> qid:<id> <fid>:<val> ... # comment``), binary group assignment
from a designated feature, and seeded synthetic datasets with a known
ground-truth scoring vector for desk-scale verification.

Each query stores its documents as three read-only columns, built once by
the parser or the generator. A transformation (widening, grouping,
scaling) replaces whole columns by building new queries; nothing writes
into a column.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

GROUP_A = "A"
GROUP_B = "B"
VALID_GRADES = (0, 1, 2, 3, 4)
GROUP_STRATEGIES = ("median_split", "threshold")


class ParseError(ValueError):
    """Raised when an input line does not match the SVMLight format."""


class ValidationError(ValueError):
    """Raised when parsed content violates a dataset invariant."""


class EmptyDatasetError(ValueError):
    """Raised when an input stream contains no documents."""


class DegenerateGroupingError(ValueError):
    """Raised when a grouping strategy would leave one group empty."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-ordered array; a read-only array is
    shared, a writeable one is copied so that its owner cannot reach the
    column. C order because BLAS products can round differently by
    layout, and the golden traces fix the rounding."""
    array = np.asarray(values, dtype=dtype, order="C")
    if array is values and array.flags.writeable:
        array = array.copy()
    return _frozen(array)


class Document(NamedTuple):
    """One row of a query's columns, as ``QueryCandidates.documents`` yields it."""

    features: np.ndarray
    grade: int
    group: str | None


class QueryCandidates:
    """Candidate documents of one query, in storage order (not a ranking).

    Three read-only columns, one row per document: features (n, d)
    float64, grades (n,) int64 and group labels (n,), ``GROUP_A`` or
    ``GROUP_B``, or None until groups are assigned. The accessors return
    the stored columns, not copies.
    """

    def __init__(self, query_id: str, features, grades, groups=None):
        grades = _column(grades, np.int64)
        n = len(grades)
        features = _column(features, np.float64)
        groups = _column([None] * n if groups is None else groups, object)
        if grades.ndim != 1 or features.ndim != 2 or len(features) != n or groups.shape != (n,):
            raise ValidationError(
                f"query {query_id}: columns of shapes {features.shape}, {grades.shape} "
                f"and {groups.shape} do not describe (n, d), (n,) and (n,)"
            )
        self.query_id = query_id
        self._features = features
        self._grades = grades
        self._groups = groups
        self._counts = (
            int(np.count_nonzero(groups == GROUP_A)),
            int(np.count_nonzero(groups == GROUP_B)),
        )

    @property
    def counts(self) -> tuple[int, int]:
        """(group-A count, group-B count) over the candidates."""
        return self._counts

    def feature_matrix(self) -> np.ndarray:
        return self._features

    def grades(self) -> np.ndarray:
        return self._grades

    def groups(self) -> np.ndarray:
        return self._groups

    @property
    def documents(self) -> tuple[Document, ...]:
        """The rows as ``Document`` tuples, for readers outside the package."""
        return tuple(map(Document, self._features, self._grades.tolist(), self._groups))

    def replace(self, *, features=None, groups=None) -> QueryCandidates:
        """This query with whole columns replaced; the other columns are shared."""
        return QueryCandidates(
            self.query_id,
            self._features if features is None else features,
            self._grades,
            self._groups if groups is None else groups,
        )

    def __len__(self) -> int:
        return len(self._grades)


@dataclass
class GroupedDataset:
    """A collection of queries sharing one feature dimension.

    ``true_theta`` is present only for synthetic datasets and holds the
    scoring vector that generated the grades. ``metadata`` records
    provenance such as the group-assignment cut value.
    """

    queries: list[QueryCandidates]
    dimension: int
    split: str = "train"
    true_theta: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)


def read_number(kind, token: str):
    """``kind(token)`` for ``int`` or ``float``, refusing the ``_`` separators
    and non-ASCII digits that both read, so that ``1_0`` does not load as 10.
    Raises ``ValueError`` as ``kind`` does."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"{token!r} is not a plain ASCII number")
    return kind(token)


def text_lines(text: str) -> list[str]:
    """``text`` cut where a text-mode file cuts it, at ``\\n``, ``\\r\\n`` and
    ``\\r`` only (``str.splitlines`` also cuts at form feeds, U+0085 and
    other separators), into lines without their line ends."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_line(line: str, lineno: int) -> tuple[int, str, dict[int, float]]:
    body = line.split("#", 1)[0].strip()
    tokens = body.split()
    if len(tokens) < 2:
        raise ParseError(f"line {lineno}: expected '<grade> qid:<id> ...', got {line!r}")
    try:
        grade = read_number(int, tokens[0])
    except ValueError:
        raise ParseError(f"line {lineno}: grade {tokens[0]!r} is not an integer") from None
    if grade not in VALID_GRADES:
        raise ValidationError(f"line {lineno}: grade {grade} outside 0..4")
    if not tokens[1].startswith("qid:"):
        raise ParseError(f"line {lineno}: second token must be 'qid:<id>', got {tokens[1]!r}")
    qid = tokens[1][4:]
    if not qid:
        raise ParseError(f"line {lineno}: empty qid")
    feats: dict[int, float] = {}
    for tok in tokens[2:]:
        fid_str, sep, val_str = tok.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: malformed feature token {tok!r}")
        try:
            fid = read_number(int, fid_str)
            val = read_number(float, val_str)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed feature token {tok!r}") from None
        if fid < 1:
            raise ParseError(f"line {lineno}: feature ids are 1-based, got {fid}")
        if fid in feats:
            raise ParseError(f"line {lineno}: feature id {fid} appears twice")
        if not math.isfinite(val):
            raise ParseError(f"line {lineno}: feature {fid} has non-finite value {val_str!r}")
        feats[fid] = val
    return grade, qid, feats


def parse_svmlight(source: str | Iterable[str], split: str = "train") -> GroupedDataset:
    """Parse SVMLight/LETOR text into a GroupedDataset with groups unset.

    Documents are grouped by qid preserving file order; absent feature ids
    default to 0.0; the dataset dimension is the maximum feature id seen.
    """
    if isinstance(source, str):
        source = text_lines(source)
    by_qid: dict[str, list[tuple[int, dict[int, float]]]] = {}
    max_fid = 0
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\r\n")  # a file's lines keep their ends
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        grade, qid, feats = _parse_line(line, lineno)
        by_qid.setdefault(qid, []).append((grade, feats))
        if feats:
            max_fid = max(max_fid, max(feats))
    if not by_qid:
        raise EmptyDatasetError("input contains no documents")

    queries = []
    for qid, rows in by_qid.items():
        x = np.zeros((len(rows), max_fid), dtype=np.float64)
        for row, (_, feats) in zip(x, rows):
            for fid, val in feats.items():
                row[fid - 1] = val
        grades = [grade for grade, _ in rows]
        queries.append(QueryCandidates(qid, _frozen(x), grades))
    return GroupedDataset(queries=queries, dimension=max_fid, split=split)


def load_svmlight(path: str | Path, split: str = "train") -> GroupedDataset:
    """``parse_svmlight`` on a file; every parse and validation message
    starts with the file's path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_svmlight(fh, split=split)
        except (ParseError, ValidationError, EmptyDatasetError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def serialize_svmlight(dataset: GroupedDataset) -> str:
    """Render a dataset back to SVMLight text.

    Features are written densely (all ids 1..d, including zeros) with
    ``repr`` formatting, so parse -> serialize -> parse is an identity.
    """
    lines = []
    for q in dataset.queries:
        for x, grade in zip(q.feature_matrix().tolist(), q.grades().tolist()):
            feats = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(x))
            lines.append(f"{grade} qid:{q.query_id} {feats}")
    return "\n".join(lines) + "\n"


def widen(dataset: GroupedDataset, dimension: int) -> GroupedDataset:
    """Pad every query's features with zero columns up to ``dimension``.

    SVMLight omits zero values, so a split that never mentions the last
    feature ids of its fold parses narrower than the fold.
    """
    pad = dimension - dataset.dimension
    if pad < 0:
        raise ValidationError(f"cannot narrow dimension {dataset.dimension} to {dimension}")
    if pad:
        dataset.queries = [
            q.replace(features=np.pad(q.feature_matrix(), ((0, 0), (0, pad))))
            for q in dataset.queries
        ]
        dataset.dimension = dimension
    return dataset


def assign_groups(
    dataset: GroupedDataset,
    feature_id: int,
    strategy: str = "median_split",
    threshold: float | None = None,
) -> GroupedDataset:
    """Assign binary group labels from one feature (1-based id).

    Group A iff the feature value is strictly greater than the cut; ties go
    to group B so repeated runs agree. ``strategy`` is ``median_split``
    (cut at the median over all documents) or ``threshold`` with an
    explicit value. The cut is recorded in ``dataset.metadata``.
    """
    if not dataset.queries:
        raise ValidationError("cannot assign groups on an empty dataset")
    if not 1 <= feature_id <= dataset.dimension:
        raise ValidationError(f"feature id {feature_id} outside 1..{dataset.dimension}")
    column = feature_id - 1
    if strategy == "median_split":
        values = np.concatenate([q.feature_matrix()[:, column] for q in dataset.queries])
        cut = float(np.median(values))
        if np.all(values <= cut) or np.all(values > cut):
            raise DegenerateGroupingError(
                f"feature {feature_id} is degenerate under median_split (cut {cut})"
            )
    elif strategy == "threshold":
        if threshold is None:
            raise ValidationError("threshold strategy requires a threshold value")
        cut = float(threshold)
    else:
        raise ValidationError(f"unknown grouping strategy {strategy!r}")
    dataset.queries = [
        q.replace(groups=np.where(q.feature_matrix()[:, column] > cut, GROUP_A, GROUP_B))
        for q in dataset.queries
    ]
    dataset.metadata["group_feature"] = feature_id
    dataset.metadata["group_cut"] = cut
    return dataset


def minmax_scale(
    dataset: GroupedDataset, bounds: tuple[np.ndarray, np.ndarray] | None = None
) -> GroupedDataset:
    """Per-feature min-max scaling, x -> (x - lo) / (hi - lo).

    ``bounds`` is (lo, hi), per feature; by default the dataset's own
    minimum and maximum. The bounds used are recorded in
    ``dataset.metadata["minmax_bounds"]``, so that other splits can be
    scaled with the same constants. A feature with hi == lo is shifted by
    lo only, so it is zero on the split that set the bounds. Off by
    default in the loader.
    """
    if bounds is None:
        mat = np.concatenate([q.feature_matrix() for q in dataset.queries])
        bounds = (mat.min(axis=0), mat.max(axis=0))
    lo, hi = bounds
    span = np.where(hi > lo, hi - lo, 1.0)
    dataset.queries = [
        q.replace(features=(q.feature_matrix() - lo) / span) for q in dataset.queries
    ]
    dataset.metadata["minmax_bounds"] = bounds
    return dataset


def check_count(name: str, value, least: int) -> None:
    """Raise ``ValidationError`` unless ``value`` is a non-bool integer >= ``least``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if operator.index(value) < least:
        raise ValidationError(f"{name} must be >= {least}")


def check_real(name: str, value) -> None:
    """Raise ``ValidationError`` unless ``value`` is a non-bool real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


@dataclass
class SyntheticSpec:
    """Knobs for seeded synthetic data with a known scoring vector."""

    n_queries: int
    docs_per_query: int
    d: int
    group_balance: float = 0.5
    grade_noise: float = 0.0
    seed: int = 0
    theta_norm: float = 1.0

    def validate(self) -> None:
        for name, least in dict(d=2, docs_per_query=2, n_queries=1).items():
            check_count(name, getattr(self, name), least)
        check_count("synthetic seed", self.seed, 0)
        for name in ("group_balance", "grade_noise", "theta_norm"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.group_balance < 1.0:
            raise ValidationError("group_balance must be in (0, 1)")
        if not 0.0 <= self.grade_noise <= 1.0:
            raise ValidationError("grade_noise must be in [0, 1]")
        if not 0 < self.theta_norm < math.inf:
            raise ValidationError("theta_norm must be finite and positive")


def _unit_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return g * radii[:, None]


def _grades_from_scores(scores: np.ndarray, rng: np.random.Generator, noise: float) -> np.ndarray:
    """Bucket scores into five per-query quantile bins, then flip with noise."""
    cuts = np.quantile(scores, [0.2, 0.4, 0.6, 0.8])
    grades = (scores[:, None] > cuts[None, :]).sum(axis=1)
    if noise > 0:
        flip = rng.random(len(scores)) < noise
        grades = np.where(flip, rng.integers(0, 5, size=len(scores)), grades)
    return grades.astype(np.int64)


def _draw_queries(
    spec: SyntheticSpec, rng: np.random.Generator, theta: np.ndarray, n_queries: int, id_prefix: str
) -> list[QueryCandidates]:
    queries = []
    for qi in range(n_queries):
        feats = _unit_ball(rng, spec.docs_per_query, spec.d)
        scores = feats @ theta
        grades = _grades_from_scores(scores, rng, spec.grade_noise)
        is_a = rng.random(spec.docs_per_query) < spec.group_balance
        groups = [GROUP_A if a else GROUP_B for a in is_a]
        queries.append(
            QueryCandidates(f"{id_prefix}{qi + 1}", _frozen(feats), _frozen(grades), groups)
        )
    return queries


def synthetic_splits(
    spec: SyntheticSpec, n_validation: int, n_test: int
) -> tuple[GroupedDataset, GroupedDataset, GroupedDataset]:
    """Seeded train/validation/test datasets with grades driven by one hidden theta.

    The scoring vector is drawn on the sphere of radius ``theta_norm``;
    features are uniform in the unit ball; grades come from per-query
    quantile bins of the true scores, flipped to a uniform grade with
    probability ``grade_noise``. All three splits are drawn from a single
    seeded stream, train first: identical arguments produce identical data,
    and the train split does not depend on the other two sizes.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    theta = rng.standard_normal(spec.d)
    theta *= spec.theta_norm / np.linalg.norm(theta)
    sizes = (
        ("train", spec.n_queries, "q"),
        ("validation", n_validation, "vq"),
        ("test", n_test, "tq"),
    )
    return tuple(
        GroupedDataset(
            queries=_draw_queries(spec, rng, theta, n_queries, prefix),
            dimension=spec.d,
            split=split,
            true_theta=theta,
            metadata={"synthetic_seed": spec.seed, "theta_norm": spec.theta_norm},
        )
        for split, n_queries, prefix in sizes
    )
