"""Dataset loading and synthesis for grouped learning-to-rank experiments.

Supports the line-oriented SVMLight/LETOR text format
(``<grade> qid:<id> <fid>:<val> ... # comment``), binary group assignment
from a designated feature, and seeded synthetic datasets with a known
ground-truth scoring vector for desk-scale verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

GROUP_A = "A"
GROUP_B = "B"
VALID_GRADES = (0, 1, 2, 3, 4)


class ParseError(ValueError):
    """Raised when an input line does not match the SVMLight format."""


class ValidationError(ValueError):
    """Raised when parsed content violates a dataset invariant."""


class EmptyDatasetError(ValueError):
    """Raised when an input stream contains no documents."""


class DegenerateGroupingError(ValueError):
    """Raised when a grouping strategy would leave one group empty."""


@dataclass
class Document:
    """One query-document pair: feature vector, relevance grade, group label."""

    features: np.ndarray
    grade: int
    group: str | None = None


@dataclass
class QueryCandidates:
    """Candidate documents of one query, in storage order (not a ranking)."""

    query_id: str
    documents: list[Document]

    @property
    def counts(self) -> tuple[int, int]:
        """(group-A count, group-B count) over the candidates."""
        n_a = sum(1 for d in self.documents if d.group == GROUP_A)
        n_b = sum(1 for d in self.documents if d.group == GROUP_B)
        return n_a, n_b

    def feature_matrix(self) -> np.ndarray:
        return np.stack([d.features for d in self.documents])

    def grades(self) -> np.ndarray:
        return np.array([d.grade for d in self.documents], dtype=np.int64)

    def groups(self) -> list[str]:
        return [d.group for d in self.documents]

    def __len__(self) -> int:
        return len(self.documents)


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

    def all_documents(self) -> Iterable[Document]:
        for q in self.queries:
            yield from q.documents


def _parse_line(line: str, lineno: int) -> tuple[int, str, dict[int, float]]:
    body = line.split("#", 1)[0].strip()
    tokens = body.split()
    if len(tokens) < 2:
        raise ParseError(f"line {lineno}: expected '<grade> qid:<id> ...', got {line!r}")
    try:
        grade = int(tokens[0])
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
            fid = int(fid_str)
            val = float(val_str)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed feature token {tok!r}") from None
        if fid < 1:
            raise ParseError(f"line {lineno}: feature ids are 1-based, got {fid}")
        feats[fid] = val
    return grade, qid, feats


def parse_svmlight(source: str | Iterable[str], split: str = "train") -> GroupedDataset:
    """Parse SVMLight/LETOR text into a GroupedDataset with groups unset.

    Documents are grouped by qid preserving file order; absent feature ids
    default to 0.0; the dataset dimension is the maximum feature id seen.
    """
    if isinstance(source, str):
        source = source.splitlines()
    rows: list[tuple[int, str, dict[int, float]]] = []
    max_fid = 0
    for lineno, line in enumerate(source, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        grade, qid, feats = _parse_line(line, lineno)
        rows.append((grade, qid, feats))
        if feats:
            max_fid = max(max_fid, max(feats))
    if not rows:
        raise EmptyDatasetError("input contains no documents")

    by_qid: dict[str, list[Document]] = {}
    for grade, qid, feats in rows:
        x = np.zeros(max_fid, dtype=np.float64)
        for fid, val in feats.items():
            x[fid - 1] = val
        by_qid.setdefault(qid, []).append(Document(features=x, grade=grade))
    queries = [QueryCandidates(query_id=qid, documents=docs) for qid, docs in by_qid.items()]
    return GroupedDataset(queries=queries, dimension=max_fid, split=split)


def load_svmlight(path: str | Path, split: str = "train") -> GroupedDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_svmlight(fh, split=split)


def serialize_svmlight(dataset: GroupedDataset) -> str:
    """Render a dataset back to SVMLight text.

    Features are written densely (all ids 1..d, including zeros) with
    ``repr`` formatting, so parse -> serialize -> parse is an identity.
    """
    lines = []
    for q in dataset.queries:
        for doc in q.documents:
            feats = " ".join(f"{i + 1}:{float(v)!r}" for i, v in enumerate(doc.features))
            lines.append(f"{doc.grade} qid:{q.query_id} {feats}")
    return "\n".join(lines) + "\n"


def assign_groups(
    dataset: GroupedDataset,
    feature_id: int,
    strategy: str = "median_split",
    threshold: float | None = None,
) -> GroupedDataset:
    """Assign binary group labels from one feature (1-based id), in place.

    Group A iff the feature value is strictly greater than the cut; ties go
    to group B so repeated runs agree. ``strategy`` is ``median_split``
    (cut at the median over all documents) or ``threshold`` with an
    explicit value. The cut is recorded in ``dataset.metadata``.
    """
    if not dataset.queries:
        raise ValidationError("cannot assign groups on an empty dataset")
    if not 1 <= feature_id <= dataset.dimension:
        raise ValidationError(f"feature id {feature_id} outside 1..{dataset.dimension}")
    values = np.array([d.features[feature_id - 1] for d in dataset.all_documents()])
    if strategy == "median_split":
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
    for doc in dataset.all_documents():
        doc.group = GROUP_A if doc.features[feature_id - 1] > cut else GROUP_B
    dataset.metadata["group_feature"] = feature_id
    dataset.metadata["group_cut"] = cut
    return dataset


def minmax_scale(dataset: GroupedDataset) -> GroupedDataset:
    """Optional per-feature min-max scaling over the whole dataset, in place.

    Constant features are left at zero. Off by default in the loader.
    """
    mat = np.stack([d.features for d in dataset.all_documents()])
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    for doc in dataset.all_documents():
        doc.features = (doc.features - lo) / span
    dataset.metadata["minmax_scaled"] = True
    return dataset


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
        if self.d < 2:
            raise ValidationError("d must be >= 2")
        if self.docs_per_query < 2:
            raise ValidationError("docs_per_query must be >= 2")
        if not 0.0 < self.group_balance < 1.0:
            raise ValidationError("group_balance must be in (0, 1)")
        if not 0.0 <= self.grade_noise <= 1.0:
            raise ValidationError("grade_noise must be in [0, 1]")
        if self.n_queries < 1:
            raise ValidationError("n_queries must be >= 1")
        if self.theta_norm <= 0:
            raise ValidationError("theta_norm must be positive")


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
        docs = [
            Document(
                features=feats[i],
                grade=int(grades[i]),
                group=GROUP_A if is_a[i] else GROUP_B,
            )
            for i in range(spec.docs_per_query)
        ]
        queries.append(QueryCandidates(query_id=f"{id_prefix}{qi + 1}", documents=docs))
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
