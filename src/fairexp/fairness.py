"""Exposure accounting for group fairness.

Positions confer exposure according to a position-based examination
model. A group-placement template prescribes which group occupies each
of the top-k display slots; its expected per-group exposure is a plain
sum of position values, so the projected effect of any template on the
cumulative unfairness is known before a ranking is materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import GROUP_A, GROUP_B, read_number, text_lines


class ExposureError(ValueError):
    """Raised for invalid exposure model definitions or positions."""


class TemplateError(ValueError):
    """Raised when no placement of the required length is feasible."""


@dataclass(frozen=True)
class ExposureModel:
    """Precomputed examination probabilities P(1..k), non-increasing, finite and positive."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ExposureError("exposure model needs at least one position")
        prev = float("inf")
        for v in self.values:
            if not 0.0 < v < math.inf:
                raise ExposureError(f"exposure {v} must be finite and positive")
            if v > prev:
                raise ExposureError("exposure must be non-increasing in rank")
            prev = v

    @property
    def k(self) -> int:
        return len(self.values)


def log_discount_model(k: int) -> ExposureModel:
    return ExposureModel(tuple(1.0 / math.log2(r + 1) for r in range(1, k + 1)))


def inverse_rank_model(k: int) -> ExposureModel:
    return ExposureModel(tuple(1.0 / r for r in range(1, k + 1)))


def make_exposure_model(kind: str, k: int) -> ExposureModel:
    """A built-in model; a table comes from ``load_exposure_table``."""
    if kind == "log_discount":
        return log_discount_model(k)
    if kind == "inverse_rank":
        return inverse_rank_model(k)
    raise ExposureError(f"unknown exposure model kind {kind!r}")


def load_exposure_table(path: str | Path) -> ExposureModel:
    """Read a two-column text file of (rank, probability) rows, ranks 1..k.
    Every ``ExposureError`` message starts with the file's path, and a bad
    row's with its line too."""
    rows = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ExposureError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text_lines(text), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ExposureError(f"{path}: line {lineno}: expected '<rank> <probability>'")
        try:
            rank = read_number(int, parts[0])
        except ValueError:
            raise ExposureError(
                f"{path}: line {lineno}: rank {parts[0]!r} is not an integer"
            ) from None
        try:
            rows.append((rank, read_number(float, parts[1])))
        except ValueError:
            raise ExposureError(
                f"{path}: line {lineno}: probability {parts[1]!r} is not a number"
            ) from None
    rows.sort()
    if [r for r, _ in rows] != list(range(1, len(rows) + 1)):
        raise ExposureError(f"{path}: ranks must be contiguous starting at 1")
    try:
        return ExposureModel(tuple(v for _, v in rows))
    except ExposureError as exc:
        raise ExposureError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class GroupTemplate:
    """A length-k group placement with its expected per-group exposure."""

    placement: tuple[str, ...]
    exposure_a: float
    exposure_b: float

    def __len__(self) -> int:
        return len(self.placement)


def make_template(placement, model: ExposureModel) -> GroupTemplate:
    """A placement reads the first ``len(placement)`` positions of the model,
    so a query shorter than k uses the run's model as it is."""
    placement = tuple(placement)
    if len(placement) > model.k:
        raise ExposureError("placement longer than the exposure model")
    exp_a = sum(model.values[i] for i, g in enumerate(placement) if g == GROUP_A)
    exp_b = sum(model.values[i] for i, g in enumerate(placement) if g == GROUP_B)
    return GroupTemplate(placement=placement, exposure_a=exp_a, exposure_b=exp_b)


class Templates(tuple):
    """An immutable sequence of ``GroupTemplate``s with each one's
    ``exposure_a`` and ``exposure_b`` as read-only float64 arrays in the
    same order, so that ``projected_unfairness`` projects them all at once.
    The arrays are read off the templates unless given."""

    exposure_a: np.ndarray
    exposure_b: np.ndarray

    def __new__(cls, templates, exposure_a=None, exposure_b=None):
        self = super().__new__(cls, templates)
        if exposure_a is None:
            exposure_a = np.array([t.exposure_a for t in self], dtype=np.float64)
            exposure_b = np.array([t.exposure_b for t in self], dtype=np.float64)
        exposure_a.flags.writeable = exposure_b.flags.writeable = False
        self.exposure_a, self.exposure_b = exposure_a, exposure_b
        return self


@lru_cache(maxsize=4096)
def _enumerate_cached(k: int, avail_a: int, avail_b: int, model: ExposureModel) -> Templates:
    templates = []
    for placement in product((GROUP_A, GROUP_B), repeat=k):
        n_a = placement.count(GROUP_A)
        if n_a <= avail_a and k - n_a <= avail_b:
            templates.append(make_template(placement, model))
    return Templates(templates)


def enumerate_templates(k: int, counts: tuple[int, int], model: ExposureModel) -> Templates:
    """All group placements of length k honoring per-group availability.

    ``counts`` is the (group-A, group-B) document availability under the
    query. With both counts >= k this is the full set of 2^k placements.
    Every call with the same shape gets the same ``Templates``.
    """
    avail_a, avail_b = counts
    if avail_a + avail_b < k:
        raise TemplateError(f"only {avail_a + avail_b} documents available for k={k}")
    return _enumerate_cached(k, min(avail_a, k), min(avail_b, k), model)


@dataclass
class UnfairnessLedger:
    """Running signed cumulative exposure difference between the groups.

    ``cumulative`` tracks sum_t (exposure_A - beta * exposure_B); its
    absolute value is the unfairness the system tries to keep within
    ``epsilon``. The ledger reports threshold violations rather than
    failing, since skewed candidate pools can force overshoot.
    """

    beta: float
    epsilon: float
    cumulative: float = 0.0
    history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


def projected_unfairness(
    ledger: UnfairnessLedger, template: GroupTemplate | Templates
) -> float | np.ndarray:
    """Signed cumulative unfairness if the template were served this round:
    a float for a ``GroupTemplate``, and for ``Templates`` an array of one
    value per template, by the same operations in the same order, so each
    equals the template's own projection bit for bit."""
    return ledger.cumulative + template.exposure_a - ledger.beta * template.exposure_b


def qualified_templates(
    ledger: UnfairnessLedger, templates: Sequence[GroupTemplate]
) -> tuple[Templates, bool]:
    """Templates keeping |projected unfairness| within epsilon.

    When none qualifies, falls back to the full tie set of minimizers of
    the projected magnitude so downstream selection can still compare
    their regret. Returns (templates, fallback_flag), the templates as
    ``Templates`` in their given order with their arrays sliced; a plain
    sequence is read into ``Templates`` first.
    """
    if not templates:
        raise TemplateError("no templates to qualify")
    if not isinstance(templates, Templates):
        templates = Templates(templates)
    projections = np.abs(projected_unfairness(ledger, templates))
    keep = np.flatnonzero(projections <= ledger.epsilon)
    fallback = not len(keep)
    if fallback:
        keep = np.flatnonzero(projections == projections.min())
    kept = [templates[i] for i in keep.tolist()]
    return Templates(kept, templates.exposure_a[keep], templates.exposure_b[keep]), fallback


def record(ledger: UnfairnessLedger, realized_template: GroupTemplate) -> UnfairnessLedger:
    """Add the expected exposure of the displayed group pattern to the ledger."""
    contribution = realized_template.exposure_a - ledger.beta * realized_template.exposure_b
    ledger.cumulative += contribution
    ledger.history.append(contribution)
    return ledger


def utility_ratio_beta(dataset) -> float:
    """Ratio of mean relevance grade of group A to group B over a dataset.

    Matches the merit-based reading of the unfairness coefficient: exposure
    proportional to average group utility. Either group's mean being zero
    leaves beta undefined, since beta must be finite and positive.
    """
    if not dataset.queries:
        raise ValueError("both groups must be present to compute beta")
    grades = np.concatenate([q.grades() for q in dataset.queries])
    groups = np.concatenate([q.groups() for q in dataset.queries])
    is_a = groups == GROUP_A
    is_b = groups == GROUP_B
    if not np.all(is_a | is_b):
        raise ValueError("dataset has unassigned groups")
    if not is_a.any() or not is_b.any():
        raise ValueError("both groups must be present to compute beta")
    mean_a = int(grades[is_a].sum()) / int(is_a.sum())
    mean_b = int(grades[is_b].sum()) / int(is_b.sum())
    if mean_b == 0:
        raise ValueError("group B has zero mean utility; beta undefined")
    if mean_a == 0:
        raise ValueError("group A has zero mean utility; beta undefined")
    return mean_a / mean_b
