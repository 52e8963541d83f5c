"""Ranking quality and regret metrics, plus the per-round trace record."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

TRACE_FORMAT_VERSION = "fairexp-trace v1"


def dcg(grades, k: int):
    """Discounted cumulative gain with gain 2^grade - 1 and log2 discounts,
    summed over the last axis of the top k: one value for a sequence, one
    per row for a 2-D array."""
    top = np.asarray(grades, dtype=np.float64)[..., :k]
    discounts = 1.0 / np.log2(np.arange(2, top.shape[-1] + 2))
    return np.sum((2.0**top - 1.0) * discounts, axis=-1)


def ndcg_at_k(grades, k: int, ideal_grades=None) -> float:
    """NDCG of a displayed grade sequence, truncated at k.

    Normalization uses the descending sort of ``ideal_grades`` when given
    (e.g. the full candidate pool of the query), else of ``grades`` itself.
    Returns 1.0 when the ideal DCG is zero (nothing rankable).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = grades if ideal_grades is None else ideal_grades
    ideal = np.sort(np.asarray(pool, dtype=np.float64))[::-1]
    denom = dcg(ideal, k)
    if denom == 0.0:
        return 1.0
    return float(dcg(grades, k) / denom)


def cumulative_ndcg(series, gamma: float) -> float:
    """Discounted sum of a per-round NDCG series: sum_t series[t] * gamma^(t-1)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    s = np.asarray(series, dtype=np.float64)
    return float(np.sum(s * gamma ** np.arange(len(s))))


def pairwise_regret(grades) -> int:
    """Count of mis-ordered pairs: a strictly higher grade displayed below a lower one."""
    g = np.asarray(grades, dtype=np.float64)
    return int(np.count_nonzero(np.triu(g[None, :] > g[:, None], k=1)))


def format_value(value) -> str:
    """How ``trace.csv`` and ``summary.txt`` write a value: a float as
    ``.10g``, anything else with ``str``."""
    return format(value, ".10g") if isinstance(value, float) else str(value)


@dataclass
class RoundRecord:
    """One row of the experiment trace; its fields are the trace columns, in order."""

    round: int
    online_ndcg: float
    offline_ndcg: float
    instantaneous_unfairness: float
    cumulative_unfairness: float
    added_regret: int
    pairwise_regret: int

    def to_csv_row(self) -> str:
        return ",".join(format_value(getattr(self, name)) for name in TRACE_COLUMNS)


TRACE_COLUMNS = tuple(f.name for f in fields(RoundRecord))


def trace_header() -> str:
    return f"# {TRACE_FORMAT_VERSION}\n" + ",".join(TRACE_COLUMNS)
