"""Ranking quality and regret metrics, plus the per-round trace record."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

TRACE_FORMAT_VERSION = "fairexp-trace v1"


def dcg(grades, k: int) -> float:
    """Discounted cumulative gain with gain 2^grade - 1 and log2 discounts."""
    g = np.asarray(grades, dtype=np.float64)[:k]
    if g.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, g.size + 2))
    return float(np.sum((2.0**g - 1.0) * discounts))


def dcg_rows(grades: np.ndarray, k: int) -> np.ndarray:
    """``dcg(row, k)`` of every row of a 2-D grade array, bit for bit: the
    same gains and discounts, and the same numpy sum over each row."""
    top = np.asarray(grades, dtype=np.float64)[:, :k]
    discounts = 1.0 / np.log2(np.arange(2, top.shape[1] + 2))
    return np.sum((2.0**top - 1.0) * discounts, axis=1)


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
    return dcg(grades, k) / denom


def cumulative_ndcg(series, gamma: float) -> float:
    """Discounted sum of a per-round NDCG series: sum_t series[t] * gamma^(t-1)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    s = np.asarray(series, dtype=np.float64)
    return float(np.sum(s * gamma ** np.arange(len(s))))


def pairwise_regret(grades) -> int:
    """Count of mis-ordered pairs: a strictly higher grade displayed below a lower one."""
    g = np.asarray(grades, dtype=np.float64)
    n = len(g)
    if n < 2:
        return 0
    later_is_higher = g[None, :] > g[:, None]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    return int(np.sum(later_is_higher & upper))


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
