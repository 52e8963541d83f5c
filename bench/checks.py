"""Output checks for one benchmark run, independent of the package's code.

Each check recomputes a reported value from the run's final state and
records with plain numpy written here, so a faster implementation inside
``fairexp`` is compared against a value it did not produce. ``check_result``
returns one message per failed check; an empty list means the run passed.
"""

from __future__ import annotations

import numpy as np

# absolute tolerance for NDCG values (each lies in [0, 1])
NDCG_TOL = 1e-9
# relative tolerance for running sums and the information matrix, scaled
# by the largest magnitude involved
SUM_RTOL = 1e-9


def ndcg10(ranked_grades: np.ndarray, pool_grades: np.ndarray) -> float:
    """NDCG@10 with gain 2^g - 1 and 1/log2(rank + 1) discounts."""

    def dcg(grades: np.ndarray) -> float:
        top = grades[:10]
        return float(np.dot(2.0**top - 1.0, 1.0 / np.log2(np.arange(2, top.size + 2))))

    ideal = dcg(np.sort(pool_grades)[::-1])
    return 1.0 if ideal == 0.0 else dcg(ranked_grades) / ideal


def offline_ndcg10(theta: np.ndarray, test_split) -> float:
    """Mean NDCG@10 of greedy score rankings, from the raw documents."""
    total = 0.0
    for query in test_split.queries:
        features = np.array([doc.features for doc in query.documents], dtype=np.float64)
        grades = np.array([doc.grade for doc in query.documents], dtype=np.float64)
        order = np.argsort(-(features @ theta), kind="stable")
        total += ndcg10(grades[order], grades)
    return total / len(test_split.queries)


def _close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def check_result(result, test_split, config) -> list[str]:
    """Every reason the run's outputs disagree with their recomputation.

    ``config`` is the run's ``ExperimentConfig``; its round count must be a
    multiple of ``eval_stride`` so that the final offline NDCG was computed
    from the final parameters.
    """
    rounds = config.rounds
    if rounds % config.eval_stride:
        raise ValueError("the final offline NDCG is only current when rounds % eval_stride == 0")
    problems: list[str] = []
    records = result.records
    summary = result.summary
    if [r.round for r in records] != list(range(1, rounds + 1)):
        return [f"records do not cover rounds 1..{rounds} in order"]

    expected = offline_ndcg10(result.state.theta, test_split)
    reported = summary["final_offline_ndcg10"]
    if abs(reported - expected) > NDCG_TOL or abs(records[-1].offline_ndcg - expected) > NDCG_TOL:
        problems.append(f"final offline NDCG@10 {reported!r} != recomputed {expected!r}")

    online = np.array([r.online_ndcg for r in records])
    discounted = float(np.dot(online, config.gamma ** np.arange(rounds)))
    if not _close(summary["cumulative_ndcg"], discounted, SUM_RTOL):
        problems.append(f"cumulative_ndcg {summary['cumulative_ndcg']!r} != recomputed {discounted!r}")

    inst = np.array([r.instantaneous_unfairness for r in records])
    cum = np.array([r.cumulative_unfairness for r in records])
    if not _close(cum, np.cumsum(inst), SUM_RTOL):
        problems.append("cumulative_unfairness is not the running sum of instantaneous_unfairness")

    violations = int(np.sum(np.abs(cum) > config.epsilon))
    if summary["ledger_violations"] != violations:
        problems.append(
            f"summary ledger_violations {summary['ledger_violations']} != {violations} in records"
        )
    added = sum(r.added_regret for r in records)
    if summary["total_added_regret"] != added:
        problems.append(f"summary total_added_regret {summary['total_added_regret']} != {added}")

    state = result.state
    x = state.pairs.x
    info = state.lam * np.eye(state.d) + x.T @ x
    if not _close(state.info_matrix, info, SUM_RTOL):
        problems.append("info_matrix != lam*I + X^T X over the buffered pairs")
    return problems
