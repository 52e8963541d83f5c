"""End-to-end experiment loop for online learning to rank with fairness.

Each round samples a training query, ranks its candidates with the chosen
algorithm, simulates clicks, updates the unfairness ledger with the
displayed group pattern's expected exposure, folds the inferred preference
pairs into the ranker, and records metrics. Runs are deterministic given
the configuration seed.

Algorithms:

* ``fairexp_pairrank`` - template-constrained calibration of the block
  partition via minimum-added-regret swaps;
* ``pairrank`` - the unconstrained ranker (blocks in order, randomized
  within blocks). With an infinite unfairness threshold the constrained
  algorithm degenerates to exactly this, byte for byte;
* ``prop_control`` - greedy ranking by score plus a proportional boost to
  the underexposed group (controller-style baseline, shares the learned
  scores instead of a propensity-corrected estimator);
* ``random`` - uniform shuffling with no learning, as a floor.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import click_sim, fairness, fairswap, metrics, ranker
from .data import (
    GROUP_A,
    GroupedDataset,
    SyntheticSpec,
    assign_groups,
    load_svmlight,
    minmax_scale,
    synthetic_splits,
)

ALGORITHMS = ("fairexp_pairrank", "pairrank", "prop_control", "random")
SWEEP_GRID = (0.1, 0.01, 0.001)


@dataclass
class ExperimentConfig:
    """Everything one run needs; CLI flags and config files both map here."""

    algorithm: str = "fairexp_pairrank"
    # data: either a directory of train/vali/test SVMLight files or a synthetic spec
    dataset_dir: str | None = None
    group_feature: int | None = None
    group_strategy: str = "median_split"
    group_threshold: float | None = None
    synthetic: SyntheticSpec | None = None
    n_validation: int = 20
    n_test: int = 50
    click_model: str = "perfect"
    custom_clicks: tuple | None = None
    rounds: int = 1000
    k: int = 10
    lam: float = 0.1
    alpha: float = 0.1
    delta: float = 0.1
    beta: float | str = 1.0
    epsilon: float = 0.1
    gamma: float = 0.9995
    lambda_f: float = 0.01
    exposure_kind: str = "log_discount"
    exposure_table: str | None = None
    seed: int = 0
    out_dir: str | None = None
    respect_certain: bool = True
    diagnostics: bool = False
    eval_stride: int = 1
    minmax: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.rounds < 1 or self.k < 1:
            raise ValueError("rounds and k must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if self.eval_stride < 1:
            raise ValueError("eval_stride must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if isinstance(self.beta, str) and self.beta != "auto":
            raise ValueError("beta must be a number or 'auto'")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.dataset_dir is None and self.synthetic is None:
            raise ValueError("either dataset_dir or synthetic must be given")


@dataclass
class ExperimentResult:
    records: list[metrics.RoundRecord]
    state: ranker.RankerState
    ledger: fairness.UnfairnessLedger
    summary: dict
    flagged_rounds: list[int] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def load_datasets(config: ExperimentConfig):
    if config.synthetic is not None:
        splits = synthetic_splits(config.synthetic, config.n_validation, config.n_test)
    else:
        root = Path(config.dataset_dir)
        train = load_svmlight(root / "train.txt", split="train")
        vali_path = root / "vali.txt"
        valid = load_svmlight(vali_path, split="validation") if vali_path.exists() else None
        test = load_svmlight(root / "test.txt", split="test")
        if config.group_feature is None:
            raise ValueError("file datasets need group_feature to assign groups")
        for ds in (train, valid, test):
            if ds is not None:
                assign_groups(
                    ds, config.group_feature, config.group_strategy, config.group_threshold
                )
        splits = (train, valid, test)
    if config.minmax:
        for ds in splits:
            if ds is not None:
                minmax_scale(ds)
    return splits


def resolve_beta(config: ExperimentConfig, train: GroupedDataset) -> float:
    if config.beta == "auto":
        return fairness.utility_ratio_beta(train)
    return float(config.beta)


def resolve_click_model(config: ExperimentConfig) -> click_sim.ClickModelConfig:
    if config.click_model == "custom":
        if config.custom_clicks is None or len(config.custom_clicks) != 10:
            raise ValueError("custom click model needs ten probabilities (5 click, 5 stop)")
        return click_sim.custom_model(config.custom_clicks[:5], config.custom_clicks[5:])
    try:
        return click_sim.BY_NAME[config.click_model]
    except KeyError:
        raise ValueError(f"unknown click model {config.click_model!r}") from None


def resolve_exposure(config: ExperimentConfig) -> fairness.ExposureModel:
    if config.exposure_kind == "table" and config.exposure_table:
        return fairness.load_exposure_table(config.exposure_table)
    return fairness.make_exposure_model(config.exposure_kind, config.k)


def sample_block_order(
    partition: ranker.BlockPartition,
    certain: set[tuple[int, int]],
    rng: np.random.Generator,
    respect_certain: bool,
) -> list[int]:
    """Blocks in order; within each block a seeded random permutation,
    drawn as repeated random choice among documents with no unplaced
    certain predecessor when the heuristic is on."""
    order: list[int] = []
    for block in partition.blocks:
        remaining = list(block)
        if respect_certain:
            while remaining:
                pool = [
                    d
                    for d in remaining
                    if not any((o, d) in certain for o in remaining if o != d)
                ]
                if not pool:
                    pool = remaining
                choice = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
                remaining.remove(choice)
                order.append(choice)
        else:
            idx = rng.permutation(len(remaining))
            order.extend(remaining[i] for i in idx)
    return order


def prop_control_rank(
    scores: np.ndarray,
    groups: list[str],
    ledger: fairness.UnfairnessLedger,
    lambda_f: float,
) -> list[int]:
    """Scores plus a proportional boost for the underexposed group.

    A positive ledger means group A is overexposed, so group B documents
    gain ``lambda_f`` times the magnitude, and vice versa. Stable sort by
    index keeps equal adjusted scores reproducible.
    """
    if lambda_f < 0:
        raise ValueError("lambda_f must be non-negative")
    cum = ledger.cumulative
    boost_a = lambda_f * max(0.0, -cum)
    boost_b = lambda_f * max(0.0, cum)
    adjusted = np.array(
        [s + (boost_a if g == GROUP_A else boost_b) for s, g in zip(scores, groups)]
    )
    return list(np.argsort(-adjusted, kind="stable"))


@dataclass(frozen=True)
class _LengthGroup:
    """The hold-out queries that have one candidate count n, stacked.

    ``features`` is 3-D so that ``score_all`` makes one matrix-vector
    product per query, with the rounding of a per-query call; one flat
    (m*n, d) product rounds some rows differently and can reorder ties.
    """

    positions: np.ndarray  # (m,) index of each query in the split
    features: np.ndarray  # (m, n, d)
    grades: np.ndarray  # (m, n) float64
    ideal_dcg: np.ndarray  # (m,) DCG@10 of each query's grades sorted descending


@dataclass(frozen=True)
class HoldoutView:
    """A read-only snapshot of a hold-out split for ``evaluate_offline``.

    Queries are grouped by length so that every row of a group sums exactly
    the ``min(10, n)`` DCG terms that ``metrics.dcg`` sums. Build it with
    ``holdout_view`` after the split's last in-place change (grouping,
    scaling); later changes to the split do not reach it.
    """

    n_queries: int
    groups: tuple[_LengthGroup, ...]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def holdout_view(split: GroupedDataset) -> HoldoutView:
    """Stack a hold-out split once, for every later ``evaluate_offline``."""
    if not split.queries:
        raise ValueError("test split is empty")
    by_length: dict[int, list[int]] = {}
    for position, query in enumerate(split.queries):
        by_length.setdefault(len(query), []).append(position)
    groups = []
    for positions in by_length.values():
        queries = [split.queries[p] for p in positions]
        grades = np.stack([q.grades() for q in queries]).astype(np.float64)
        groups.append(
            _LengthGroup(
                positions=_frozen(np.array(positions)),
                features=_frozen(np.stack([q.feature_matrix() for q in queries])),
                grades=_frozen(grades),
                ideal_dcg=_frozen(metrics.dcg_rows(np.sort(grades, axis=1)[:, ::-1], 10)),
            )
        )
    return HoldoutView(n_queries=len(split.queries), groups=tuple(groups))


def evaluate_offline(state: ranker.RankerState, holdout: HoldoutView) -> float:
    """Mean NDCG@10 of greedy score rankings over the hold-out queries.

    A query whose ideal DCG is zero counts as 1.0, as in ``metrics.ndcg_at_k``.
    """
    ndcg = np.empty(holdout.n_queries)
    for group in holdout.groups:
        scores = ranker.score_all(state, group.features)
        order = np.argsort(-scores, axis=1, kind="stable")[:, :10]
        dcg = metrics.dcg_rows(np.take_along_axis(group.grades, order, axis=1), 10)
        ideal = group.ideal_dcg
        ndcg[group.positions] = np.divide(dcg, ideal, out=np.ones_like(dcg), where=ideal != 0.0)
    # a left-to-right running sum in split order, not numpy's pairwise sum
    return float(np.cumsum(ndcg)[-1]) / holdout.n_queries


def _rank_fairexp(state, query, exposure_model, ledger, config, rng, k_t):
    """One constrained round: qualified templates -> cheapest calibration."""
    order_sets = ranker.classify_pairs(state, query, config.alpha)
    partition = ranker.partition_blocks(query, order_sets)
    if math.isinf(config.epsilon):
        # no binding constraint: identical to the unconstrained ranker
        order = sample_block_order(partition, order_sets.certain, rng, config.respect_certain)
        displayed = order[:k_t]
        return displayed, fairswap.added_regret(displayed, order_sets.certain), None, False
    counts = query.counts
    templates = fairness.enumerate_templates(k_t, counts, exposure_model)
    qualified, fallback = fairness.qualified_templates(ledger, templates)
    projections = [fairness.projected_unfairness(ledger, t) for t in qualified]
    scores = ranker.score_all(state, query.feature_matrix())
    score_map = {i: float(s) for i, s in enumerate(scores)}
    groups_map = dict(enumerate(query.groups()))
    try:
        result = fairswap.select_ranking(
            partition,
            qualified,
            order_sets.certain,
            groups_map,
            rng,
            projections=projections,
            scores=score_map,
            respect_certain=config.respect_certain,
        )
    except fairswap.InfeasibleTemplateError:
        # pathological skew: serve the unconstrained ranking and flag the round
        order = sample_block_order(partition, order_sets.certain, rng, config.respect_certain)
        displayed = order[:k_t]
        return displayed, fairswap.added_regret(displayed, order_sets.certain), None, True
    return result.order, result.added_regret, result, fallback


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    train, valid, test = load_datasets(config)
    beta = resolve_beta(config, train)
    click_model = resolve_click_model(config)
    exposure_model = resolve_exposure(config)
    rng = np.random.default_rng(config.seed)

    state = ranker.RankerState.initial(train.dimension, config.lam)
    ledger = fairness.UnfairnessLedger(beta=beta, epsilon=config.epsilon)
    holdout = holdout_view(test)

    records: list[metrics.RoundRecord] = []
    flagged: list[int] = []
    swap_log: list[str] = []
    offline_value = None
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    try:
        for t in range(1, config.rounds + 1):
            query = train.queries[int(rng.integers(len(train.queries)))]
            k_t = min(config.k, len(query))
            grades = query.grades()
            groups = query.groups()

            calibrated = None
            fallback = False
            if config.algorithm in ("fairexp_pairrank", "pairrank"):
                if config.algorithm == "pairrank":
                    order_sets = ranker.classify_pairs(state, query, config.alpha)
                    partition = ranker.partition_blocks(query, order_sets)
                    order = sample_block_order(
                        partition, order_sets.certain, rng, config.respect_certain
                    )
                    displayed = order[:k_t]
                    added = fairswap.added_regret(displayed, order_sets.certain)
                else:
                    displayed, added, calibrated, fallback = _rank_fairexp(
                        state, query, exposure_model, ledger, config, rng, k_t
                    )
                    if calibrated is None and fallback:
                        flagged.append(t)
            elif config.algorithm == "prop_control":
                scores = ranker.score_all(state, query.feature_matrix())
                displayed = prop_control_rank(scores, groups, ledger, config.lambda_f)[:k_t]
                added = 0
            else:  # random
                displayed = list(rng.permutation(len(query))[:k_t])
                added = 0

            displayed_grades = [int(grades[i]) for i in displayed]
            displayed_groups = [groups[i] for i in displayed]
            outcome = click_sim.simulate(displayed_grades, click_model, rng)

            realized = fairness.make_template(displayed_groups, exposure_model.truncated(k_t))
            fairness.record(ledger, realized)

            if config.algorithm != "random":
                feats = query.feature_matrix()[displayed]
                diffs, labels = ranker.infer_pairs(feats, outcome.clicks)
                ranker.update(state, diffs, labels)

            online = metrics.ndcg_at_k(displayed_grades, 10, ideal_grades=grades)
            if offline_value is None or t % config.eval_stride == 0:
                offline_value = evaluate_offline(state, holdout)
            records.append(
                metrics.RoundRecord(
                    round=t,
                    online_ndcg=online,
                    offline_ndcg=offline_value,
                    instantaneous_unfairness=ledger.history[-1],
                    cumulative_unfairness=ledger.cumulative,
                    added_regret=added,
                    pairwise_regret=metrics.pairwise_regret(displayed_grades),
                )
            )
            if config.diagnostics and calibrated is not None:
                head = (
                    f"round={t} template={''.join(calibrated.template.placement)} "
                    f"added_regret={calibrated.added_regret} fallback={fallback}"
                )
                swap_log.append(head)
                swap_log.extend("  " + e.describe() for e in calibrated.events)
    except ranker.NumericError:
        if out_dir:
            _write_trace(out_dir / "trace.csv", records)
        raise

    summary = {
        "algorithm": config.algorithm,
        "rounds": config.rounds,
        "seed": config.seed,
        "beta": beta,
        "epsilon": config.epsilon,
        "final_offline_ndcg10": records[-1].offline_ndcg,
        "cumulative_ndcg": metrics.cumulative_ndcg(
            [r.online_ndcg for r in records], config.gamma
        ),
        "final_abs_unfairness": abs(ledger.cumulative),
        "total_added_regret": int(sum(r.added_regret for r in records)),
        "ledger_violations": int(
            sum(1 for r in records if abs(r.cumulative_unfairness) > config.epsilon)
        ),
        "flagged_rounds": len(flagged),
    }
    result = ExperimentResult(
        records=records, state=state, ledger=ledger, summary=summary, flagged_rounds=flagged
    )
    if out_dir:
        _write_trace(out_dir / "trace.csv", records)
        _write_summary(out_dir / "summary.txt", summary)
        ranker.save_checkpoint(state, out_dir / "checkpoint.npz")
        if config.diagnostics:
            (out_dir / "fairswap.log").write_text(
                "# fairswap-diagnostics v1\n" + "\n".join(swap_log) + "\n", encoding="utf-8"
            )
    return result


def _write_trace(path: Path, records: list[metrics.RoundRecord]) -> None:
    lines = [metrics.trace_header()]
    lines.extend(r.to_csv_row() for r in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_summary(path: Path, summary: dict) -> None:
    lines = ["# fairexp-summary v1"]
    for key, value in summary.items():
        if isinstance(value, float):
            lines.append(f"{key}={format(value, '.10g')}")
        else:
            lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sweep_worker(args) -> tuple[dict, float]:
    config, params = args
    cfg = replace(config, **params, out_dir=None)
    result = run_experiment(cfg)
    train, valid, test = load_datasets(cfg)
    target = valid if valid is not None else test
    return params, evaluate_offline(result.state, holdout_view(target))


def sweep(config: ExperimentConfig, workers: int = 1):
    """Grid-search lam and alpha (and the controller gain where relevant)
    on validation offline NDCG; returns (best params, all results)."""
    if config.algorithm == "prop_control":
        grid = [{"lam": l, "lambda_f": f} for l, f in product(SWEEP_GRID, SWEEP_GRID)]
    elif config.algorithm == "random":
        grid = [{}]
    else:
        grid = [{"lam": l, "alpha": a} for l, a in product(SWEEP_GRID, SWEEP_GRID)]
    jobs = [(config, params) for params in grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
    best = max(enumerate(results), key=lambda item: (item[1][1], -item[0]))[1]
    return best, results
