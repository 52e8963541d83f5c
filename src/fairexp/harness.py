"""End-to-end experiment loop for online learning to rank with fairness.

``step`` plays one round on a run's state, an ``ExperimentResult``: it
samples a training query, asks the configured policy for the top-k,
simulates clicks, updates the unfairness ledger with the displayed group
pattern's expected exposure, folds the inferred preference pairs into the
ranker (when the policy learns), and appends the round's record. Runs are
deterministic given the configuration seed.

Algorithms are the entries of ``POLICIES``, a table from name to policy;
``step`` makes one dispatch through it and names no algorithm:

* ``fairexp_pairrank`` - PairRank's block partition, calibrated to a
  qualified group template by minimum-added-regret swaps;
* ``pairrank`` - the same block policy with the constraint off: blocks in
  order, randomized within blocks. ``fairexp_pairrank`` with an infinite
  unfairness threshold takes this path, so the two agree byte for byte;
* ``prop_control`` - greedy ranking by score plus a proportional boost to
  the underexposed group (controller-style baseline, shares the learned
  scores instead of a propensity-corrected estimator);
* ``random`` - uniform shuffling with no learning, as a floor.

An entry also names the hyperparameters ``sweep`` grid-searches.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import click_sim, fairness, fairswap, metrics, ranker
from .data import (
    GROUP_A,
    GROUP_STRATEGIES,
    GroupedDataset,
    SyntheticSpec,
    _frozen,
    assign_groups,
    check_count,
    check_real,
    load_svmlight,
    minmax_scale,
    synthetic_splits,
    widen,
)

SWEEP_GRID = (0.1, 0.01, 0.001)
_GROUPING = ("group_feature", "group_strategy", "group_threshold")


@dataclass
class ExperimentConfig:
    """Everything one run needs; CLI flags and config files both map here."""

    algorithm: str = "fairexp_pairrank"
    # data: exactly one of a directory of train/vali/test SVMLight files, grouped
    # by the group_* fields, or a synthetic spec, which draws its own groups
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
        counts = dict(rounds=1, k=1, eval_stride=1, seed=0, n_test=1, n_validation=0)
        for name, least in counts.items():
            check_count(name, getattr(self, name), least)
        for name in ("lam", "alpha", "gamma", "epsilon", "lambda_f"):
            check_real(name, getattr(self, name))
        if not isinstance(self.beta, str):
            check_real("beta", self.beta)
        for name in ("respect_certain", "diagnostics", "minmax"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be True or False, got {getattr(self, name)!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be finite and positive")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.beta != "auto" and (isinstance(self.beta, str) or not 0 < self.beta < math.inf):
            raise ValueError("beta must be 'auto' or a finite positive number")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not 0 <= self.lambda_f < math.inf:
            raise ValueError("lambda_f must be finite and >= 0")
        if (self.dataset_dir is None) == (self.synthetic is None):
            raise ValueError("give exactly one data source: dataset_dir or synthetic")
        # synthetic data draws its own groups, and a dataset directory holds its
        # own splits, so a setting of the other source would be ignored
        if self.synthetic is not None:
            ignored, only = _GROUPING, "dataset_dir, not synthetic"
        else:
            ignored, only = ("n_validation", "n_test"), "synthetic, not dataset_dir"
        for f in fields(self):
            if f.name in ignored and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} is used only with {only}")
        if self.synthetic is None:
            if self.group_feature is None:
                raise ValueError("file datasets need group_feature to assign groups")
            check_count("group_feature", self.group_feature, 1)
        if self.group_strategy not in GROUP_STRATEGIES:
            raise ValueError(
                f"unknown group_strategy {self.group_strategy!r}; "
                f"expected one of {', '.join(GROUP_STRATEGIES)}"
            )
        if self.group_threshold is not None:
            check_real("group_threshold", self.group_threshold)
        if self.group_strategy == "threshold":
            if self.group_threshold is None or not math.isfinite(self.group_threshold):
                raise ValueError("group_strategy 'threshold' needs a finite group_threshold")
        elif self.group_threshold is not None:
            raise ValueError(
                f"group_threshold is used only with group_strategy 'threshold', "
                f"not {self.group_strategy!r}"
            )
        if self.click_model == "custom":
            if len(self.custom_clicks or ()) != 10:
                raise ValueError(
                    "click_model 'custom' needs ten custom_clicks (5 click, 5 stop probabilities)"
                )
            for i, p in enumerate(self.custom_clicks):
                check_real(f"custom_clicks[{i}]", p)
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"custom_clicks[{i}]: probability {p} outside [0, 1]")
        elif self.custom_clicks is not None:
            raise ValueError(
                f"custom_clicks is used only with click_model 'custom', not {self.click_model!r}"
            )
        if self.exposure_kind == "table":
            if not self.exposure_table:
                raise ValueError("exposure_kind 'table' needs an exposure_table file")
        elif self.exposure_table is not None:
            raise ValueError(
                f"exposure_table is used only with exposure_kind 'table', "
                f"not {self.exposure_kind!r}"
            )


@dataclass
class ExperimentResult:
    """A run's state, which ``step`` advances: one record per completed
    round, the ``fairswap.log`` lines, and the summary after the last."""

    records: list[metrics.RoundRecord]
    state: ranker.RankerState
    ledger: fairness.UnfairnessLedger
    summary: dict
    rng: np.random.Generator
    swap_log: list[str]
    # always empty; kept with summary v1's flagged_rounds=0, which bench/tracer.py reads
    flagged_rounds: list[int] = field(default_factory=list)

    @classmethod
    def initial(cls, inputs: RunInputs) -> ExperimentResult:
        config, train = inputs.config, inputs.train
        state = ranker.RankerState.initial(train.dimension, config.lam)
        state.minmax_bounds = train.metadata.get("minmax_bounds")
        ledger = fairness.UnfairnessLedger(beta=inputs.beta, epsilon=config.epsilon)
        return cls([], state, ledger, {}, np.random.default_rng(config.seed), [])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def load_datasets(config: ExperimentConfig):
    """(train, validation or None, test). The splits of a dataset directory
    share the widest split's feature width, and validation and test take
    the train split's group cut; with ``minmax`` every split is scaled with
    the train split's bounds."""
    if config.synthetic is not None:
        splits = synthetic_splits(config.synthetic, config.n_validation, config.n_test)
    else:
        root = Path(config.dataset_dir)
        vali_path = root / "vali.txt"
        splits = (
            load_svmlight(root / "train.txt", split="train"),
            load_svmlight(vali_path, split="validation") if vali_path.exists() else None,
            load_svmlight(root / "test.txt", split="test"),
        )
        train, *others = [ds for ds in splits if ds is not None]
        width = max(ds.dimension for ds in (train, *others))
        for ds in (train, *others):
            widen(ds, width)
        assign_groups(train, config.group_feature, config.group_strategy, config.group_threshold)
        for ds in others:
            assign_groups(ds, config.group_feature, "threshold", train.metadata["group_cut"])
    if config.minmax:
        train, *others = [ds for ds in splits if ds is not None]
        minmax_scale(train)
        for ds in others:
            minmax_scale(ds, train.metadata["minmax_bounds"])
    return splits


class RunInputs(NamedTuple):
    """A checked config and everything ``step`` reads besides it."""

    config: ExperimentConfig
    train: GroupedDataset
    holdout: HoldoutView  # the test split's, or in a sweep job the validation split's
    beta: float
    click_model: click_sim.ClickModelConfig
    exposure_model: fairness.ExposureModel


def prepare_run(config: ExperimentConfig) -> tuple[RunInputs, GroupedDataset | None]:
    """The one place where a config becomes checked run inputs; returns
    (inputs, validation split or None).

    The cheap checks come first: ``validate()``, the click model, and the
    exposure model (a table must cover ranks 1..k). Then the splits load
    and ``beta`` resolves, since ``auto`` needs the train split. Bad input
    raises ``ValueError`` or ``OSError`` here, before any round."""
    config.validate()
    if config.click_model == "custom":
        click_model = click_sim.custom_model(config.custom_clicks[:5], config.custom_clicks[5:])
    elif config.click_model in click_sim.BY_NAME:
        click_model = click_sim.BY_NAME[config.click_model]
    else:
        raise ValueError(f"unknown click model {config.click_model!r}")
    if config.exposure_kind == "table":
        exposure_model = fairness.load_exposure_table(config.exposure_table)
        if exposure_model.k < config.k:
            raise fairness.ExposureError(
                f"exposure table {config.exposure_table} defines {exposure_model.k} ranks, "
                f"fewer than k={config.k}"
            )
    else:
        exposure_model = fairness.make_exposure_model(config.exposure_kind, config.k)
    train, valid, test = load_datasets(config)
    beta = fairness.utility_ratio_beta(train) if config.beta == "auto" else float(config.beta)
    return RunInputs(config, train, holdout_view(test), beta, click_model, exposure_model), valid


def sample_block_order(
    partition: ranker.BlockPartition,
    certain: set[tuple[int, int]],
    rng: np.random.Generator,
    respect_certain: bool,
) -> list[int]:
    """Blocks in order; within each block a seeded random order drawn by
    ``fairswap.draw_slots`` on ``rng``: repeated random choice among the
    unplaced documents, with the heuristic on among those with the fewest
    unplaced certain predecessors. ``fairswap.index_pairs`` refuses a
    partition whose blocks are not in certain order."""
    origin, beats = fairswap.index_pairs(partition, certain)
    lists = [list(block) for block in partition.blocks]
    slots = [each for each in lists for _ in each]
    return fairswap.draw_slots(slots, lists, origin, beats, rng, respect_certain)


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
    if not 0 <= lambda_f < math.inf:
        raise ValueError("lambda_f must be finite and non-negative")
    cum = ledger.cumulative
    boost = np.where(
        np.asarray(groups) == GROUP_A, lambda_f * max(0.0, -cum), lambda_f * max(0.0, cum)
    )
    return list(np.argsort(-(scores + boost), kind="stable"))


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
    ``holdout_view`` after the split's last transformation (grouping,
    scaling); it holds copies, so later ones do not reach it.
    """

    n_queries: int
    groups: tuple[_LengthGroup, ...]


def holdout_view(split: GroupedDataset) -> HoldoutView:
    """Stack a hold-out split once, for every later ``evaluate_offline``."""
    if not split.queries:
        raise ValueError(f"{split.split} split is empty")
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
                ideal_dcg=_frozen(metrics.dcg(np.sort(grades, axis=1)[:, ::-1], 10)),
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
        dcg = metrics.dcg(np.take_along_axis(group.grades, order, axis=1), 10)
        ideal = group.ideal_dcg
        ndcg[group.positions] = np.divide(dcg, ideal, out=np.ones_like(dcg), where=ideal != 0.0)
    # a left-to-right running sum in split order, not numpy's pairwise sum
    return float(np.cumsum(ndcg)[-1]) / holdout.n_queries


class _Served(NamedTuple):
    """A policy's answer for one round."""

    displayed: list[int]
    added_regret: int = 0
    calibrated: fairswap.CalibratedRanking | None = None
    fallback: bool = False  # no template fit within epsilon


def _rank_blocks(
    inputs: RunInputs, run: ExperimentResult, query, k_t: int, constrained: bool
) -> _Served:
    """PairRank's blocks; when constrained with a finite epsilon, the
    cheapest calibration to a qualified template."""
    config = inputs.config
    order_sets = ranker.classify_pairs(run.state, query, config.alpha)
    partition = ranker.partition_blocks(query, order_sets)
    if constrained and not math.isinf(config.epsilon):
        templates = fairness.enumerate_templates(k_t, query.counts, inputs.exposure_model)
        qualified, fallback = fairness.qualified_templates(run.ledger, templates)
        projections = [fairness.projected_unfairness(run.ledger, t) for t in qualified]
        scores = ranker.score_all(run.state, query.feature_matrix())
        result = fairswap.select_ranking(
            partition,
            qualified,
            order_sets.certain,
            dict(enumerate(query.groups())),
            run.rng,
            projections=projections,
            scores={i: float(s) for i, s in enumerate(scores)},
            respect_certain=config.respect_certain,
        )
        return _Served(result.order, result.added_regret, result, fallback)
    order = sample_block_order(partition, order_sets.certain, run.rng, config.respect_certain)
    displayed = order[:k_t]
    added = fairswap.added_regret(displayed, order_sets.certain)
    return _Served(displayed, added)


def _rank_prop_control(inputs: RunInputs, run: ExperimentResult, query, k_t: int) -> _Served:
    scores = ranker.score_all(run.state, query.feature_matrix())
    order = prop_control_rank(scores, query.groups(), run.ledger, inputs.config.lambda_f)
    return _Served(order[:k_t])


def _rank_random(inputs: RunInputs, run: ExperimentResult, query, k_t: int) -> _Served:
    return _Served(list(run.rng.permutation(len(query))[:k_t]))


class _Policy(NamedTuple):
    rank: Callable[[RunInputs, ExperimentResult, object, int], _Served]
    tuned: tuple[str, ...]  # the config fields ``sweep`` grid-searches
    learns: bool = True  # whether clicks update the ranker


POLICIES = {
    "fairexp_pairrank": _Policy(partial(_rank_blocks, constrained=True), ("lam", "alpha")),
    "pairrank": _Policy(partial(_rank_blocks, constrained=False), ("lam", "alpha")),
    "prop_control": _Policy(_rank_prop_control, ("lam", "lambda_f")),
    "random": _Policy(_rank_random, (), learns=False),
}
ALGORITHMS = tuple(POLICIES)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return run_prepared(prepare_run(config)[0])


def step(inputs: RunInputs, run: ExperimentResult) -> None:
    """Play the round after ``run``'s last record and append its record."""
    config, train = inputs.config, inputs.train
    policy = POLICIES[config.algorithm]
    t = len(run.records) + 1
    query = train.queries[int(run.rng.integers(len(train.queries)))]
    k_t = min(config.k, len(query))
    grades = query.grades()
    groups = query.groups()

    served = policy.rank(inputs, run, query, k_t)
    displayed = served.displayed
    displayed_grades = [int(grades[i]) for i in displayed]
    displayed_groups = [groups[i] for i in displayed]
    outcome = click_sim.simulate(displayed_grades, inputs.click_model, run.rng)

    fairness.record(run.ledger, fairness.make_template(displayed_groups, inputs.exposure_model))

    if policy.learns:
        feats = query.feature_matrix()[displayed]
        diffs, labels = ranker.infer_pairs(feats, outcome.clicks)
        ranker.update(run.state, diffs, labels)

    online = metrics.ndcg_at_k(displayed_grades, 10, ideal_grades=grades)
    if t == 1 or t % config.eval_stride == 0 or t == config.rounds:
        offline = evaluate_offline(run.state, inputs.holdout)
    else:
        offline = run.records[-1].offline_ndcg
    run.records.append(
        metrics.RoundRecord(
            round=t,
            online_ndcg=online,
            offline_ndcg=offline,
            instantaneous_unfairness=run.ledger.history[-1],
            cumulative_unfairness=run.ledger.cumulative,
            added_regret=served.added_regret,
            pairwise_regret=metrics.pairwise_regret(displayed_grades),
        )
    )
    calibrated = served.calibrated
    if config.diagnostics and calibrated is not None:
        run.swap_log.append(
            f"round={t} template={''.join(calibrated.template.placement)} "
            f"added_regret={calibrated.added_regret} fallback={served.fallback}"
        )
        run.swap_log.extend("  " + e.describe() for e in calibrated.events)


def run_prepared(inputs: RunInputs) -> ExperimentResult:
    """The rounds of ``run_experiment`` on what ``prepare_run`` checked.
    A round that raises ends the run after ``trace.csv`` is written for
    the rounds before it; only a completed run writes the other outputs."""
    config = inputs.config
    run = ExperimentResult.initial(inputs)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(config.rounds):
            step(inputs, run)
    finally:
        if out_dir:
            _write_trace(out_dir / "trace.csv", run.records)

    records = run.records
    run.summary.update(
        algorithm=config.algorithm,
        rounds=config.rounds,
        seed=config.seed,
        beta=inputs.beta,
        epsilon=config.epsilon,
        final_offline_ndcg10=records[-1].offline_ndcg,
        cumulative_ndcg=metrics.cumulative_ndcg([r.online_ndcg for r in records], config.gamma),
        final_abs_unfairness=abs(run.ledger.cumulative),
        total_added_regret=int(sum(r.added_regret for r in records)),
        ledger_violations=int(
            sum(1 for r in records if abs(r.cumulative_unfairness) > config.epsilon)
        ),
        flagged_rounds=0,  # a failed calibration raises instead
    )
    if out_dir:
        _write_summary(out_dir / "summary.txt", run.summary)
        ranker.save_checkpoint(run.state, out_dir / "checkpoint.npz")
        if config.diagnostics:
            (out_dir / "fairswap.log").write_text(
                "# fairswap-diagnostics v1\n" + "\n".join(run.swap_log) + "\n", encoding="utf-8"
            )
    return run


def _write_trace(path: Path, records: list[metrics.RoundRecord]) -> None:
    lines = [metrics.trace_header()]
    lines.extend(r.to_csv_row() for r in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_summary(path: Path, summary: dict) -> None:
    lines = ["# fairexp-summary v1"]
    lines.extend(f"{key}={metrics.format_value(value)}" for key, value in summary.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sweep_worker(args) -> tuple[dict, float]:
    inputs, params = args
    result = run_prepared(inputs._replace(config=replace(inputs.config, **params, out_dir=None)))
    return params, result.records[-1].offline_ndcg


def check_sweep(config: ExperimentConfig) -> None:
    """Raise ValueError when the config has no validation split to select
    on: a dataset directory without vali.txt, or ``n_validation=0``.
    Selecting on the test split instead would report a test-set figure as
    the validation NDCG."""
    if config.synthetic is None:
        vali = Path(config.dataset_dir) / "vali.txt"
        if not vali.exists():
            raise ValueError(f"sweep selects on the validation split, and {vali} does not exist")
    elif config.n_validation < 1:
        raise ValueError(
            f"sweep selects on the validation split, and n_validation is {config.n_validation}"
        )


def sweep(config: ExperimentConfig, workers: int = 1):
    """Grid-search lam and alpha (and the controller gain where relevant)
    on validation offline NDCG; returns (best params, all results).
    ``check_sweep`` runs first, so a config without a validation split
    fails before any job, as does ``workers`` < 1. The jobs share one
    ``prepare_run``: nothing it checks or loads reads a tuned field."""
    check_sweep(config)
    return sweep_prepared(*prepare_run(config), workers)


def sweep_prepared(inputs: RunInputs, valid: GroupedDataset, workers: int = 1):
    """``sweep`` on what ``prepare_run`` returned for a config that passed
    ``check_sweep``, so that a caller which has prepared the run to report
    bad input does not load the splits again. Raises ``ValueError`` when
    ``workers`` < 1, before any job."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a job's hold-out is the validation split, and its last offline NDCG its score
    inputs = inputs._replace(holdout=holdout_view(valid))
    tuned = POLICIES[inputs.config.algorithm].tuned
    grid = [dict(zip(tuned, values)) for values in product(SWEEP_GRID, repeat=len(tuned))]
    jobs = [(inputs, params) for params in grid]
    # a forking pool starts all its workers at the first submit: no more than there are jobs
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]
    best = max(enumerate(results), key=lambda item: (item[1][1], -item[0]))[1]
    return best, results
