import math

import numpy as np
import pytest

from fairexp.data import Document, GroupedDataset, QueryCandidates, SyntheticSpec, generate_synthetic
from fairexp.fairness import UnfairnessLedger
from fairexp.harness import (
    ExperimentConfig,
    evaluate_offline,
    holdout_view,
    load_datasets,
    prop_control_rank,
    resolve_beta,
    run_experiment,
    sample_block_order,
    sweep,
)
from fairexp.metrics import TRACE_COLUMNS, ndcg_at_k
from fairexp.ranker import BlockPartition, DimensionError, RankerState, load_checkpoint, score_all


def small_spec(**kwargs):
    defaults = dict(n_queries=20, docs_per_query=8, d=5, group_balance=0.5, grade_noise=0.1, seed=5)
    defaults.update(kwargs)
    return SyntheticSpec(**defaults)


def small_config(**kwargs):
    defaults = dict(
        algorithm="fairexp_pairrank",
        synthetic=small_spec(),
        rounds=60,
        k=4,
        lam=0.1,
        alpha=0.1,
        beta=1.0,
        epsilon=0.1,
        seed=11,
        n_validation=5,
        n_test=10,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="dbgd", synthetic=small_spec()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(synthetic=small_spec(), rounds=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(synthetic=small_spec(), beta="ratio").validate()
        with pytest.raises(ValueError):
            ExperimentConfig().validate()  # no data source

    @pytest.mark.parametrize(
        "field, value",
        [("eval_stride", 0), ("eval_stride", -3), ("alpha", -1.0), ("alpha", float("nan"))],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [("eval_stride", 1), ("alpha", 0.0)])
    def test_range_edges_accepted(self, field, value):
        small_config(**{field: value}).validate()

    def test_beta_auto(self):
        config = small_config(beta="auto")
        train, _, _ = load_datasets(config)
        beta = resolve_beta(config, train)
        assert beta > 0
        assert resolve_beta(small_config(beta=1.5), train) == 1.5


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert [r.to_csv_row() for r in a.records] == [r.to_csv_row() for r in b.records]

    def test_trace_files_byte_identical(self, tmp_path):
        run_experiment(small_config(out_dir=str(tmp_path / "a")))
        run_experiment(small_config(out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (
            tmp_path / "b" / "trace.csv"
        ).read_bytes()

    def test_seed_changes_trace(self):
        a = run_experiment(small_config(seed=11))
        b = run_experiment(small_config(seed=12))
        assert [r.to_csv_row() for r in a.records] != [r.to_csv_row() for r in b.records]


class TestDegenerateEpsilon:
    def test_infinite_epsilon_reproduces_pairrank(self):
        relaxed = run_experiment(small_config(epsilon=float("inf")))
        vanilla = run_experiment(small_config(algorithm="pairrank"))
        assert [r.to_csv_row() for r in relaxed.records] == [
            r.to_csv_row() for r in vanilla.records
        ]

    def test_pairrank_zero_added_regret_with_heuristic(self):
        vanilla = run_experiment(small_config(algorithm="pairrank"))
        assert all(r.added_regret == 0 for r in vanilla.records)


class TestAlgorithms:
    def test_random_has_flat_offline_curve(self):
        result = run_experiment(small_config(algorithm="random"))
        offline = result.column("offline_ndcg")
        assert np.all(offline == offline[0])

    def test_fairexp_bounds_unfairness(self):
        result = run_experiment(small_config(rounds=150))
        # one-round overshoot above epsilon is bounded by the largest
        # single-template imbalance at k=4
        from fairexp.fairness import log_discount_model

        max_imbalance = sum(log_discount_model(4).values)
        uf = np.abs(result.column("cumulative_unfairness"))
        assert uf.max() <= 0.1 + max_imbalance + 1e-9

    def test_round_accounting(self):
        result = run_experiment(small_config())
        assert len(result.records) == 60
        assert [r.round for r in result.records] == list(range(1, 61))
        inst = result.column("instantaneous_unfairness")
        cum = result.column("cumulative_unfairness")
        running = 0.0
        for i, c in zip(inst, cum):
            running += i
            assert c == running  # exact telescoping, same additions
        assert result.ledger.cumulative == cum[-1]

    def test_learning_improves_offline_ndcg(self):
        result = run_experiment(small_config(rounds=300, algorithm="pairrank"))
        offline = result.column("offline_ndcg")
        assert offline[-1] > offline[0]


class TestPropControl:
    def test_zero_gain_is_pure_score_ranking(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        ledger.cumulative = 5.0
        scores = np.array([0.1, 0.9, 0.5])
        order = prop_control_rank(scores, ["A", "B", "A"], ledger, 0.0)
        assert order == [1, 2, 0]

    def test_underexposed_group_boosted(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        ledger.cumulative = 2.0  # group A overexposed
        scores = np.array([1.0, 1.0])
        order = prop_control_rank(scores, ["A", "B"], ledger, 0.5)
        assert order == [1, 0]
        ledger.cumulative = -2.0  # group B overexposed
        order = prop_control_rank(scores, ["A", "B"], ledger, 0.5)
        assert order == [0, 1]

    def test_boost_magnitude(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        ledger.cumulative = 3.0
        scores = np.array([0.0, -1.4])
        lam_f = 0.5
        order = prop_control_rank(scores, ["A", "B"], ledger, lam_f)
        assert order == [1, 0]  # -1.4 + 0.5*3 = 0.1 > 0.0

    def test_runs_end_to_end(self):
        result = run_experiment(small_config(algorithm="prop_control", lambda_f=0.01))
        assert len(result.records) == 60
        assert result.records[-1].offline_ndcg > 0

    def test_negative_gain_rejected(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        with pytest.raises(ValueError):
            prop_control_rank(np.array([1.0]), ["A"], ledger, -0.1)


RAGGED_LENGTHS = (1, 2, 3, 5, 7, 8, 9, 10, 11, 15, 23)


def ragged_split(d=4):
    """Hold-out queries of many lengths, with tied scores and a query whose
    grades are all 0 (its ideal DCG is 0)."""
    rng = np.random.default_rng(3)
    queries = []
    for qi, n in enumerate(RAGGED_LENGTHS):
        x = rng.standard_normal((n, d))
        grades = rng.integers(0, 5, size=n)
        if n >= 3:
            x[1] = x[0]  # identical rows score equal under every theta
            x[-1] = x[0]
        if qi == 6:
            grades[:] = 0
        docs = [Document(features=x[i], grade=int(grades[i]), group="A") for i in range(n)]
        queries.append(QueryCandidates(query_id=f"h{qi}", documents=docs))
    # a second query of an already seen length, later in split order
    queries.insert(4, QueryCandidates(query_id="h2b", documents=queries[2].documents[::-1]))
    return GroupedDataset(queries=queries, dimension=d, split="test")


def per_query_ndcg10(state, split):
    """The mean NDCG@10 as a loop over queries with metrics.ndcg_at_k."""
    total = 0.0
    for q in split.queries:
        order = np.argsort(-score_all(state, q.feature_matrix()), kind="stable")
        grades = q.grades()
        total += ndcg_at_k(grades[order], 10, ideal_grades=grades)
    return total / len(split.queries)


class TestEvaluateOffline:
    def test_true_theta_is_perfect_without_noise(self):
        config = small_config(synthetic=small_spec(grade_noise=0.0))
        train, _, test = load_datasets(config)
        state = RankerState.initial(5, lam=0.1)
        state.theta = train.true_theta.copy()
        assert evaluate_offline(state, holdout_view(test)) == pytest.approx(1.0)

    def test_zero_theta_matches_dataset_order_baseline(self):
        config = small_config()
        _, _, test = load_datasets(config)
        state = RankerState.initial(5, lam=0.1)
        expected = np.mean(
            [ndcg_at_k(q.grades(), 10, ideal_grades=q.grades()) for q in test.queries]
        )
        assert evaluate_offline(state, holdout_view(test)) == pytest.approx(float(expected))

    def test_empty_split_rejected(self):
        state = RankerState.initial(3, lam=0.1)
        with pytest.raises(ValueError):
            evaluate_offline(state, holdout_view(GroupedDataset(queries=[], dimension=3)))

    def test_ragged_split_equals_per_query_loop(self):
        split = ragged_split()
        view = holdout_view(split)
        rng = np.random.default_rng(11)
        thetas = [np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.5, 0.5, -0.5, 0.0])]
        thetas += [rng.standard_normal(4) * scale for scale in (1e-9, 1.0, 1e3) for _ in range(20)]
        for theta in thetas:
            state = RankerState.initial(4, lam=0.1)
            state.theta = theta
            assert evaluate_offline(state, view) == per_query_ndcg10(state, split)

    def test_view_is_a_read_only_snapshot(self):
        split = ragged_split()
        view = holdout_view(split)
        state = RankerState.initial(4, lam=0.1)
        state.theta = np.array([1.0, -1.0, 0.5, 0.0])
        before = evaluate_offline(state, view)
        for doc in split.all_documents():
            doc.features *= -1.0
        assert evaluate_offline(state, view) == before
        with pytest.raises(ValueError):
            view.groups[0].features[0, 0, 0] = 1.0

    def test_dimension_mismatch_raises(self):
        state = RankerState.initial(5, lam=0.1)
        with pytest.raises(DimensionError):
            evaluate_offline(state, holdout_view(ragged_split(d=4)))


class TestSampleBlockOrder:
    def test_blocks_stay_in_order(self):
        rng = np.random.default_rng(0)
        partition = BlockPartition(blocks=[[0, 1], [2, 3, 4]])
        certain = {(i, j) for i in (0, 1) for j in (2, 3, 4)}
        for _ in range(50):
            order = sample_block_order(partition, certain, rng, True)
            assert set(order[:2]) == {0, 1} and set(order[2:]) == {2, 3, 4}

    def test_respects_certain_orders_within_block(self):
        rng = np.random.default_rng(1)
        partition = BlockPartition(blocks=[[0, 1, 2]])
        certain = {(2, 0)}
        for _ in range(50):
            order = sample_block_order(partition, certain, rng, True)
            assert order.index(2) < order.index(0)

    def test_shuffle_mode_reaches_all_orders(self):
        rng = np.random.default_rng(2)
        partition = BlockPartition(blocks=[[0, 1, 2]])
        seen = {tuple(sample_block_order(partition, set(), rng, False)) for _ in range(200)}
        assert len(seen) == 6


class TestOutputs:
    def test_files_written(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(small_config(out_dir=str(out), diagnostics=True))
        trace = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "# fairexp-trace v1"
        assert trace[1] == ",".join(TRACE_COLUMNS)
        assert len(trace) == 2 + 60
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert summary.startswith("# fairexp-summary v1")
        assert "final_offline_ndcg10=" in summary
        assert (out / "fairswap.log").read_text(encoding="utf-8").startswith(
            "# fairswap-diagnostics v1"
        )
        state = load_checkpoint(out / "checkpoint.npz")
        assert state.round == 60

    def test_checkpoint_scores_match_final_state(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(small_config(out_dir=str(out)))
        loaded = load_checkpoint(out / "checkpoint.npz")
        np.testing.assert_array_equal(loaded.theta, result.state.theta)


class TestSweep:
    def test_sweep_selects_a_grid_point(self):
        config = small_config(rounds=25)
        (best_params, best_ndcg), results = sweep(config)
        assert len(results) == 9
        assert best_params in [params for params, _ in results]
        assert best_ndcg == max(ndcg for _, ndcg in results)
        assert set(best_params) == {"lam", "alpha"}

    def test_prop_control_grid_uses_controller_gain(self):
        config = small_config(rounds=15, algorithm="prop_control")
        (best_params, _), results = sweep(config)
        assert len(results) == 9
        assert set(best_params) == {"lam", "lambda_f"}


class TestRobustness:
    def test_numeric_error_flushes_partial_trace(self, tmp_path, monkeypatch):
        from fairexp import harness, ranker

        calls = {"n": 0}
        original = ranker.update

        def failing_update(state, diffs, labels):
            calls["n"] += 1
            if calls["n"] >= 30:
                raise ranker.NumericError("injected failure")
            return original(state, diffs, labels)

        monkeypatch.setattr(harness.ranker, "update", failing_update)
        out = tmp_path / "crash"
        with pytest.raises(ranker.NumericError):
            run_experiment(small_config(out_dir=str(out)))
        trace = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "# fairexp-trace v1"
        assert len(trace) == 2 + 29  # header lines plus completed rounds

    def test_pairwise_regret_trend_decreases(self):
        # noise-free clicks: mis-ordered displayed pairs shrink as it learns
        config = small_config(
            algorithm="pairrank",
            synthetic=small_spec(grade_noise=0.0, n_queries=30),
            rounds=400,
        )
        result = run_experiment(config)
        regret = result.column("pairwise_regret").astype(float)
        assert regret[300:].mean() < regret[:100].mean()

    def test_minmax_flag_scales_features(self):
        config = small_config(minmax=True)
        train, _, _ = load_datasets(config)
        mat = np.stack([d.features for d in train.all_documents()])
        assert mat.min() >= 0.0 and mat.max() <= 1.0
        result = run_experiment(config)
        assert len(result.records) == 60

    def test_sweep_with_two_workers_matches_serial(self):
        config = small_config(rounds=10)
        serial = sweep(config, workers=1)
        parallel = sweep(config, workers=2)
        assert serial == parallel


def test_skewed_groups_still_run():
    # heavy imbalance forces fallback templates; the run must complete
    config = small_config(
        synthetic=small_spec(group_balance=0.9, seed=6), rounds=80, epsilon=0.05
    )
    result = run_experiment(config)
    assert len(result.records) == 80
    assert result.summary["ledger_violations"] >= 0


def test_short_queries_truncate_k():
    config = small_config(synthetic=small_spec(docs_per_query=3), k=8)
    result = run_experiment(config)
    assert len(result.records) == 60
