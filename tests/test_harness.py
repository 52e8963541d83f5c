import copy
import math

import numpy as np
import pytest

from calibration_oracle import cross_block_certain, fewest_predecessors
from fairexp.data import GroupedDataset, QueryCandidates, SyntheticSpec
from fairexp.fairness import ExposureError, UnfairnessLedger
from fairexp.fairswap import MalformedPartitionError
from fairexp.harness import (
    ALGORITHMS,
    ExperimentConfig,
    ExperimentResult,
    evaluate_offline,
    holdout_view,
    load_datasets,
    prepare_run,
    prop_control_rank,
    run_experiment,
    run_prepared,
    sample_block_order,
    step,
    sweep,
)
from fairexp.metrics import TRACE_COLUMNS, ndcg_at_k
from fairexp.ranker import (
    BlockPartition,
    DimensionError,
    RankerState,
    load_checkpoint,
    score_all,
)


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
    )
    if kwargs.get("synthetic", defaults["synthetic"]) is not None:
        defaults.update(n_validation=5, n_test=10)  # sizes of the synthetic splits only
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# the data-source fields of a file dataset, the only source that reads a grouping setting
FOLD = dict(synthetic=None, dataset_dir="fold", group_feature=1)


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
        [
            ("eval_stride", 0),
            ("eval_stride", -3),
            ("alpha", -1.0),
            ("alpha", float("nan")),
            ("lam", float("nan")),
            ("lam", float("inf")),
            ("beta", float("nan")),
            ("beta", float("inf")),
            ("beta", 0.0),
            ("beta", -1.0),
            ("lambda_f", -0.1),
            ("lambda_f", float("nan")),
            ("lambda_f", float("inf")),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value}).validate()

    @pytest.mark.parametrize(
        "config, named",
        [
            (dict(lam=True), "lam"),
            (dict(alpha=False), "alpha"),
            (dict(gamma=True), "gamma"),
            (dict(epsilon=True), "epsilon"),
            (dict(lambda_f=False), "lambda_f"),
            (dict(beta=True), "beta"),
            (dict(lam="0.1"), "lam"),
            (dict(epsilon=None), "epsilon"),
            (dict(FOLD, group_strategy="threshold", group_threshold=True), "group_threshold"),
            (dict(click_model="custom", custom_clicks=(0.5,) * 9 + (True,)), r"custom_clicks\[9\]"),
            (dict(respect_certain="false"), "respect_certain"),
            (dict(diagnostics=1), "diagnostics"),
            (dict(minmax=np.True_), "minmax"),
            (dict(synthetic=small_spec(group_balance=True)), "group_balance"),
            (dict(synthetic=small_spec(grade_noise=True)), "grade_noise"),
            (dict(synthetic=small_spec(theta_norm=True)), "theta_norm"),
        ],
    )
    def test_values_of_the_wrong_type_rejected(self, config, named):
        # a bool or a non-number in a real-valued field, or a non-bool in a
        # switch, is refused before it reaches the run
        with pytest.raises(ValueError, match=named):
            prepare_run(small_config(**config))

    @pytest.mark.parametrize("field, value", [("eval_stride", 1), ("alpha", 0.0)])
    def test_range_edges_accepted(self, field, value):
        small_config(**{field: value}).validate()

    @pytest.mark.parametrize(
        "fields, missing",
        [
            (dict(click_model="custom"), "custom_clicks"),
            (dict(click_model="custom", custom_clicks=(0.5,) * 9), "custom_clicks"),
            (dict(click_model="custom", custom_clicks=(0.5,) * 11), "custom_clicks"),
            (dict(exposure_kind="table"), "exposure_table"),
            (dict(exposure_kind="table", exposure_table=""), "exposure_table"),
            (dict(exposure_table="exposure.txt"), "exposure_table is used only with"),
            (dict(custom_clicks=(0.5,) * 10), "custom_clicks is used only with"),
        ],
    )
    def test_incomplete_settings_rejected(self, fields, missing):
        with pytest.raises(ValueError, match=missing):
            small_config(**fields).validate()

    @pytest.mark.parametrize(
        "fields, named",
        [
            (dict(FOLD, group_strategy="quantile"), "group_strategy"),
            (dict(FOLD, group_strategy="threshold"), "group_threshold"),
            (dict(FOLD, group_strategy="threshold", group_threshold=float("nan")), "group_threshold"),
            (dict(FOLD, group_threshold=0.5), "group_threshold"),
            (dict(n_test=0), "n_test"),
            (dict(n_test=-1), "n_test"),
            (dict(n_validation=-1), "n_validation"),
            (dict(synthetic=None, dataset_dir="fold"), "group_feature"),
            (dict(dataset_dir="fold", group_feature=1), "exactly one data source"),
            (dict(group_feature=1), "group_feature is used only with dataset_dir"),
            (dict(group_strategy="quantile"), "group_strategy is used only with dataset_dir"),
            (dict(group_threshold=0.5), "group_threshold is used only with dataset_dir"),
            (dict(FOLD, n_test=999), "n_test is used only with synthetic, not dataset_dir"),
            (dict(FOLD, n_validation=0), "n_validation is used only with synthetic"),
        ],
    )
    def test_grouping_and_split_sizes_rejected(self, fields, named):
        with pytest.raises(ValueError, match=named):
            small_config(**fields).validate()

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n_validation=0),
            dict(n_test=1),
            dict(FOLD, group_strategy="threshold", group_threshold=0.0),
        ],
    )
    def test_grouping_and_split_size_edges_accepted(self, fields):
        small_config(**fields).validate()

    def test_unknown_group_strategy_fails_before_any_split_is_read(self, tmp_path):
        config = small_config(
            synthetic=None,
            dataset_dir=str(tmp_path / "missing"),
            group_feature=1,
            group_strategy="quantile",
        )
        with pytest.raises(ValueError, match="unknown group_strategy 'quantile'"):
            run_experiment(config)

    def test_ten_custom_clicks_accepted(self):
        small_config(click_model="custom", custom_clicks=(0.5,) * 10).validate()

    @pytest.mark.parametrize("ranks", [3, 4])
    def test_exposure_table_shorter_than_k_rejected_before_round_one(
        self, tmp_path, monkeypatch, ranks
    ):
        from fairexp import ranker

        table = tmp_path / "exposure.txt"
        table.write_text("".join(f"{r} {1.0 / r}\n" for r in range(1, ranks + 1)), encoding="utf-8")
        monkeypatch.setattr(ranker, "classify_pairs", lambda *a: pytest.fail("a round ran"))
        config = small_config(k=5, exposure_kind="table", exposure_table=str(table))
        with pytest.raises(ExposureError, match=f"defines {ranks} ranks, fewer than k=5"):
            run_experiment(config)

    @pytest.mark.parametrize("ranks", [5, 7])
    def test_exposure_table_covering_k_runs(self, tmp_path, ranks):
        table = tmp_path / "exposure.txt"
        table.write_text("".join(f"{r} {1.0 / r}\n" for r in range(1, ranks + 1)), encoding="utf-8")
        config = small_config(k=5, rounds=5, exposure_kind="table", exposure_table=str(table))
        assert len(run_experiment(config).records) == 5

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(click_model="bogus"), "unknown click model 'bogus'"),
            (dict(exposure_kind="table"), "defines 2 ranks, fewer than k=3"),
        ],
        ids=["click_model", "short_table"],
    )
    def test_model_checks_come_before_the_splits_load(
        self, tmp_path, monkeypatch, fields, message
    ):
        from fairexp import harness

        monkeypatch.setattr(harness, "load_datasets", lambda config: pytest.fail("a split loaded"))
        table = tmp_path / "exposure.txt"
        table.write_text("1 1.0\n2 0.5\n", encoding="utf-8")
        if fields.get("exposure_kind") == "table":
            fields = dict(fields, exposure_table=str(table))
        with pytest.raises(ValueError, match=message):
            run_experiment(small_config(k=3, **fields))

    @pytest.mark.parametrize(
        "owner, field, value",
        [
            ("config", "rounds", 3.0),
            ("config", "rounds", True),
            ("config", "k", 2.5),
            ("config", "seed", 1.5),
            ("config", "eval_stride", 1.5),
            ("config", "n_test", np.float64(10)),
            ("config", "n_validation", "5"),
            ("config", "group_feature", True),
            ("config", "group_feature", 1.0),
            ("spec", "n_queries", 5.0),
            ("spec", "n_queries", True),
            ("spec", "docs_per_query", np.bool_(True)),
            ("spec", "d", 4.0),
            ("spec", "seed", 1.5),
        ],
    )
    def test_integer_settings_refuse_bools_and_fractions(self, owner, field, value):
        if owner == "spec":
            config = small_config(synthetic=small_spec(**{field: value}))
        elif field == "group_feature":
            config = small_config(**dict(FOLD, group_feature=value))
        else:
            config = small_config(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            prepare_run(config)

    def test_numpy_integers_are_accepted(self):
        # and real-valued fields take Python ints and numpy numbers
        config = small_config(
            rounds=np.int64(4),
            k=np.int32(3),
            seed=np.uint8(11),
            eval_stride=np.int16(2),
            synthetic=small_spec(
                n_queries=np.int64(20), d=np.int32(5), group_balance=np.float32(0.5), theta_norm=1
            ),
            lam=np.float64(0.1),
            beta=1,
            epsilon=np.float64(0.1),
            gamma=np.float64(0.9995),
        )
        expected = run_experiment(small_config(rounds=4, k=3, eval_stride=2)).records
        assert run_experiment(config).records == expected

    def test_beta_auto(self):
        config = small_config(beta="auto")
        beta = prepare_run(config)[0].beta
        assert beta > 0
        assert prepare_run(small_config(beta=1.5))[0].beta == 1.5


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

    def test_the_final_offline_ndcg_comes_from_the_final_model(self):
        # 150 rounds is no multiple of the stride: round 100 is the last stride point
        config = small_config(synthetic=small_spec(seed=3), seed=2, rounds=150, eval_stride=100)
        result = run_experiment(config)
        offline = result.column("offline_ndcg")
        assert set(offline[99:149]) == {offline[99]}
        final = evaluate_offline(result.state, holdout_view(load_datasets(config)[2]))
        assert offline[-1] == result.summary["final_offline_ndcg10"] == final
        assert final != offline[99]

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

    def test_infinite_gain_rejected(self):
        # with a zero ledger the boost would be inf * 0 = nan, not the score order
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        with pytest.raises(ValueError, match="finite"):
            prop_control_rank(np.array([0.3, 0.9, 0.1]), ["A", "B", "A"], ledger, float("inf"))


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
        queries.append(QueryCandidates(f"h{qi}", x, grades, ["A"] * n))
    # a second query of an already seen length, later in split order
    q2 = queries[2]
    queries.insert(
        4, QueryCandidates("h2b", q2.feature_matrix()[::-1], q2.grades()[::-1], q2.groups()[::-1])
    )
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

    def test_empty_split_message_names_the_split(self):
        empty = GroupedDataset(queries=[], dimension=3, split="validation")
        with pytest.raises(ValueError, match="^validation split is empty$"):
            holdout_view(empty)

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
        for query in split.queries:
            with pytest.raises(ValueError):
                query.feature_matrix()[0, 0] = 1.0
            with pytest.raises(ValueError):
                query.grades()[0] = 4
        # a transformation replaces whole columns; the view keeps its copies
        split.queries = [q.replace(features=-q.feature_matrix()) for q in split.queries]
        assert evaluate_offline(state, holdout_view(split)) != before
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

    def test_refuses_blocks_out_of_certain_order(self):
        # pairrank's block order rests on the invariant the calibration checks
        partition = BlockPartition(blocks=[[0, 1], [2]])
        for certain, named in (
            ({(0, 2), (1, 2), (2, 0)}, r"\(2, 0\) points from block 1 up to block 0"),
            ({(0, 2)}, r"\(1, 2\) is not a certain pair"),
            ({(0, 2), (1, 2), (1, 1)}, r"\(1, 1\) is a self pair"),
        ):
            with pytest.raises(MalformedPartitionError, match=named):
                sample_block_order(partition, certain, np.random.default_rng(0), True)

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

    def test_the_heuristic_draws_as_the_calibration_fill_does(self):
        # the reference recounts predecessors at every slot;
        # sample_block_order draws through fairswap.draw_slots, which counts
        # once per block and decrements. The same seed must give the same
        # order.
        rng = np.random.default_rng(21)
        with_within_block = 0
        for trial in range(300):
            n = int(rng.integers(6, 31))
            blocks, start = [], 0
            while start < n:
                size = int(rng.integers(1, 7))
                blocks.append(list(range(start, min(start + size, n))))
                start += size
            certain = cross_block_certain(blocks)
            within = set()
            for block in blocks:
                for i, a in enumerate(block):
                    for b in block[i + 1 :]:
                        if rng.random() < 0.4:
                            within.add((a, b) if rng.random() < 0.5 else (b, a))
            with_within_block += bool(within)
            certain |= within

            want, draw = [], np.random.default_rng(trial)
            for block in blocks:
                remaining = list(block)
                while remaining:
                    pool = fewest_predecessors(remaining, remaining, certain)
                    choice = pool[int(draw.integers(len(pool)))] if len(pool) > 1 else pool[0]
                    remaining.remove(choice)
                    want.append(choice)
            partition = BlockPartition(blocks=blocks)
            got = sample_block_order(partition, certain, np.random.default_rng(trial), True)
            assert got == want, (blocks, sorted(within))
        assert with_within_block >= 200


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


class TestStep:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_halves_of_steps_equal_run_prepared(self, algorithm):
        # the run result holds the whole state: a copy taken between the
        # halves plays the second half as the uninterrupted run does
        inputs = prepare_run(small_config(algorithm=algorithm, eval_stride=7, diagnostics=True))[0]
        whole = run_prepared(inputs)
        run = ExperimentResult.initial(inputs)
        for _ in range(30):
            step(inputs, run)
        run = copy.deepcopy(run)
        for _ in range(30):
            step(inputs, run)
        assert run.records == whole.records
        assert run.swap_log == whole.swap_log
        assert run.rng.bit_generator.state == whole.rng.bit_generator.state
        assert run.state.theta.tobytes() == whole.state.theta.tobytes()

    def test_any_error_in_a_round_flushes_the_partial_trace(self, tmp_path, monkeypatch):
        from fairexp import fairswap

        calls = {"n": 0}
        original = fairswap.select_ranking

        def failing_select(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 30:
                raise fairswap.MalformedPartitionError("injected failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(fairswap, "select_ranking", failing_select)
        out = tmp_path / "crash"
        with pytest.raises(fairswap.MalformedPartitionError, match="injected failure"):
            run_experiment(small_config(out_dir=str(out)))
        trace = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert len(trace) == 2 + 29  # header lines plus completed rounds
        assert sorted(f.name for f in out.iterdir()) == ["trace.csv"]

    def test_a_sweep_builds_one_holdout_view_per_split(self, monkeypatch):
        from fairexp import harness

        built = []
        original = harness.holdout_view

        def counting(split):
            built.append(split.split)
            return original(split)

        monkeypatch.setattr(harness, "holdout_view", counting)
        _, results = sweep(small_config(rounds=5))
        assert len(results) == 9
        assert built == ["test", "validation"]


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
        mat = np.concatenate([q.feature_matrix() for q in train.queries])
        assert mat.min() >= 0.0 and mat.max() <= 1.0
        result = run_experiment(config)
        assert len(result.records) == 60

    def test_sweep_without_a_validation_split_fails_before_any_job(self, tmp_path, monkeypatch):
        from fairexp import harness

        monkeypatch.setattr(harness, "_sweep_worker", lambda job: pytest.fail("a job ran"))
        with pytest.raises(ValueError, match="n_validation is 0"):
            sweep(small_config(n_validation=0))
        write_fold(tmp_path / "fold")
        (tmp_path / "fold" / "vali.txt").unlink()
        config = small_config(synthetic=None, dataset_dir=str(tmp_path / "fold"), group_feature=1)
        with pytest.raises(ValueError, match="vali.txt does not exist"):
            sweep(config)

    def test_one_sweep_loads_the_datasets_once(self, tmp_path, monkeypatch):
        from fairexp import harness

        loads, runs = [], []
        original = harness.run_prepared

        def counting_load(config):
            loads.append(config)
            return load_datasets(config)

        def recording(inputs):
            runs.append((inputs.config.lam, inputs.config.alpha, inputs.config.out_dir))
            return original(inputs)

        monkeypatch.setattr(harness, "load_datasets", counting_load)
        monkeypatch.setattr(harness, "run_prepared", recording)
        _, results = sweep(small_config(rounds=5, out_dir=str(tmp_path)), workers=1)
        assert len(results) == 9
        assert len(loads) == 1
        # every job runs on the shared inputs with its own grid values and no outputs
        assert runs == [(p["lam"], p["alpha"], None) for p, _ in results]

    def test_the_round_loop_receives_no_validation_split(self, monkeypatch):
        from fairexp import harness

        received = []
        original = harness.run_prepared

        def recording(inputs):
            splits = [v.split for v in inputs if isinstance(v, GroupedDataset)]
            received.append((splits, inputs.holdout.n_queries))
            return original(inputs)

        monkeypatch.setattr(harness, "run_prepared", recording)
        run_experiment(small_config(rounds=5))
        sweep(small_config(rounds=5))
        # a run holds out the n_test queries, a sweep job the n_validation ones
        assert received == [(["train"], 10)] + [(["train"], 5)] * 9

    def test_sweep_with_two_workers_matches_serial(self):
        config = small_config(rounds=10)
        serial = sweep(config, workers=1)
        parallel = sweep(config, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("algorithm, jobs", [("fairexp_pairrank", 9), ("random", 1)])
    def test_the_pool_gets_no_more_workers_than_jobs(self, monkeypatch, algorithm, jobs):
        # a stand-in pool records its size and runs the jobs in this process
        from fairexp import harness

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        config = small_config(rounds=3, algorithm=algorithm)
        swept = sweep(config, workers=64)
        assert len(swept[1]) == jobs
        # a grid of one job runs serially, without a pool
        assert sizes == ([jobs] if jobs > 1 else [])
        assert swept == sweep(config, workers=1)


def _svmlight(rng, prefix, n_queries, n_docs, fids, fixed=None):
    """SVMLight lines naming only the feature ids ``fids`` (values in (0, 1],
    so none is left out as zero); ``fixed`` maps a feature id to one value
    for every document."""
    lines = []
    for qi in range(n_queries):
        for _ in range(n_docs):
            values = {fid: float(rng.uniform(0.01, 1.0)) for fid in fids}
            values.update(fixed or {})
            feats = " ".join(f"{fid}:{v!r}" for fid, v in values.items())
            lines.append(f"{int(rng.integers(0, 5))} qid:{prefix}{qi} {feats}")
    return "\n".join(lines) + "\n"


def write_fold(root, test_fixed=None):
    """Train names feature ids 1..4, validation 1..2 and test 1..3."""
    rng = np.random.default_rng(17)
    root.mkdir()
    (root / "train.txt").write_text(_svmlight(rng, "t", 8, 6, (1, 2, 3, 4)), encoding="utf-8")
    (root / "vali.txt").write_text(_svmlight(rng, "v", 3, 5, (1, 2)), encoding="utf-8")
    test = _svmlight(rng, "h", 4, 5, (1, 2, 3), fixed=test_fixed)
    (root / "test.txt").write_text(test, encoding="utf-8")


class TestFileFolds:
    def _config(self, root, **kwargs):
        return small_config(synthetic=None, dataset_dir=str(root), group_feature=1, **kwargs)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_split_that_omits_the_last_ids_runs_to_the_end(self, tmp_path, algorithm):
        write_fold(tmp_path / "fold")
        config = self._config(tmp_path / "fold", algorithm=algorithm)
        train, valid, test = load_datasets(config)
        assert train.dimension == valid.dimension == test.dimension == 4
        assert not test.queries[0].feature_matrix()[:, 3].any()
        assert not valid.queries[0].feature_matrix()[:, 2:].any()
        result = run_experiment(config)
        assert len(result.records) == 60

    def test_hold_out_splits_take_the_train_group_cut(self, tmp_path):
        # a constant group feature cannot be median-cut, but takes train's cut
        write_fold(tmp_path / "fold", test_fixed={1: 0.5})
        train, valid, test = load_datasets(self._config(tmp_path / "fold"))
        cut = train.metadata["group_cut"]
        assert valid.metadata["group_cut"] == test.metadata["group_cut"] == cut
        for split in (valid, test):
            for q in split.queries:
                expected = np.where(q.feature_matrix()[:, 0] > cut, "A", "B")
                assert q.groups().tolist() == expected.tolist()
        assert test.queries[0].counts == ((5, 0) if 0.5 > cut else (0, 5))

    def test_minmax_scales_every_split_with_the_train_bounds(self):
        raw = load_datasets(small_config())
        scaled = load_datasets(small_config(minmax=True))
        train_raw = np.concatenate([q.feature_matrix() for q in raw[0].queries])
        lo, hi = train_raw.min(axis=0), train_raw.max(axis=0)
        for split_raw, split_scaled in zip(raw, scaled):
            lo_used, hi_used = split_scaled.metadata["minmax_bounds"]
            np.testing.assert_array_equal(lo_used, lo)
            np.testing.assert_array_equal(hi_used, hi)
            for q_raw, q_scaled in zip(split_raw.queries, split_scaled.queries):
                np.testing.assert_array_equal(
                    q_scaled.feature_matrix(), (q_raw.feature_matrix() - lo) / (hi - lo)
                )


def test_skewed_groups_still_run():
    # heavy imbalance forces fallback templates; the run must complete
    config = small_config(
        synthetic=small_spec(group_balance=0.9, seed=6), rounds=80, epsilon=0.05
    )
    result = run_experiment(config)
    assert len(result.records) == 80
    assert result.summary["ledger_violations"] >= 0
    # templates come from each query's own group counts, so one always calibrates
    assert result.flagged_rounds == []


def test_short_queries_truncate_k():
    config = small_config(synthetic=small_spec(docs_per_query=3), k=8)
    result = run_experiment(config)
    assert len(result.records) == 60
    assert result.flagged_rounds == []
    assert result.summary["flagged_rounds"] == 0


def test_a_failed_calibration_ends_the_run(monkeypatch):
    # no round serves an unconstrained ranking in place of a calibrated one
    from fairexp import fairswap

    def failing_select(*args, **kwargs):
        raise fairswap.InfeasibleTemplateError("no template calibrates")

    monkeypatch.setattr(fairswap, "select_ranking", failing_select)
    with pytest.raises(fairswap.InfeasibleTemplateError, match="no template calibrates"):
        run_experiment(small_config(rounds=3))


@pytest.mark.parametrize(
    "algorithm, alpha, seed, rounds",
    [("fairexp_pairrank", 0.1, 4, 1500), ("pairrank", 1.0, 6, 300)],
)
def test_contradicting_certain_orders_merge_blocks(algorithm, alpha, seed, rounds):
    # the bench's paper_default settings; certain orders contradict each
    # other through uncertain pairs in round 5 at spec seed 4 (4 beats 1 and
    # 1 beats 0, while uncertain pairs join 0 and 4) and in round 21 at spec
    # seed 6 (9 beats 11 and 11 beats 8), so the run must merge those blocks
    config = ExperimentConfig(
        algorithm=algorithm,
        synthetic=SyntheticSpec(
            n_queries=50, docs_per_query=12, d=8, grade_noise=0.1, seed=seed
        ),
        rounds=rounds,
        k=5,
        lam=0.1,
        alpha=alpha,
        beta=1.0,
        epsilon=0.1,
        click_model="perfect",
        seed=1000 + seed,
    )
    result = run_experiment(config)
    assert len(result.records) == rounds
