import numpy as np
import pytest

from fairexp.data import (
    DegenerateGroupingError,
    EmptyDatasetError,
    GROUP_A,
    GROUP_B,
    ParseError,
    SyntheticSpec,
    ValidationError,
    assign_groups,
    load_svmlight,
    minmax_scale,
    parse_svmlight,
    serialize_svmlight,
    synthetic_splits,
)


class TestParse:
    def test_single_line(self):
        ds = parse_svmlight("2 qid:1 1:0.5 3:1.0")
        assert len(ds) == 1
        assert ds.dimension == 3
        doc = ds.queries[0].documents[0]
        assert doc.grade == 2
        np.testing.assert_array_equal(doc.features, [0.5, 0.0, 1.0])

    def test_groups_by_qid(self):
        ds = parse_svmlight("1 qid:1 1:0.1\n2 qid:2 1:0.2")
        assert len(ds) == 2
        assert [q.query_id for q in ds.queries] == ["1", "2"]
        assert all(len(q) == 1 for q in ds.queries)

    def test_file_order_preserved(self):
        text = "0 qid:7 1:1.0\n3 qid:7 1:2.0\n1 qid:7 1:3.0"
        ds = parse_svmlight(text)
        assert [d.grade for d in ds.queries[0].documents] == [0, 3, 1]

    def test_malformed_grade_is_parse_error_with_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_svmlight("x qid:1 1:0.5")

    def test_out_of_range_grade_is_validation_error(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_svmlight("1 qid:1 1:0.5\n7 qid:1 1:0.5")

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            parse_svmlight("")
        with pytest.raises(EmptyDatasetError):
            parse_svmlight("  \n# only a comment\n")

    def test_comments_stripped(self):
        ds = parse_svmlight("4 qid:1 1:1.5 # docid=GX001")
        assert ds.queries[0].documents[0].grade == 4

    def test_malformed_feature_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_svmlight("1 qid:1 foo")

    def test_sparse_defaults_to_zero(self):
        ds = parse_svmlight("1 qid:1 5:2.0\n1 qid:1 2:1.0")
        assert ds.dimension == 5
        np.testing.assert_array_equal(ds.queries[0].documents[1].features, [0, 1, 0, 0, 0])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(11)
        lines = []
        for qid in range(1, 6):
            for _ in range(rng.integers(1, 5)):
                grade = rng.integers(0, 5)
                feats = " ".join(
                    f"{fid}:{float(rng.normal())!r}" for fid in range(1, 7) if rng.random() < 0.7
                )
                lines.append(f"{grade} qid:{qid} {feats}".strip())
        original = parse_svmlight("\n".join(lines))
        recovered = parse_svmlight(serialize_svmlight(original))
        assert recovered.dimension == original.dimension
        assert len(recovered) == len(original)
        for q1, q2 in zip(original.queries, recovered.queries):
            assert q1.query_id == q2.query_id
            for d1, d2 in zip(q1.documents, q2.documents):
                assert d1.grade == d2.grade
                np.testing.assert_array_equal(d1.features, d2.features)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("1 qid:1 1:0.5\n", encoding="utf-8")
        ds = load_svmlight(path)
        assert len(ds) == 1


class TestAssignGroups:
    def _dataset(self, values):
        text = "\n".join(f"1 qid:1 1:{v}" for v in values)
        return parse_svmlight(text)

    def test_median_split(self):
        ds = assign_groups(self._dataset([1, 2, 3, 4]), 1)
        assert [d.group for d in ds.queries[0].documents] == ["B", "B", "A", "A"]
        assert ds.metadata["group_cut"] == 2.5

    def test_threshold(self):
        ds = assign_groups(self._dataset([-1, 1]), 1, strategy="threshold", threshold=0.0)
        assert [d.group for d in ds.queries[0].documents] == ["B", "A"]

    def test_ties_go_to_b(self):
        ds = assign_groups(self._dataset([1, 1, 2, 2]), 1)
        assert [d.group for d in ds.queries[0].documents] == ["B", "B", "A", "A"]

    def test_degenerate_median(self):
        with pytest.raises(DegenerateGroupingError):
            assign_groups(self._dataset([5, 5, 5]), 1)

    def test_idempotent_given_recorded_cut(self):
        ds = assign_groups(self._dataset([1, 2, 3, 4, 9]), 1)
        first = [d.group for d in ds.queries[0].documents]
        cut = ds.metadata["group_cut"]
        assign_groups(ds, 1, strategy="threshold", threshold=cut)
        assert [d.group for d in ds.queries[0].documents] == first

    def test_bad_feature_id(self):
        with pytest.raises(ValidationError):
            assign_groups(self._dataset([1, 2]), 9)


class TestSynthetic:
    def test_determinism(self):
        spec = SyntheticSpec(n_queries=5, docs_per_query=8, d=4, seed=42, grade_noise=0.3)
        a = synthetic_splits(spec, 0, 0)[0]
        b = synthetic_splits(spec, 0, 0)[0]
        np.testing.assert_array_equal(a.true_theta, b.true_theta)
        for qa, qb in zip(a.queries, b.queries):
            for da, db in zip(qa.documents, qb.documents):
                np.testing.assert_array_equal(da.features, db.features)
                assert da.grade == db.grade and da.group == db.group

    def test_top_score_gets_top_grade(self):
        spec = SyntheticSpec(n_queries=20, docs_per_query=7, d=5, seed=1, grade_noise=0.0)
        ds = synthetic_splits(spec, 0, 0)[0]
        for q in ds.queries:
            scores = q.feature_matrix() @ ds.true_theta
            assert q.documents[int(np.argmax(scores))].grade == 4

    def test_no_inversions_without_noise(self):
        spec = SyntheticSpec(n_queries=15, docs_per_query=9, d=4, seed=5, grade_noise=0.0)
        ds = synthetic_splits(spec, 0, 0)[0]
        for q in ds.queries:
            scores = q.feature_matrix() @ ds.true_theta
            order = np.argsort(-scores)
            grades = q.grades()[order]
            assert np.all(np.diff(grades) <= 0)

    def test_group_balance_concentration(self):
        spec = SyntheticSpec(n_queries=1000, docs_per_query=10, d=3, seed=9, group_balance=0.5)
        ds = synthetic_splits(spec, 0, 0)[0]
        labels = [d.group for d in ds.all_documents()]
        frac_a = labels.count(GROUP_A) / len(labels)
        assert abs(frac_a - 0.5) < 0.02

    def test_theta_norm_recorded(self):
        spec = SyntheticSpec(n_queries=2, docs_per_query=4, d=6, seed=3, theta_norm=2.5)
        ds = synthetic_splits(spec, 0, 0)[0]
        assert ds.metadata["theta_norm"] == 2.5
        assert np.linalg.norm(ds.true_theta) == pytest.approx(2.5)

    def test_features_in_unit_ball(self):
        spec = SyntheticSpec(n_queries=10, docs_per_query=10, d=4, seed=8)
        ds = synthetic_splits(spec, 0, 0)[0]
        norms = [np.linalg.norm(d.features) for d in ds.all_documents()]
        assert max(norms) <= 1.0

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=1, d=4), 0, 0)
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=4, d=1), 0, 0)
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=4, d=3, group_balance=1.5), 0, 0)

    def test_splits_share_theta(self):
        spec = SyntheticSpec(n_queries=4, docs_per_query=5, d=4, seed=2)
        train, valid, test = synthetic_splits(spec, n_validation=3, n_test=2)
        np.testing.assert_array_equal(train.true_theta, valid.true_theta)
        np.testing.assert_array_equal(train.true_theta, test.true_theta)
        assert (len(train), len(valid), len(test)) == (4, 3, 2)
        assert (train.split, valid.split, test.split) == ("train", "validation", "test")

    def test_counts_match_labels(self):
        spec = SyntheticSpec(n_queries=3, docs_per_query=6, d=3, seed=4)
        ds = synthetic_splits(spec, 0, 0)[0]
        for q in ds.queries:
            n_a, n_b = q.counts
            assert n_a + n_b == len(q)
            assert n_a == sum(1 for d in q.documents if d.group == GROUP_A)


def test_minmax_scale():
    ds = parse_svmlight("1 qid:1 1:2.0 2:5.0\n1 qid:1 1:4.0 2:5.0")
    minmax_scale(ds)
    mat = np.stack([d.features for d in ds.all_documents()])
    np.testing.assert_allclose(mat[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(mat[:, 1], [0.0, 0.0])  # constant feature pinned at zero
