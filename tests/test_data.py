import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairexp.data import (
    DegenerateGroupingError,
    EmptyDatasetError,
    GROUP_A,
    GROUP_B,
    ParseError,
    QueryCandidates,
    SyntheticSpec,
    ValidationError,
    assign_groups,
    load_svmlight,
    minmax_scale,
    parse_svmlight,
    serialize_svmlight,
    synthetic_splits,
    widen,
)


class TestParse:
    def test_single_line(self):
        ds = parse_svmlight("2 qid:1 1:0.5 3:1.0")
        assert len(ds) == 1
        assert ds.dimension == 3
        q = ds.queries[0]
        assert q.grades().tolist() == [2]
        np.testing.assert_array_equal(q.feature_matrix(), [[0.5, 0.0, 1.0]])

    def test_groups_by_qid(self):
        ds = parse_svmlight("1 qid:1 1:0.1\n2 qid:2 1:0.2")
        assert len(ds) == 2
        assert [q.query_id for q in ds.queries] == ["1", "2"]
        assert all(len(q) == 1 for q in ds.queries)

    def test_file_order_preserved(self):
        text = "0 qid:7 1:1.0\n3 qid:7 1:2.0\n1 qid:7 1:3.0"
        ds = parse_svmlight(text)
        assert ds.queries[0].grades().tolist() == [0, 3, 1]

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
        assert ds.queries[0].grades().tolist() == [4]

    def test_malformed_feature_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_svmlight("1 qid:1 foo")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_is_parse_error_with_line(self, value):
        with pytest.raises(ParseError, match="line 2: feature 2 has non-finite value"):
            parse_svmlight(f"1 qid:1 1:0.5 2:0.1\n0 qid:1 1:0.5 2:{value}")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0_1 qid:1 1_0:0.5 2:1_0.5", "grade '0_1' is not an integer"),
            ("1 qid:1 1_0:0.5", "malformed feature token '1_0:0.5'"),
            ("1 qid:1 2:1_0.5", "malformed feature token '2:1_0.5'"),
            ("\u0661 qid:1 1:0.5", "grade '\u0661' is not an integer"),
            ("1 qid:1 \uff12:0.5", "malformed feature token '\uff12:0.5'"),
            ("1 qid:1 2:\u0661.5", "malformed feature token '2:\u0661.5'"),
        ],
        ids=["grade", "feature_id", "value", "grade_arabic", "feature_id_fullwidth", "value_arabic"],
    )
    def test_separators_and_non_ascii_digits_are_refused(self, line, message):
        # int() and float() read both: '1_0' as 10 and Arabic-Indic '\u0661' as 1
        with pytest.raises(ParseError) as caught:
            parse_svmlight(f"1 qid:1 1:0.5\n{line}")
        assert str(caught.value) == f"line 2: {message}"

    def test_repeated_feature_id_is_parse_error_with_line(self):
        with pytest.raises(ParseError, match="line 2: feature id 1 appears twice"):
            parse_svmlight("1 qid:1 1:0.5\n0 qid:1 1:0.5 2:0.3 1:0.7")

    def test_sparse_defaults_to_zero(self):
        ds = parse_svmlight("1 qid:1 5:2.0\n1 qid:1 2:1.0")
        assert ds.dimension == 5
        np.testing.assert_array_equal(ds.queries[0].feature_matrix()[1], [0, 1, 0, 0, 0])

    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["1", "7", "q-2", "x.y"]),
                st.integers(0, 4),
                st.dictionaries(
                    st.integers(1, 8),
                    st.floats(allow_nan=False, allow_infinity=False),
                    max_size=8,
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_roundtrip_identity(self, lines):
        text = "\n".join(
            f"{grade} qid:{qid} " + " ".join(f"{fid}:{v!r}" for fid, v in feats.items())
            for qid, grade, feats in lines
        )
        original = parse_svmlight(text)
        recovered = parse_svmlight(serialize_svmlight(original))
        assert recovered.dimension == original.dimension
        assert [q.query_id for q in recovered.queries] == [q.query_id for q in original.queries]
        for q1, q2 in zip(original.queries, recovered.queries):
            assert q2.feature_matrix().shape == q1.feature_matrix().shape
            assert q2.feature_matrix().tobytes() == q1.feature_matrix().tobytes()
            assert q2.grades().tolist() == q1.grades().tolist()
            assert q2.groups().tolist() == q1.groups().tolist() == [None] * len(q1)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("1 qid:1 1:0.5\n", encoding="utf-8")
        ds = load_svmlight(path)
        assert len(ds) == 1

    @pytest.mark.parametrize(
        "content, error, message",
        [
            (b"1 qid:1 1:0.5\n0 qid:1 2:nan\n", ParseError, "line 2: feature 2 has non-finite value 'nan'"),
            (b"7 qid:1 1:0.5\n", ValidationError, "line 1: grade 7 outside 0..4"),
            (b"# only a comment\n", EmptyDatasetError, "input contains no documents"),
            (b"1 qid:1 1:\xff\n", ParseError, "not UTF-8 text"),
        ],
    )
    def test_load_errors_name_the_file(self, tmp_path, content, error, message):
        path = tmp_path / "test.txt"
        path.write_bytes(content)
        with pytest.raises(error) as info:
            load_svmlight(path)
        assert str(info.value).startswith(f"{path}: {message}")


class TestColumns:
    def test_columns_are_read_only(self):
        q = parse_svmlight("1 qid:1 1:0.5 2:1.0\n3 qid:1 2:2.0").queries[0]
        for column in (q.feature_matrix(), q.grades(), q.groups()):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_writeable_inputs_are_copied(self):
        x = np.ones((2, 3))
        grades = np.array([1, 2])
        q = QueryCandidates("q", x, grades, ["A", "B"])
        x[:] = 5.0
        grades[:] = 0
        np.testing.assert_array_equal(q.feature_matrix(), np.ones((2, 3)))
        assert q.grades().tolist() == [1, 2]
        assert x.flags.writeable and grades.flags.writeable

    def test_replace_shares_the_other_columns(self):
        q = QueryCandidates("q", np.ones((2, 3)), [1, 2], ["A", "B"])
        r = q.replace(groups=["B", "B"])
        assert r.feature_matrix() is q.feature_matrix() and r.grades() is q.grades()
        assert r.groups().tolist() == ["B", "B"] and r.counts == (0, 2)
        assert q.groups().tolist() == ["A", "B"] and q.counts == (1, 1)

    @pytest.mark.parametrize(
        "features, grades, groups",
        [
            (np.ones(3), [1, 2, 3], None),  # features not (n, d)
            (np.ones((3, 2)), [1, 2], None),  # two grades for three rows
            (np.ones((2, 2)), [[1, 2]], None),  # grades not (n,)
            (np.ones((2, 2)), [1, 2], ["A"]),  # one group for two rows
        ],
    )
    def test_mismatched_columns_are_rejected(self, features, grades, groups):
        with pytest.raises(ValidationError):
            QueryCandidates("q", features, grades, groups)

    def test_documents_are_rows_of_the_columns(self):
        spec = SyntheticSpec(n_queries=2, docs_per_query=4, d=3, seed=6)
        q = synthetic_splits(spec, 0, 0)[0].queries[0]
        docs = q.documents
        assert [d.grade for d in docs] == q.grades().tolist()
        assert all(type(d.grade) is int for d in docs)
        assert [d.group for d in docs] == q.groups().tolist()
        np.testing.assert_array_equal(np.stack([d.features for d in docs]), q.feature_matrix())
        with pytest.raises(ValueError):
            docs[0].features[0] = 1.0


class TestAssignGroups:
    def _dataset(self, values):
        text = "\n".join(f"1 qid:1 1:{v}" for v in values)
        return parse_svmlight(text)

    def test_median_split(self):
        ds = assign_groups(self._dataset([1, 2, 3, 4]), 1)
        assert ds.queries[0].groups().tolist() == ["B", "B", "A", "A"]
        assert ds.metadata["group_cut"] == 2.5

    def test_threshold(self):
        ds = assign_groups(self._dataset([-1, 1]), 1, strategy="threshold", threshold=0.0)
        assert ds.queries[0].groups().tolist() == ["B", "A"]

    def test_ties_go_to_b(self):
        ds = assign_groups(self._dataset([1, 1, 2, 2]), 1)
        assert ds.queries[0].groups().tolist() == ["B", "B", "A", "A"]

    def test_degenerate_median(self):
        with pytest.raises(DegenerateGroupingError):
            assign_groups(self._dataset([5, 5, 5]), 1)

    def test_idempotent_given_recorded_cut(self):
        ds = assign_groups(self._dataset([1, 2, 3, 4, 9]), 1)
        first = ds.queries[0].groups().tolist()
        cut = ds.metadata["group_cut"]
        assign_groups(ds, 1, strategy="threshold", threshold=cut)
        assert ds.queries[0].groups().tolist() == first

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
            assert qa.feature_matrix().tobytes() == qb.feature_matrix().tobytes()
            assert qa.grades().tolist() == qb.grades().tolist()
            assert qa.groups().tolist() == qb.groups().tolist()

    def test_top_score_gets_top_grade(self):
        spec = SyntheticSpec(n_queries=20, docs_per_query=7, d=5, seed=1, grade_noise=0.0)
        ds = synthetic_splits(spec, 0, 0)[0]
        for q in ds.queries:
            scores = q.feature_matrix() @ ds.true_theta
            assert q.grades()[int(np.argmax(scores))] == 4

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
        labels = np.concatenate([q.groups() for q in ds.queries])
        frac_a = np.mean(labels == GROUP_A)
        assert abs(frac_a - 0.5) < 0.02

    def test_theta_norm_recorded(self):
        spec = SyntheticSpec(n_queries=2, docs_per_query=4, d=6, seed=3, theta_norm=2.5)
        ds = synthetic_splits(spec, 0, 0)[0]
        assert ds.metadata["theta_norm"] == 2.5
        assert np.linalg.norm(ds.true_theta) == pytest.approx(2.5)

    def test_features_in_unit_ball(self):
        spec = SyntheticSpec(n_queries=10, docs_per_query=10, d=4, seed=8)
        ds = synthetic_splits(spec, 0, 0)[0]
        norms = np.linalg.norm(np.concatenate([q.feature_matrix() for q in ds.queries]), axis=1)
        assert max(norms) <= 1.0

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=1, d=4), 0, 0)
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=4, d=1), 0, 0)
        with pytest.raises(ValidationError):
            synthetic_splits(SyntheticSpec(n_queries=1, docs_per_query=4, d=3, group_balance=1.5), 0, 0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("theta_norm", math.inf, "theta_norm must be finite and positive"),
            ("theta_norm", math.nan, "theta_norm must be finite and positive"),
            ("theta_norm", 0.0, "theta_norm must be finite and positive"),
            ("seed", -1, "synthetic seed must be >= 0"),
        ],
        ids=["inf_theta_norm", "nan_theta_norm", "zero_theta_norm", "negative_seed"],
    )
    def test_invalid_spec_names_the_field(self, field, value, message):
        spec = SyntheticSpec(n_queries=1, docs_per_query=4, d=3, **{field: value})
        with pytest.raises(ValidationError, match=message):
            synthetic_splits(spec, 0, 0)

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
            assert n_a == q.groups().tolist().count(GROUP_A)


def test_minmax_scale():
    ds = parse_svmlight("1 qid:1 1:2.0 2:5.0\n1 qid:1 1:4.0 2:5.0")
    minmax_scale(ds)
    mat = ds.queries[0].feature_matrix()
    np.testing.assert_allclose(mat[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(mat[:, 1], [0.0, 0.0])  # constant feature pinned at zero
    lo, hi = ds.metadata["minmax_bounds"]
    np.testing.assert_array_equal(lo, [2.0, 5.0])
    np.testing.assert_array_equal(hi, [4.0, 5.0])


def test_minmax_scale_with_given_bounds():
    ds = parse_svmlight("1 qid:1 1:1.0 2:5.0\n1 qid:1 1:6.0 2:7.0")
    minmax_scale(ds, (np.array([2.0, 5.0]), np.array([4.0, 5.0])))
    np.testing.assert_array_equal(ds.queries[0].feature_matrix(), [[-0.5, 0.0], [2.0, 2.0]])


def test_widen_pads_zero_features():
    ds = parse_svmlight("1 qid:1 1:1.0 2:5.0\n0 qid:2 1:6.0")
    widen(ds, 4)
    assert ds.dimension == 4
    np.testing.assert_array_equal(ds.queries[0].feature_matrix(), [[1.0, 5.0, 0.0, 0.0]])
    np.testing.assert_array_equal(ds.queries[1].feature_matrix(), [[6.0, 0.0, 0.0, 0.0]])
    assert not ds.queries[1].feature_matrix().flags.writeable
    with pytest.raises(ValidationError):
        widen(ds, 3)
