import math

import numpy as np
import pytest

from fairexp.fairness import (
    ExposureError,
    TemplateError,
    UnfairnessLedger,
    enumerate_templates,
    inverse_rank_model,
    load_exposure_table,
    log_discount_model,
    make_exposure_model,
    make_template,
    projected_unfairness,
    qualified_templates,
    record,
    table_model,
    utility_ratio_beta,
)
from fairexp.data import SyntheticSpec, synthetic_splits


class TestExposure:
    def test_log_discount_values(self):
        m = log_discount_model(5)
        assert m.values[0] == pytest.approx(1.0)
        assert m.values[2] == pytest.approx(0.5)

    def test_inverse_rank(self):
        assert inverse_rank_model(5).values[3] == pytest.approx(0.25)

    def test_table_must_be_positive_nonincreasing(self):
        with pytest.raises(ExposureError):
            table_model([0.5, 0.6])
        with pytest.raises(ExposureError):
            table_model([0.5, 0.0])
        m = table_model([0.9, 0.4, 0.4])
        assert m.values == (0.9, 0.4, 0.4)

    def test_load_table_file(self, tmp_path):
        path = tmp_path / "exposure.txt"
        path.write_text("# rank prob\n2 0.5\n1 1.0\n3 0.25\n", encoding="utf-8")
        m = load_exposure_table(path)
        assert m.values == (1.0, 0.5, 0.25)
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1.0\n3 0.5\n", encoding="utf-8")
        with pytest.raises(ExposureError):
            load_exposure_table(bad)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_load_table_rejects_non_finite_values(self, tmp_path, value):
        # NaN compares false both ways, so only an explicit finiteness check stops it
        path = tmp_path / "exposure.txt"
        path.write_text(f"1 1.0\n2 {value}\n3 0.5\n", encoding="utf-8")
        with pytest.raises(ExposureError, match=f"exposure {value} must be finite and positive"):
            load_exposure_table(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1.0\nx 0.5\n", "line 2: rank 'x' is not an integer"),
            ("1 1.0\n2 abc\n", "line 2: probability 'abc' is not a number"),
            ("# rank prob\n1 1.0 0.5\n", "line 2: expected '<rank> <probability>'"),
            ("1 1.0\n3 0.5\n", "ranks must be contiguous starting at 1"),
        ],
        ids=["rank", "probability", "columns", "contiguous"],
    )
    def test_load_table_errors_name_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "exposure.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ExposureError) as caught:
            load_exposure_table(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_unknown_kind(self):
        with pytest.raises(ExposureError):
            make_exposure_model("zipf", 5)


class TestTemplates:
    def test_k2_full_enumeration(self):
        templates = enumerate_templates(2, (2, 2), log_discount_model(2))
        placements = {t.placement for t in templates}
        assert placements == {("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")}

    def test_availability_filter(self):
        templates = enumerate_templates(3, (1, 3), log_discount_model(3))
        assert len(templates) == 4
        assert all(t.placement.count("A") <= 1 for t in templates)

    def test_k10_is_1024(self):
        templates = enumerate_templates(10, (10, 10), log_discount_model(10))
        assert len(templates) == 1024

    def test_cardinality_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            avail_a = int(rng.integers(0, 10))
            avail_b = int(rng.integers(0, 10))
            if avail_a + avail_b < k:
                with pytest.raises(TemplateError):
                    enumerate_templates(k, (avail_a, avail_b), log_discount_model(k))
                continue
            templates = enumerate_templates(k, (avail_a, avail_b), log_discount_model(k))
            expected = sum(
                math.comb(k, a)
                for a in range(max(0, k - avail_b), min(k, avail_a) + 1)
            )
            assert len(templates) == expected

    def test_exposure_split_positions(self):
        m = log_discount_model(5)
        t = make_template(("A", "A", "B", "A", "B"), m)
        assert t.exposure_a == pytest.approx(m.values[0] + m.values[1] + m.values[3], abs=1e-15)
        assert t.exposure_b == pytest.approx(m.values[2] + m.values[4], abs=1e-15)

    def test_exposure_total_constant(self):
        m = log_discount_model(6)
        total = sum(m.values)
        for t in enumerate_templates(6, (6, 6), m):
            assert t.exposure_a + t.exposure_b == pytest.approx(total, abs=1e-12)


class TestProjection:
    def test_hand_value(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        t = make_template(("A", "A", "B", "A", "B"), log_discount_model(5))
        v = projected_unfairness(ledger, t)
        assert v == pytest.approx(1.1747, abs=1e-4)
        exact = (1.0 + 1 / np.log2(3) + 1 / np.log2(5)) - (0.5 + 1 / np.log2(6))
        assert v == pytest.approx(exact, abs=1e-12)

    def test_balance_point_beta(self):
        m = log_discount_model(4)
        t = make_template(("A", "B", "B", "A"), m)
        beta = t.exposure_a / t.exposure_b
        ledger = UnfairnessLedger(beta=beta, epsilon=0.1)
        assert projected_unfairness(ledger, t) == pytest.approx(0.0, abs=1e-15)

    def test_all_a_template(self):
        m = log_discount_model(3)
        t = make_template(("A", "A", "A"), m)
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        assert projected_unfairness(ledger, t) == pytest.approx(sum(m.values))


class TestQualification:
    def _templates(self, k=3):
        return enumerate_templates(k, (k, k), log_discount_model(k))

    def test_huge_epsilon_keeps_all(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=1e9)
        qualified, fallback = qualified_templates(ledger, self._templates())
        assert len(qualified) == 8 and not fallback

    def test_tiny_epsilon_falls_back_to_minimizers(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=1e-12)
        templates = self._templates()
        qualified, fallback = qualified_templates(ledger, templates)
        assert fallback
        best = min(abs(projected_unfairness(ledger, t)) for t in templates)
        assert all(
            abs(projected_unfairness(ledger, t)) == best for t in qualified
        )
        assert len(qualified) >= 1

    def test_nonfallback_templates_all_within_epsilon(self):
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.6)
        qualified, fallback = qualified_templates(ledger, self._templates(5))
        assert not fallback
        for t in qualified:
            assert abs(projected_unfairness(ledger, t)) <= 0.6

    def test_negative_ledger_skews_toward_a(self):
        # after B was overexposed, every qualified template must push back
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.3)
        ledger.cumulative = -1.5
        qualified, fallback = qualified_templates(ledger, self._templates(5))
        for t in qualified:
            contribution = t.exposure_a - ledger.beta * t.exposure_b
            assert contribution >= -ledger.epsilon - ledger.cumulative - 1e-12


class TestLedger:
    def test_alternate_rounds_cancel(self):
        m = log_discount_model(2)
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        record(ledger, make_template(("A", "B"), m))
        record(ledger, make_template(("B", "A"), m))
        assert ledger.cumulative == 0.0

    def test_mirror_k5_cancels(self):
        m = log_discount_model(5)
        ledger = UnfairnessLedger(beta=1.0, epsilon=0.1)
        record(ledger, make_template(("A", "A", "B", "A", "B"), m))
        record(ledger, make_template(("B", "B", "A", "B", "A"), m))
        assert ledger.cumulative == 0.0

    def test_additivity(self):
        m = log_discount_model(3)
        t1 = make_template(("A", "B", "B"), m)
        t2 = make_template(("B", "A", "A"), m)
        one = UnfairnessLedger(beta=0.8, epsilon=0.1)
        record(record(one, t1), t2)
        two = UnfairnessLedger(beta=0.8, epsilon=0.1)
        record(two, t1)
        record(two, t2)
        assert one.cumulative == two.cumulative
        assert one.history == two.history

    def test_telescoping(self):
        rng = np.random.default_rng(6)
        m = log_discount_model(4)
        ledger = UnfairnessLedger(beta=1.3, epsilon=0.1)
        for _ in range(200):
            placement = tuple(rng.choice(["A", "B"], size=4))
            record(ledger, make_template(placement, m))
        assert ledger.cumulative == sum(ledger.history)

    def test_parameter_validation(self):
        nan = float("nan")
        for beta, epsilon in [(0.0, 0.1), (1.0, 0.0), (nan, 0.1), (1.0, nan), (nan, nan)]:
            with pytest.raises(ValueError):
                UnfairnessLedger(beta=beta, epsilon=epsilon)


def test_utility_ratio_beta():
    ds = synthetic_splits(SyntheticSpec(n_queries=50, docs_per_query=10, d=4, seed=3), 0, 0)[0]
    beta = utility_ratio_beta(ds)
    grades = np.concatenate([q.grades() for q in ds.queries])
    groups = np.concatenate([q.groups() for q in ds.queries])
    assert beta == pytest.approx(np.mean(grades[groups == "A"]) / np.mean(grades[groups == "B"]))
