"""Tests for the reference evaluator, sweep machinery, and serialization."""

import json
import math

import pytest

from dmnll import (
    BenchRecord,
    CountVector,
    DimensionMismatchError,
    DomainError,
    ExperimentConfig,
    Method,
    ResourceLimitError,
    accuracy_defaults,
    bench,
    dmn_loglik_exact,
    reference_loglik,
    run_accuracy_experiment,
    run_runtime_experiment,
    runtime_defaults,
)
from dmnll.bench import CSV_HEADER, canonical_json, records_to_csv, records_to_json
from dmnll.core import MAX_TOTAL_COUNT


class TestReference:
    def test_closed_form(self):
        assert reference_loglik((1.0, 1.0), (1, 1)) == pytest.approx(
            -math.log(6), abs=1e-15
        )

    def test_empty_counts(self):
        assert reference_loglik((3.0, 0.5), (0, 0)) == 0.0

    def test_checks_before_any_mpmath_work(self, monkeypatch):
        huge = CountVector([MAX_TOTAL_COUNT + 1])
        with pytest.raises(ResourceLimitError) as per_row:
            dmn_loglik_exact((1.0,), huge)
        monkeypatch.setattr(bench, "mpmath", None)
        with pytest.raises(DimensionMismatchError):
            reference_loglik((1.0, 2.0), (1, 2, 3))
        with pytest.raises(ResourceLimitError) as reference:
            reference_loglik((1.0,), huge)
        assert str(reference.value) == str(per_row.value)

    def test_agrees_with_lgamma_identity(self):
        # independent high-precision identity: the reference must equal the
        # gamma-ratio form evaluated by mpmath's loggamma
        import mpmath

        alpha, x = (0.7, 2.3, 11.0), (4, 0, 9)
        with mpmath.workdps(40):
            a = [mpmath.mpf(v) for v in alpha]
            big_a = mpmath.fsum(a)
            n = sum(x)
            expected = (
                mpmath.loggamma(big_a)
                - mpmath.loggamma(big_a + n)
                + mpmath.fsum(
                    mpmath.loggamma(ak + xk) - mpmath.loggamma(ak)
                    for ak, xk in zip(a, x)
                )
            )
            expected = float(expected)
        assert reference_loglik(alpha, x) == pytest.approx(expected, abs=1e-13)


class TestConfig:
    def test_defaults(self):
        cfg = accuracy_defaults()
        assert cfg.n_values == (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
        assert cfg.repeats == 11
        assert cfg.evaluations_per_point == 100

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.0)  # phi must be > 0
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, n_values=(10, 5))
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, repeats=2)
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1, 1), (0.5, 0.5), 0.1)
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, n_values=())

    def test_counts_scaling(self):
        cfg = runtime_defaults()
        assert cfg.counts_at(10).counts == (10, 20, 30)
        assert cfg.counts_at(0).total == 0


@pytest.fixture(scope="module")
def small_accuracy():
    cfg = accuracy_defaults(n_values=(1, 2, 5), repeats=3, evaluations_per_point=3)
    return cfg, run_accuracy_experiment(cfg)


class TestExperiments:
    def test_record_layout(self, small_accuracy):
        cfg, records = small_accuracy
        assert len(records) == 2 * len(cfg.n_values)
        assert [r.n_scale for r in records] == [1, 1, 2, 2, 5, 5]
        assert {r.method for r in records} == {Method.EXACT, Method.LOG_GAMMA}

    def test_exact_errors_are_tiny(self, small_accuracy):
        _, records = small_accuracy
        for r in records:
            if r.method is Method.EXACT:
                assert r.abs_error <= 1e-12

    def test_terms_track_cost_model(self, small_accuracy):
        _, records = small_accuracy
        for r in records:
            if r.method is Method.EXACT:
                assert r.terms == 2 * 4 * r.n_scale  # N = 4n, terms = 2N
            else:
                assert r.terms == 2 * 4 + 2

    def test_wall_time_positive(self, small_accuracy):
        _, records = small_accuracy
        assert all(r.wall_time_ns > 0 for r in records)

    def test_deterministic_apart_from_wall_time(self):
        cfg = accuracy_defaults(n_values=(1, 5), repeats=3, evaluations_per_point=3)
        a = run_accuracy_experiment(cfg)
        b = run_accuracy_experiment(cfg)
        key = lambda recs: [(r.n_scale, r.method, r.abs_error, r.rel_error, r.terms) for r in recs]
        assert key(a) == key(b)

    def test_runtime_terms_double_with_n(self):
        cfg = runtime_defaults(n_values=(10, 20), repeats=3, evaluations_per_point=3)
        records = run_runtime_experiment(cfg)
        exact = {r.n_scale: r.terms for r in records if r.method is Method.EXACT}
        assert exact[20] == 2 * exact[10]

    def test_n_zero_rows_have_zero_error(self):
        cfg = accuracy_defaults(n_values=(0, 1), repeats=3, evaluations_per_point=3)
        records = run_accuracy_experiment(cfg)
        for r in records:
            if r.n_scale == 0:
                assert r.abs_error == 0.0
                assert r.wall_time_ns > 0


class TestSerialization:
    def test_record_invariants(self):
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, -1.0, 0.0, 10, 4)
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, 0.0, 0.0, 0, 4)

    def test_csv_layout(self):
        records = [
            BenchRecord(1, Method.EXACT, 1e-15, 1e-16, 123, 8),
            BenchRecord(1, Method.LOG_GAMMA, 2e-13, 2e-14, 456, 10),
        ]
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,exact,1e-15,1e-16,123,8"
        assert len(lines) == 3

    def test_json_schema_and_roundtrip(self):
        records = [BenchRecord(2, Method.EXACT, 1e-14, 1e-15, 99, 16)]
        text = records_to_json(records)
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["records"][0]["method"] == "exact"
        assert doc["records"][0]["n"] == 2
        # canonical form re-encodes byte for byte
        assert canonical_json(doc) == text
