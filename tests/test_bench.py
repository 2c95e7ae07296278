"""Tests for the sweep machinery and serialization."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from dmnll import (
    BenchRecord,
    DomainError,
    ExperimentConfig,
    Method,
    ResourceLimitError,
    accuracy_defaults,
    bench,
    run_accuracy_experiment,
    run_runtime_experiment,
    runtime_defaults,
)
from dmnll.bench import (
    CSV_HEADER,
    DEFAULT_EVALS_PER_POINT,
    DEFAULT_N_GRID,
    DEFAULT_REPEATS,
    canonical_json,
    records_to_csv,
    records_to_json,
)


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

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"n_values": [0.5, 1.7]}, "n_values must be an integer, got 0.5"),
            ({"n_values": "12"}, "n_values must be an integer, got '1'"),
            ({"n_values": [1, math.nan]}, "n_values must be an integer, got nan"),
            ({"n_values": None}, "n_values must be a sequence of integers, got None"),
            ({"repeats": 3.9}, "repeats must be an integer, got 3.9"),
            ({"repeats": "5"}, "repeats must be an integer, got '5'"),
            ({"evaluations_per_point": None}, "evaluations_per_point must be an integer, got None"),
            # an integer out of range keeps its message
            ({"n_values": [-1, 2]}, "n_values must be non-negative"),
            ({"repeats": -1}, "repeats must be >= 3, got -1"),
            ({"evaluations_per_point": 0}, "evaluations_per_point must be >= 1"),
        ],
    )
    def test_a_size_that_is_not_an_integer_is_a_domain_error(self, sizes, message):
        # no size is truncated, and no bad one escapes as another error type
        with pytest.raises(DomainError) as info:
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, **sizes)
        assert str(info.value) == message

    def test_integer_sizes_are_kept_as_plain_ints(self):
        cfg = ExperimentConfig(
            (1, 1), (0.5, 0.5), 0.1, n_values=np.arange(1, 3), repeats=np.int64(3),
            evaluations_per_point=np.int32(2),
        )
        assert (cfg.n_values, cfg.repeats, cfg.evaluations_per_point) == ((1, 2), 3, 2)
        assert {type(n) for n in (*cfg.n_values, cfg.repeats, cfg.evaluations_per_point)} == {int}
        json.loads(records_to_json(run_accuracy_experiment(cfg)))

    def test_signature(self):
        keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD
        empty = inspect.Parameter.empty
        assert [
            (p.name, p.kind, p.default)
            for p in inspect.signature(ExperimentConfig).parameters.values()
        ] == [
            ("base_counts", keyword, empty),
            ("p", keyword, empty),
            ("phi", keyword, empty),
            ("n_values", keyword, DEFAULT_N_GRID),
            ("repeats", keyword, DEFAULT_REPEATS),
            ("evaluations_per_point", keyword, DEFAULT_EVALS_PER_POINT),
        ]

    def test_positional_and_keyword_construction_agree(self):
        args = ((1, 2), (0.25, 0.75), 0.1, (0, 4), 5, 6)
        names = [p.name for p in inspect.signature(ExperimentConfig).parameters.values()]
        assert ExperimentConfig(*args) == ExperimentConfig(**dict(zip(names, args)))

    def test_replace_validates_and_normalizes(self):
        cfg = accuracy_defaults()
        with pytest.raises(DomainError) as info:
            dataclasses.replace(cfg, repeats=2)
        assert str(info.value) == "repeats must be >= 3, got 2"
        grid = dataclasses.replace(cfg, n_values=np.arange(1, 3)).n_values
        assert grid == (1, 2)
        assert {type(n) for n in grid} == {int}

    def test_largest_point_is_checked_at_construction(self):
        # counts of 2^62 sum to 2^64, past the budget; 2 * 2^62 is past 64 bits
        with pytest.raises(ResourceLimitError, match="evaluator budget"):
            accuracy_defaults(n_values=(1, 2**62))
        with pytest.raises(DomainError, match="does not fit in 64 bits"):
            runtime_defaults(n_values=(1, 2**62))

    @pytest.mark.parametrize("sweep", [run_accuracy_experiment, run_runtime_experiment])
    @pytest.mark.parametrize("cfg", [None, (1, 2, 5), "accuracy"])
    def test_a_sweep_refuses_what_is_not_a_config(self, sweep, cfg):
        with pytest.raises(DomainError) as info:
            sweep(cfg)
        assert str(info.value) == f"a sweep needs an ExperimentConfig, got {cfg!r}"

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

    @pytest.mark.parametrize(
        "samples",
        [[7], [3, 1, 2], [5, 1, 4, 2], [9, 9, 1, 1], [2, 1], [4, 8, 15, 16, 23, 42],
         [1_000_000_007, 3, 1_000_000_008, 5, 5], [0.5, 0.25, 0.125]],
    )
    def test_median_is_statistics_median(self, samples):
        import statistics  # the oracle; dmnll.bench does not load it

        assert bench._median(samples) == statistics.median(samples)
        assert type(bench._median(samples)) is type(statistics.median(samples))


class TestSerialization:
    def test_record_invariants(self):
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, -1.0, 0.0, 10, 4)
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, 0.0, 0.0, 0, 4)

    def test_numpy_sizes_are_kept_as_plain_ints(self):
        record = BenchRecord(np.int64(1), Method.EXACT, 1e-15, 2e-16, np.int64(5), np.int64(8))
        assert [type(v) for v in (record.n_scale, record.wall_time_ns, record.terms)] == [int] * 3
        assert json.loads(records_to_json([record]))["records"][0]["terms"] == 8
        assert records_to_csv([record]).splitlines()[1] == "1,exact,1e-15,2e-16,5,8"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1.5, Method.EXACT, 0.0, 0.0, 5, 8), "n_scale must be an integer, got 1.5"),
            ((1, Method.EXACT, 0.0, 0.0, 5, 8.0), "terms must be an integer, got 8.0"),
            ((1, Method.EXACT, 0.0, 0.0, 5.0, 8), "wall_time_ns must be an integer, got 5.0"),
            ((-1, Method.EXACT, 0.0, 0.0, 5, 8), "n_scale must be >= 0, got -1"),
            ((1, "exact", 0.0, 0.0, 5, 8), "method must be a Method, got 'exact'"),
            ((1, None, 0.0, 0.0, 5, 8), "method must be a Method, got None"),
        ],
    )
    def test_a_field_of_the_wrong_kind_is_a_domain_error(self, fields, message):
        with pytest.raises(DomainError) as info:
            BenchRecord(*fields)
        assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "sweep, cfg",
        [
            (run_accuracy_experiment, accuracy_defaults(n_values=(0, 1, 7), repeats=3)),
            (run_runtime_experiment, runtime_defaults(n_values=(1, 2), repeats=3,
                                                      evaluations_per_point=2)),
        ],
    )
    def test_both_formats_carry_the_same_records(self, sweep, cfg):
        records = sweep(cfg)
        header, *rows = records_to_csv(records).splitlines()
        names = header.split(",")
        docs = json.loads(records_to_json(records))["records"]
        assert len(rows) == len(docs) == len(records)
        for row, doc in zip(rows, docs):
            assert set(names) == set(doc)
            assert row.split(",") == [str(doc[name]) for name in names]

    @pytest.mark.parametrize("serialize", [records_to_csv, records_to_json])
    @pytest.mark.parametrize(
        "records, message",
        [
            (None, "records must be a sequence of BenchRecord, got None"),
            (3, "records must be a sequence of BenchRecord, got 3"),
            ([{"n": 1}], "records must hold BenchRecord items, got {'n': 1}"),
            ([BenchRecord(1, Method.EXACT, 0.0, 0.0, 1, 2), None],
             "records must hold BenchRecord items, got None"),
        ],
    )
    def test_records_it_cannot_read_are_a_domain_error(self, serialize, records, message):
        with pytest.raises(DomainError) as info:
            serialize(records)
        assert str(info.value) == message


class TestOneEvaluationPerPoint:
    def test_accuracy_calls_each_evaluator_once_per_point(self, monkeypatch):
        calls = []
        for method, func in list(bench._METHOD_FUNCS.items()):
            def counted(alpha, x, _func=func, _method=method):
                calls.append((_method, x.total))
                return _func(alpha, x)

            monkeypatch.setitem(bench._METHOD_FUNCS, method, counted)
        cfg = accuracy_defaults(n_values=(0, 3), repeats=3)
        records = run_accuracy_experiment(cfg)
        assert calls == [
            (Method.EXACT, 0), (Method.LOG_GAMMA, 0),
            (Method.EXACT, 12), (Method.LOG_GAMMA, 12),
        ]
        assert all(r.wall_time_ns >= 1 for r in records)

    def test_sweeps_agree_apart_from_wall_time(self):
        cfg = accuracy_defaults(n_values=(0, 1, 5, 50), repeats=3, evaluations_per_point=3)
        key = lambda recs: [
            (r.n_scale, r.method, r.abs_error, r.rel_error, r.terms) for r in recs
        ]
        assert key(run_accuracy_experiment(cfg)) == key(run_runtime_experiment(cfg))
