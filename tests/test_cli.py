"""End-to-end tests of the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from dmnll import (
    MeanPhiParams,
    dmn_loglik_exact,
    dmn_loglik_phi,
    estimate,
    sample_dmn_dataset,
)
from dmnll.bench import canonical_json
from dmnll.cli import main, parse_count_table, TableParseError
from conftest import OldTailCounts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def counts_file(tmp_path):
    def write(text, name="counts.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# table parsing
# ---------------------------------------------------------------------------


class TestParseTable:
    def test_header_and_comments(self):
        table = parse_count_table("# comment\na,b\n1,2\n\n3,4\n")
        assert table.column_names == ("a", "b")
        assert [r.counts for r in table.rows] == [(1, 2), (3, 4)]

    def test_headerless(self):
        table = parse_count_table("1,2\n3,4\n")
        assert table.column_names is None
        assert len(table.rows) == 2

    def test_empty_is_an_error(self):
        with pytest.raises(TableParseError):
            parse_count_table("")
        with pytest.raises(TableParseError):
            parse_count_table("# only comments\n")

    def test_bad_cell_names_line(self):
        with pytest.raises(TableParseError, match="line 3"):
            parse_count_table("a,b\n1,2\n1,x\n")

    def test_negative_cell_names_line(self):
        with pytest.raises(TableParseError, match="line 2"):
            parse_count_table("a,b\n-1,2\n")

    def test_numeric_first_row_is_data(self):
        # a first row whose cells all parse as integers is never a header
        with pytest.raises(TableParseError, match="line 1"):
            parse_count_table("1,-2\n3,4\n")

    def test_ragged_row_names_line(self):
        with pytest.raises(TableParseError, match="line 3"):
            parse_count_table("a,b\n1,2\n1,2,3\n")


# ---------------------------------------------------------------------------
# loglik
# ---------------------------------------------------------------------------


def _per_row_output(rows, method, evaluate, fmt):
    """``dmnll loglik`` output built from one evaluator call per row."""
    results = [evaluate(x) for x in rows]
    total = math.fsum(r.value for r in results)
    if fmt == "json":
        return canonical_json({
            "schema_version": 1,
            "method": method,
            "rows": [
                {"row": i, "loglik": r.value, "terms": r.terms}
                for i, r in enumerate(results)
            ],
            "total": total,
        })
    lines = ["row,loglik,terms"]
    lines += [f"{i},{r.value!r},{r.terms}" for i, r in enumerate(results)]
    lines.append(f"total,{total!r},{sum(r.terms for r in results)}")
    return "\n".join(lines) + "\n"


class TestLoglik:
    def test_alpha_csv(self, capsys, counts_file):
        path = counts_file("a,b\n1,1\n")
        code, out, err = run_cli(capsys, "loglik", path, "--alpha", "1,1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "row,loglik,terms"
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(-1.791759469228055, abs=1e-12)
        assert lines[2].startswith("total,")

    def test_phi_zero_succeeds(self, capsys, counts_file):
        # the case conventional implementations turn into NaN
        path = counts_file("a,b\n1,1\n")
        code, out, _ = run_cli(capsys, "loglik", path, "--p", "0.5,0.5", "--phi", "0")
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(-1.3862943611198906, abs=1e-12)
        assert "nan" not in out.lower()

    def test_phi_zero_with_alpha_method_points_at_phi_form(self, capsys, counts_file):
        path = counts_file("a,b\n1,1\n")
        code, _, err = run_cli(
            capsys, "loglik", path, "--p", "0.5,0.5", "--phi", "0", "--method", "exact"
        )
        assert code == 1
        assert "dmn_loglik_phi" in err

    def test_empty_file_is_usage_error(self, capsys, counts_file):
        path = counts_file("")
        code, _, err = run_cli(capsys, "loglik", path, "--alpha", "1,1")
        assert code == 2
        assert "no count observations" in err

    def test_mutually_exclusive_parameters(self, capsys, counts_file):
        path = counts_file("1,1\n")
        code, _, err = run_cli(
            capsys, "loglik", path, "--alpha", "1,1", "--p", "0.5,0.5", "--phi", "0.1"
        )
        assert code == 2

    def test_method_phi_requires_p(self, capsys, counts_file):
        path = counts_file("1,1\n")
        code, _, _ = run_cli(capsys, "loglik", path, "--alpha", "1,1", "--method", "phi")
        assert code == 2

    def test_missing_parameters(self, capsys, counts_file):
        path = counts_file("1,1\n")
        code, _, _ = run_cli(capsys, "loglik", path)
        assert code == 2

    def test_dimension_mismatch_is_compute_error(self, capsys, counts_file):
        path = counts_file("1,2,3\n")
        code, _, err = run_cli(capsys, "loglik", path, "--alpha", "1,1")
        assert code == 1
        assert "categories" in err

    def test_json_roundtrip_is_byte_identical(self, capsys, counts_file):
        path = counts_file("a,b\n1,1\n4,2\n")
        code, out, _ = run_cli(
            capsys, "loglik", path, "--alpha", "0.5,1.5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out
        assert doc["method"] == "exact"
        assert len(doc["rows"]) == 2

    def test_neg_inf_rows_never_print_nan(self, capsys, counts_file):
        path = counts_file("a,b\n1,1\n0,2\n")
        code, out, _ = run_cli(capsys, "loglik", path, "--p", "1,0", "--phi", "0.25")
        assert code == 0
        assert "nan" not in out.lower()
        assert "-inf" in out

    def test_lgamma_method(self, capsys, counts_file):
        path = counts_file("1,1\n")
        code, out, _ = run_cli(
            capsys, "loglik", path, "--alpha", "1,1", "--method", "lgamma"
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(-math.log(6), abs=1e-12)

    def test_lgamma_method_from_mean_phi(self, capsys, counts_file):
        # (p, phi) with phi > 0 converts to alpha = (0.5, 0.5) for the
        # lgamma route: L = [G(1)/G(3)] * [G(1.5)/G(0.5)]^2 = 1/8
        path = counts_file("1,1\n")
        code, out, _ = run_cli(
            capsys, "loglik", path, "--p", "0.5,0.5", "--phi", "0.5",
            "--method", "lgamma",
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(math.log(1 / 8), abs=1e-12)

    @pytest.mark.parametrize(
        "text, data_rows", [("0,2\n3,4\n", 2), ("a,b\n0,2\n3,4\n", 2), ("7,1\n", 1)]
    )
    def test_every_data_row_is_output(self, capsys, counts_file, text, data_rows):
        code, out, _ = run_cli(capsys, "loglik", counts_file(text), "--alpha", "1,1")
        assert code == 0
        assert len(out.splitlines()) == 1 + data_rows + 1

    @pytest.mark.parametrize("text, lineno", [("1,-2\n3,4\n", 1), ("3,4\n1,-2\n", 2)])
    def test_negative_count_fails_with_its_line(self, capsys, counts_file, text, lineno):
        code, out, err = run_cli(capsys, "loglik", counts_file(text), "--alpha", "1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"line {lineno}: counts must be non-negative" in err

    def test_overflowing_alpha_is_one_error_line(self, capsys, counts_file):
        code, out, err = run_cli(
            capsys, "loglik", counts_file("1,1\n"), "--alpha", "1e308,1e308"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_matches_per_row_calls_bytewise(self, capsys, counts_file, fmt):
        alpha = (2.0, 5.0, 3.0, 1.0, 4.0)
        rows = sample_dmn_dataset(alpha, 60, 300, seed=7).observations
        path = counts_file("".join(",".join(map(str, x.counts)) + "\n" for x in rows))
        mp = MeanPhiParams((0.1, 0.2, 0.3, 0.25, 0.15), 0.0)
        # a zero-probability category: rows that observe it are -inf, the rest finite
        mp_zero = MeanPhiParams((0.1, 0.2, 0.3, 0.0, 0.4), 0.05)
        for flags, method, evaluate in (
            (("--alpha", "2,5,3,1,4"), "exact", lambda x: dmn_loglik_exact(alpha, x)),
            (("--p", "0.1,0.2,0.3,0.25,0.15", "--phi", "0"), "phi",
             lambda x: dmn_loglik_phi(mp, x)),
            (("--p", "0.1,0.2,0.3,0,0.4", "--phi", "0.05"), "phi",
             lambda x: dmn_loglik_phi(mp_zero, x)),
        ):
            code, out, _ = run_cli(capsys, "loglik", path, *flags, "--format", fmt)
            assert code == 0
            assert out == _per_row_output(rows, method, evaluate, fmt)

    def test_out_file(self, capsys, counts_file, tmp_path):
        path = counts_file("1,1\n")
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "loglik", path, "--alpha", "1,1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("row,loglik,terms")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


class TestFit:
    def test_fit_json(self, capsys, counts_file):
        from dmnll import sample_dmn_dataset

        d = sample_dmn_dataset((2.0, 5.0, 3.0), n_trials=50, n_obs=500, seed=3)
        text = "x,y,z\n" + "\n".join(
            ",".join(str(c) for c in o.counts) for o in d.observations
        )
        path = counts_file(text)
        code, out, _ = run_cli(capsys, "fit", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["columns"] == ["x", "y", "z"]
        for est, true in zip(doc["alpha_hat"], (2.0, 5.0, 3.0)):
            assert abs(est - true) / true < 0.25

    def test_fit_json_roundtrip(self, capsys, counts_file):
        path = counts_file("2,3\n1,4\n")
        code, out, _ = run_cli(capsys, "fit", path, "--max-iter", "3", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_single_category_is_usage_error(self, capsys, counts_file):
        path = counts_file("a\n5\n3\n")
        code, _, err = run_cli(capsys, "fit", path)
        assert code == 2
        assert "nothing to fit" in err

    def test_max_iter_zero_returns_init(self, capsys, counts_file):
        path = counts_file("2,3\n1,4\n")
        code, out, _ = run_cli(
            capsys, "fit", path, "--alpha", "1.5,2.5", "--max-iter", "0",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_hat"] == [1.5, 2.5]
        assert doc["converged"] is False
        assert doc["iterations"] == 0

    def test_fit_csv_fields(self, capsys, counts_file):
        path = counts_file("a,b\n2,3\n1,4\n")
        code, out, _ = run_cli(capsys, "fit", path, "--max-iter", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert set(fields) == {"alpha_a", "alpha_b", "loglik", "iterations", "converged", "floored"}
        assert fields["converged"] in ("true", "false")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_matches_per_category_histograms_bytewise(
        self, capsys, counts_file, monkeypatch, fmt
    ):
        rows = sample_dmn_dataset((10.0, 30.0, 60.0, 16.0, 44.0), 200, 300, seed=9).observations
        path = counts_file("".join(",".join(map(str, x.counts)) + "\n" for x in rows))
        argv = ("fit", path, "--max-iter", "5000", "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(estimate, "_TailCounts", OldTailCounts)
        assert run_cli(capsys, *argv) == (0, out, "")

    @pytest.mark.filterwarnings("error")
    def test_init_below_the_floor_is_one_error_line(self, capsys, counts_file):
        path = counts_file("1,2\n2,1\n3,0\n")
        code, out, err = run_cli(capsys, "fit", path, "--alpha", "1e-320,1e-320")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "below the floor" in err

    def test_grid_over_the_level_bound_is_one_error_line(self, capsys, counts_file):
        path = counts_file(f"{1 << 40},{1 << 40}\n")
        code, out, err = run_cli(capsys, "fit", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "count levels" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


class TestBench:
    def test_accuracy_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "accuracy", "--n", "1,2,5", "--repeats", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,method,abs_error,rel_error,wall_time_ns,terms"
        assert len(lines) == 1 + 6  # 3 grid points x 2 methods

    def test_runtime_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "runtime", "--n", "1,2,5", "--repeats", "3"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 6

    def test_bench_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "accuracy", "--n", "1,2", "--repeats", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "accuracy", "--n", "5,2")
        assert code == 2
        assert "increasing" in err

    def test_unparseable_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "accuracy", "--n", "1,x")
        assert code == 2


def test_module_entry_point_exists():
    proc = subprocess.run(
        [sys.executable, "-m", "dmnll", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "loglik" in proc.stdout
