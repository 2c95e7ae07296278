"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmnll import (
    DomainError,
    MeanPhiParams,
    cli,
    core,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    estimate,
    sample_dmn_dataset,
)
from dmnll.bench import canonical_json
from dmnll.cli import main, parse_args, parse_count_table, TableParseError
from conftest import OldTailCounts, child_env, old_build_parser, old_cmd_loglik


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

    def test_leading_zeros_past_the_digit_limit_are_a_count(self):
        # int() refuses a literal of over 4300 digits, leading zeros included
        table = parse_count_table("0" * 5000 + "1,2\n")
        assert table.column_names is None
        assert [r.counts for r in table.rows] == [(1, 2)]

    def test_ragged_row_names_line(self):
        with pytest.raises(TableParseError, match="line 3"):
            parse_count_table("a,b\n1,2\n1,2,3\n")

    def test_a_leading_byte_order_mark_is_dropped(self):
        # the mark must not make the first data row a header
        table = parse_count_table("\ufeff1,2\n3,4\n")
        assert table.column_names is None
        assert [r.counts for r in table.rows] == [(1, 2), (3, 4)]
        table = parse_count_table("\ufeffa,b\n1,2\n")
        assert table.column_names == ("a", "b")
        assert [r.counts for r in table.rows] == [(1, 2)]
        with pytest.raises(TableParseError, match="line 2: "):
            parse_count_table("\ufeff1,2\n3,x\n")

    def test_negative_literal_past_the_digit_limit_names_line(self):
        with pytest.raises(TableParseError) as info:
            parse_count_table("1,2\n-" + "9" * 5000 + ",3\n")
        assert str(info.value) == (
            "<input> line 2: counts must be non-negative, got a 5000-digit negative count"
        )


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

    @pytest.mark.parametrize("flags", [["--p", "0.5,0.5"], ["--phi", "0.1"]], ids=["p", "phi"])
    def test_p_and_phi_come_together(self, capsys, counts_file, flags):
        path = counts_file("1,2\n3,4\n")
        assert run_cli(capsys, "loglik", path, *flags) == (
            2, "", "error: --p and --phi must be given together\n"
        )

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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--alpha", "1,1"),
            ("--alpha", "1,1", "--method", "lgamma"),
            ("--p", "0.5,0.5", "--phi", "0.1"),
        ],
        ids=["exact", "lgamma", "phi"],
    )
    def test_dimension_mismatch_on_every_method(self, capsys, counts_file, flags):
        path = counts_file("1,2,3\n4,5,6\n")
        code, out, err = run_cli(capsys, "loglik", path, *flags)
        assert code == 1
        assert out == ""
        assert err == "error: parameters have 2 categories, counts have 3\n"

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

    @pytest.mark.parametrize("big_first", [True, False])
    def test_literal_past_the_digit_limit_fails_with_its_line(
        self, capsys, counts_file, big_first
    ):
        # one cell of 5000 digits is past int()'s limit: it must not make
        # the first row a header, nor any row text
        rows = ["9" * 5000 + ",1", "2,3"]
        text = "\n".join(rows if big_first else rows[::-1]) + "\n"
        code, out, err = run_cli(capsys, "loglik", counts_file(text), "--alpha", "1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"line {1 if big_first else 2}: " in err
        assert err.rstrip().endswith("does not fit in 64 bits")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lgamma_output_matches_per_row_calls_bytewise(self, capsys, counts_file, fmt):
        alpha = (2.0, 5.0, 3.0, 1.0, 4.0)
        rows = sample_dmn_dataset(alpha, 60, 300, seed=7).observations
        path = counts_file("".join(",".join(map(str, x.counts)) + "\n" for x in rows))
        flags = ("--alpha", "2,5,3,1,4", "--method", "lgamma", "--format", fmt)
        code, out, _ = run_cli(capsys, "loglik", path, *flags)
        assert code == 0
        assert out == _per_row_output(
            rows, "lgamma", lambda x: dmn_loglik_lgamma(alpha, x), fmt
        )

    @pytest.mark.parametrize(
        "flags, function",
        [
            (("--alpha", "1,2"), "log"),
            (("--p", "0.25,0.75", "--phi", "0.1"), "log"),
            (("--alpha", "1,2", "--method", "lgamma"), "lgamma"),
        ],
    )
    def test_nan_from_a_route_is_one_error_line(
        self, capsys, counts_file, monkeypatch, flags, function
    ):
        fake = types.SimpleNamespace(**vars(math))
        setattr(fake, function, lambda *args: math.nan)
        monkeypatch.setattr(core, "math", fake)
        code, out, err = run_cli(capsys, "loglik", counts_file("1,2\n0,3\n"), *flags)
        assert code == 1
        assert out == ""
        assert err == "error: internal error: NaN log-likelihood\n"

    def test_out_file(self, capsys, counts_file, tmp_path):
        path = counts_file("1,1\n")
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "loglik", path, "--alpha", "1,1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("row,loglik,terms")


@st.composite
def loglik_lines(draw):
    """A count table's text and the ``dmnll loglik`` flags for it, on one
    of the three routes: up to 4 columns and 30 rows, counts up to 3 or up
    to 80 (many distinct totals, so many distinct ``terms`` on the exact
    route), and on the phi route probabilities with zeros among them, so
    that rows that observe one are ``-inf``."""
    k = draw(st.integers(1, 4))
    top = draw(st.sampled_from([3, 80]))
    row = st.lists(st.integers(0, top), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=30))
    text = "".join(",".join(map(str, r)) + "\n" for r in rows)
    if draw(st.booleans()):
        text = ",".join(f"c{j}" for j in range(k)) + "\n" + text
    route = draw(st.sampled_from(["exact", "lgamma", "phi"]))
    if route == "phi":
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        p = ",".join(repr(w / sum(weights)) for w in weights)
        phi = draw(st.sampled_from([0.0, 0.05, 0.5, 0.9]))
        return text, ["--p", p, "--phi", repr(phi)]
    alpha = draw(st.lists(st.sampled_from([0.3, 1.0, 2.5, 40.0]), min_size=k, max_size=k))
    return text, ["--alpha", ",".join(map(repr, alpha)), "--method", route]


class TestLoglikWriter:
    """The rows of ``dmnll loglik`` are written in one formatting pass; its
    bytes are those of the per-row writer it replaced (``old_cmd_loglik``)."""

    @given(case=loglik_lines(), fmt=st.sampled_from(["csv", "json"]))
    @example(case=("5\n", ["--alpha", "2.5", "--method", "exact"]), fmt="json")
    @example(case=("1,0,1\n0,1,0\n", ["--p", "0.5,0,0.5", "--phi", "0.1"]), fmt="json")
    @example(case=("0,3\n", ["--p", "1.0,0.0", "--phi", "0.0"]), fmt="csv")
    @settings(max_examples=300, deadline=None)
    def test_output_matches_the_per_row_writer(self, tmp_path_factory, case, fmt):
        text, flags = case
        folder = tmp_path_factory.mktemp("loglik")
        table, target = folder / "t.csv", folder / "out"
        table.write_text(text)
        argv = ["loglik", str(table), *flags, "--format", fmt]
        expected = old_cmd_loglik(parse_args(argv))
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown):
            assert main(argv) == 0
        assert shown.getvalue() == expected
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == expected.encode()

    def test_json_is_written_without_the_encoder(self, capsys, counts_file, monkeypatch):
        # the document is canonical_json's, but no dict is built for it
        path = counts_file("1,0,1\n0,1,0\n4,0,2\n")
        argv = ["loglik", path, "--p", "0.5,0,0.5", "--phi", "0.1", "--format", "json"]
        expected = old_cmd_loglik(parse_args(argv))

        def refuse(payload):
            raise AssertionError("canonical_json called")

        monkeypatch.setattr(cli, "canonical_json", refuse)
        assert run_cli(capsys, *argv) == (0, expected, "")


#: A command line for each JSON document the CLI writes, given a counts file.
JSON_COMMANDS = {
    "loglik": lambda table: ["loglik", table, "--alpha", "1,2"],
    "loglik-lgamma": lambda table: ["loglik", table, "--alpha", "1,2", "--method", "lgamma"],
    "loglik-inf": lambda table: ["loglik", table, "--p", "1,0", "--phi", "0.25"],
    "fit": lambda table: ["fit", table],
    "bench-accuracy": lambda table: ["bench", "accuracy", "--n", "1,2"],
    "bench-runtime": lambda table: ["bench", "runtime", "--n", "1,2", "--repeats", "3"],
}


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_every_json_document_is_canonical(capsys, counts_file, command):
    argv = JSON_COMMANDS[command](counts_file("1,2\n3,1\n2,0\n"))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_observed_category_near_the_floor_is_not_floored(self, capsys, counts_file, fmt):
        # column 1 is observed once; its alpha_hat is about 2.4e-5, off the floor
        path = counts_file("5,0,0\n" * 8 + "0,1,0\n0,0,0\n")
        code, out, err = run_cli(
            capsys, "fit", path, "--alpha", "1e-8,1e-8,1e-8", "--max-iter", "50",
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["floored"] == [2]
        else:
            assert "\nfloored,2\n" in out

    def test_jump_off_the_floor_prints_no_warning(self, capsys, counts_file):
        path = counts_file("1,5\n3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fit", path, "--alpha", "1e308,1e-8")
        assert code == 0
        assert err == ""
        assert "converged,false" in out

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

    @pytest.mark.parametrize("experiment", ["accuracy", "runtime"])
    def test_unwritable_out_fails_before_the_sweep(
        self, capsys, tmp_path, monkeypatch, experiment
    ):
        from dmnll import bench

        def no_sweep(cfg):
            raise AssertionError("ran the sweep")

        monkeypatch.setattr(bench, f"run_{experiment}_experiment", no_sweep)
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "bench", experiment, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "experiment, message",
        [
            ("accuracy", "total count 18446744073709551616 exceeds the evaluator budget"),
            ("runtime", "count 9223372036854775808 does not fit in 64 bits"),
        ],
        ids=["accuracy", "runtime"],
    )
    def test_grid_past_the_counts_limits_fails_before_the_sweep(
        self, capsys, monkeypatch, experiment, message
    ):
        from dmnll import bench

        def no_sweep(cfg):
            raise AssertionError("ran the sweep")

        monkeypatch.setattr(bench, f"run_{experiment}_experiment", no_sweep)
        argv = ["bench", experiment, "--n", "1,4611686018427387904", "--repeats", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "accuracy", "--n", "1,x"], "--n expects comma-separated integers, got '1,x'"),
            (["bench", "accuracy", "--n", "1.5"], "--n expects comma-separated integers, got '1.5'"),
            (["fit", "T", "--alpha", "1,x"], "--alpha expects comma-separated numbers, got '1,x'"),
        ],
        ids=["n-text", "n-float", "alpha-text"],
    )
    def test_unparseable_number_list_names_its_flag(self, capsys, counts_file, argv, message):
        argv = [counts_file("1,2\n3,4\n") if a == "T" else a for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_writable_out_is_left_alone_until_written(self, capsys, tmp_path, monkeypatch):
        from dmnll import bench

        def failing_sweep(cfg):
            raise DomainError("the sweep failed")

        monkeypatch.setattr(bench, "run_accuracy_experiment", failing_sweep)
        existing, fresh = tmp_path / "existing.csv", tmp_path / "fresh.csv"
        existing.write_text("kept\n")
        for target in (existing, fresh):
            code, out, err = run_cli(capsys, "bench", "accuracy", "--out", str(target))
            assert (code, out, err) == (1, "", "error: the sweep failed\n")
        assert existing.read_text() == "kept\n"
        assert not fresh.exists()


# ---------------------------------------------------------------------------
# reading tables and writing --out
# ---------------------------------------------------------------------------

#: Each command's arguments, given a counts file.
COMMANDS = {
    "loglik": lambda table: ["loglik", table, "--alpha", "1,2"],
    "fit": lambda table: ["fit", table],
    "bench": lambda table: ["bench", "accuracy", "--n", "1,2"],
}


def run_dmnll(*argv, stdin=b""):
    return subprocess.run(
        [sys.executable, "-m", "dmnll", *argv], input=stdin, capture_output=True, env=child_env()
    )


class TestInputOutput:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_writes_what_stdout_shows(self, capsys, counts_file, tmp_path, command):
        argv = COMMANDS[command](counts_file("1,2\n3,1\n2,2\n"))
        code, shown, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "result"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        written = target.read_text()
        # bench rows carry timings, so compare the header and the row count
        assert written.splitlines()[0] == shown.splitlines()[0]
        assert len(written.splitlines()) == len(shown.splitlines())

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_is_one_usage_error(
        self, capsys, counts_file, tmp_path, command, where
    ):
        argv = COMMANDS[command](counts_file("1,2\n3,1\n"))
        target = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1

    def test_table_file_not_utf8_is_one_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xff1,2\n3,4\n")
        code, out, err = run_cli(capsys, "loglik", str(path), "--alpha", "1,1")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_stdin_not_utf8_is_one_usage_error(self):
        # the first data row must not be taken for a header
        proc = run_dmnll("loglik", "-", "--alpha", "1,1", stdin=b"\xff1,2\n3,4\n")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: <stdin> is not UTF-8: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_stdin_reads_as_the_file_does(self, counts_file):
        text = "a,b\n1,2\r\n3,4\n"
        from_file = run_dmnll("loglik", counts_file(text), "--alpha", "1,1")
        from_stdin = run_dmnll("loglik", "-", "--alpha", "1,1", stdin=text.encode())
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_stdin.stdout == from_file.stdout
        assert len(from_stdin.stdout.splitlines()) == 1 + 2 + 1

    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize(
        "text, columns",
        [("1,2\n3,4\n", ["0", "1"]), ("a,b\n1,2\n3,4\n", ["a", "b"])],
        ids=["headerless", "headed"],
    )
    def test_a_leading_byte_order_mark_is_not_read_as_table_text(
        self, tmp_path, via, text, columns
    ):
        # Excel's "CSV UTF-8" starts with one; it must not make a row a header
        data = b"\xef\xbb\xbf" + text.encode()
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        table, stdin = ("-", data) if via == "stdin" else (str(path), b"")
        loglik = run_dmnll("loglik", table, "--alpha", "1,1", stdin=stdin)
        assert (loglik.returncode, loglik.stderr) == (0, b"")
        assert len(loglik.stdout.splitlines()) == 1 + 2 + 1
        fit = run_dmnll("fit", table, "--max-iter", "3", "--format", "json", stdin=stdin)
        assert (fit.returncode, fit.stderr) == (0, b"")
        assert json.loads(fit.stdout)["columns"] == columns


# ---------------------------------------------------------------------------
# writing to stdout
# ---------------------------------------------------------------------------

#: Command lines that write to stdout, given a counts file.
STDOUT_COMMANDS = {
    "loglik": lambda table: ["loglik", table, "--alpha", "1,1"],
    "fit": lambda table: ["fit", table],
    "bench": lambda table: ["bench", "accuracy", "--n", "1"],
    "help": lambda table: ["--help"],
}


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` raises ``error``; it has no
    file descriptor, as under a capture."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "error",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")],
    ids=["closed pipe", "full disk"],
)
def test_a_failed_stdout_write_is_one_usage_error(
    capsys, monkeypatch, counts_file, command, method, error
):
    argv = STDOUT_COMMANDS[command](counts_file("1,2\n3,1\n"))
    monkeypatch.setattr(sys, "stdout", FailingStdout(method, error))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write <stdout>: ")
    assert len(err.splitlines()) == 1


def run_into(stdout, argv, unbuffered):
    """Run ``python -m dmnll`` with stdout on the descriptor ``stdout``."""
    return subprocess.run(
        [sys.executable, "-m", "dmnll", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    )


def assert_one_write_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: cannot write <stdout>: ")
    assert len(proc.stderr.splitlines()) == 1
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_on_stdout_is_one_usage_error(counts_file, command, unbuffered):
    argv = STDOUT_COMMANDS[command](counts_file("1,2\n3,1\n"))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = run_into(write_end, argv, unbuffered)
    finally:
        os.close(write_end)
    assert_one_write_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_full_disk_on_stdout_is_one_usage_error(counts_file, command, unbuffered):
    argv = STDOUT_COMMANDS[command](counts_file("1,2\n3,1\n"))
    with open("/dev/full", "wb") as full:
        assert_one_write_error(run_into(full, argv, unbuffered))


def run_closed(fd, argv):
    """Run ``python -m dmnll`` with descriptor ``fd`` (0 or 1) closed, as
    ``<&-`` or ``>&-`` leaves it: Python then makes that stream ``None``."""
    return subprocess.run(
        [sys.executable, "-m", "dmnll", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if fd == 0 else None,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(fd),
        env=child_env(),
    )


def test_a_closed_stdin_is_one_usage_error():
    proc = run_closed(0, ["loglik", "-", "--alpha", "1,1"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: cannot read <stdin>: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_a_closed_stdout_is_one_usage_error(counts_file, command):
    assert_one_write_error(run_closed(1, STDOUT_COMMANDS[command](counts_file("1,2\n3,1\n"))))


# ---------------------------------------------------------------------------
# writing the error line to stderr
# ---------------------------------------------------------------------------

#: Command lines that fail, given a counts file, and the exit code each asks
#: for: a usage error, a domain error, and a failed write to stdout when
#: stdout cannot be written either.
FAILING_COMMANDS = {
    "usage": (lambda table: ["loglik", "nosuch.csv", "--alpha", "1,1"], 2),
    "domain": (
        lambda table: ["loglik", table, "--p", "0.5,0.5", "--phi", "0", "--method", "exact"],
        1,
    ),
    "stdout": (lambda table: ["loglik", table, "--alpha", "1,1"], 2),
}


@pytest.mark.parametrize("command", FAILING_COMMANDS)
@pytest.mark.parametrize("method", ["write", "flush"])
def test_a_failed_stderr_write_keeps_the_exit_code(monkeypatch, counts_file, command, method):
    argv, code = FAILING_COMMANDS[command]
    error = OSError(errno.ENOSPC, "No space left")
    monkeypatch.setattr(sys, "stderr", FailingStdout(method, error))
    if command == "stdout":
        monkeypatch.setattr(sys, "stdout", FailingStdout(method, error))
    assert main(argv(counts_file("1,2\n3,1\n"))) == code


@pytest.mark.parametrize("method", ["write", "flush"])
def test_a_failed_stderr_write_keeps_a_refused_command_line_at_2(monkeypatch, method):
    monkeypatch.setattr(sys, "stderr", FailingStdout(method, OSError(errno.ENOSPC, "No space")))
    with pytest.raises(SystemExit) as info:
        main(["--bogus"])
    assert info.value.code == 2


#: The same, with a command line refused, for a subprocess.
SUBPROCESS_FAILURES = {**FAILING_COMMANDS, "refused": (lambda table: ["--bogus"], 2)}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command, stdout",
    [(c, s) for c in SUBPROCESS_FAILURES for s in ["pipe", "full"] if (c, s) != ("stdout", "pipe")],
)
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_full_disk_on_stderr_keeps_the_exit_code(counts_file, command, stdout, unbuffered):
    argv, code = SUBPROCESS_FAILURES[command]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "dmnll", *argv(counts_file("1,2\n3,1\n"))],
            stdout=full if stdout == "full" else subprocess.PIPE,
            stderr=full,
            env=child_env(unbuffered),
        )
    assert proc.returncode == code
    assert proc.stdout in (None, b"")


#: Command lines argparse itself refuses, on each subcommand and on none.
BAD_COMMAND_LINES = [
    [],
    ["nosuch"],
    ["loglik", "t.csv", "--phi", "abc"],
    ["loglik", "t.csv", "--format", "xml"],
    ["loglik", "t.csv", "--bogus"],
    ["loglik"],
    ["fit", "t.csv", "--max-iter", "x"],
    ["fit", "t.csv", "--tol"],
    ["fit", "t.csv", "--format", "xml"],
    ["bench", "speed"],
    ["bench", "runtime", "--repeats", "x"],
    ["bench", "accuracy", "--n", "-1,2"],
]


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES, ids=lambda argv: " ".join(argv) or "none")
def test_argparse_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


#: Every line boundary of ``str.splitlines``.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

#: Command lines whose error echoes a token, a table path or an --out path
#: holding the line break ``b``, under the directory ``d``.
ECHOING_COMMAND_LINES = {
    "token": lambda b, d: ["fit", "t.csv", f"-1{b}", "exact"],
    "table": lambda b, d: ["loglik", str(d / f"no{b}such.csv"), "--alpha", "1,1"],
    "out": lambda b, d: [
        "loglik", str(d / "t.csv"), "--alpha", "1,1", "--out", str(d / "missing" / f"x{b}y")
    ],
}


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
@pytest.mark.parametrize("echoed", ECHOING_COMMAND_LINES)
def test_a_line_break_in_an_echoed_token_or_path_is_escaped(capsys, tmp_path, echoed, brk):
    (tmp_path / "t.csv").write_text("1,2\n3,4\n")
    try:
        code = main(ECHOING_COMMAND_LINES[echoed](brk, tmp_path))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert repr(brk)[1:-1] in captured.err


def test_module_entry_point_exists():
    proc = subprocess.run(
        [sys.executable, "-m", "dmnll", "--help"], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0
    assert "loglik" in proc.stdout


# ---------------------------------------------------------------------------
# command-line grammar: the same as argparse's, checked against it
# ---------------------------------------------------------------------------


def old_parse_args(argv):
    return old_build_parser().parse_args(argv)


#: The oracle is the running Python's argparse.  ``parse_args`` keeps the
#: grammar argparse has on 3.10 to 3.12; 3.13 reads ``-hx`` as ``-h``.
same_argparse = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse's grammar changed in Python 3.13"
)


def parse_outcome(parse, argv):
    """What ``parse`` makes of ``argv``: ``("ok", values)`` without ``func``,
    ``("help",)`` or ``("error", the one error line)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = dict(vars(parse(list(argv))))
    except SystemExit as exc:
        if exc.code == 0:
            assert out.getvalue() != "" and err.getvalue() == ""
            return ("help",)
        assert exc.code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
        return ("error", err.getvalue())
    assert out.getvalue() == err.getvalue() == ""
    del values["func"]
    return ("ok", values)


#: Every flag of the three commands, help included.
FLAGS = [
    "--alpha", "--p", "--phi", "--method", "--format", "--out",
    "--tol", "--max-iter", "--n", "--repeats", "-h", "--help",
]
#: Values: ones that start with a dash, bad ones, and every choice.
VALUES = [
    "-", "-1", "-0.5", "-1,2", "abc", "xml", "1,2", "", "a b", "-x y",
    "t.csv", "3", "csv", "json", "exact", "phi", "accuracy", "runtime",
]
TOKENS = [
    "loglik", "fit", "bench", *FLAGS, *(f"{f}={v}" for f in FLAGS for v in VALUES),
    "--max", "--fo", "--ph", "--m", "--he", "-hh", "-hx", "--=x",
    "--bogus", "-x", "--", *VALUES,
]


@same_argparse
@given(
    head=st.sampled_from(
        [[], ["loglik"], ["fit"], ["bench"],
         ["loglik", "t.csv"], ["fit", "t.csv"], ["bench", "accuracy"]]
    ),
    tail=st.lists(st.sampled_from(TOKENS), max_size=6),
)
@settings(max_examples=1000, deadline=None)
def test_parser_reads_every_line_as_argparse_does(head, tail):
    argv = head + tail
    assert parse_outcome(parse_args, argv) == parse_outcome(old_parse_args, argv)


#: Lines on which argparse's grammar has a corner: where ``--`` and a
#: dash token fall, prefixes, help with a value, and the fault reported
#: first when a line has several.
GRAMMAR_LINES = [
    ["loglik", "t.csv", "--alpha", "1,1", "--"],
    ["loglik", "--alpha", "1,1", "t.csv", "--"],
    ["loglik", "--alpha", "1,1", "--", "t.csv"],
    ["loglik", "--alpha", "1,1", "--", "--", "--"],
    ["loglik", "t.csv", "--", "--alpha", "1,1"],
    ["loglik", "--", "-", "--alpha", "1,1"],
    ["loglik", "-", "--alpha=1,1"],
    ["--", "loglik", "t.csv"],
    ["--"],
    ["--bogus", "loglik", "t.csv", "--nope"],
    ["-1", "loglik"],
    ["bench", "accuracy", "--n", "-1"],
    ["bench", "accuracy", "--n", "-1,2"],
    ["bench", "accuracy", "--n=-1,2"],
    ["bench", "accuracy", "--n", "-1, 2"],
    ["loglik", "t.csv", "--phi", "-.5", "--p", "1"],
    ["fit", "t.csv", "--max", "5", "--max-iter=7", "--to", "1e-3"],
    ["fit", "t.csv", "--max-iter", "5", "--max-iter", "x"],
    ["loglik", "t.csv", "--=x"],
    ["loglik", "t.csv", "--format", "xml", "--p"],
    ["loglik", "--format", "xml", "--="],
    ["bench", "speed", "--n", "x", "extra"],
    ["fit", "--out", "-h"],
    ["-h", "nosuch"],
    ["loglik", "-hh"],
    ["loglik", "-hhx"],
    ["fit", "-h="],
    ["bench", "--help=x"],
    ["--hel"],
]


@same_argparse
@pytest.mark.parametrize(
    "argv", GRAMMAR_LINES + BAD_COMMAND_LINES, ids=lambda argv: " ".join(argv) or "none"
)
def test_grammar_corner_is_read_as_argparse_reads_it(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(old_parse_args, argv)


@same_argparse
@pytest.mark.parametrize("flag", ["--alpha", "--format", "--out", "--method", "--phi"])
def test_a_double_dash_after_equals_is_the_flags_value(flag):
    # argparse drops it and stores [], which --alpha and --out turned into a traceback
    argv = ["loglik", "t.csv", f"{flag}=--"]
    assert parse_outcome(old_parse_args, argv)[1][flag[2:]] == []
    new = parse_outcome(parse_args, argv)
    if flag in ("--format", "--method"):
        assert new[1].startswith(f"error: argument {flag}: invalid choice: '--' ")
    elif flag == "--phi":
        assert new == ("error", "error: argument --phi: invalid float value: '--'\n")
    else:
        assert new[1][flag[2:]] == "--"


def test_a_double_dash_alpha_is_a_usage_error(capsys, counts_file):
    code, out, err = run_cli(capsys, "loglik", counts_file("1,2\n"), "--alpha=--")
    assert (code, out, err) == (2, "", "error: --alpha expects comma-separated numbers, got '--'\n")


COMMAND_HELP = {
    "loglik": "per-row log-likelihood of a count table",
    "fit": "maximum-likelihood fit of alpha from a count table",
    "bench": "run an accuracy or runtime sweep",
}


def run_help(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    return out


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_commands(capsys, flag):
    out = run_help(capsys, [flag])
    for command, text in COMMAND_HELP.items():
        assert re.search(rf"^ +{command} +{re.escape(text)}$", out, re.M), out


@pytest.mark.parametrize(
    "argv, shown",
    [
        (
            ["loglik", "--help"],
            ["table", "--alpha", "--p", "--phi", "--method {exact,lgamma,phi}",
             "--format {csv,json}", "--out"],
        ),
        (["fit", "-h"], ["table", "--alpha", "--tol", "--max-iter", "--format {csv,json}", "--out"]),
        (["bench", "-h"], ["{accuracy,runtime}", "--n", "--repeats", "--format {csv,json}", "--out"]),
    ],
)
def test_command_help_shows_every_flag_and_its_choices(capsys, argv, shown):
    out = run_help(capsys, argv)
    assert COMMAND_HELP[argv[0]] in out
    for item in ["-h, --help", *shown]:
        assert re.search(rf"^  {re.escape(item)}( |$)", out, re.M), (item, out)
