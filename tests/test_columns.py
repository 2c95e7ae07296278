"""The table evaluator reads columns: a parsed table's columns give, bit for
bit, what the row entry point gives on its rows, and ``dmnll loglik``
builds no per-row ``CountVector`` on its way there."""

import pytest

from dmnll import MeanPhiParams, Method, cli, core, sample_dmn_dataset
from dmnll.core import MAX_TOTAL_COUNT

M = MAX_TOTAL_COUNT

ROUTES = [
    ((2.0, 0.5, 3.0), Method.EXACT),
    ((2.0, 0.5, 3.0), Method.LOG_GAMMA),
    # p_2 = 0: a row that observes category 2 is -inf
    (MeanPhiParams((0.25, 0.0, 0.75), 0.1), Method.PHI_FORM),
    (MeanPhiParams((0.2, 0.3, 0.5), 0.0), Method.PHI_FORM),
]

SAMPLED = sample_dmn_dataset((2.0, 0.5, 3.0), 40, 300, seed=3).observations

TABLES = [
    "a,b,c\n1,0,2\n3,4,0\n0,0,0\n5,1,7\n3,4,0\n",
    "".join(",".join(map(str, x.counts)) + "\n" for x in SAMPLED),
    # two rows over the sum-of-logs budget: the first is the error
    f"1,2,3\n{M},1,0\n{M},5,0\n2,2,2\n",
    # a dimension mismatch
    "1,2\n3,4\n",
]


def outcome(evaluate):
    """Each row's value (as hex) and terms, or the error's type and message."""
    try:
        values, terms = evaluate()
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return [v.hex() for v in values], terms


@pytest.mark.parametrize("params, method", ROUTES)
@pytest.mark.parametrize("text", TABLES, ids=["small", "sampled", "over-budget", "mismatch"])
def test_columns_match_the_row_entry_point_bitwise(params, method, text):
    table = cli.parse_count_table(text)
    by_columns = outcome(lambda: core._loglik_columns(params, table.columns, method))
    assert by_columns == outcome(lambda: core._loglik_table(params, table.rows, method))


def test_the_cases_reach_what_they_name():
    phi, _ = ROUTES[2]
    small = cli.parse_count_table(TABLES[0])
    values, terms = core._loglik_columns(phi, small.columns, Method.PHI_FORM)
    assert [v == float("-inf") for v in values] == [False, True, False, True, True]
    assert terms == [2 * 3, 3, 0, 5, 3]
    over = cli.parse_count_table(TABLES[2])
    for params, method in ROUTES[::2]:
        with pytest.raises(core.ResourceLimitError, match=f"total count {M + 1} "):
            core._loglik_columns(params, over.columns, method)
    mismatch = cli.parse_count_table(TABLES[3])
    with pytest.raises(core.DimensionMismatchError):
        core._loglik_columns(phi, mismatch.columns, Method.PHI_FORM)


@pytest.fixture
def no_count_vectors(monkeypatch):
    """Make every ``CountVector`` the CLI or the evaluator could build fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a CountVector was built")

    monkeypatch.setattr(cli, "CountVector", refuse)
    monkeypatch.setattr(core, "CountVector", refuse)


@pytest.mark.parametrize(
    "flags",
    [
        ("--alpha", "2,0.5,3"),
        ("--alpha", "2,0.5,3", "--method", "lgamma"),
        ("--p", "0.25,0,0.75", "--phi", "0.1"),
    ],
    ids=["exact", "lgamma", "phi"],
)
def test_loglik_builds_no_count_vector(tmp_path, capsys, flags, no_count_vectors):
    path = tmp_path / "t.csv"
    path.write_text(TABLES[1])
    assert cli.main(["loglik", str(path), *flags]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("\n") == 300 + 2
