"""The table evaluator reads columns: a parsed table's columns give, bit for
bit, what the row entry point gives on its rows, and ``dmnll loglik``
builds no per-row ``CountVector`` on its way there."""

import pytest

from dmnll import MeanPhiParams, Method, cli, core, estimate, sample_dmn_dataset
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


# p_1 = 0 and every row observes category 1: every row is -inf, so no
# column pass runs and no walk is called
NO_WALK_PHI = MeanPhiParams((0.5, 0.0, 0.5), 0.1)


@pytest.mark.parametrize(
    "text", ["1,2,3\n0,1,0\n4,5,0\n0,7,2\n", "0,3,0\n"], ids=["four-rows", "one-row"]
)
def test_rows_that_no_walk_covers_match_the_per_row_calls(text, monkeypatch):
    table = cli.parse_count_table(text)
    walked = []
    walk = core._sum_terms

    def spy(*args, **kwargs):
        walked.append(list(args[3]))
        return walk(*args, **kwargs)

    monkeypatch.setattr(core, "_sum_terms", spy)
    values, terms = core._loglik_columns(NO_WALK_PHI, table.columns, Method.PHI_FORM)
    assert all(levels == [] for levels in walked)
    expected = [core.dmn_loglik_phi(NO_WALK_PHI, x) for x in table.rows]
    assert [v.hex() for v in values] == [r.value.hex() for r in expected]
    assert terms == [r.terms for r in expected]
    assert values == [float("-inf")] * len(table.rows)


def test_gradient_bits_on_the_concentrated_table():
    # the fit-concentrated benchmark table (seed 1); the bits are pinned
    alpha = (10.0, 30.0, 60.0, 16.0, 44.0)
    d = sample_dmn_dataset(alpha, 200, 1000, seed=1)
    pinned = {
        alpha: ["-0x1.6ac3789158670p+3", "0x1.816c2b62a7feap+3", "-0x1.0090561ff1284p+0",
                "-0x1.aa9f826a4f6d2p+3", "0x1.a04c8ba94ebaap-1"],
        (0.5, 2.0, 7.25, 1.0, 3.0): ["0x1.8fc6a13f07940p+10", "0x1.cc5fde7122265p+8",
                                     "-0x1.26ca2ca24ea57p+8", "0x1.7500c3fa5b790p+9",
                                     "0x1.5255b7c0abdcap+8"],
    }
    text = "".join(",".join(map(str, x.counts)) + "\n" for x in d.observations)
    parsed = estimate.Dataset(_from_columns=cli.parse_count_table(text).columns)
    for params, bits in pinned.items():
        for data in (d, parsed):
            assert [float(g).hex() for g in estimate.grad_loglik(params, data)] == bits


def test_fit_on_a_dataset_from_columns_builds_no_rows(no_count_vectors):
    table = cli.parse_count_table(TABLES[0])
    d = estimate.Dataset(_from_columns=table.columns)
    assert len(d) == 5 and d.k == 3
    # the command's fit reads the columns only
    estimate.fit_alpha_mle(d, max_iter=3)


def test_fit_dataset_equality_and_repr_read_the_rows():
    table = cli.parse_count_table(TABLES[0])
    by_columns = estimate.Dataset(_from_columns=table.columns)
    by_rows = estimate.Dataset(table.rows)
    assert by_columns == by_rows and hash(by_columns) == hash(by_rows)
    assert repr(by_columns) == repr(by_rows)
    assert by_columns.observations == by_rows.observations


@pytest.mark.parametrize(
    "text, n_rows", [(TABLES[0], 5), (TABLES[1], len(SAMPLED))], ids=["small", "sampled"]
)
def test_a_parsed_table_is_the_dataset_the_fit_takes(text, n_rows):
    table = cli.parse_count_table(text)
    assert isinstance(table, core.Dataset)
    assert (table.k, len(table)) == (3, n_rows)

    def bits(fit):
        return (
            [a.hex() for a in fit.alpha_hat.alpha],
            fit.alpha_hat.sum_a.hex(),
            fit.loglik.hex(),
            fit.iterations,
            fit.converged,
            [(it, ll.hex()) for it, ll in fit.trace],
            fit.floored,
        )

    by_rows = core.Dataset(table.rows)
    assert bits(estimate.fit_alpha_mle(table)) == bits(estimate.fit_alpha_mle(by_rows))


def test_fit_builds_no_count_vector(tmp_path, capsys, no_count_vectors):
    path = tmp_path / "t.csv"
    path.write_text(TABLES[1])
    assert cli.main(["fit", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and '"alpha_hat"' in out


def test_every_dataset_holds_list_columns():
    sampled = sample_dmn_dataset((2.0, 0.5, 3.0), 40, 6, seed=3)
    rows = [x.counts for x in sampled.observations]
    plain = "".join(",".join(map(str, row)) + "\n" for row in rows)
    quoted = "".join(f'"{row[0]}",' + ",".join(map(str, row[1:])) + "\n" for row in rows)
    datasets = [
        core.Dataset(rows),
        cli.parse_count_table(plain),
        cli.parse_count_table(quoted),
        cli.parse_count_table("# drawn with seed 3\n" + plain),
        sampled,
    ]
    for d in datasets:
        assert type(d.columns) is list
        assert all(type(column) is list for column in d.columns)
        assert d.columns == datasets[0].columns
