"""Fuzz tests of ``dmnll loglik``, ``dmnll fit`` and ``dmnll bench``: odd
tables, extreme parameters and odd grids never break the contract.

Whatever the input, a command exits 0, 1 or 2. A failure prints one
``error:`` line on stderr and nothing on stdout; a success prints no NaN,
``loglik`` prints one output row per input data row, and ``bench`` two
records per grid point.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmnll.cli import main

#: Counts far past what the O(N) route may walk. They enter only as these
#: cells, so every table the exact route accepts stays small.
BIG = (2**40 + 1, 2**63 - 1, 2**63, 2**64)

ALPHAS = (
    "3",
    "0.5,0.5",
    "1,2,3",
    "2,5,3,1",
    "1e308,1e308,1",
    "5e-324,1,1",
    "nan,1,1",
    "inf,1,1",
    "0,1,1",
    "-1,1,1",
    "1,x,1",
)


def variants(ints):
    """Integer cells as plain, padded, quoted or signed literals."""
    return st.one_of(
        ints.map(str),
        ints.map(lambda n: f" {n} "),
        ints.map(lambda n: f'"{n}"'),
        ints.map(lambda n: f'" {n}"'),
        ints.filter(lambda n: n >= 0).map(lambda n: f"+{n}"),
    )


#: Cells as (text, is an integer literal, big count or None).
count_cell = variants(st.integers(0, 300)).map(lambda t: (t, True, None))
int_cell = variants(st.integers(-5, 300)).map(lambda t: (t, True, None))
big_cell = st.sampled_from(BIG).map(lambda n: (str(n), True, n))
text_cell = st.one_of(
    st.sampled_from(["", " ", "a", "alpha", "x1", "1.5", "2.0", "1e3", "-0.5", "inf", "nan"]),
    # at least one letter, which no CSV quoting can remove, so never an integer
    st.tuples(
        st.text(alphabet="019 ._-+\"'", max_size=4),
        st.text(alphabet="abcXYZ", min_size=1, max_size=3),
    ).map("".join),
).map(lambda t: (t, False, None))
any_cell = st.one_of(int_cell, int_cell, big_cell, text_cell)


@st.composite
def cases(draw):
    """An ``--alpha`` string and the lines of a counts CSV.

    Rows are lists of cells; comment and blank lines are plain text.  Most
    tables are as wide as alpha, and half hold only valid counts, so that
    many of them succeed.
    """
    alpha = draw(st.sampled_from(ALPHAS))
    k = alpha.count(",") + 1
    width = draw(st.sampled_from([k, k, k, 1, 2, 3, 4]))
    clean = st.lists(count_cell, min_size=width, max_size=width)
    dirty = st.lists(any_cell, min_size=width, max_size=width)
    ragged = st.lists(any_cell, min_size=1, max_size=5)
    comment = st.sampled_from(["# comment", "#1,2,3", "   ", ""])
    if draw(st.booleans()):
        line = st.one_of(clean, comment)
    else:
        line = st.one_of(clean, dirty, ragged, comment)
    lines = draw(st.lists(line, min_size=1, max_size=8))
    if draw(st.booleans()):
        lines.insert(0, draw(st.lists(text_cell, min_size=width, max_size=width)))
    return alpha, lines


def render(lines) -> tuple[str, list]:
    """The table's text and its data rows: every row of cells but a header."""
    text, rows = [], []
    for line in lines:
        if isinstance(line, str):
            text.append(line)
            continue
        raw = ",".join(c for c, _, _ in line)
        text.append(raw)
        if raw.strip() and not raw.strip().startswith("#"):
            rows.append(line)
    header = bool(rows) and not all(is_int for _, is_int, _ in rows[0])
    return "\n".join(text) + "\n", rows[1:] if header else rows


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "counts.csv"


@given(
    case=cases(),
    method=st.sampled_from([None, "exact", "lgamma"]),
    fmt=st.sampled_from(["csv", "json"]),
)
@settings(max_examples=200, deadline=None)
def test_loglik_keeps_its_contract(table_path, case, method, fmt):
    alpha, lines = case
    text, data_rows = render(lines)
    table_path.write_text(text, encoding="utf-8")
    argv = ["loglik", str(table_path), f"--alpha={alpha}", "--format", fmt]
    if method is not None:
        argv += ["--method", method]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        return
    assert err == ""
    assert "nan" not in out.lower()
    if fmt == "json":
        assert len(json.loads(out)["rows"]) == len(data_rows)
    else:
        assert len(out.splitlines()) == 1 + len(data_rows) + 1
    big = {n for row in data_rows for _, _, n in row if n is not None}
    # a count past 64 bits never loads; past 2^40 the exact route refuses it
    assert not big & {2**63, 2**64}
    if method != "lgamma":
        assert not big


#: ``--alpha`` cells for ``fit``: at the floor and below it, subnormal, near
#: the float maximum, and not a positive number at all.
FIT_ALPHA_CELLS = (
    "1", "0.5", "3e307", "1e308", "1.7976931348623157e308", "1e-8", "9e-9",
    "1e-300", "5e-324", "0", "-1", "nan", "inf", "x",
)


@st.composite
def fit_cases(draw):
    """A small table, an ``--alpha`` string or None, ``--max-iter`` and a format."""
    k = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=50), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    alpha = None
    if draw(st.booleans()):
        # mostly as wide as the table, sometimes not
        width = draw(st.sampled_from([k, k, k, k + 1, max(k - 1, 1)]))
        cells = draw(st.lists(st.sampled_from(FIT_ALPHA_CELLS), min_size=width, max_size=width))
        alpha = ",".join(cells)
    max_iter = draw(st.integers(min_value=0, max_value=50))
    return rows, alpha, max_iter, draw(st.sampled_from(["csv", "json"]))


@given(case=fit_cases())
# alpha_2 jumps off the floor to about 3e307: its relative change overflows
@example(case=([[1, 5], [3, 4]], "1e308,1e-8", 50, "csv"))
@settings(max_examples=100, deadline=None)
def test_fit_keeps_its_contract(table_path, case):
    rows, alpha, max_iter, fmt = case
    table_path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    argv = ["fit", str(table_path), "--max-iter", str(max_iter), "--format", fmt]
    if alpha is not None:
        argv.append(f"--alpha={alpha}")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        return
    assert err == ""
    assert "nan" not in out.lower()


#: ``--n`` items: small multipliers (drawn twice as often, so that many grids
#: reach the sweep), and counts too large for a walk or for 64 bits. Mid-size
#: n is left out: the reference walks n * K terms in mpmath.
N_ITEMS = st.one_of(
    st.integers(0, 20).map(str),
    st.integers(0, 20).map(str),
    st.sampled_from(["-1", "-5", "", " ", "x", "1.5", "0x2", str(2**62), str(2**63), str(10**30)]),
)


@given(
    experiment=st.sampled_from(["accuracy", "runtime"]),
    n=st.lists(N_ITEMS, min_size=1, max_size=4).map(",".join),
    n_as_one_arg=st.booleans(),
    repeats=st.sampled_from(["3", "3", "4", "2", "x", "-3", ""]),
    fmt=st.sampled_from(["csv", "json"]),
)
@settings(max_examples=100, deadline=None)
def test_bench_keeps_its_contract(experiment, n, n_as_one_arg, repeats, fmt):
    # ``--n=-1,2`` reaches the program; ``--n -1,2`` is refused by argparse.
    # A default grid or --repeats would make each runtime sweep take seconds.
    n_flag = [f"--n={n}"] if n_as_one_arg else ["--n", n]
    argv = ["bench", experiment, *n_flag, f"--repeats={repeats}", "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the command line
                code = exc.code
    out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        return
    assert err == ""
    assert "nan" not in out.lower()
    grid = n.split(",")
    if fmt == "json":
        assert len(json.loads(out)["records"]) == 2 * len(grid)
    else:
        assert len(out.splitlines()) == 1 + 2 * len(grid)
