"""Table ingest against its references: ``CountVector`` with the plain-int
shortcut and the split-based CSV parse give the results, or raise the
errors, of the versions kept in ``conftest`` (every cell through the
``numbers.Integral`` check, every line through ``csv.reader``)."""

import re
import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmnll.cli
from dmnll import CountVector
from dmnll.cli import (
    TableParseError,
    _int_literal,
    _json_ints,
    _read_columns,
    _scan,
    main,
    parse_count_table,
)
from conftest import OldCountVector, old_parse_count_table


def outcome(build, *args):
    """What ``build(*args)`` returns, as plain values, or its error's type and message."""
    try:
        out = build(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    if isinstance(out, CountVector):
        return out.counts, out.total
    return out.column_names, [(r.counts, r.total) for r in out.rows]


# ---------------------------------------------------------------------------
# CountVector
# ---------------------------------------------------------------------------


class SubInt(int):
    """An int subclass: not a plain int, so it takes the checked path."""


CELLS = st.one_of(
    st.integers(min_value=-3, max_value=1 << 64),
    st.sampled_from([(1 << 63) - 1, 1 << 63, -(1 << 63)]),
    st.booleans(),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1).map(np.int64),
    st.integers(min_value=0, max_value=(1 << 64) - 1).map(np.uint64),
    st.integers(min_value=-3, max_value=1 << 64).map(SubInt),
    st.floats(),
    st.fractions(max_denominator=5),
    st.lists(st.integers(0, 5), min_size=1, max_size=3).map(CountVector),
    st.sampled_from(["1", None]),
)

PINNED_COUNTS = [
    [3, 0, 7],
    [],
    [True, False, 2],
    [np.int64(2), np.int64(5)],
    [np.uint64(1 << 63)],
    [np.uint64((1 << 63) - 1)],
    [1.0],
    [1.5, 2],
    [Fraction(4, 2)],
    [Fraction(1, 2)],
    [-1, 2],
    [2, -1, 1.5],
    [1 << 63],
    [(1 << 63) - 1, (1 << 63) - 1],
    [CountVector([1]), 2],
    [1, CountVector([1])],
    [SubInt(4), SubInt(-4)],
]


@pytest.mark.parametrize("counts", PINNED_COUNTS, ids=repr)
def test_count_vector_pinned_matches_reference(counts):
    assert outcome(CountVector, counts) == outcome(OldCountVector, counts)


@settings(max_examples=400, deadline=None)
@given(st.lists(CELLS, max_size=6), st.one_of(st.none(), st.integers(0, 20)))
def test_count_vector_matches_reference(counts, total):
    assert outcome(CountVector, counts, total) == outcome(OldCountVector, counts, total)


def test_count_vector_pins_the_first_bad_cell():
    # cells are checked in order: the negative before the float after it
    assert outcome(CountVector, [2, -1, 1.5])[1] == "counts must be non-negative, got -1"
    assert outcome(CountVector, [np.uint64(1 << 63)])[1] == (
        f"count {1 << 63} does not fit in 64 bits"
    )


def test_plain_ints_are_kept_as_given():
    x = CountVector([0, 5, (1 << 63) - 1])
    assert x.counts == (0, 5, (1 << 63) - 1)
    assert all(type(c) is int for c in x.counts)
    assert [type(c) for c in CountVector([True, np.int64(3)]).counts] == [int, int]


# ---------------------------------------------------------------------------
# parse_count_table
# ---------------------------------------------------------------------------


#: Cells that JSON's grammar and int's read differently: JSON refuses the
#: integer literals "00" and "+3" (among others), and reads the last eight
#: bad cells as no integer.
INT_TEXT = st.one_of(
    st.integers(min_value=-3, max_value=1 << 64).map(str),
    st.sampled_from(["+3", "1_0", "007", "00", "-0", "١٢", "５", "9" * 25]),
)
BAD_TEXT = st.sampled_from(
    ["x", "", "1.5", "1 2", "1__0", "a,b", "²", "nan",
     "1e3", "1.0", "true", "null", "NaN", "-Infinity", "[1]", "{}"]
)
PAD = st.sampled_from(["", " ", "\t", "  ", " ", " "])


@st.composite
def cell_text(draw):
    body = draw(st.one_of(INT_TEXT, INT_TEXT, BAD_TEXT))
    pad = draw(PAD)
    text = draw(PAD) + body + pad
    if draw(st.integers(0, 4)) == 0:
        # a CSV-quoted cell; a comma inside stays one cell
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def table_text(draw):
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        names = st.sampled_from(["a", "b", '"c"', " d "])
        lines.append(",".join(draw(st.lists(names, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# note", " # x,y", "\t"])))
        else:
            # now and then a ragged row
            n = width if kind > 1 else draw(st.integers(1, 5))
            lines.append(",".join(draw(st.lists(cell_text(), min_size=n, max_size=n))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


PINNED_TABLES = [
    "a,b\n1,2\n3,4\n",
    "# comment\na,b\n1,2\n\n3,4\n",
    "1,2\n3,4\n",
    '"1","2"\n3,4\n',
    '1,"2"\n3,4\n',
    '1,"2,3"\n',
    'a,"b,c"\n1,"2"\n',
    '1,"2,3"\n4,5\n',
    " 1 , 2 \n\t3\t,\t4\t\n",
    "+3,1_0\n",
    "١٢,５\n",
    " 1 , 2 \n",
    "a,b\n1,2\n1,2,3\n",
    "a,b\n1,2\n1\n",
    "a,b\n1,2\n1,x\n",
    "a,b\n-1,2\n",
    "1,-2\n3,4\n",
    "a,b\n-1,x\n",
    "a,b\n1,x,-1\n",
    f"a,b\n{1 << 63},x\n",
    f"{1 << 63},1\n",
    "x\n",
    "",
    "# only comments\n",
    "a,b\n1,\n",
    'a,b\n"",1\n',
    'a,b\n1"2,3\n',
    "a,b\r\n1,2\r\n",
]


@pytest.mark.parametrize("text", PINNED_TABLES, ids=repr)
def test_parse_pinned_matches_reference(text):
    assert outcome(parse_count_table, text, "t.csv") == outcome(
        old_parse_count_table, text, "t.csv"
    )


@settings(max_examples=400, deadline=None)
@given(table_text())
def test_parse_matches_reference(text):
    assert outcome(parse_count_table, text, "t.csv") == outcome(
        old_parse_count_table, text, "t.csv"
    )


def test_parse_reports_the_first_bad_cell_of_a_row():
    # the negative count comes before the non-integer cell, so it is the error
    _, message = outcome(parse_count_table, "a,b\n-1,x\n", "t.csv")
    assert message == "t.csv line 2: counts must be non-negative, got -1"
    _, message = outcome(parse_count_table, "a,b\nx,-1\n", "t.csv")
    assert message == "t.csv line 2: invalid literal for int() with base 10: 'x'"


def test_oversized_quoted_field_is_a_parse_error(tmp_path, capsys):
    # csv.reader caps a field at 128 KiB; that is an input error, not a crash
    path = tmp_path / "big.csv"
    path.write_text('"' + "1" * 200_000 + '"\n')
    assert main(["loglik", str(path), "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} line 1: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,2\n-1,3\n1,x\n", 2),  # a negative count before a bad literal
        ("1,x\n-1,2\n", 2),  # a header, then a negative count
        ("1,2\n1,x\n-1,3\n", 2),  # a bad literal before a negative count
        (f"1,2\n3,{1 << 63}\n-1,0\n", 2),
        ("1,2\n-1,3\n1,2,3\n", 2),  # a ragged line after a negative count
        ("1,2\n" * 9_999 + "1,-2\n", 10_000),  # the only bad cell is in the last row
    ],
    ids=["negative-then-literal", "header-then-negative", "literal-then-negative",
         "range-then-negative",
         "negative-then-ragged", "last-of-10000"],
)
def test_parse_reports_the_first_error_in_row_order(text, line):
    # the counts are checked a column at a time, which can see a later
    # fault first; the error must still be the first in row order
    expected = outcome(old_parse_count_table, text, "t.csv")
    assert expected[1].startswith(f"t.csv line {line}: ")
    assert outcome(parse_count_table, text, "t.csv") == expected


# A 5000-digit literal, zero-padded to 7: int() refuses it (its digit limit
# is 4300), so the whole table is converted again, cell by cell, stripped.
PADDED_SEVEN = "0" * 4999 + "7"

# A literal JSON's grammar accepts and then refuses, as int() does, for
# being past the digit limit.
DIGITS_4301 = "9" * 4301


def plain_table_ending_in(cell):
    """A headerless table of 10 000 rows of plain digits whose last row
    holds ``cell``: it fails the one-call decode only at its end."""
    return "".join(f"{r % 7},{r % 5}\n" for r in range(9_999)) + f"3,{cell}\n"


WHOLE_TABLE_CASES = {
    "comments-and-blanks-between-rows": "a,b\n1,2\n# note\n\n  \n3,4\n\t\n #x\n5,6\n",
    "empty-line-and-no-comment": "a,b\n1,2\n\n3,4\n",
    "whitespace-line-and-no-comment": "1,2\n \x1f\n3,4\n",
    # a one-column table would read a blank first line as the header ('',)
    "blank-first-line-one-column": "\n5\n3\n",
    "whitespace-first-line-one-column": " \x1f\n5\n3\n",
    "ideographic-space-first-line-one-column": "\u3000\n5\n3\n",
    "blank-line-after-a-one-column-header": "a\n\n5\n3\n",
    "quoted-and-unquoted-rows": 'a,b\n"1",2\n3,4\n5," 6"\n7,8\n',
    "hash-in-a-quoted-header-cell": '"#a",b\n1,2\n3,4\n',
    "hash-in-a-quoted-last-header-cell": 'a,"#b"\n1,2\n',
    "crlf-and-unit-separator-padding": "a,b\r\n1,\x1f2\x1f\r\n\x1f3,4\r\n",
    "line-ending-in-a-comma": "a,b\n1,2\n3,4,\n",
    "line-ending-in-a-comma-at-its-width": "a,b,c\n1,2,3\n4,5,\n",
    "padded-literal-in-row-9000": "".join(
        f"{PADDED_SEVEN if r == 8999 else r % 7},{r % 5}\n" for r in range(10_000)
    ),
    "ragged-line-in-a-quoted-table": 'a,b\n"1",2\n3,"4",5\n6,7\n',
    "space-and-tab-padded-cells": "a,b\n 1,2 \n\t3 , 4\t\n5,\t 6\n",
    "4301-digit-cell-after-a-negative-count": f"a,b\n1,2\n-1,3\n{DIGITS_4301},4\n",
    # every count fits in 64 bits, and the totals of rows 2 and 3 do not
    "totals-past-64-bits": f"a,b\n1,2\n{(1 << 63) - 1},1\n{(1 << 63) - 1},{(1 << 63) - 1}\n",
    "count-of-2-to-the-63": f"a,b\n1,2\n{(1 << 63) - 1},{1 << 63}\n",
    **{
        f"last-row-cell-{name}": plain_table_ending_in(cell)
        for name, cell in {
            **{c: c for c in ["00", "1e3", "1.0", "true", "null", "NaN", "-Infinity",
                              "[1]", "{}", "false", "Infinity", "1E3"]},
            "space-and-tab-padded": " 7\t",
            "unit-separator-padded": "7\x1f",
        }.items()
    },
}


def reference(text):
    """:func:`old_parse_count_table`'s outcome, with no limit on the digits
    ``int`` reads, so that it reads a padded literal as the parse does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return outcome(old_parse_count_table, text, "t.csv")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text", WHOLE_TABLE_CASES.values(), ids=WHOLE_TABLE_CASES.keys())
def test_whole_table_parse_matches_reference(text):
    assert outcome(parse_count_table, text, "t.csv") == reference(text)


def test_whole_table_cases_reach_what_they_name():
    padded = parse_count_table(WHOLE_TABLE_CASES["padded-literal-in-row-9000"])
    assert padded.rows[8999].counts == (7, 4)
    assert len(padded.rows) == 10_000
    for name in ["line-ending-in-a-comma", "line-ending-in-a-comma-at-its-width",
                 "ragged-line-in-a-quoted-table"]:
        with pytest.raises(TableParseError, match="^t.csv line 3: "):
            parse_count_table(WHOLE_TABLE_CASES[name], "t.csv")
    table = parse_count_table(WHOLE_TABLE_CASES["hash-in-a-quoted-header-cell"])
    assert table.column_names == ("#a", "b")
    table = parse_count_table(WHOLE_TABLE_CASES["crlf-and-unit-separator-padding"])
    assert [r.counts for r in table.rows] == [(1, 2), (3, 4)]
    # the one-call decode reads a padded plain table, and leaves every other
    # last-row cell, and a literal past the digit limit, to int
    for name, text in WHOLE_TABLE_CASES.items():
        if name.startswith("last-row-cell-"):
            decoded = _json_ints(",".join(text.splitlines()), 20_000)
            assert (decoded is not None) == (name == "last-row-cell-space-and-tab-padded")
    assert _json_ints(f"1,{DIGITS_4301}", 2) is None
    padded = parse_count_table(WHOLE_TABLE_CASES["last-row-cell-space-and-tab-padded"])
    assert padded.rows[-1].counts == (3, 7)
    # totals past 64 bits are the one-call decode's; a count past them is
    # the line scan's, which names its line
    big = (1 << 63) - 1
    read = _read_columns(WHOLE_TABLE_CASES["totals-past-64-bits"].splitlines())
    assert read == (("a", "b"), [[1, big, big], [2, 1, big], [3, big + 1, 2 * big]])
    text = WHOLE_TABLE_CASES["count-of-2-to-the-63"]
    assert _read_columns(text.splitlines()) is None
    with pytest.raises(TableParseError, match=f"^t.csv line 3: count {1 << 63} does not fit"):
        _scan(text, "t.csv")
    # a blank first line is dropped, not read as a header
    for name in ["blank-first-line-one-column", "whitespace-first-line-one-column",
                 "ideographic-space-first-line-one-column"]:
        table = parse_count_table(WHOLE_TABLE_CASES[name])
        assert (table.column_names, table.columns) == (None, [[5, 3], [5, 3]])
    table = parse_count_table(WHOLE_TABLE_CASES["blank-line-after-a-one-column-header"])
    assert (table.column_names, table.columns) == (("a",), [[5, 3], [5, 3]])


def test_a_wide_table_is_totalled_a_few_columns_at_a_time():
    # one nest of map calls over all its columns would be 100 000 levels of
    # C calls deep, past the C stack
    width = 100_000
    table = parse_count_table(",".join(["1"] * width) + "\n" + ",".join(["2"] * width) + "\n")
    assert (table.k, table.columns[-1]) == (width, [width, 2 * width])


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 128, 129, 1000])
def test_row_totals_hold_at_every_width(width):
    # three rows of distinct counts, at widths on and either side of 64
    rows = [[r * width + k + 1 for k in range(width)] for r in range(3)]
    text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    with patch.object(dmnll.cli, "_scan", wraps=_scan) as scan:
        columns = parse_count_table(text).columns
    assert not scan.called  # the decode read it
    assert columns == _scan(text, "<input>").columns
    assert columns[-1] == list(map(sum, rows))
    # a one-column table's totals are a list of their own
    assert all(column is not columns[-1] for column in columns[:-1])


# ---------------------------------------------------------------------------
# integer literals
# ---------------------------------------------------------------------------

#: The integer-literal pattern the parse once matched cells against: the
#: oracle of :func:`_int_literal`.
OLD_INT_LITERAL = r"([+-]?)(\d+(?:_\d+)*)"

#: Signs, underscores, ASCII and other decimal digits (Arabic-Indic,
#: Devanagari, fullwidth, NKo), a digit that is not decimal, and letters.
LITERAL_CHARS = "+-_0189\u0663\u096b\uff15\u07c0\u00b2ab"


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(LITERAL_CHARS), max_size=8))
def test_int_literal_matches_the_old_pattern(cell):
    match = re.fullmatch(OLD_INT_LITERAL, cell)
    assert _int_literal(cell) == (match and match.groups())


class NoRegex:
    """A stand-in for the ``re`` module whose every function fails."""

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"re.{name} called")

        return refuse


def test_a_table_is_parsed_without_a_regex(monkeypatch):
    monkeypatch.setattr(dmnll.cli, "re", NoRegex())
    assert parse_count_table("a,b\n1,2\n3,4\n").column_names == ("a", "b")
    assert parse_count_table("1,2\n3,4\n").columns == [[1, 3], [2, 4], [3, 7]]
    # JSON refuses the padded literal and int() its length: the line scan
    # reads it through _to_int's fallback
    table = parse_count_table(f"a,b\n{PADDED_SEVEN},1\n2,3\n")
    assert [r.counts for r in table.rows] == [(7, 1), (2, 3)]


# ---------------------------------------------------------------------------
# the two readers
# ---------------------------------------------------------------------------

PAD_JSON = st.sampled_from(["", " ", "\t", " \t", "  "])

#: Spellings of a count JSON refuses and ``int`` reads, padding inside the
#: quotes of a quoted cell, as CSV keeps it there.
RESPELLINGS = {
    "quoted": lambda n, a, b: f'"{a}{n}{b}"',
    "plus": lambda n, a, b: f"{a}+{n}{b}",
    "zero-padded": lambda n, a, b: f"{a}0{n}{b}",
}


@st.composite
def json_table(draw):
    """A table the one-call decode reads, and the same table with its cells
    spelled as only the line scan reads them: ``(text, respelled)``."""
    width = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, (1 << 63) - 1), min_size=width, max_size=width),
            min_size=1,
            max_size=6,
        )
    )
    spelling = RESPELLINGS[draw(st.sampled_from(sorted(RESPELLINGS)))]
    lines, respelled = [], []
    if draw(st.booleans()):
        name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
        names = draw(st.lists(name, min_size=width, max_size=width))
        header = ",".join(draw(PAD_JSON) + c + draw(PAD_JSON) for c in names)
        lines.append(header)
        respelled.append(header)
    noise = st.sampled_from(["", " ", "\t", "# note", ' # "x",1e3', "#"])
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            line = draw(noise)
            lines.append(line)
            respelled.append(line)
        pads = [(draw(PAD_JSON), draw(PAD_JSON)) for _ in row]
        lines.append(",".join(f"{a}{n}{b}" for n, (a, b) in zip(row, pads)))
        respelled.append(",".join(spelling(n, a, b) for n, (a, b) in zip(row, pads)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + end, newline.join(respelled) + end


@settings(max_examples=300, deadline=None)
@given(json_table())
def test_the_two_readers_agree(texts):
    text, respelled = texts
    content = [raw for raw in text.splitlines() if (s := raw.strip()) and not s.startswith("#")]
    assert _read_columns(content) is not None  # the one-call decode reads it
    scanned = _scan(text, "<input>")
    # the filtered text is decoded even where a noise line sends ``text`` to the scan
    for table in map(parse_count_table, ["\n".join(content), text, respelled]):
        assert (table.columns, table.column_names) == (scanned.columns, scanned.column_names)


@st.composite
def plain_table(draw):
    """The lines of a table the one-call decode reads, and its newline."""
    width = draw(st.integers(1, 4))
    count = st.integers(0, (1 << 63) - 1)
    rows = draw(st.lists(st.lists(count, min_size=width, max_size=width), min_size=1, max_size=6))
    lines = []
    if draw(st.booleans()):
        names = st.sampled_from(["a", "b", "c_1", " d "])
        lines.append(",".join(draw(st.lists(names, min_size=width, max_size=width))))
    lines += [",".join(draw(PAD_JSON) + str(n) + draw(PAD_JSON) for n in row) for row in rows]
    return lines, draw(st.sampled_from(["\n", "\r\n"]))


BLANK_LINES = st.sampled_from(["", " ", "\t", " \t ", "\x1f", "\u3000"])
NOTE_LINES = st.sampled_from(["# note", " # x,y", "#", "#1,2"])


@settings(max_examples=200, deadline=None)
@given(plain_table(), st.lists(BLANK_LINES, min_size=1, max_size=3),
       st.one_of(BLANK_LINES, NOTE_LINES), st.booleans())
def test_only_a_table_that_ends_in_blank_lines_is_decoded(table, trailing, noise, first):
    lines, newline = table
    with patch.object(dmnll.cli, "_scan", wraps=_scan) as scan:
        clean = parse_count_table(newline.join(lines) + newline)
        # blank and whitespace-only lines at the end leave the table to the decode
        ended = parse_count_table(newline.join(lines + trailing) + newline)
        assert scan.call_count == 0
        assert (ended.columns, ended.column_names) == (clean.columns, clean.column_names)
        # a blank or comment line first, or before the last row, sends it to the scan
        at = 0 if first else len(lines) - 1
        noisy = parse_count_table(newline.join([*lines[:at], noise, *lines[at:]]) + newline)
        assert scan.call_count == 1
        assert (noisy.columns, noisy.column_names) == (clean.columns, clean.column_names)
