"""Command-line front end: evaluate likelihoods, fit parameters, run benchmarks.

Input count tables are UTF-8 CSV, one observation per row, integer cells,
with an optional header row of category names; blank lines and lines
starting with ``#`` are ignored, and so is a leading byte order mark.  A
table has two readers, and is read by the first that takes it.  One
whose lines, joined into one block of cells, can hold only JSON integers
(no quote, point, exponent, ``n``, ``N`` or bracket) is parsed whole,
straight into columns, K count columns and their totals: one
``json.loads`` decodes the block, each count column is a slice of its
ints, and the counts are checked all at once for negatives, and for 64
bits by their row totals, which bound them.  ``dmnll loglik`` hands those
columns to the table evaluator as they are, and ``dmnll fit`` hands the
parsed table, a ``Dataset``, to the fit itself, with no per-row objects.
Every other table is read line by line, each line's cells checked in
order into one ``CountVector`` per row, so an error names the first bad
cell in row order and its line.  Only that reader drops blank and
comment lines: a table with one before its last row is read line by
line, several times slower than the decode would read it.

Results are printed as CSV or canonical JSON (``--format``), to stdout or
``--out``.  ``dmnll loglik`` writes its rows in one formatting pass, one
``%``-format of a repeated row template, in either format; its JSON bytes
are ``canonical_json``'s, ``-inf`` written as ``-Infinity``, with no dict
built per row.  Exit codes: 0 success, 1 computation/domain error, 2 usage,
parse or I/O error, a failed write to stdout (a closed pipe, a full disk)
and a closed stdin or stdout included.  An ``error:`` line that stderr
cannot take is lost, and the exit code is kept.

The command line is read by :func:`parse_args` from one table of the
commands, their positionals and their flags (``_COMMANDS``), which the
``--help`` text reads too.  It accepts what argparse would accept for
these flags and refuses the rest with argparse's message, as one
``error:`` line, except that ``--flag=--`` gives the flag the value
``--`` (argparse stored an empty list).  Not importing argparse, and the
``gettext`` and ``locale`` it loads, saves every command a few ms.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
import sys
from itertools import repeat
from operator import add
from types import SimpleNamespace

from .core import (
    _MAX_COUNT,
    SCHEMA_VERSION,
    AlphaParams,
    CountVector,
    Dataset,
    DmnError,
    DomainError,
    MeanPhiParams,
    Method,
    _loglik_columns,
    canonical_json,
    dmn_loglik_exact,  # noqa: F401  perfbench/spans.py rebinds this name here
    dmn_loglik_lgamma,  # noqa: F401  perfbench/spans.py rebinds this name here
    params_from_mean_phi,
)
from .estimate import DEFAULT_MAX_ITER, DEFAULT_TOL, fit_alpha_mle

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flag combination or unusable input; maps to exit code 2."""


class TableParseError(UsageError):
    """A count table could not be parsed; message carries the line number."""


class CountTable(Dataset):
    """A parsed count table: the :class:`Dataset` the fit takes, plus the
    column names of its header, if it has one.

    ``rows`` are its ``observations``, built from the parsed ``columns``
    when first read.  A table made from its rows,
    ``CountTable(rows=..., column_names=...)``, keeps them and transposes
    them once into its columns.
    """

    def __init__(self, rows=(), column_names=None, *, columns=None):
        super().__init__(rows, _from_columns=columns)
        object.__setattr__(self, "column_names", column_names)

    @property
    def rows(self) -> tuple[CountVector, ...]:
        return self.observations


def parse_count_table(text: str, source: str = "<input>") -> CountTable:
    """Parse a counts CSV into columns: a :class:`CountTable`, which is the
    :class:`Dataset` the fit takes.

    The first row that is neither blank nor a comment is taken as a header
    unless every cell in it is an integer literal (even one too long for
    ``int``), in which case the table is treated as headerless.  A leading
    byte order mark is dropped, so it cannot make a data row a header.

    A table is decoded once, and read line by line if that decode refuses
    it.  The decode (:func:`_read_columns`) reads the text, less its
    trailing whitespace, straight into columns: every line's width is
    checked at once, one ``json.loads`` converts all its cells, and the
    counts are checked for negatives at once, and for 64 bits by their row
    totals.  The line scan (:func:`_scan`) checks each line's cells in
    order into one :class:`CountVector` per row, so that an error names the
    first bad cell and its line.  Only the scan drops blank and comment
    lines, so a table with one before its last row pays for it: a 10 000-row
    table with a comment first parses several times slower than without.
    """
    text = text.removeprefix("\ufeff")
    read = _read_columns(text.rstrip().splitlines())
    if read is None:
        return _scan(text, source)
    header, columns = read
    return CountTable(columns=columns, column_names=header)


def _read_columns(lines: list[str]) -> tuple[tuple[str, ...] | None, list] | None:
    """The header, if any, and the K count columns and their totals of a
    table's lines, read by one ``json.loads``; ``None`` for a table it does
    not read.  It refuses a blank first line and a first line that holds a
    ``#``, which it would read as a header; a blank or comment line after
    the first is an empty cell, or a character JSON refuses, so a table
    that holds one is refused too.

    It reads a table whose every line has the header's width, whose cells
    JSON reads as integers (:func:`_json_ints`) and whose counts are
    non-negative and fit in 64 bits.  The totals are summed first: a
    non-negative count is at most its row's total, so the cells are checked
    for 64 bits only when a total is past them.  It raises nothing and says
    nothing of where another table fails: :func:`_scan` reads and checks
    that one.
    """
    if not lines or not lines[0].strip() or "#" in lines[0]:
        return None
    try:
        names = tuple(map(str.strip, _split_cells(lines[0])))
    except csv.Error:
        return None
    width = len(names)
    header = None
    if not _all_ints(names):
        header, lines = names, lines[1:]
    if not lines or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    joined = ",".join(lines)
    values = _json_ints(joined, width * len(lines))
    # only a minus sign makes a literal negative
    if values is None or "-" in joined and min(values) < 0:
        return None
    counts = [values[k::width] for k in range(width)]
    # each row's total, added a column at a time in C, with no tuple per row
    totals = counts[0][:]
    for column in counts[1:]:
        totals = [*map(add, totals, column)]
    # a non-negative count is at most its row's total, so only a table with
    # a total past 64 bits has its cells checked for 64 bits
    if max(totals) > _MAX_COUNT and max(values) > _MAX_COUNT:
        return None
    return header, [*counts, totals]


#: What a block of cells must hold none of for JSON to read it as integers
#: only: a string's quote, a float's point and exponent (``e`` is also in
#: true and false), ``n`` and ``N`` (in null, NaN and Infinity), and an
#: array's or object's bracket.
_NOT_JSON_INT = '".eEnN[{'


def _json_ints(joined: str, size: int) -> list[int] | None:
    """The ``size`` ints of ``joined``, comma-separated cells, read by one
    ``json.loads``; ``None`` if JSON cannot read them all as integers.

    Where JSON reads a cell as an integer, ``int`` reads it too, as the
    same value (``json`` calls ``int`` on the literal).  Some cells that
    JSON refuses are counts all the same, which :func:`_scan` reads: a
    leading zero, a ``+``, a ``_``, a non-ASCII digit, padding other than
    spaces and tabs, and a literal past ``int``'s digit limit.
    """
    if any(map(joined.__contains__, _NOT_JSON_INT)):
        return None
    try:
        values = json.loads(f"[{joined}]")
    except ValueError:  # a JSONDecodeError, or a literal past the digit limit
        return None
    return values if len(values) == size else None


def _scan(text: str, source: str) -> CountTable:
    """The table read line by line, one :class:`CountVector` per row.

    Each line's cells are checked in order as :class:`CountVector` checks
    them, so the first bad cell of the first bad line raises
    :class:`TableParseError`, naming the line; a ragged or unsplittable
    line, or a table with no observations, is an error too.
    """
    width = None
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            cells = _split_cells(raw)
            if width is None:
                width = len(cells)
                names = tuple(map(str.strip, cells))
                if not _all_ints(names):
                    header = names
                    continue
            elif len(cells) != width:
                raise ValueError(f"expected {width} columns, found {len(cells)}")
            # map converts lazily in cell order, so the first bad cell is
            # reported, be it a bad literal or a bad count
            rows.append(CountVector(map(_to_int, map(str.strip, cells))))
        except (ValueError, csv.Error) as exc:  # a DomainError is a ValueError
            raise TableParseError(f"{source} line {lineno}: {exc}") from exc
    if not rows:
        raise TableParseError(f"{source}: no count observations found")
    return CountTable(rows=rows, column_names=header)


def _split_cells(raw: str) -> list[str]:
    """The CSV cells of one line, unstripped.

    A line without a quote character splits on commas exactly as
    ``csv.reader`` would split it; only quoted lines need the reader, whose
    :class:`csv.Error` is passed on.
    """
    if '"' not in raw:
        return raw.split(",")
    return next(csv.reader([raw]))


def _all_ints(cells) -> bool:
    """Whether every stripped cell is an integer literal, of any length."""
    return all(map(_int_literal, cells))


def _int_literal(cell: str) -> tuple[str, str] | None:
    """The sign and the digits of a stripped cell that is an integer
    literal as ``int`` reads it, else ``None``.

    Such a literal is a sign, then (Unicode) decimal digits with single
    underscores between them: every ``_``-separated part after the sign is
    ``str.isdecimal``.  It accepts what ``int`` accepts, and literals past
    ``int``'s digit limit.
    """
    sign = cell[:1] if cell[:1] in ("+", "-") else ""
    digits = cell[len(sign) :]
    return (sign, digits) if all(map(str.isdecimal, digits.split("_"))) else None


def _to_int(cell: str) -> int:
    """``int(cell)``, extended to integer literals past ``int``'s digit limit.

    Python refuses to convert a literal of more than 4300 digits (its
    default limit).  Unless leading zeros make it that long, such a literal
    is far past 64 bits either way, and it fails as a count out of range.
    """
    try:
        return int(cell)
    except ValueError:
        literal = _int_literal(cell)
        if literal is None:
            raise
    sign, digits = literal
    digits = digits.replace("_", "").lstrip("0") or "0"
    if len(digits) <= 19:  # as many as 2^63 - 1 has
        return int(sign + digits)
    if sign == "-":
        raise DomainError(f"counts must be non-negative, got a {len(digits)}-digit negative count")
    raise DomainError(f"count of {len(digits)} digits does not fit in 64 bits")


def _read_table(path: str) -> CountTable:
    """The table at ``path`` (``-`` for stdin), read as strict UTF-8; a
    closed stdin cannot be read, as a file that cannot be opened."""
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            data = _open_stream(sys.stdin).buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{source} is not UTF-8: {exc}") from exc
    return parse_count_table(text, source=source)


def _parse_numbers(text: str, flag: str, kind: type = float) -> tuple:
    """The comma-separated values of ``flag``, each read by ``kind`` (float or int)."""
    try:
        return tuple(map(kind, text.split(",")))
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag} expects comma-separated {noun}, got {text!r}") from exc


def _emit(text: str, out: str | None, mode: str = "w") -> None:
    """Write ``text`` to the file ``out``, or to stdout if ``None``: the one
    writer of every output.  A failed write is a :class:`UsageError`."""
    try:
        if out is None:
            _write(sys.stdout, text)
        else:
            with open(out, mode, encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {'<stdout>' if out is None else out}: {exc}") from exc


def _open_stream(stream):
    """``stream``, one of Python's standard streams, if it is open.  Python
    makes it ``None`` when its descriptor was closed at start; reading or
    writing that is an ``OSError``, as it is for a closed descriptor."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream``, stdout or stderr, and flush it.  A
    failed write, or a closed stream (:func:`_open_stream`), is passed on,
    after an open stream is dropped (:func:`_drop`)."""
    _open_stream(stream)
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        _drop(stream)
        raise


def _drop(stream) -> None:
    """Point ``stream``'s descriptor at ``os.devnull``, as the ``signal``
    module's docs advise for a closed pipe, so that the flush at exit cannot
    fail again; a stream with none is left as it is."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # no descriptor, or a closed stream
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _check_writable(out: str) -> None:
    """Fail as :func:`_emit` would, before a long run, if ``out`` cannot be
    written.  An existing file is appended nothing, and a file this check
    creates is removed again."""
    existed = os.path.lexists(out)
    _emit("", out, mode="a")
    if not existed:
        os.remove(out)


# ---------------------------------------------------------------------------
# loglik
# ---------------------------------------------------------------------------


def _resolve_eval_params(args):
    """Work out the parameterization and method from --alpha/--p/--phi/--method."""
    has_alpha = args.alpha is not None
    has_p = args.p is not None
    has_phi = args.phi is not None
    if has_alpha and (has_p or has_phi):
        raise UsageError("--alpha and --p/--phi are mutually exclusive")
    if has_p != has_phi:
        raise UsageError("--p and --phi must be given together")
    if not has_alpha and not has_p:
        raise UsageError("parameters required: either --alpha or --p with --phi")

    method = args.method or ("phi" if has_p else "exact")
    if method == "phi":
        if not has_p:
            raise UsageError("--method phi needs --p and --phi, not --alpha")
        return MeanPhiParams(_parse_numbers(args.p, "--p"), args.phi), method
    if has_alpha:
        return AlphaParams(_parse_numbers(args.alpha, "--alpha")), method
    # alpha-based method requested through (p, phi); fails loudly at phi = 0
    mp = MeanPhiParams(_parse_numbers(args.p, "--p"), args.phi)
    return params_from_mean_phi(mp), method


def cmd_loglik(args) -> str:
    """The ``dmnll loglik`` document: each row's log-likelihood and terms,
    then their total, as CSV or JSON.

    The rows are written in one formatting pass (:func:`_format_rows`),
    with no line or dict built per row.  The JSON bytes are
    :func:`canonical_json`'s for the document of the ``method``, ``rows``
    (each a ``loglik``, ``row`` and ``terms``), ``schema_version`` and
    ``total``, ``-inf`` written as ``-Infinity``, but no dict is built and
    ``json``'s encoder does not run.
    """
    table = _read_table(args.table)
    params, method = _resolve_eval_params(args)
    values, terms = _loglik_columns(params, table.columns, Method(method))
    rows = range(len(values))
    total = math.fsum(values)

    if args.format == "json":
        # every row but the last ends in a comma
        block = _format_rows(_JSON_ROW, values, rows, terms)[:-2]
        text = (
            f'{{\n  "method": {json.dumps(method)},\n  "rows": [\n{block}\n  ],\n'
            f'  "schema_version": {SCHEMA_VERSION},\n  "total": {total!r}\n}}\n'
        )
        # json writes a -inf row or total as -Infinity, and no key or method
        # holds "inf"; the total (an fsum) is finite if, and only if, every row is
        return text if math.isfinite(total) else text.replace("inf", "Infinity")
    block = _format_rows("%d,%r,%d\n", rows, values, terms)
    return f"row,loglik,terms\n{block}total,{total!r},{sum(terms)}\n"


#: One row of the ``dmnll loglik`` JSON document, as :func:`canonical_json`
#: indents it, its keys sorted: filled from the row's value, index and terms.
_JSON_ROW = '    {\n      "loglik": %r,\n      "row": %d,\n      "terms": %d\n    },\n'


def _format_rows(template: str, *columns) -> str:
    """``template`` once per row, filled from the row's cell of each of
    ``columns`` in turn: one ``%``-format of the repeated template over the
    columns flattened row by row.

    Each column fills its own stride of the flat list by one slice
    assignment, about a third of the time of flattening their ``zip``."""
    width, n = len(columns), len(columns[0])
    flat = [None] * (width * n)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return (template * n) % tuple(flat)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> str:
    table = _read_table(args.table)
    if table.k == 1:
        # Unusable input rather than a failed computation.
        raise UsageError(
            "the table has a single category; its likelihood is constant "
            "and there is nothing to fit"
        )
    init = None
    if args.alpha is not None:
        init = AlphaParams(_parse_numbers(args.alpha, "--alpha"))
    result = fit_alpha_mle(table, init=init, max_iter=args.max_iter, tol=args.tol)
    names = table.column_names or tuple(
        str(i) for i in range(len(result.alpha_hat.alpha))
    )

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "alpha_hat": list(result.alpha_hat.alpha),
            "columns": list(names),
            "loglik": result.loglik,
            "iterations": result.iterations,
            "converged": result.converged,
            "floored": list(result.floored),
        }
        return canonical_json(payload)
    lines = ["field,value"]
    lines += [f"alpha_{name},{a!r}" for name, a in zip(names, result.alpha_hat.alpha)]
    lines.append(f"loglik,{result.loglik!r}")
    lines.append(f"iterations,{result.iterations}")
    lines.append(f"converged,{'true' if result.converged else 'false'}")
    lines.append(f"floored,{';'.join(str(i) for i in result.floored)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> str:
    from . import bench  # imports decimal, which only this command needs

    # looked up on the module now, so that a rebound name takes effect
    defaults = getattr(bench, f"{args.experiment}_defaults")
    sweep = getattr(bench, f"run_{args.experiment}_experiment")
    kwargs = {}
    if args.n is not None:
        kwargs["n_values"] = _parse_numbers(args.n, "--n", int)
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    try:
        cfg = defaults(**kwargs)
    except DmnError as exc:
        # the grid and repeats came straight from the flags
        raise UsageError(str(exc)) from exc
    if args.out is not None:
        # the sweep takes seconds: find an unwritable --out before it
        _check_writable(args.out)
    records = sweep(cfg)
    serialize = bench.records_to_json if args.format == "json" else bench.records_to_csv
    return serialize(records)


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


#: The flags every command has for its output.
_OUTPUT_FLAGS = {
    "--format": (str, ("csv", "json"), "csv", "output format"),
    "--out": (str, None, None, "write the output to this path instead of stdout"),
}

#: Every command, as read by :func:`parse_args` and by the ``--help`` text:
#: the function that runs it, its help, its one positional as (name,
#: choices, help), and its flags, each as flag -> (converter, choices,
#: default, help).  A flag's dest is its name without the leading dashes,
#: with ``-`` read as ``_``.
_COMMANDS = {
    "loglik": (
        cmd_loglik,
        "per-row log-likelihood of a count table",
        ("table", None, "counts CSV ('-' for stdin)"),
        {
            "--alpha": (str, None, None, "concentration parameters, comma-separated"),
            "--p": (str, None, None, "category probabilities, comma-separated"),
            "--phi": (float, None, None, "over-dispersion in [0, 1)"),
            "--method": (
                str,
                tuple(m.value for m in Method),
                None,
                "evaluation route (default: exact with --alpha, phi with --p/--phi)",
            ),
            **_OUTPUT_FLAGS,
        },
    ),
    "fit": (
        cmd_fit,
        "maximum-likelihood fit of alpha from a count table",
        ("table", None, "counts CSV ('-' for stdin)"),
        {
            "--alpha": (str, None, None, "initial concentration parameters (optional)"),
            "--tol": (
                float,
                None,
                DEFAULT_TOL,
                "stop when no alpha_k moves by more than this, relative",
            ),
            "--max-iter": (int, None, DEFAULT_MAX_ITER, "stop after this many iterations"),
            **_OUTPUT_FLAGS,
        },
    ),
    "bench": (
        cmd_bench,
        "run an accuracy or runtime sweep",
        ("experiment", ("accuracy", "runtime"), "the sweep to run"),
        {
            "--n": (str, None, None, "count multipliers, comma-separated"),
            "--repeats": (
                int,
                None,
                None,
                "timing repeats of the runtime sweep, median taken "
                "(the accuracy sweep times one call per point)",
            ),
            **_OUTPUT_FLAGS,
        },
    ),
}

_HELP_FLAGS = {"-h": None, "--help": None}

#: A token that starts with a dash and is still a value: a negative number.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def parse_args(argv) -> SimpleNamespace:
    """Read a command line (without the program name) by :data:`_COMMANDS`,
    in the grammar argparse gives these flags.

    A flag takes its value as the next token or after ``=`` (even a
    ``--``), and a long flag may be cut to a unique prefix.  ``--`` ends
    the flags; ``-``, a negative number and a token with a space in it are
    values, and any other token that starts with a dash is a flag.  The
    last value of a flag wins.  ``-h``/``--help`` prints help on stdout and
    exits 0, or raises :class:`UsageError` if stdout cannot be written.  A
    refused command line writes one ``error:`` line, in argparse's words,
    and raises ``SystemExit(2)``.
    """
    argv = list(argv)
    extras = []  # unknown flags and surplus values, refused at the end
    i = 0
    while i < len(argv) and argv[i] != "--" and (found := _read_flag(argv[i], _HELP_FLAGS)):
        if found[0] is None:
            extras.append(argv[i])
        else:
            _help(*found, None)
        i += 1
    if argv[i:] in ([], ["--"]):
        _refuse("the following arguments are required: command")
    command, *tokens = argv[i:]
    _value("command", str, tuple(_COMMANDS), command)
    run, _, (name, choices, _), options = _COMMANDS[command]
    # every token up to "--" is read as a flag or a value before any value
    # is taken, so an ambiguous prefix is refused first
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_read_flag(token, {**_HELP_FLAGS, **options}) for token in tokens[:end]]
    kinds += ["--"] + [None] * len(tokens)  # past the end, "--" stands for no token
    args = SimpleNamespace(command=command, **{name: None})
    for flag, (_, _, default, _) in options.items():
        setattr(args, _dest(flag), default)
    pending = True  # the positional is still to come
    i = 0
    while i < len(tokens):
        if kinds[i] is None or kinds[i] == "--":
            # as in argparse, the positional takes the first "--" just
            # before or after its value along with it
            at = i + (i == end)
            if pending and at < len(tokens):
                setattr(args, name, _value(name, str, choices, tokens[at]))
                pending = False
                i = at + 1 + (at + 1 == end)
                continue
            extras.append(tokens[i])
        elif kinds[i][0] is None:
            extras.append(tokens[i])
        else:
            flag, value = kinds[i]
            if flag in _HELP_FLAGS:
                _help(flag, value, command)
            if value is None:
                if kinds[i + 1] is not None:  # a flag, "--" or no token at all
                    _refuse(f"argument {flag}: expected one argument")
                i += 1
                value = tokens[i]
            convert, flag_choices, _, _ = options[flag]
            setattr(args, _dest(flag), _value(flag, convert, flag_choices, value))
        i += 1
    if pending:
        _refuse(f"the following arguments are required: {name}")
    if extras:
        _refuse(f"unrecognized arguments: {' '.join(extras)}")
    args.func = run
    return args


def _read_flag(token: str, flags) -> tuple | None:
    """``None`` if ``token`` is a value, else ``(flag, joined value)``.

    ``flag`` is the flag of ``flags`` that ``token`` names, in full or by a
    unique prefix, or ``None`` if it names none.  The joined value is what
    follows the ``=`` of ``--flag=value`` or the ``-h`` of ``-hVALUE``, or
    ``None``.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token.startswith("--"):
        matches = [f for f in flags if f.startswith(name)]
        value = value if eq else None
    else:
        matches = [f for f in flags if f == token[:2]]
        value = token[2:]
    if len(matches) > 1:
        _refuse(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _value(name: str, convert, choices, text: str):
    """``text`` converted, and checked against ``choices``, for ``name``."""
    try:
        value = convert(text)
    except ValueError:
        _refuse(f"argument {name}: invalid {convert.__name__} value: {text!r}")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        _refuse(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _refuse(message: str):
    """Refuse the command line as every usage error is reported: one
    ``error:`` line, exit 2."""
    _report(message)
    raise SystemExit(EXIT_USAGE)


#: Every line boundary of ``str.splitlines``, written as its escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _report(message) -> None:
    """Write ``message`` to stderr as one ``error:`` line: a line break in
    it, from a token or a path, is written as its escape.  If stderr cannot
    be written, the line is lost and the exit code alone reports the error."""
    try:
        _write(sys.stderr, f"error: {str(message).translate(_LINE_BREAKS)}\n")
    except OSError:
        pass


def _help(flag: str, value: str | None, command: str | None):
    """Print the help of ``command`` (of ``dmnll`` if ``None``) and exit 0.
    A value joined to the help flag is refused; ``-hh`` is ``-h -h``."""
    if flag == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        _refuse(f"argument -h/--help: ignored explicit argument {value!r}")
    _emit(_help_text(command), None)
    raise SystemExit(EXIT_OK)


def _help_text(command: str | None) -> str:
    """The ``--help`` text of ``dmnll``, or of one of its commands."""
    if command is None:
        lines = [
            f"usage: dmnll [-h] {_choices(_COMMANDS)} ...",
            "",
            "Dirichlet-multinomial log-likelihoods: exact sum-of-logs evaluation,",
            "maximum-likelihood fitting, and benchmarks.",
            "",
            "commands:",
            *(f"  {name:<8}  {spec[1]}" for name, spec in _COMMANDS.items()),
            "",
            "Run 'dmnll COMMAND --help' for the flags of a command.",
        ]
        return "\n".join(lines) + "\n"
    _, text, (name, choices, about), options = _COMMANDS[command]
    positional = _choices(choices) if choices else name
    rows = [(positional, about), ("-h, --help", "show this help and exit")]
    for flag, (_, choices, default, about) in options.items():
        metavar = _choices(choices) if choices else _dest(flag).upper()
        if default is not None:
            about = f"{about} (default: {default})"
        rows.append((f"{flag} {metavar}", about))
    lines = [f"usage: dmnll {command} [-h] {positional} [flags]", "", text, ""]
    lines += [f"  {left:<27}  {right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _choices(choices) -> str:
    return "{" + ",".join(choices) + "}"


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _emit(args.func(args), args.out)
    except UsageError as exc:
        _report(exc)
        return EXIT_USAGE
    except DmnError as exc:
        _report(exc)
        return EXIT_COMPUTE
    return EXIT_OK

if __name__ == "__main__":
    sys.exit(main())
