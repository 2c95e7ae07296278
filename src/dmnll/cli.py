"""Command-line front end: evaluate likelihoods, fit parameters, run benchmarks.

Input count tables are UTF-8 CSV, one observation per row, integer cells,
with an optional header row of category names; lines starting with ``#``
are ignored.  A table is parsed whole, straight into columns, K count
columns and their totals: its lines are split into cells at once, every
cell is converted to an int by one ``map``, each count column is a slice
of those ints, and the counts are checked all at once, for negatives and
for 64 bits.  A table that fails anywhere is scanned again, each line's
cells checked in order, so the error names the first bad cell in row
order and its line.  ``dmnll loglik`` hands the columns to the table
evaluator as they are, and ``dmnll fit`` builds its dataset from them,
with no per-row objects.  Results are printed as CSV or canonical JSON
(``--format``), to stdout or ``--out``.  Exit codes: 0 success,
1 computation/domain error, 2 usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from functools import cached_property
from itertools import chain, repeat

from .core import (
    _MAX_COUNT,
    SCHEMA_VERSION,
    AlphaParams,
    CountVector,
    DmnError,
    DomainError,
    MeanPhiParams,
    Method,
    _columns,
    _loglik_columns,
    _rows,
    canonical_json,
    dmn_loglik_exact,  # noqa: F401  perfbench/spans.py rebinds this name here
    dmn_loglik_lgamma,  # noqa: F401  perfbench/spans.py rebinds this name here
    params_from_mean_phi,
)
from .estimate import DEFAULT_MAX_ITER, DEFAULT_TOL, Dataset, fit_alpha_mle

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad flag combination or unusable input; maps to exit code 2."""


class TableParseError(UsageError):
    """A count table could not be parsed; message carries the line number."""


class CountTable:
    """A parsed count table: K count columns and their totals, plus the
    column names of its header, if it has one.

    ``columns`` holds the K count columns, then the totals, each in row
    order: what the table evaluator reads.  ``rows``, one
    :class:`CountVector` per observation, is built from the columns when
    first read.  A table made from its rows,
    ``CountTable(rows=..., column_names=...)``, keeps them and transposes
    them once into its columns.
    """

    def __init__(self, rows=None, column_names=None, *, columns=None):
        if columns is None:
            self.rows = tuple(rows)
            columns = _columns(self.rows)
        self.columns = columns
        self.column_names = column_names

    @cached_property
    def rows(self) -> tuple[CountVector, ...]:
        return _rows(self.columns)


def parse_count_table(text: str, source: str = "<input>") -> CountTable:
    """Parse a counts CSV into columns.

    The first non-comment row is taken as a header unless every cell in it
    is an integer literal (even one too long for ``int``), in which case
    the table is treated as headerless.

    The table is read whole, not line by line: its observation lines are
    split into cells at once, every line's width is checked, all cells are
    converted to ints by one ``map``, and the counts are checked for
    negatives and for 64 bits at once.  A table that fails anywhere is
    scanned again with every line's cells checked in order
    (:func:`_scan`), so that the error names the first bad cell and its
    line, as a check row by row would.
    """
    lines = text.splitlines()
    # only a table that holds a blank or comment line pays for the filter
    if "#" in text or "" in lines or any(map(str.isspace, lines)):
        lines = [raw for raw in lines if (s := raw.strip()) and not s.startswith("#")]
    try:
        header, columns = _read_columns(lines)
    except (ValueError, csv.Error) as exc:
        _scan(text, source)  # raises at the first bad cell in row order
        raise TableParseError(f"{source}: {exc}") from exc
    return CountTable(columns=columns, column_names=header)


def _read_columns(lines: list[str]) -> tuple[tuple[str, ...] | None, list]:
    """The header, if any, and the K count columns and their totals of a
    table's content lines (no blank or comment line among them).

    Any fault, a ragged line, a cell that is no count or an empty table,
    raises :class:`ValueError` (or :class:`csv.Error`), without saying
    where: :func:`_scan` finds that.
    """
    if not lines:
        raise ValueError("no count observations found")
    names = tuple(map(str.strip, _split_cells(lines[0])))
    width = len(names)
    header = None
    if not _all_ints(names):
        header = names
        lines = lines[1:]
        if not lines:
            raise ValueError("no count observations found")
    joined = ",".join(lines)
    if '"' in joined:
        rows = list(map(_split_cells, lines))
        ragged = set(map(len, rows)) != {width}
        cells = list(chain.from_iterable(rows))
    else:
        ragged = set(map(str.count, lines, repeat(","))) != {width - 1}
        cells = joined.split(",")
    if ragged:
        raise ValueError("a line has the wrong number of columns")
    try:
        values = list(map(int, cells))
    except ValueError:
        # int refuses some counts: a cell padded with whitespace it does not
        # skip but strip removes (U+001F), and a literal past its digit limit
        values = list(map(_to_int, map(str.strip, cells)))
    # only a minus sign makes a literal negative
    if "-" in joined and min(values) < 0 or max(values) > _MAX_COUNT:
        raise ValueError("a count is negative or past 64 bits")
    counts = [values[k::width] for k in range(width)]
    return header, [*counts, list(map(sum, zip(*counts)))]


def _scan(text: str, source: str) -> None:
    """Raise :class:`TableParseError` at the first fault of the table.

    Each line's cells are checked in order as :class:`CountVector` checks
    them, so the first bad cell of the first bad line is the error; a
    ragged or unsplittable line, or a table with no observations, is one
    too.  Returns only if no line is at fault.
    """
    width = None
    found = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            cells = _split_cells(raw)
            if width is None:
                width = len(cells)
                if not _all_ints(tuple(map(str.strip, cells))):
                    continue
            elif len(cells) != width:
                raise ValueError(f"expected {width} columns, found {len(cells)}")
            # map converts lazily in cell order, so the first bad cell is
            # reported, be it a bad literal or a bad count
            CountVector(map(_to_int, map(str.strip, cells)))
        except (ValueError, csv.Error) as exc:  # a DomainError is a ValueError
            raise TableParseError(f"{source} line {lineno}: {exc}") from exc
        found = True
    if not found:
        raise TableParseError(f"{source}: no count observations found")


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
    return all(re.fullmatch(_INT_LITERAL, c) for c in cells)


#: An integer literal as ``int`` reads a stripped cell: a sign, then
#: (Unicode) decimal digits with single underscores between them.  It
#: accepts what ``int`` accepts, and literals past ``int``'s digit limit.
_INT_LITERAL = r"([+-]?)(\d+(?:_\d+)*)"


def _to_int(cell: str) -> int:
    """``int(cell)``, extended to integer literals past ``int``'s digit limit.

    Python refuses to convert a literal of more than 4300 digits (its
    default limit).  Unless leading zeros make it that long, such a literal
    is far past 64 bits either way, and it fails as a count out of range.
    """
    try:
        return int(cell)
    except ValueError:
        literal = re.fullmatch(_INT_LITERAL, cell)
        if literal is None:
            raise
    sign, digits = literal.groups()
    digits = digits.replace("_", "").lstrip("0") or "0"
    if len(digits) <= 19:  # as many as 2^63 - 1 has
        return int(sign + digits)
    if sign == "-":
        raise DomainError(f"counts must be non-negative, got a {len(digits)}-digit negative count")
    raise DomainError(f"count of {len(digits)} digits does not fit in 64 bits")


def _read_table(path: str) -> CountTable:
    """The table at ``path`` (``-`` for stdin), read as strict UTF-8."""
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
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
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, mode, encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc


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


def cmd_loglik(args) -> int:
    table = _read_table(args.table)
    params, method = _resolve_eval_params(args)
    values, terms = _loglik_columns(params, table.columns, Method(method))
    rows = enumerate(zip(values, terms))
    total = math.fsum(values)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "method": method,
            "rows": [{"row": i, "loglik": v, "terms": t} for i, (v, t) in rows],
            "total": total,
        }
        _emit(canonical_json(payload), args.out)
    else:
        lines = ["row,loglik,terms"]
        lines += [f"{i},{v!r},{t}" for i, (v, t) in rows]
        lines.append(f"total,{total!r},{sum(terms)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    table = _read_table(args.table)
    if len(table.columns) == 2:  # one count column, and the totals
        # Unusable input rather than a failed computation.
        raise UsageError(
            "the table has a single category; its likelihood is constant "
            "and there is nothing to fit"
        )
    init = None
    if args.alpha is not None:
        init = AlphaParams(_parse_numbers(args.alpha, "--alpha"))
    data = Dataset(_from_columns=table.columns)
    result = fit_alpha_mle(data, init=init, max_iter=args.max_iter, tol=args.tol)
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
        _emit(canonical_json(payload), args.out)
    else:
        lines = ["field,value"]
        lines += [
            f"alpha_{name},{a!r}"
            for name, a in zip(names, result.alpha_hat.alpha)
        ]
        lines.append(f"loglik,{result.loglik!r}")
        lines.append(f"iterations,{result.iterations}")
        lines.append(f"converged,{'true' if result.converged else 'false'}")
        lines.append(f"floored,{';'.join(str(i) for i in result.floored)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    from . import bench  # imports mpmath, which only this command needs

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
    _emit(serialize(records), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as one ``error:``
    line, exit 2, as every other usage error is reported.  Its subcommand
    parsers are of this class too."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dmnll",
        description=(
            "Dirichlet-multinomial log-likelihoods: exact sum-of-logs "
            "evaluation, maximum-likelihood fitting, and benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p_ll = sub.add_parser("loglik", help="per-row log-likelihood of a count table")
    p_ll.add_argument("table", help="counts CSV ('-' for stdin)")
    p_ll.add_argument("--alpha", help="concentration parameters, comma-separated")
    p_ll.add_argument("--p", help="category probabilities, comma-separated")
    p_ll.add_argument("--phi", type=float, help="over-dispersion in [0, 1)")
    p_ll.add_argument(
        "--method",
        choices=("exact", "lgamma", "phi"),
        help="evaluation route (default: exact with --alpha, phi with --p/--phi)",
    )
    add_output_flags(p_ll)
    p_ll.set_defaults(func=cmd_loglik)

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit of alpha from a count table")
    p_fit.add_argument("table", help="counts CSV ('-' for stdin)")
    p_fit.add_argument("--alpha", help="initial concentration parameters (optional)")
    p_fit.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_fit.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    add_output_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("bench", help="run an accuracy or runtime sweep")
    p_bench.add_argument("experiment", choices=("accuracy", "runtime"))
    p_bench.add_argument("--n", help="count multipliers, comma-separated")
    p_bench.add_argument(
        "--repeats",
        type=int,
        help="timing repeats of the runtime sweep, median taken "
        "(the accuracy sweep times one call per point)",
    )
    add_output_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DmnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
