"""Command-line front end: evaluate likelihoods, fit parameters, run benchmarks.

Input count tables are UTF-8 CSV, one observation per row, integer cells,
with an optional header row of category names; lines starting with ``#``
are ignored.  Results are printed as CSV or canonical JSON (``--format``),
to stdout or ``--out``.  Exit codes: 0 success, 1 computation/domain error,
2 usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import dataclass

from .core import (
    SCHEMA_VERSION,
    AlphaParams,
    CountVector,
    DmnError,
    DomainError,
    MeanPhiParams,
    Method,
    _loglik_table,
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


@dataclass(frozen=True)
class CountTable:
    """Parsed count observations plus optional column names from the header."""

    rows: tuple[CountVector, ...]
    column_names: tuple[str, ...] | None


def parse_count_table(text: str, source: str = "<input>") -> CountTable:
    """Parse a counts CSV.

    The first non-comment row is taken as a header unless every cell in it
    is an integer literal (even one too long for ``int``), in which case
    the table is treated as headerless.
    """
    header: tuple[str, ...] | None = None
    rows: list[CountVector] = []
    width = None
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in _split_cells(raw, source, lineno)]
        if first_content:
            first_content = False
            if not _all_ints(cells):
                header = tuple(cells)
                width = len(cells)
                continue
        if width is None:
            width = len(cells)
        if len(cells) != width:
            raise TableParseError(
                f"{source} line {lineno}: expected {width} columns, found {len(cells)}"
            )
        try:
            try:
                # map converts lazily in cell order, so the first bad cell is
                # reported, be it a bad literal or a bad count
                row = CountVector(map(int, cells))
            except ValueError:
                # int() refuses a literal past its digit limit as it refuses
                # text; only a conversion cell by cell tells the two apart
                row = CountVector(map(_to_int, cells))
        except (ValueError, DmnError) as exc:
            raise TableParseError(f"{source} line {lineno}: {exc}") from exc
        rows.append(row)
    if not rows:
        raise TableParseError(f"{source}: no count observations found")
    return CountTable(rows=tuple(rows), column_names=header)


def _split_cells(raw: str, source: str, lineno: int) -> list[str]:
    """The CSV cells of one line, unstripped.

    A line without a quote character splits on commas exactly as
    ``csv.reader`` would split it; only quoted lines need the reader.
    """
    if '"' not in raw:
        return raw.split(",")
    try:
        return next(csv.reader([raw]))
    except csv.Error as exc:
        raise TableParseError(f"{source} line {lineno}: {exc}") from exc


def _all_ints(cells) -> bool:
    for c in cells:
        try:
            int(c)
        except ValueError:
            # a literal past int()'s digit limit is a number all the same
            if not re.fullmatch(_INT_LITERAL, c):
                return False
    return True


#: An integer literal as ``int`` reads a stripped cell: a sign, then
#: (Unicode) decimal digits with single underscores between them.  Only
#: cells ``int`` refuses are matched, so it is compiled on first use.
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


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc


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
        return MeanPhiParams(_parse_floats(args.p, "--p"), args.phi), method
    if has_alpha:
        return AlphaParams(_parse_floats(args.alpha, "--alpha")), method
    # alpha-based method requested through (p, phi); fails loudly at phi = 0
    mp = MeanPhiParams(_parse_floats(args.p, "--p"), args.phi)
    return params_from_mean_phi(mp), method


def cmd_loglik(args) -> int:
    table = _read_table(args.table)
    params, method = _resolve_eval_params(args)
    values, terms = _loglik_table(params, table.rows, Method(method))
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
    if len(table.rows[0].counts) == 1:
        # Unusable input rather than a failed computation.
        raise UsageError(
            "the table has a single category; its likelihood is constant "
            "and there is nothing to fit"
        )
    init = None
    if args.alpha is not None:
        init = AlphaParams(_parse_floats(args.alpha, "--alpha"))
    result = fit_alpha_mle(
        Dataset(table.rows), init=init, max_iter=args.max_iter, tol=args.tol
    )
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

    kwargs = {}
    if args.n is not None:
        kwargs["n_values"] = _parse_ints(args.n, "--n")
    if args.repeats is not None:
        kwargs["repeats"] = args.repeats
    try:
        if args.experiment == "accuracy":
            cfg = bench.accuracy_defaults(**kwargs)
        else:
            cfg = bench.runtime_defaults(**kwargs)
    except DmnError as exc:
        # the grid and repeats came straight from the flags
        raise UsageError(str(exc)) from exc
    if args.out is not None:
        # the sweep takes seconds: find an unwritable --out before it
        _check_writable(args.out)
    if args.experiment == "accuracy":
        records = bench.run_accuracy_experiment(cfg)
    else:
        records = bench.run_runtime_experiment(cfg)
    if args.format == "json":
        _emit(bench.records_to_json(records), args.out)
    else:
        _emit(bench.records_to_csv(records), args.out)
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
