"""Command-line front end: evaluate likelihoods, fit parameters, run benchmarks.

Input count tables are CSV, one observation per row, integer cells, with an
optional header row of category names; lines starting with ``#`` are
ignored.  Results are printed as CSV or canonical JSON (``--format``), to
stdout or ``--out``.  Exit codes: 0 success, 1 computation/domain error,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

from . import bench
from .core import (
    AlphaParams,
    CountVector,
    DmnError,
    MeanPhiParams,
    dmn_loglik_exact,  # noqa: F401  perfbench/spans.py rebinds this name here
    dmn_loglik_lgamma,
    dmn_loglik_rows,
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
    parses as an integer, in which case the table is treated as headerless.
    """
    header: tuple[str, ...] | None = None
    rows: list[CountVector] = []
    width = None
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in next(csv.reader([raw]))]
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
            rows.append(CountVector(int(c) for c in cells))
        except (ValueError, DmnError) as exc:
            raise TableParseError(f"{source} line {lineno}: {exc}") from exc
    if not rows:
        raise TableParseError(f"{source}: no count observations found")
    return CountTable(rows=tuple(rows), column_names=header)


def _all_ints(cells) -> bool:
    try:
        for c in cells:
            int(c)
    except ValueError:
        return False
    return True


def _read_table(path: str) -> CountTable:
    if path == "-":
        return parse_count_table(sys.stdin.read(), source="<stdin>")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_count_table(text, source=path)


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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    k = len(params)
    if k != len(table.rows[0].counts):
        raise DmnError(
            f"parameters have {k} categories but the table has "
            f"{len(table.rows[0].counts)} columns"
        )
    if method == "lgamma":
        results = [dmn_loglik_lgamma(params, x) for x in table.rows]
    else:
        # exact with AlphaParams, phi with MeanPhiParams
        results = dmn_loglik_rows(params, table.rows)
    rows = [(i, res.value, res.terms) for i, res in enumerate(results)]
    total = math.fsum(v for _, v, _ in rows)

    if args.format == "json":
        payload = {
            "schema_version": bench.SCHEMA_VERSION,
            "method": method,
            "rows": [{"row": i, "loglik": v, "terms": t} for i, v, t in rows],
            "total": total,
        }
        _emit(bench.canonical_json(payload), args.out)
    else:
        lines = ["row,loglik,terms"]
        lines += [f"{i},{v!r},{t}" for i, v, t in rows]
        lines.append(f"total,{total!r},{sum(t for _, _, t in rows)}")
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
            "schema_version": bench.SCHEMA_VERSION,
            "alpha_hat": list(result.alpha_hat.alpha),
            "columns": list(names),
            "loglik": result.loglik,
            "iterations": result.iterations,
            "converged": result.converged,
            "floored": list(result.floored),
        }
        _emit(bench.canonical_json(payload), args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_bench.add_argument("--repeats", type=int, help="timing repeats (median taken)")
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
