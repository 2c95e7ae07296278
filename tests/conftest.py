import argparse
import csv
import functools
import itertools
import math
import numbers
import os
import sys

import mpmath
import numpy as np
import pytest

# The checkout's own src, last on the path: a bare checkout finds dmnll there,
# and a PYTHONPATH or an install that holds another copy of it comes first.
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import dmnll
from dmnll import AlphaParams, CountVector, DmnError, DomainError
from dmnll.reference import REFERENCE_DPS
from dmnll import cli
from dmnll.cli import EXIT_USAGE, CountTable, TableParseError, cmd_bench, cmd_fit, cmd_loglik
from dmnll.core import SCHEMA_VERSION, Method, _as_alpha, _checked, _loglik_columns, canonical_json
from dmnll.estimate import ALPHA_FLOOR, DEFAULT_MAX_ITER, DEFAULT_TOL


def child_env(unbuffered=None):
    """The environment for a child ``python`` that must import the same
    ``dmnll`` as the tests: ``os.environ`` with the directory that holds
    that package first on ``PYTHONPATH``.  ``unbuffered`` True sets
    ``PYTHONUNBUFFERED``, False drops it, and None leaves it as inherited."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmnll.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    elif unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_alpha(rng, k, lo=0.01, hi=100.0) -> AlphaParams:
    """Log-uniform concentration parameters in [lo, hi]."""
    return AlphaParams(np.exp(rng.uniform(np.log(lo), np.log(hi), size=k)))


def random_counts(rng, k, n_max, allow_empty=True) -> CountVector:
    """Counts drawn multinomially at a log-uniform total <= n_max."""
    if allow_empty and rng.uniform() < 0.02:
        return CountVector([0] * k)
    total = int(np.exp(rng.uniform(0.0, np.log(n_max))))
    p = rng.dirichlet(np.ones(k))
    return CountVector(rng.multinomial(total, p).tolist())


def walk_reference(alpha, x) -> float:
    """The same nested log sums as the exact evaluator, in 40-digit arithmetic.

    Every term (including the parameter total A) is computed and accumulated
    as an mpmath float with ``REFERENCE_DPS`` significant digits; the result
    is rounded to a Python float once at the end.  O(N): the oracle that
    ``dmnll.reference.reference_loglik``'s O(K) log-gamma form must match.
    """
    alpha = _as_alpha(alpha)
    x = _checked(len(alpha.alpha), x)
    with mpmath.workdps(REFERENCE_DPS):
        num = mpmath.fsum(
            mpmath.log(mpmath.mpf(a_k) + j)
            for a_k, x_k in zip(alpha.alpha, x.counts)
            for j in range(x_k)
        )
        a_sum = mpmath.fsum(mpmath.mpf(a_k) for a_k in alpha.alpha)
        den = mpmath.fsum(mpmath.log(a_sum + i) for i in range(x.total))
        return float(num - den)


def phi_reference(p, phi, x) -> float:
    """The phi route's value, sum over j < x_k of log(p_k (1-phi) + j phi)
    less sum over i < N of log((1-phi) + i phi), from log-gamma differences
    in mpmath: the oracle of ``dmn_loglik_phi``.  It calls no walk of
    ``dmnll.core``.

    At phi > 0 every term is log phi plus log(a_k + j), with
    a_k = p_k (1-phi)/phi and A = (1-phi)/phi formed in mpmath from the
    given floats; the N log phi terms cancel, which leaves
    sum over x_k > 0 of [loggamma(a_k + x_k) - loggamma(a_k)] less
    [loggamma(A + N) - loggamma(A)], each difference a rise
    (:func:`_mpmath_rise`).  The precision adds to
    ``REFERENCE_DPS`` the digits of A + N, whose log-gamma values cancel,
    taken from -log10 phi since A overflows a float at phi = 5e-324; and
    the decimal digits the positive p_k span, so that a_k + x_k keeps the
    digits of the smallest a_k.  ``-inf`` where an observed category has
    p_k = 0, and 0.0 where N = 0; at phi = 0, sum of x_k log p_k.
    """
    observed = [(p_k, x_k) for p_k, x_k in zip(p, x) if x_k > 0]
    if any(p_k == 0 for p_k, _ in observed):
        return float("-inf")
    n = sum(x)
    if n == 0:
        return 0.0
    positive = [p_k for p_k in p if p_k > 0]
    span = math.log10(max(positive)) - math.log10(min(positive))
    digits = max(-math.log10(phi), math.log10(n)) if phi > 0 else 0.0
    with mpmath.workdps(REFERENCE_DPS + math.ceil(digits + 1) + math.ceil(span)):
        if phi == 0:
            return float(mpmath.fsum(x_k * mpmath.log(p_k) for p_k, x_k in observed))
        phi = mpmath.mpf(phi)
        scale = (1 - phi) / phi
        num = mpmath.fsum(_mpmath_rise(mpmath.mpf(p_k) * scale, x_k) for p_k, x_k in observed)
        return float(num - _mpmath_rise(scale, n))


def _mpmath_rise(a, n: int):
    """``loggamma(a + n) - loggamma(a)`` at mpmath's working precision: for
    a count up to 100 the log of the rising product a (a + 1) ... (a + n - 1),
    since mpmath's ``loggamma`` next to its zeros at 1 and 2 costs up to
    seconds at a few hundred digits."""
    if n <= 100:
        return mpmath.log(mpmath.fprod(a + j for j in range(n)))
    return mpmath.loggamma(a + n) - mpmath.loggamma(a)


def mpmath_reference(alpha, x) -> float:
    """The log-gamma closed form on ``mpmath.libmp`` at an explicit precision:
    ``dmnll.reference.reference_loglik`` as it was before it moved to
    :mod:`decimal`, kept as that reference's independent oracle.

    Sums ``loggamma(a_k + x_k) - loggamma(a_k)`` over the categories with
    x_k > 0 and subtracts ``loggamma(A + N) - loggamma(A)``, at
    ``REFERENCE_DPS`` digits plus the digits of the largest log-gamma value
    plus the decimal digits the parameters span.  The parameter total A is
    the exact sum of the parameters rounded once, and the result is
    rounded to a Python float once at the end.  Every step is a
    ``mpmath.libmp`` function given the precision and round-to-nearest
    explicitly, so no global mpmath state is read or set.  ``loggamma`` of
    each a_k and of A is memoized per value and precision.
    """
    alpha = _as_alpha(alpha)
    x = _checked(len(alpha.alpha), x)
    if x.total == 0:
        return 0.0
    # A + N is the largest argument, and loggamma(z) is about z log z.
    top = alpha.sum_a + x.total
    digits = math.ceil(math.log10(top) + math.log10(max(1.0, math.log(top))))
    # A result can be as small as the least a_k, which A holds to its last
    # digit only at as many more digits as the a_k span.  Their ratio can
    # overflow a float, the difference of their logs cannot.
    digits += math.ceil(math.log10(max(alpha.alpha)) - math.log10(min(alpha.alpha)))
    libmp = mpmath.libmp
    prec = libmp.dps_to_prec(REFERENCE_DPS + digits)
    a = [libmp.from_float(a_k) for a_k in alpha.alpha]
    a_sum = libmp.mpf_sum(a, prec, "n")
    num = libmp.mpf_sum(
        [_mpmath_loggamma_rise(a_k, x_k, prec) for a_k, x_k in zip(a, x.counts) if x_k],
        prec,
        "n",
    )
    den = _mpmath_loggamma_rise(a_sum, x.total, prec)
    return libmp.to_float(libmp.mpf_sub(num, den, prec, "n"), rnd="n")


def _mpmath_loggamma_rise(a, n: int, prec: int):
    """``loggamma(a + n) - loggamma(a)`` for a raw mpf ``a`` > 0, each step
    rounded to nearest at ``prec`` bits; ``loggamma(a)`` comes from the memo."""
    libmp = mpmath.libmp
    top = libmp.mpf_loggamma(libmp.mpf_add(a, libmp.from_int(n), prec, "n"), prec, "n")
    return libmp.mpf_sub(top, _mpmath_parameter_loggamma(a, prec), prec, "n")


@functools.lru_cache(maxsize=1024)
def _mpmath_parameter_loggamma(a, prec: int):
    """``loggamma(a)`` of a raw mpf parameter (an a_k or A) at ``prec`` bits,
    once per value and precision."""
    return mpmath.libmp.mpf_loggamma(a, prec, "n")


def old_cmd_loglik(args) -> str:
    """``dmnll.cli.cmd_loglik`` as it was before it wrote its rows in one
    formatting pass: an f-string per CSV row, and for JSON a dict per row
    encoded by ``canonical_json``.  The reference the one-pass writer must
    match byte for byte."""
    table = cli._read_table(args.table)
    params, method = cli._resolve_eval_params(args)
    values, terms = _loglik_columns(params, table.columns, Method(method))
    rows = zip(range(len(values)), values, terms)
    total = math.fsum(values)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "method": method,
            "rows": [{"row": i, "loglik": v, "terms": t} for i, v, t in rows],
            "total": total,
        }
        return canonical_json(payload)
    lines = ["row,loglik,terms"]
    lines += [f"{i},{v!r},{t}" for i, v, t in rows]
    lines.append(f"total,{total!r},{sum(terms)}")
    return "\n".join(lines) + "\n"


class OldTailCounts:
    """The fixed point's statistics as one histogram per category, each
    evaluated on its own: the reference the flat level grid of
    ``dmnll.estimate._TailCounts`` must match bit for bit.

    It plugs into the fitter through the grid interface: its grid is alpha
    itself, and a drop counts as a decrease beyond a fixed slack of 1e-10.
    ``sums`` gives the Newton step's first- and second-order sums, one
    ``np.sum`` per category, so the Newton path is checked as well.
    """

    def __init__(self, d):
        m = np.array([o.counts for o in d.observations], dtype=np.int64)
        self.pooled = m.sum(axis=0, dtype=np.float64)
        self.per_category = [_old_tail(m[:, k]) for k in range(d.k)]
        self.totals = _old_tail(np.array([o.total for o in d.observations], dtype=np.int64))

    def at(self, alpha):
        return alpha

    def rounding_error(self, grid):
        return 0.5e-10

    def loglik(self, alpha):
        a_sum = math.fsum(alpha)
        num_arrays = [
            tail * np.log(a_k + np.arange(tail.size))
            for a_k, tail in zip(alpha, self.per_category)
            if tail.size
        ]
        den = self.totals * np.log(a_sum + np.arange(self.totals.size))
        return math.fsum(itertools.chain(*num_arrays, -den))

    def step(self, alpha, grid):
        a_sum = math.fsum(alpha)
        den = float(np.sum(self.totals / (a_sum + np.arange(self.totals.size))))
        new = np.empty_like(alpha)
        for k, tail in enumerate(self.per_category):
            if tail.size == 0:
                new[k] = ALPHA_FLOOR
                continue
            num = float(np.sum(tail / (alpha[k] + np.arange(tail.size))))
            new[k] = max(alpha[k] * num / den, ALPHA_FLOOR)
        return new

    def sums(self, alpha):
        a_sum = math.fsum(alpha)
        first, second = [], []
        for a, tail in [*zip(alpha, self.per_category), (a_sum, self.totals)]:
            x = a + np.arange(tail.size)
            first.append(float(np.sum(tail / x)))
            second.append(float(np.sum(tail / x / x)))
        first[-1], second[-1] = -first[-1], -second[-1]
        return first, second


def _old_tail(values):
    top = int(values.max())
    if top == 0:
        return np.zeros(0)
    hist = np.bincount(values, minlength=top + 1)
    return (values.size - np.cumsum(hist))[:top].astype(float)


class OldCountVector(CountVector):
    """``CountVector`` validated as before the plain-int shortcut: every cell
    takes the ``numbers.Integral`` check.  The reference the fast loop of
    ``dmnll.core.CountVector`` must match in result and in error."""

    def __init__(self, counts, total=None):
        vals = []
        for c in counts:
            if isinstance(c, CountVector):
                raise DomainError("counts must be integers, not CountVector")
            if not isinstance(c, numbers.Integral):
                raise DomainError(f"counts must be integers, got {c!r}")
            c = int(c)
            if c < 0:
                raise DomainError(f"counts must be non-negative, got {c}")
            if c > (1 << 63) - 1:
                raise DomainError(f"count {c} does not fit in 64 bits")
            vals.append(c)
        if not vals:
            raise DomainError("a count vector needs at least one category")
        s = sum(vals)
        if total is not None and int(total) != s:
            raise DomainError(f"stated total {total} != sum of counts {s}")
        object.__setattr__(self, "counts", tuple(vals))
        object.__setattr__(self, "total", s)


def old_parse_count_table(text, source="<input>"):
    """``dmnll.cli.parse_count_table`` as it was with every line read by
    ``csv.reader`` and each row's cells converted inside ``OldCountVector``:
    the reference the split-based parse must match."""
    header = None
    rows = []
    width = None
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [c.strip() for c in next(csv.reader([raw]))]
        if first_content:
            first_content = False
            if not _old_all_ints(cells):
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
            rows.append(OldCountVector(int(c) for c in cells))
        except (ValueError, DmnError) as exc:
            raise TableParseError(f"{source} line {lineno}: {exc}") from exc
    if not rows:
        raise TableParseError(f"{source}: no count observations found")
    return CountTable(rows=tuple(rows), column_names=header)


def _old_all_ints(cells):
    try:
        for c in cells:
            int(c)
    except ValueError:
        return False
    return True


class OldParser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as one ``error:``
    line, exit 2, as every other usage error is reported.  Its subcommand
    parsers are of this class too."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def old_build_parser() -> argparse.ArgumentParser:
    """``dmnll.cli``'s argparse parser, as it was before ``dmnll.cli.parse_args``:
    the reference whose grammar and ``error:`` lines the new parser must match."""
    parser = OldParser(
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
