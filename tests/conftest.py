import csv
import itertools
import math
import numbers

import numpy as np
import pytest

from dmnll import AlphaParams, CountVector, DmnError, DomainError
from dmnll.cli import CountTable, TableParseError
from dmnll.estimate import ALPHA_FLOOR


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
