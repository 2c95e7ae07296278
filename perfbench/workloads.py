"""The benchmark's workloads: seeded input tables and the ``dmnll`` command run on them.

Sizes are chosen for a 2-core machine so that one command takes a fraction
of a second to a few seconds and a run of ``--seconds`` holds many fresh
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "loglik", "fit" or "bench": which output format and checks apply
    args: tuple[str, ...]  # the dmnll command line after the table argument
    alpha: tuple[float, ...] = ()  # parameters the table is drawn from
    trials: int = 0  # multinomial trials per row
    rows: int = 0  # rows in the table; 0 means the command reads no table
    err_rows: int = 0  # rows per block of the seeded subsample for max_abs_err
    err_blocks: int = 1  # max_abs_err is the median over blocks of each block's largest error

    def argv(self, table: Path | None, out: Path) -> list[str]:
        if table is None:
            return [*self.args, "--out", str(out)]
        return [self.args[0], str(table), *self.args[1:], "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loglik-exact",
            why=(
                "exact O(N) route on 2000 rows x 200 trials (8e5 log terms): the "
                "compensated log-sum kernel and the fsum merge dominate"
            ),
            kind="loglik",
            args=("loglik", "--alpha", "2,5,3,1,4"),
            alpha=(2.0, 5.0, 3.0, 1.0, 4.0),
            trials=200,
            rows=2000,
            # About 1.5% of rows are off the reference by one ulp, so the
            # largest error needs a few hundred rows to be found every run.
            err_rows=600,
        ),
        Workload(
            name="loglik-lgamma",
            why=(
                "same loglik entry points on 10000 rows with the O(K) lgamma route: "
                "CSV parse and CountVector validation dominate, the kernel does not"
            ),
            kind="loglik",
            args=("loglik", "--alpha", "2,5,3,1,4", "--method", "lgamma"),
            alpha=(2.0, 5.0, 3.0, 1.0, 4.0),
            trials=200,
            rows=10000,
            # Rows off by 2 ulps are common (5%), rows off by more are rare
            # (about 0.1%): the largest error of 100 rows is 2 ulps in nine
            # runs out of ten.  The median over five such blocks nearly always is.
            err_rows=100,
            err_blocks=5,
        ),
        Workload(
            name="fit-concentrated",
            why=(
                "fit of near-multinomial data (A about 155): the only workload where "
                "the fixed-point iterations dominate, about 2850 of them"
            ),
            kind="fit",
            args=("fit", "--max-iter", "5000", "--format", "json"),
            alpha=(10.0, 30.0, 60.0, 16.0, 44.0),
            # The iteration count follows the fitted A, which varies with the
            # drawn data; 200 trials per row pin it down better than 100 at
            # the same number of log terms in the final loglik.
            trials=200,
            rows=1000,
            err_rows=600,
        ),
        Workload(
            name="bench-accuracy",
            why=(
                "accuracy sweep with its default thread pool on the default grid up to "
                "n=200: the bench module, its timing loop and the 40-digit reference"
            ),
            kind="bench",
            # The default grid's points up to 200 and --repeats 3 (the least
            # the sweep accepts) keep the thread pool and the timing loop but
            # cut a command from 8 s to under 1 s, so a run holds many.
            args=("bench", "accuracy", "--format", "json", "--repeats", "3", "--n", "1,2,5,10,20,50,100,200"),
        ),
    )
}


def draw_table(w: Workload, seed: int) -> list[list[int]]:
    """The workload's count table for ``seed``, drawn by ``dmnll.sampling``."""
    from dmnll.sampling import sample_dmn_dataset

    data = sample_dmn_dataset(w.alpha, w.trials, w.rows, seed=seed)
    return [list(o.counts) for o in data.observations]


def table_csv(rows: list[list[int]]) -> str:
    return "".join(",".join(map(str, r)) + "\n" for r in rows)
