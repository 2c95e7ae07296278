"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so the suite doubles as a readable report:

    pytest -s tests/test_acceptance.py
"""

import math
import struct
import time

import numpy as np

from dmnll import (
    CountVector,
    Dataset,
    MeanPhiParams,
    dmn_log_pmf,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    fit_alpha_mle,
    grad_loglik,
    loglik_dataset,
    mn_loglik_kernel,
    sample_dmn_dataset,
)
from dmnll.bench import (
    Method,
    accuracy_defaults,
    reference_loglik,
    run_accuracy_experiment,
    run_runtime_experiment,
    runtime_defaults,
)
from conftest import random_alpha, random_counts


def check(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_accuracy_sweep_reproduction():
    """x = n*(1,1,1,1), p = (.1,.2,.3,.4), phi = 1/200, n in 1..1000:
    max |exact - reference| <= 1e-11, full sweep within 60 s."""
    cfg = accuracy_defaults()
    t0 = time.perf_counter()
    records = run_accuracy_experiment(cfg)
    elapsed = time.perf_counter() - t0
    exact_errors = [r.abs_error for r in records if r.method is Method.EXACT]
    worst = max(exact_errors)
    check(
        "accuracy sweep: exact error <= 1e-11",
        worst <= 1e-11,
        f"max abs error {worst:.3e}",
    )
    check("accuracy sweep: completes <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s")

    lg_errors = {r.n_scale: r.abs_error for r in records if r.method is Method.LOG_GAMMA}
    ex_errors = {r.n_scale: r.abs_error for r in records if r.method is Method.EXACT}
    wins = sum(ex_errors[n] <= lg_errors[n] for n in ex_errors)
    check(
        "accuracy sweep: exact at least as accurate as lgamma on >= 90% of grid",
        wins >= 0.9 * len(ex_errors),
        f"{wins}/{len(ex_errors)} grid points",
    )


def test_accuracy_past_the_grid_in_ulps():
    """The accuracy sweep's counts at n = 1e4 and 1e5: exact within 1 ulp of
    the reference.  An absolute gate would not scale: the values reach -5.5e5,
    whose ulp is 1.2e-10.  lgamma's error is reported, not gated."""
    cfg = accuracy_defaults(n_values=(10**4, 10**5))
    alpha = cfg.alpha()
    for n in cfg.n_values:
        x = cfg.counts_at(n)
        ref = reference_loglik(alpha, x)
        ulps = abs(dmn_loglik_exact(alpha, x).value - ref) / math.ulp(ref)
        lg_ulps = abs(dmn_loglik_lgamma(alpha, x).value - ref) / math.ulp(ref)
        check(
            f"accuracy at n = {n}: exact within 1 ulp",
            ulps <= 1.0,
            f"exact {ulps:g} ulp, lgamma {lg_ulps:g} ulp",
        )


def test_runtime_scaling_reproduction():
    """x = n*(1,2,3), p = (1/6,1/3,1/2), phi = 1/60, 100 evaluations per
    point: exact scales ~linearly (decade ratios in [5, 20] for n >= 100),
    lgamma stays near-flat (ratio <= 2); completes within 120 s at n <= 1e4."""
    cfg = runtime_defaults(n_values=(100, 1000, 10000), repeats=5)
    t0 = time.perf_counter()
    records = run_runtime_experiment(cfg)
    elapsed = time.perf_counter() - t0
    times = {(r.method, r.n_scale): r.wall_time_ns for r in records}

    ratios = [
        times[(Method.EXACT, 1000)] / times[(Method.EXACT, 100)],
        times[(Method.EXACT, 10000)] / times[(Method.EXACT, 1000)],
    ]
    check(
        "runtime sweep: exact decade ratios within [5, 20]",
        all(5.0 <= r <= 20.0 for r in ratios),
        "ratios " + ", ".join(f"{r:.1f}" for r in ratios),
    )
    flat = [
        times[(Method.LOG_GAMMA, 1000)] / times[(Method.LOG_GAMMA, 100)],
        times[(Method.LOG_GAMMA, 10000)] / times[(Method.LOG_GAMMA, 1000)],
    ]
    check(
        "runtime sweep: lgamma decade ratios <= 2",
        all(r <= 2.0 for r in flat),
        "ratios " + ", ".join(f"{r:.2f}" for r in flat),
    )
    check("runtime sweep: completes <= 120 s", elapsed <= 120.0, f"{elapsed:.1f} s")


def test_oracle_equivalence():
    """1e4 random instances (alpha in [0.01, 100], K in [1, 10], N <= 1e4):
    |exact - lgamma| <= 1e-8 relative, and no NaN anywhere."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 11))
        alpha = random_alpha(rng, k, lo=0.01, hi=100.0)
        x = random_counts(rng, k, n_max=10_000)
        e = dmn_loglik_exact(alpha, x).value
        l = dmn_loglik_lgamma(alpha, x).value
        assert not math.isnan(e) and not math.isnan(l)
        worst = max(worst, abs(e - l) / max(1.0, abs(e)))
    check("oracle equivalence: 1e4 instances within 1e-8 relative", worst <= 1e-8,
          f"worst relative gap {worst:.3e}")


def test_phi_zero_stability():
    """dmn_loglik_phi at phi = 0 is bitwise equal to the multinomial kernel
    on 1e3 random instances; the NaN failure mode is structurally absent."""
    rng = np.random.default_rng(2002)
    for i in range(1000):
        k = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(k))
        p = (p / p.sum()).tolist()
        if i % 5 == 0 and k > 1:
            p[rng.integers(0, k)] = 0.0
            p = [v / math.fsum(p) for v in p]
        x = random_counts(rng, k, n_max=500)
        phi0 = dmn_loglik_phi(MeanPhiParams(p, 0.0), x).value
        kernel = mn_loglik_kernel(p, x)
        assert not math.isnan(phi0)
        assert bits(phi0) == bits(kernel), (p, x.counts)
    check("phi = 0 stability: 1e3 instances bitwise multinomial, no NaN", True)


def test_recurrence_identity():
    """L(x + e_k) - L(x) == log(alpha_k + x_k) - log(A + N) to 1e-12,
    1e4 random trials."""
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        alpha = random_alpha(rng, k, lo=0.05, hi=50.0)
        x = random_counts(rng, k, n_max=300)
        j = int(rng.integers(0, k))
        bumped = list(x.counts)
        bumped[j] += 1
        lhs = (
            dmn_loglik_exact(alpha, CountVector(bumped)).value
            - dmn_loglik_exact(alpha, x).value
        )
        rhs = math.log(alpha.alpha[j] + x.counts[j]) - math.log(alpha.sum_a + x.total)
        worst = max(worst, abs(lhs - rhs))
    check("recurrence identity: 1e4 trials within 1e-12", worst <= 1e-12,
          f"worst gap {worst:.3e}")


def test_pmf_normalization():
    """sum_x exp(log pmf) == 1 within 1e-12 for K <= 3, N <= 6."""

    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, k - 1):
                yield (head,) + rest

    worst = 0.0
    for base in ((1.0, 1.0, 1.0), (0.5, 2.0, 3.0)):
        for k in (1, 2, 3):
            alpha = base[:k]
            for n in range(7):
                total = math.fsum(
                    math.exp(dmn_log_pmf(alpha, CountVector(x)))
                    for x in compositions(n, k)
                )
                worst = max(worst, abs(total - 1.0))
    check("pmf normalization: enumeration within 1e-12", worst <= 1e-12,
          f"worst defect {worst:.3e}")


def test_gradient_against_finite_differences():
    """Each gradient component matches central finite differences
    (step 1e-6 * alpha_k) within 1e-6 relative on 100 random instances."""
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        alpha = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=k))
        obs = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 201))
            obs.append(rng.multinomial(n, rng.dirichlet(np.ones(k))).tolist())
        d = Dataset(obs)
        g = grad_loglik(alpha.tolist(), d)
        for j in range(k):
            h = 1e-6 * alpha[j]
            up, down = alpha.copy(), alpha.copy()
            up[j] += h
            down[j] -= h
            fd = (
                loglik_dataset(up.tolist(), d) - loglik_dataset(down.tolist(), d)
            ) / (2 * h)
            worst = max(worst, abs(g[j] - fd) / max(1.0, abs(fd)))
    check("gradient vs central differences: within 1e-6 relative", worst <= 1e-6,
          f"worst relative gap {worst:.3e}")


def test_mle_recovery():
    """5000 draws from alpha = (2, 5, 3) at N = 50 recover every component
    within 10% relative; the log-likelihood trace never decreases."""
    true_alpha = (2.0, 5.0, 3.0)
    d = sample_dmn_dataset(true_alpha, n_trials=50, n_obs=5000, seed=20250809)
    result = fit_alpha_mle(d)
    rel = [
        abs(est - true) / true for est, true in zip(result.alpha_hat.alpha, true_alpha)
    ]
    check(
        "mle recovery: each component within 10%",
        max(rel) <= 0.10,
        "estimates " + ", ".join(f"{a:.3f}" for a in result.alpha_hat.alpha)
        + f"; worst rel err {max(rel):.3f}",
    )
    values = [v for _, v in result.trace]
    monotone = all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
    check("mle recovery: log-likelihood trace non-decreasing", monotone,
          f"{result.iterations} iterations, converged={result.converged}")
