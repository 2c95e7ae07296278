"""Exact Dirichlet-multinomial log-likelihoods, stable down to the multinomial limit.

The evaluators of :mod:`dmnll.core` and its :class:`Dataset`, the table
the fit takes, are imported with the package.  The names of ``estimate``
and ``sampling`` (which need numpy) and of ``bench`` (which needs mpmath),
and those three submodules themselves, are imported on first use
(PEP 562), so code that only evaluates likelihoods or builds a dataset
loads neither dependency.
"""

import importlib

from .core import (
    AlphaParams,
    CountVector,
    Dataset,
    DimensionMismatchError,
    DmnError,
    DomainError,
    LogLikResult,
    MeanPhiParams,
    Method,
    ResourceLimitError,
    dmn_log_pmf,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    dmn_loglik_rows,
    log_multinomial_coef,
    mn_log_pmf,
    mn_loglik_kernel,
    params_from_mean_phi,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaParams",
    "BenchRecord",
    "CountVector",
    "Dataset",
    "DimensionMismatchError",
    "DmnError",
    "DomainError",
    "ExperimentConfig",
    "FitResult",
    "LogLikResult",
    "MeanPhiParams",
    "Method",
    "ResourceLimitError",
    "accuracy_defaults",
    "dmn_log_pmf",
    "dmn_loglik_exact",
    "dmn_loglik_lgamma",
    "dmn_loglik_phi",
    "dmn_loglik_rows",
    "fit_alpha_mle",
    "grad_loglik",
    "log_multinomial_coef",
    "loglik_dataset",
    "mn_log_pmf",
    "mn_loglik_kernel",
    "params_from_mean_phi",
    "reference_loglik",
    "run_accuracy_experiment",
    "run_runtime_experiment",
    "runtime_defaults",
    "sample_dmn_dataset",
    "sample_mn_dataset",
    "__version__",
]

#: The submodule that defines each name imported on first use.
_LAZY = {
    "FitResult": "estimate",
    "fit_alpha_mle": "estimate",
    "grad_loglik": "estimate",
    "loglik_dataset": "estimate",
    "BenchRecord": "bench",
    "ExperimentConfig": "bench",
    "accuracy_defaults": "bench",
    "reference_loglik": "bench",
    "run_accuracy_experiment": "bench",
    "run_runtime_experiment": "bench",
    "runtime_defaults": "bench",
    "sample_dmn_dataset": "sampling",
    "sample_mn_dataset": "sampling",
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in _LAZY.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
