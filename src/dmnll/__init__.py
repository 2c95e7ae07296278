"""Exact Dirichlet-multinomial log-likelihoods, stable down to the multinomial limit.

``import dmnll`` gives every name in ``dmnll.core.__all__``: the
evaluators, the domain types and :class:`Dataset`, the table the fit
takes, and the constants ``MAX_TOTAL_COUNT`` and ``SIMPLEX_TOL``.  The
names of ``estimate`` and ``sampling`` (which need numpy), of
``reference`` (the one module that loads the standard library's
``decimal``) and of ``bench`` (which loads ``reference``), and those four
submodules themselves, are imported on first use (PEP 562), so code that
only evaluates likelihoods or builds a dataset loads none of them.
"""

import importlib

from . import core
from .core import *  # noqa: F403

__version__ = "0.1.0"

#: The submodule that defines each name imported on first use.
_LAZY = {
    "FitResult": "estimate",
    "fit_alpha_mle": "estimate",
    "grad_loglik": "estimate",
    "loglik_dataset": "estimate",
    "BenchRecord": "bench",
    "ExperimentConfig": "bench",
    "accuracy_defaults": "bench",
    "run_accuracy_experiment": "bench",
    "run_runtime_experiment": "bench",
    "runtime_defaults": "bench",
    "reference_loglik": "reference",
    "sample_dmn_dataset": "sampling",
    "sample_mn_dataset": "sampling",
}

__all__ = [*core.__all__, *_LAZY, "__version__"]


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
