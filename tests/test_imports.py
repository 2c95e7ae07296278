"""What importing the package and its CLI loads: each command pays only for what it uses."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import dmnll
from conftest import child_env


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; return stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_bench_nor_mpmath():
    out = run_fresh(
        "import sys, dmnll.cli\n"
        "print(sorted(m for m in ('mpmath', 'dmnll.bench') if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_bench_import_loads_no_mpmath():
    # the reference is computed in the standard library's decimal
    out = run_fresh("import sys, dmnll.bench\nprint('mpmath' in sys.modules)")
    assert out.strip() == "False"


def test_bench_runs_where_mpmath_cannot_be_imported():
    out = run_fresh(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from dmnll.cli import main\n"
        "code = main(['bench', 'accuracy', '--n', '1,2'])\n"
        "print(code)\n"
    )
    assert out.splitlines()[-1] == "0"
    assert out.splitlines()[0] == "n,method,abs_error,rel_error,wall_time_ns,terms"


def test_bench_import_loads_no_statistics():
    # statistics would load fractions and decimal for one median
    out = run_fresh("import sys, dmnll.bench\nprint('statistics' in sys.modules)")
    assert out.strip() == "False"


def test_reference_import_loads_no_numpy_mpmath_bench_or_estimate():
    out = run_fresh(
        "import sys, dmnll.reference\n"
        "print(sorted(m for m in ('numpy', 'mpmath', 'dmnll.bench', 'dmnll.estimate')"
        " if m in sys.modules))"
    )
    assert out.strip() == "[]"


def test_the_package_reference_loads_no_bench():
    out = run_fresh(
        "import sys, dmnll\n"
        "print(dmnll.reference_loglik is dmnll.reference.reference_loglik,"
        " 'dmnll.bench' in sys.modules)"
    )
    assert out.strip() == "True False"


def test_the_reference_takes_only_validation_from_core():
    # independent of the evaluators it checks: from dmnll.core it takes
    # validation helpers and types, no walk (_sum_terms, _column_states,
    # _walk_row, _loglik_columns) and no dmn_loglik_* evaluator, and
    # otherwise only the standard library
    tree = ast.parse(inspect.getsource(dmnll.reference))
    from_core, elsewhere = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "core"), ast.dump(node)
            from_core |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            elsewhere.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            elsewhere |= {alias.name.split(".")[0] for alias in node.names}
    assert from_core <= {"AlphaLike", "CountsLike", "_as_alpha", "_checked"}, from_core
    assert elsewhere <= set(sys.stdlib_module_names) | {"__future__"}, elsewhere


def test_package_import_is_lazy_and_every_name_resolves():
    out = run_fresh(
        "import sys, dmnll\n"
        "print(sorted(m for m in ('mpmath', 'numpy', 'dmnll.bench', 'dmnll.estimate',"
        " 'dmnll.sampling') if m in sys.modules))\n"
        "print(dmnll.reference_loglik.__module__, dmnll.fit_alpha_mle.__module__,"
        " dmnll.bench.SCHEMA_VERSION, dmnll.sampling.sample_dmn_dataset.__module__)\n"
        "ns = {}\n"
        "exec('from dmnll import *', ns)\n"
        "print(sorted(set(dmnll.__all__) - set(ns)))\n"
        "from dmnll import fit_alpha_mle, estimate\n"
        "print(fit_alpha_mle is estimate.fit_alpha_mle)\n"
    )
    assert out.splitlines() == [
        "[]",
        "dmnll.reference dmnll.estimate 1 dmnll.sampling",
        "[]",
        "True",
    ]


def test_a_dataset_loads_no_numpy():
    out = run_fresh(
        "import sys, dmnll\n"
        "d = dmnll.Dataset([[1, 2], [3, 4]])\n"
        "print(d.k, len(d), 'numpy' in sys.modules)"
    )
    assert out.strip() == "2 2 False"


def test_a_command_loads_no_argparse_gettext_or_locale(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text("a,b\n1,2\n3,4\n")
    out = run_fresh(
        "import sys\n"
        "from dmnll.cli import main\n"
        f"code = main(['loglik', {str(table)!r}, '--alpha', '1,1'])\n"
        "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    assert out.splitlines()[-1] == "0 []"


def test_cli_import_compiles_no_negative_number_pattern():
    # only a command line with a dash-led token the flags do not name needs it
    out = run_fresh(
        "import re\n"
        "compiled = []\n"
        "compile = re.compile\n"
        "def spy(pattern, *args, **kwargs):\n"
        "    compiled.append(pattern)\n"
        "    return compile(pattern, *args, **kwargs)\n"
        "re.compile = spy\n"
        "import dmnll.cli\n"
        r"print(r'^-\d+$|^-\d*\.\d+$' in compiled)"
    )
    assert out.strip() == "False"


def test_a_child_imports_the_dmnll_under_test(monkeypatch, tmp_path):
    # a PYTHONPATH of the caller's own, here one with no dmnll, does not hide it
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    out = run_fresh("import dmnll\nprint(dmnll.__file__)")
    assert out.strip() == dmnll.__file__


def test_tests_import_the_dmnll_named_on_pythonpath():
    # the checkout's src comes after PYTHONPATH, so pointing PYTHONPATH at
    # another copy of the package tests that copy
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    init = os.path.join(first, "dmnll", "__init__.py")
    if not first or not os.path.isfile(init):
        pytest.skip("the first PYTHONPATH entry holds no dmnll")
    assert os.path.samefile(dmnll.__file__, init)
