"""Committed golden outputs: each command's whole stdout, byte for byte.

``golden/tables`` holds count tables drawn once with
``dmnll.sampling.sample_dmn_dataset`` and then frozen; the test never draws
them (``golden/README.md`` says how each was drawn).  ``golden/expected.json``
maps each command to its stdout; a ``.csv`` argument names a file in
``golden/tables``.

Run this module as a script to rewrite every command's expected stdout from
the current source, after an output changes on purpose.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from dmnll.cli import main
from dmnll.core import canonical_json

GOLDEN = Path(__file__).parent / "golden"


def run(command: str) -> str:
    """The stdout of ``dmnll`` with the arguments in ``command``, run in
    process.  A bench document drops its ``wall_time_ns`` fields (a JSON
    document) or column (a CSV one), the one thing in it that varies from
    run to run."""
    argv = [str(GOLDEN / "tables" / a) if a.endswith(".csv") else a for a in command.split()]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, command
    text = out.getvalue()
    if argv[0] != "bench":
        return text
    if text.startswith("{"):
        doc = json.loads(text)
        for record in doc["records"]:
            del record["wall_time_ns"]
        return canonical_json(doc)
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index("wall_time_ns")
    return "".join(",".join(row[:drop] + row[drop + 1 :]) + "\n" for row in rows)


def test_commands_reproduce_their_golden_stdout():
    expected = json.loads((GOLDEN / "expected.json").read_text())
    assert [command for command, out in expected.items() if run(command) != out] == []


def dispatch_targets() -> list[str]:
    """The targets numpy dispatches to on this CPU: those beyond its
    baseline that it has kernels for and the CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_fit_outputs_do_not_depend_on_numpy_simd_kernels():
    """``np.log``'s float64 results change with the kernels numpy dispatches
    (under AVX-512, about 1 value in 20 000 differs from ``math.log``), and
    the fit reads ``np.log``.  Every ``fit`` command in the corpus must
    write its golden stdout with each of those targets disabled, in a child
    that sets ``NPY_DISABLE_CPU_FEATURES``."""
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches nothing beyond its baseline on this CPU")
    expected = json.loads((GOLDEN / "expected.json").read_text())
    fits = {command: out for command, out in expected.items() if command.startswith("fit ")}
    env = child_env()
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    code = (
        f"import json, sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_golden import dispatch_targets, run\n"
        "print(json.dumps([dispatch_targets(), {c: run(c) for c in json.load(sys.stdin)}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(list(fits)),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    left_on, outputs = json.loads(proc.stdout)
    assert left_on == []
    assert [command for command, out in fits.items() if outputs[command] != out] == []


if __name__ == "__main__":
    path = GOLDEN / "expected.json"
    commands = json.loads(path.read_text())
    path.write_text(json.dumps({command: run(command) for command in commands}, indent=1) + "\n")
