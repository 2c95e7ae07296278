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
from pathlib import Path

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


if __name__ == "__main__":
    path = GOLDEN / "expected.json"
    commands = json.loads(path.read_text())
    path.write_text(json.dumps({command: run(command) for command in commands}, indent=1) + "\n")
