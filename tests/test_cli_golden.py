"""Byte-for-byte CLI outputs against a checked-in golden file.

Each command runs through ``cli.main`` in process, and its stdout, stderr
and exit code must equal the recorded ones.  The commands are those of the
README, in text and ``--json`` form, plus a few that reach other code
paths.  After a deliberate change of output, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from fermat_homology.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"

_README = [
    "bsigma --p 3 --c0 1 --c1 0",
    "bsigma --verify-all",
    "psi --p 3 --coords 1,0",
    "homology --n 4 --which affine",
    "cohomology --module wedge",
    "cohomology --validate-paper",
    "cyclotomic --p 11",
    "reproduce-paper",
]
_EXTRA = [
    "cohomology --module lambda1",
    "cohomology --module h1u",
    "cohomology --module h1x",
    "homology --n 5 --which projective",
    "cyclotomic --p 29",
]
COMMANDS = [form for cmd in _README + _EXTRA for form in (cmd, cmd + " --json")]


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    assert run(command) == _golden()[command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {command: run(command) for command in COMMANDS}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} commands to {GOLDEN}")
