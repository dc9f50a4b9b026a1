"""The README's examples, run as written: every `spinpath ...` line and the Python quick start.

Each command's stdout, and the CSV its sweep writes, must also match the
sha256 recorded under "readme" in tests/ledger.json, which
``python tests/test_ledger.py --write`` regenerates; the comparison is
skipped, with the reason, on a host whose NumPy or SIMD loops differ.
"""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spinpath.cli import main
from test_ledger import LEDGER, host_mismatch

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMANDS = [line for line in README.splitlines() if line.startswith("spinpath ")]


def test_readme_lists_every_command():
    assert [shlex.split(line)[1] for line in COMMANDS] == [
        "evolve", "sweep", "ensemble", "kraus-compare", "tomography", "calibrate"
    ]


def outputs(command: str) -> dict:
    """Run one README command through ``main`` in the working directory: its
    stdout under its own line and, for the sweep, the CSV it writes under
    the file's name, as bytes."""
    argv = shlex.split(command)[1:]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, command
    produced = {command: out.getvalue().encode()}
    if argv[0] == "sweep":
        produced["curves.csv"] = Path("curves.csv").read_bytes()
    return produced


def digests(produced: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in produced.items()}


@pytest.mark.parametrize("command", COMMANDS, ids=[shlex.split(line)[1] for line in COMMANDS])
def test_readme_command_exits_0_with_canonical_output(command, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    produced = outputs(command)
    out = produced[command].decode()
    if "curves.csv" in produced:
        assert out == ""
        lines = produced["curves.csv"].decode().splitlines()
        assert lines[0] == "lambda_t,mixedness,concurrence"
        assert len(lines) == 1 + 141
    else:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    ledger = json.loads(LEDGER.read_text())
    reason = host_mismatch(ledger)
    if reason:
        pytest.skip(f"README outputs not compared: {reason}")
    assert digests(produced) == {name: ledger["readme"].get(name) for name in produced}


def test_readme_python_quick_start_prints_its_comments():
    quick_start = README.split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-"],
        input=quick_start,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0.0", "0.33333333333333326"]
