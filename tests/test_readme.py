"""The README's examples, run as written: every `spinpath ...` line and the Python quick start."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from spinpath.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMANDS = [line for line in README.splitlines() if line.startswith("spinpath ")]


def test_readme_lists_every_command():
    assert [shlex.split(line)[1] for line in COMMANDS] == [
        "evolve", "sweep", "ensemble", "kraus-compare", "tomography", "calibrate"
    ]


@pytest.mark.parametrize("command", COMMANDS, ids=[shlex.split(line)[1] for line in COMMANDS])
def test_readme_command_exits_0_with_canonical_output(command, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "sweep":
        assert out == ""
        lines = (tmp_path / "curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lambda_t,mixedness,concurrence"
        assert len(lines) == 1 + 141
    else:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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
