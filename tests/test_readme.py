"""The README's examples run as written: its Python blocks, and its command lines through ``main``."""

import re
import shlex
from pathlib import Path

from mfcir.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language, text=README):
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def _command_lines():
    """Each ``mfcir`` line of the "Command line" section's first sh block, continuations joined."""
    section = README.split("\n## Command line\n", 1)[1]
    block = _blocks("sh", section)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.startswith("mfcir ")]


def test_python_blocks_run_in_one_namespace():
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["traj"].r_values.min() > 0.0
    assert namespace["report"].n_paths == 50


def test_command_lines_exit_zero(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files into the working directory
    commands = _command_lines()
    assert [argv[1] for argv in commands] == ["simulate", "convergence", "positivity", "bracket", "mcstats"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
