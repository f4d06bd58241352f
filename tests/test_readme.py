"""The README's Python example runs as written, and its config table lists
every key that the config declares."""

import re
from pathlib import Path

from conftest import config_key_paths
from homfem.cli import ProblemConfig

README = Path(__file__).parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    status, _, all_same = capsys.readouterr().out.split()
    assert status == "converged" and all_same == "True"


def test_config_table_lists_every_key():
    section = README.read_text().split("## Problem configs")[1]
    section = section.split("\n## ")[0]
    rows = re.findall(r"^\| `([\w.]+)`", section, re.M)
    assert rows == list(config_key_paths(ProblemConfig()))
