"""The README's Python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    status, _, all_same = capsys.readouterr().out.split()
    assert status == "converged" and all_same == "True"
