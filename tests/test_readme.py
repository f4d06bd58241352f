"""The README's Python example runs as written, and its config tables list
every key that the config declares."""

import itertools
import re
import typing
from dataclasses import MISSING, fields, is_dataclass
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


def _table(header):
    """The cells of the rows of the README table under ``header``, each the
    first backticked name of each comma-separated item."""
    section = README.read_text().split("## Problem configs")[1]
    lines = section.split(header)[1].splitlines()[2:]
    return [[[m.group(1) for item in cell.split(",")
              if (m := re.search(r"`([\w.\[\]]+)`", item))]
             for cell in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda l: l.startswith("|"),
                                            lines)]


def test_config_table_lists_every_key():
    # the keys of the tensor spec are in the spec table
    assert [row[0][0] for row in _table("| key |")] == [
        key for key in config_key_paths(ProblemConfig())
        if not key.startswith("tensor.")]


def _dataclasses(kind):
    """The dataclasses in a field type and in their fields' types: itself,
    a union's members, a list's entries."""
    if is_dataclass(kind):
        yield kind
        for hint in typing.get_type_hints(kind).values():
            yield from _dataclasses(hint)
    for arg in typing.get_args(kind):
        yield from _dataclasses(arg)


def test_spec_table_lists_every_kind_and_its_keys():
    hints = typing.get_type_hints(ProblemConfig)
    sections = {ProblemConfig} | {k for k in hints.values() if is_dataclass(k)}
    specs = set(_dataclasses(ProblemConfig)) - sections

    def keys(spec, required):
        return frozenset(f.name for f in fields(spec) if f.name != "kind" and
                         (f.default is f.default_factory is MISSING)
                         == required)

    expected = {(frozenset(typing.get_args(typing.get_type_hints(spec).get(
        "kind"))), keys(spec, True), keys(spec, False)) for spec in specs}
    assert len(expected) == len(specs) == 10
    assert {tuple(map(frozenset, row[1:])) for row in _table("| spec |")} == (
        expected)
