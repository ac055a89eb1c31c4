"""README's recipe-key table and command lines against the program."""

import re
import shlex
from pathlib import Path

import pytest

from rmux import experiments
from rmux.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text()

# `key` (default).
_KEY = re.compile(r"`(\w+)` \(([^)]*)\)")


def _key_table() -> dict:
    """{recipe: [(key, default text)]} of README's key table."""
    start = README.index("| recipe            | keys (default)")
    rows = {}
    for line in README[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        label, keys = (cell.strip() for cell in line.strip("|").split("|"))
        for recipe in re.findall(r"`(\w+)`", label):
            rows[recipe] = _KEY.findall(keys)
    return rows


def test_readme_key_table_lists_each_recipes_keys_and_defaults():
    rows = _key_table()
    assert sorted(rows) == sorted(experiments.PARAMETERS)
    for recipe, table in experiments.PARAMETERS.items():
        assert sorted(name for name, _text in rows[recipe]) == sorted(table), (
            recipe)
        for name, text in rows[recipe]:
            default = table[name]
            parsed = experiments.parse_params({name: default},
                                              {name: text})[0][name]
            assert parsed == default, (recipe, name, text)


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("rmux ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
