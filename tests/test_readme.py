"""README's recipe-key table and command lines against the program."""

import re
import shlex
from pathlib import Path

import pytest

from rmux import experiments
from rmux.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text()

# `key` (default), or a bare `key` whose default is a type (no value).
_KEY = re.compile(r"`(\w+)`(?: \(([^)]*)\))?")


def _key_table() -> dict:
    """{recipe: [(key, default text, or "" for none)]} of README's key
    table, where "semantics keys" stands for that row's entries."""
    start = README.index("| recipe            | keys (default)")
    rows = {}
    for line in README[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        label, keys = (cell.strip() for cell in line.strip("|").split("|"))
        for recipe in re.findall(r"`(\w+)`", label) or [label]:
            rows[recipe] = (keys, _KEY.findall(keys))
    semantics = rows.pop("semantics keys")[1]
    return {recipe: found + (semantics if keys.endswith("semantics keys")
                             else [])
            for recipe, (keys, found) in rows.items()}


def test_readme_key_table_lists_each_recipes_keys_and_defaults():
    rows = _key_table()
    assert sorted(rows) == sorted(experiments.PARAMETERS)
    for recipe, table in experiments.PARAMETERS.items():
        assert sorted(name for name, _text in rows[recipe]) == sorted(table), (
            recipe)
        for name, text in rows[recipe]:
            default = table[name]
            if isinstance(default, type):
                assert text == "", (recipe, name)
            else:
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
