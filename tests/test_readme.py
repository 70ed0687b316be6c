"""The README's examples run as written."""

import argparse
import re
from pathlib import Path

import pytest

from pssurf.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_code(title):
    """The first python block of the README section with this title."""
    text = README.read_text()
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the block writes kink.obj
    scope = {}
    exec(compile(_section_code("Library use"), "README.md", "exec"), scope)
    assert scope["diag"].n_valid > 0
    assert (tmp_path / "kink.obj").exists()
    assert (tmp_path / "kink.diag.txt").exists()


def _flag_table():
    """Flags per row of the README's table of subcommand flags."""
    rows = re.findall(r"^\| (all three|`\w+`) \| (.*) \|$", README.read_text(),
                      re.M)
    return {name.strip("`"): set(re.findall(r"`(--[\w-]+)`", flags))
            for name, flags in rows}


@pytest.mark.parametrize("command", ["verify", "obstruct", "immerse"])
def test_flag_table_matches_the_parser(command):
    table = _flag_table()
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert table["all three"] | table[command] == got - {"-h", "--help"}
