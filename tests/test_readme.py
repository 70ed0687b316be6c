"""The README's examples run as written."""

import re
from pathlib import Path

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
