"""Golden text of `pssurf obstruct` and `pssurf verify` for every family.

The stdout of both commands, with default parameters, is compared with
tests/golden_cli.txt.  Only residual magnitudes are masked (`max rel`,
`zero to ... on`, `relative residual`), so the file pins every printed
expression, label, verdict and status word without depending on the last
digits of libm.  Regenerate it, after checking that a change of output is
intended, with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt
"""

import contextlib
import io
import re
from pathlib import Path

from pssurf.catalog import FamilyId
from pssurf.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

_MAGNITUDES = (
    (re.compile(r"max rel \S+?(?=[),]|$)"), "max rel <r>"),
    (re.compile(r"zero to \S+ on"), "zero to <r> on"),
    (re.compile(r"relative residual \S+?(?=[),]|$)"), "relative residual <r>"),
)


def _mask(text):
    for pattern, repl in _MAGNITUDES:
        text = pattern.sub(repl, text)
    return text


def golden_text():
    blocks = []
    for family in FamilyId:
        for command in ("obstruct", "verify"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, "--family", family.value])
            blocks.append(f"$ pssurf {command} --family {family.value}\n"
                          f"{_mask(out.getvalue())}exit {code}\n")
    return "\n".join(blocks)


def test_cli_text_matches_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    print(golden_text(), end="")
