"""Every Python file of the repository parses at the requires-python floor,
so syntax newer than the floor fails here, on any interpreter."""

import ast
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _floor() -> tuple[int, int]:
    text = (_ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                    "type X = int\n"])
def test_the_floor_parse_rejects_newer_syntax(source):
    # 3.11's except* and 3.12's type statement, at a 3.10 floor
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())


def test_every_source_file_parses_at_the_floor():
    paths = sorted(path for folder in ("src", "tools", "tests", "perfbench")
                   for path in (_ROOT / folder).rglob("*.py"))
    assert {path.relative_to(_ROOT).parts[0] for path in paths} == {
        "src", "tools", "tests", "perfbench"}
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=_floor())
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(_ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
