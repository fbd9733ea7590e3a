"""Every Python file of the project parses under the Python 3.10 grammar,
the oldest that `pyproject.toml` accepts.

This checks grammar only: `ast.parse(..., feature_version=(3, 10))` refuses
syntax that 3.10 lacks, such as `except*` or a `type` alias, but it does not
check that the standard-library names and APIs a file uses exist in 3.10.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "scripts", "perfbench", "mutants")


def test_every_python_file_parses_under_the_3_10_grammar():
    files = sorted(path for d in DIRS for path in (ROOT / d).rglob("*.py"))
    assert len(files) > 40
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
