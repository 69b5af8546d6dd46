"""The table of tools/mutants.py against the source it edits; no mutant runs."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, path, snippet, replacement, tests", mutants.MUTANTS,
                         ids=[row[0] for row in mutants.MUTANTS])
def test_row_matches_the_source(name, path, snippet, replacement, tests):
    text = (ROOT / "src" / "kfour" / path).read_text(encoding="utf-8")
    assert text.count(snippet) == 1 and snippet != replacement
    assert tests
    for node in tests:
        # each part of the node ID names a class or function in its test file
        file, *parts = node.split("::")
        source = (ROOT / file).read_text(encoding="utf-8")
        for part in parts:
            assert re.search(rf"^\s*(class|def) {part}\b", source, re.M), node


def test_names_are_unique():
    names = [row[0] for row in mutants.MUTANTS]
    assert len(names) == len(set(names))
