"""The mutant table (tests/mutants.py) cannot go stale silently: every
snippet occurs exactly once in its file, and every test named to kill a
mutant exists."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_mutant_snippet_occurs_once_and_its_killers_exist(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1
    assert bool(mutant.killers) != bool(mutant.survives)
    for node in mutant.killers:
        path, name = node.split("::")
        name = re.sub(r"\[.*\]$", "", name)
        assert f"def {name}(" in (ROOT / path).read_text(), node
