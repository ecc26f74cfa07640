"""The mutation corpus stays applicable: each old text occurs exactly once."""

from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once_under_src(mutant):
    texts = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    assert sum(text.count(mutant.old) for text in texts) == 1
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / path).is_file() for path in mutant.kills)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
