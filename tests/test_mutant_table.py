import pathlib

import pytest

import csense
from mutants import MUTANTS

PACKAGE = pathlib.Path(csense.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_replaces_a_text_that_occurs_once(mutant):
    assert (PACKAGE / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.outcome in ("killed", "survived")
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert path.startswith("tests/") and (TESTS / path[len("tests/") :]).is_file(), test
        assert not name or f"def {name}(" in (TESTS / path[len("tests/") :]).read_text(encoding="utf-8"), test


def test_the_table_holds_the_recorded_mutants():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS) == 16
    assert sum(mutant.outcome == "killed" for mutant in MUTANTS) == 9
