import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_names_text_that_occurs_once_and_test_files_that_exist(mutant):
    # a refactor that moves or rewrites the mutated text must update the entry
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)
