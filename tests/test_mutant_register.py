"""The mutant register (``tools/mutants.py``) still points at live text and live tests.

Running the register takes minutes, so the suite only checks that every
mutant's old text occurs exactly once in its file and that every test it
names is defined; ``python3 tools/mutants.py`` applies the mutants.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once_and_its_tests_exist(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.old != mutant.new and mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert "\ndef %s(" % name in (ROOT / path).read_text(), test_id

