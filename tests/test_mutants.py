"""The replayable mutants of ``tests/mutants.py`` still apply."""

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    # exactly once under src/, in the mutant's own file, and its tests exist
    counts = {path: path.read_text().count(mutant.old) for path in SRC.rglob("*.py")}
    assert sum(counts.values()) == 1 and counts[SRC / mutant.file] == 1, mutant.name
    assert mutant.new != mutant.old
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
