"""The mutation gate's table is current: every mutant of ``tools/mutants.py``
applies to today's source.  Running the mutants is a CI job of its own."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=[row[0] for row in mutants.MUTANTS])
def test_old_text_occurs_exactly_once(row):
    """A refactor that moves mutated code shows up here as a stale row,
    not as a mutant that no longer changes anything."""
    assert mutants.stale(str(ROOT), row) is None
    _, _, old, new, tests = row
    assert new != old and tests


def test_stale_row_refused(tmp_path):
    """A row whose old text occurs twice, or not at all, is refused by name."""
    (tmp_path / "a.py").write_text("x = 1\nx = 1\n")
    assert mutants.stale(str(tmp_path), ("twice", "a.py", "x = 1", "x = 2", ("t",))) == (
        "twice: its old text occurs 2 times in a.py")
    assert mutants.stale(str(tmp_path), ("none", "a.py", "y", "z", ("t",))) == (
        "none: its old text occurs 0 times in a.py")


def test_ids_unique():
    ids = [row[0] for row in mutants.MUTANTS]
    assert len(ids) == len(set(ids))
