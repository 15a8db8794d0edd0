"""The committed mutants in ``tests/mutants.py`` still apply: each one's
text occurs exactly once in its file, so a change to that code must update
its mutant. Running them is a CI step of its own."""

import mutants


def test_every_mutant_text_occurs_exactly_once():
    assert mutants.unapplicable(mutants.ROOT) == []
