"""Every mutant of ``tests/mutants.py`` still applies.

The sweep applies a mutant only when its snippet occurs exactly once in its
file, and reports it stale otherwise, after minutes of runs. This test
reads the same files and fails at once."""

import os

import mutants


def test_each_mutant_snippet_occurs_once_in_its_file():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    stale = []
    for m in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, m.path), encoding="utf-8") as fh:
            if fh.read().count(m.old) != 1:
                stale.append(m.name)
    assert not stale, f"snippets not found once: {stale}"
